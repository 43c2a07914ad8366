"""Problem instances: metric spaces, points, demands, and unit-disk graphs.

Terminals are addressed by their index in the instance (0..n-1).  Steiner
points added by a solver get node ids n, n+1, ... in a ``SolutionGraph``.
All types are immutable after construction and safe to share.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple, Union

from .errors import RelaysynthError

EPS_GEO = 1e-9

# Packing parameter for Euclidean spaces where the literature pins a value.
DELTA_DEFAULTS = {2: 5, 3: 11}

Number = Union[int, float, Fraction]


class InstanceError(RelaysynthError, ValueError):
    """Raised for malformed instances, metrics, or points."""

    exit_code = 1


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    try:
        if isinstance(value, float):
            return Fraction(str(value))
        if isinstance(value, str):
            return Fraction(value)
    except (ValueError, ZeroDivisionError):
        pass  # NaN, infinities and malformed strings
    raise InstanceError(f"cannot interpret {value!r} as a rational distance")


@dataclass(frozen=True)
class MetricSpace:
    """Either Euclidean R^dim or an explicit finite metric with exact entries."""

    kind: str  # "euclidean" | "finite"
    delta: int
    dim: int = 0
    matrix: Tuple[Tuple[Fraction, ...], ...] = ()

    @staticmethod
    def euclidean(dim: int, delta: Optional[int] = None) -> "MetricSpace":
        if dim < 1:
            raise InstanceError("euclidean dimension must be >= 1")
        if delta is None:
            delta = DELTA_DEFAULTS.get(dim)
            if delta is None:
                raise InstanceError("delta required for euclidean dimension %d" % dim)
        if delta < 1:
            raise InstanceError("delta must be a positive integer")
        return MetricSpace(kind="euclidean", delta=delta, dim=dim)

    @staticmethod
    def finite(matrix: Sequence[Sequence[Number]], delta: int) -> "MetricSpace":
        if delta is None:
            raise InstanceError("delta required for finite metrics")
        if delta < 1:
            raise InstanceError("delta must be a positive integer")
        rows = tuple(tuple(_as_fraction(v) for v in row) for row in matrix)
        n = len(rows)
        if n == 0 or any(len(row) != n for row in rows):
            raise InstanceError("finite metric matrix must be square and nonempty")
        for i in range(n):
            if rows[i][i] != 0:
                raise InstanceError("finite metric matrix must have a zero diagonal")
            for j in range(n):
                if rows[i][j] < 0:
                    raise InstanceError("finite metric distances must be nonnegative")
                if rows[i][j] != rows[j][i]:
                    raise InstanceError("asymmetric matrix")
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if rows[i][j] > rows[i][k] + rows[k][j]:
                        raise InstanceError(
                            "triangle inequality violated at (%d,%d,%d)" % (i, j, k)
                        )
        return MetricSpace(kind="finite", delta=delta, matrix=rows)

    @property
    def size(self) -> int:
        return len(self.matrix)


@dataclass(frozen=True)
class Point:
    """A location: Euclidean coordinates, a finite-metric node, or an abstract bead.

    Abstract beads (both fields None) arise when realizing bead chains in a
    finite metric, where interior points have no host location; their
    adjacencies are supplied explicitly by the realization.
    """

    coords: Optional[Tuple[float, ...]] = None
    index: Optional[int] = None

    @staticmethod
    def at(*coords: float) -> "Point":
        return Point(coords=tuple(float(c) for c in coords))

    @staticmethod
    def node(index: int) -> "Point":
        return Point(index=int(index))

    @staticmethod
    def bead() -> "Point":
        return Point()

    @property
    def is_abstract(self) -> bool:
        return self.coords is None and self.index is None


def validate_point(point: Point, metric: MetricSpace) -> None:
    if point.is_abstract:
        return
    if metric.kind == "euclidean":
        if point.coords is None:
            raise InstanceError("euclidean metric requires coordinate points")
        if len(point.coords) != metric.dim:
            raise InstanceError(
                "dimension mismatch: point has %d coords, metric dim is %d"
                % (len(point.coords), metric.dim)
            )
    else:
        if point.index is None:
            raise InstanceError("finite metric requires node-index points")
        if not (0 <= point.index < metric.size):
            raise InstanceError("index out of bounds: %d" % point.index)


def pairwise_distance(u: Point, v: Point, metric: MetricSpace) -> Number:
    """Distance between two concrete points; exact Fraction for finite metrics."""
    if u.is_abstract or v.is_abstract:
        raise InstanceError("abstract bead points carry no distance")
    validate_point(u, metric)
    validate_point(v, metric)
    if metric.kind == "euclidean":
        return math.dist(u.coords, v.coords)
    return metric.matrix[u.index][v.index]


def within_unit(d: Number) -> bool:
    if isinstance(d, Fraction):
        return d <= 1 + Fraction(EPS_GEO)
    return d <= 1.0 + EPS_GEO


def bead_count(d: Number) -> int:
    """Interior points needed to bridge distance d with unit hops: max(ceil(d)-1, 0).

    The eps guard keeps ceilings stable at exact integer distances.
    """
    if isinstance(d, Fraction):
        return max(math.ceil(d - Fraction(EPS_GEO)) - 1, 0)
    return max(math.ceil(d - EPS_GEO) - 1, 0)


def _canon_pair(i: int, j: int) -> Tuple[int, int]:
    return (i, j) if i < j else (j, i)


@dataclass(frozen=True)
class Instance:
    """Terminals, unstable subset B, and {0,1,2} connectivity demands."""

    terminals: Tuple[Point, ...]
    unstable: frozenset
    demands: Mapping[Tuple[int, int], int]
    metric: MetricSpace
    distance_cap: Optional[float] = None
    # Bead count of every terminal pair i < j, in lexicographic pair order.
    bead_costs: Dict[Tuple[int, int], int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.terminals)
        if n < 2:
            raise InstanceError("an instance needs at least 2 terminals")
        for p in self.terminals:
            if p.is_abstract:
                raise InstanceError("terminals must be concrete points")
            validate_point(p, self.metric)
            # A NaN distance would pass the distance cap below unnoticed.
            if p.coords is not None and not all(map(math.isfinite, p.coords)):
                raise InstanceError("terminal coordinates must be finite: %r" % (p.coords,))
        for b in self.unstable:
            if not (0 <= b < n):
                raise InstanceError("unstable id %r is not a terminal" % (b,))
        canon = {}
        for (i, j), r in self.demands.items():
            if i == j:
                raise InstanceError("self-demand at terminal %d" % i)
            if not (0 <= i < n and 0 <= j < n):
                raise InstanceError("demand to unknown id (%r,%r)" % (i, j))
            if r not in (1, 2):
                raise InstanceError("demand values must be in {1,2}, got %r" % (r,))
            key = _canon_pair(i, j)
            if canon.get(key, r) != r:
                raise InstanceError("conflicting demands for pair %r" % (key,))
            canon[key] = r
        object.__setattr__(self, "demands", canon)
        cap = self.distance_cap if self.distance_cap is not None else 10.0 * n
        object.__setattr__(self, "distance_cap", float(cap))
        dist = {
            (i, j): self.terminal_distance(i, j) for i in range(n) for j in range(i + 1, n)
        }
        worst = max(map(float, dist.values()))
        if worst > cap:
            raise InstanceError("max terminal distance %.6g exceeds cap %.1f" % (worst, cap))
        object.__setattr__(self, "bead_costs", {p: bead_count(d) for p, d in dist.items()})

    @property
    def n(self) -> int:
        return len(self.terminals)

    @property
    def max_demand(self) -> int:
        return max(self.demands.values(), default=0)

    def demand_pairs(self) -> Tuple[Tuple[int, int, int], ...]:
        return tuple(sorted((i, j, r) for (i, j), r in self.demands.items()))

    def terminal_distance(self, i: int, j: int) -> Number:
        return pairwise_distance(self.terminals[i], self.terminals[j], self.metric)


def make_instance(
    terminals: Sequence[Point],
    demands: Mapping[Tuple[int, int], int],
    metric: MetricSpace,
    unstable: Iterable[int] = (),
    distance_cap: Optional[float] = None,
) -> Instance:
    return Instance(
        terminals=tuple(terminals),
        unstable=frozenset(unstable),
        demands=dict(demands),
        metric=metric,
        distance_cap=distance_cap,
    )


def all_pairs_demands(n: int, r: int) -> dict:
    if r == 0:
        return {}
    return {(i, j): r for i in range(n) for j in range(i + 1, n)}


def build_unit_disk_graph(points: Sequence[Point], metric: MetricSpace):
    """Edge map {(i,j): distance} over all point pairs at distance <= 1+eps.

    Coincident points get a zero-length edge; self loops are never created.
    """
    for p in points:
        validate_point(p, metric)
    edges = {}
    for i in range(len(points)):
        if points[i].is_abstract:
            continue
        for j in range(i + 1, len(points)):
            if points[j].is_abstract:
                continue
            d = pairwise_distance(points[i], points[j], metric)
            if within_unit(d):
                edges[(i, j)] = d
    return edges


class SolutionGraph:
    """A concrete placement plus an explicit edge set over terminals and Steiner points.

    Node ids: 0..n-1 are the instance terminals, n.. are the Steiner points in
    order.  Freshly built graphs carry the full unit-disk edge set; pruning and
    swaps produce graphs whose edges are a subset of it.  Q = B union S.
    """

    def __init__(self, instance: Instance, steiner, edges):
        self.instance = instance
        self.steiner: Tuple[Point, ...] = tuple(steiner)
        self.edges = {_canon_pair(a, b): l for (a, b), l in edges.items()}
        n = self.n_nodes
        for a, b in self.edges:
            if not (0 <= a < n and 0 <= b < n) or a == b:
                raise InstanceError("edge (%d,%d) out of range" % (a, b))

    @classmethod
    def build(cls, instance: Instance, steiner=()):
        points = list(instance.terminals) + list(steiner)
        if any(p.is_abstract for p in steiner):
            raise InstanceError(
                "abstract beads need explicit adjacencies; use the bead realizer"
            )
        edges = build_unit_disk_graph(points, instance.metric)
        return cls(instance, steiner, edges)

    @property
    def abstract(self) -> bool:
        """Whether some relay is a bead with no host location."""
        return any(p.is_abstract for p in self.steiner)

    @property
    def n_terminals(self) -> int:
        return self.instance.n

    @property
    def n_nodes(self) -> int:
        return self.instance.n + len(self.steiner)

    def steiner_ids(self):
        return range(self.n_terminals, self.n_nodes)

    def point_of(self, node: int) -> Point:
        if node < self.n_terminals:
            return self.instance.terminals[node]
        return self.steiner[node - self.n_terminals]

    def q_nodes(self) -> frozenset:
        return frozenset(self.instance.unstable) | frozenset(self.steiner_ids())

    def degree(self, node: int) -> int:
        return sum(1 for e in self.edges if node in e)

    def total_length(self) -> float:
        return float(sum(float(l) for l in self.edges.values()))

    def without_edge(self, edge) -> "SolutionGraph":
        edge = _canon_pair(*edge)
        edges = {e: l for e, l in self.edges.items() if e != edge}
        return SolutionGraph(self.instance, self.steiner, edges)

    def without_steiner(self, node: int) -> "SolutionGraph":
        """Drop one Steiner node (and its edges); later Steiner ids shift down."""
        nt = self.n_terminals
        if node < nt:
            raise InstanceError("cannot remove a terminal")
        keep = [i for i in range(len(self.steiner)) if nt + i != node]
        remap = {nt + old: nt + new for new, old in enumerate(keep)}
        remap.update({t: t for t in range(nt)})
        edges = {}
        for (a, b), l in self.edges.items():
            if a == node or b == node:
                continue
            edges[_canon_pair(remap[a], remap[b])] = l
        return SolutionGraph(self.instance, [self.steiner[i] for i in keep], edges)

    def with_edge(self, a: int, b: int, length) -> "SolutionGraph":
        edges = dict(self.edges)
        edges[_canon_pair(a, b)] = length
        return SolutionGraph(self.instance, self.steiner, edges)


# ---------------------------------------------------------------------------
# JSON round trip


def _metric_to_json(metric: MetricSpace):
    if metric.kind == "euclidean":
        out = {"type": "euclidean", "dim": metric.dim}
        if DELTA_DEFAULTS.get(metric.dim) != metric.delta:
            out["delta"] = metric.delta
        return out
    matrix = []
    for row in metric.matrix:
        matrix.append(
            [int(v) if v.denominator == 1 else str(v) for v in row]
        )
    return {"type": "finite", "matrix": matrix, "delta": metric.delta}


def serialize_instance(instance: Instance) -> str:
    if instance.metric.kind == "euclidean":
        terminals = [list(p.coords) for p in instance.terminals]
    else:
        terminals = [p.index for p in instance.terminals]
    payload = {
        "metric": _metric_to_json(instance.metric),
        "terminals": terminals,
        "unstable": sorted(instance.unstable),
        "demands": [[i, j, r] for (i, j, r) in instance.demand_pairs()],
        "default_demand": 0,
    }
    return json.dumps(payload, sort_keys=True)


def _as_int(value, what: str) -> int:
    """A JSON integer, or a float with an integral value; nothing is truncated."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise InstanceError("%s must be an integer, got %r" % (what, value))


def _as_list(value, what: str) -> list:
    if not isinstance(value, list):
        raise InstanceError("%s must be a list, got %r" % (what, value))
    return value


def _as_point(entry) -> Point:
    coords = _as_list(entry, "a euclidean terminal")
    try:
        if all(isinstance(c, (int, float)) and not isinstance(c, bool) for c in coords):
            return Point.at(*coords)
    except OverflowError:
        pass  # an integer too large for a float
    raise InstanceError("terminal coordinates must be finite numbers, got %r" % (entry,))


def parse_instance(text: str) -> Instance:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceError("malformed JSON: %s" % exc) from exc
    if not isinstance(payload, dict) or "metric" not in payload:
        raise InstanceError("instance JSON must be an object with a 'metric' field")
    mspec = payload["metric"]
    if not isinstance(mspec, dict):
        raise InstanceError("'metric' must be an object, got %r" % (mspec,))
    mtype = mspec.get("type")
    delta = mspec.get("delta")
    if delta is not None:
        delta = _as_int(delta, "delta")
    if mtype == "euclidean":
        metric = MetricSpace.euclidean(_as_int(mspec.get("dim"), "dim"), delta)
    elif mtype == "finite":
        matrix = _as_list(mspec.get("matrix"), "'matrix'")
        metric = MetricSpace.finite([_as_list(row, "a matrix row") for row in matrix], delta)
    else:
        raise InstanceError("unknown metric type %r" % (mtype,))

    raw_terminals = payload.get("terminals")
    if metric.kind == "euclidean":
        if not raw_terminals:
            raise InstanceError("euclidean instances must list terminal coordinates")
        terminals = [_as_point(entry) for entry in _as_list(raw_terminals, "'terminals'")]
    elif raw_terminals is None:
        terminals = [Point.node(i) for i in range(metric.size)]
    else:
        terminals = [
            Point.node(_as_int(i, "a finite terminal"))
            for i in _as_list(raw_terminals, "'terminals'")
        ]

    n = len(terminals)
    demands = {}
    default = _as_int(payload.get("default_demand", 0), "default_demand")
    if default not in (0, 1, 2):
        raise InstanceError("default_demand must be 0, 1 or 2")
    if default > 0:
        for i in range(n):
            for j in range(i + 1, n):
                demands[(i, j)] = default
    for entry in _as_list(payload.get("demands", []), "'demands'"):
        if not isinstance(entry, list) or len(entry) != 3:
            raise InstanceError("a demand must be a list [i, j, r], got %r" % (entry,))
        i, j, r = (_as_int(v, "demand entry") for v in entry)
        if not (0 <= i < n and 0 <= j < n):
            raise InstanceError("demand to unknown id (%d,%d)" % (i, j))
        key = _canon_pair(i, j)
        if r == 0:
            demands.pop(key, None)
        else:
            demands[key] = r
    unstable = _as_list(payload.get("unstable", []), "'unstable'")
    return make_instance(
        terminals,
        demands,
        metric,
        unstable=[_as_int(b, "unstable id") for b in unstable],
    )
