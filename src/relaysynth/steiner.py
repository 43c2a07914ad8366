"""Tree solvers for all-pairs demands: MST baseline, small-set oracle, hypergraph.

The small-set oracle searches a shared candidate universe (terminal positions,
unit-circle intersections, bead points) by iterative deepening on the number
of relay points.  It is exact over that universe; the universe itself is
heuristically complete, so its costs are upper bounds, exact only where the
optimal relays are known to lie among the candidates.  The universe and the
search have constant bounds; ``SchemeConfig``'s k is the scheme's one setting.

The universe stores its unit-disk relation once, as one Python-int bitmask
row per point; a planar universe computes each row on its first read, so a
solve computes only the rows its search reads, and builds a ``Point`` only
for the points read, i.e. for witnesses.  The search has one mode:
connectivity-pruned sets, each generated once along its least valid order,
with no record of the sets seen.  It grows its touched points by OR-ing
rows, and each frame carries one touch mask per component of its targets
and choices, so a frame whose children are leaves decides all of them with
one AND and counts them with one popcount.  The brute-force optimum of a
whole instance is a test oracle (``tests/bruteforce.py``), not a solver.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

import numpy as np

from .beads import BeadEdge, realize
from .connectivity import (
    ConnectivityError,
    UnionFind,
    hyperedge_classes,
    verify_feasible,
)
from .errors import RelaysynthError
from .instances import (
    EPS_GEO,
    Instance,
    InstanceError,
    Point,
    SolutionGraph,
    build_unit_disk_graph,
    within_unit,
)

_MAX_STEINER = 12  # relay-count bound of the component oracle's deepening
_HYPERGRAPH_BUDGET = 2000  # subset count bound of build_component_hypergraph
_CANDIDATE_DEPTH = 2  # layers of unit-circle intersections in the universe
_MAX_CANDIDATES = 1500  # point count bound of the candidate universe
_STATE_CAP = 400_000  # states per size of the component oracle's search
_MAX_SUBSET = 12  # terminals per subset of the component oracle


class OracleBudgetError(RelaysynthError, RuntimeError):
    pass


@dataclass(frozen=True)
class SchemeConfig:
    """The spanning scheme's one setting: the component size cap k."""

    k: int = 5

    def __post_init__(self):
        if self.k < 2:
            raise InstanceError("component size cap k must be >= 2")


def require_all_pairs_unit_demands(instance: Instance) -> None:
    expected = instance.n * (instance.n - 1) // 2
    if len(instance.demands) != expected or any(
        r != 1 for r in instance.demands.values()
    ):
        raise InstanceError("solver requires demand 1 between every terminal pair")


# ---------------------------------------------------------------------------
# MST baseline


def mst_pairs(
    instance: Instance, terminals: Optional[Iterable[int]] = None
) -> List[Tuple[int, int, int]]:
    """Kruskal MST over bead costs of the terminals (default: all) as
    (cost, i, j); ties broken lexicographically."""
    keep = set(range(instance.n) if terminals is None else terminals)
    edges = sorted(
        (cost, i, j)
        for (i, j), cost in instance.bead_costs.items()
        if i in keep and j in keep
    )
    joined = UnionFind(keep)
    return [(cost, i, j) for cost, i, j in edges if joined.union(i, j)]


def mst_baseline(instance: Instance) -> SolutionGraph:
    """Realize the bead MST; a feasible all-pairs tree with |S| = sum of costs."""
    require_all_pairs_unit_demands(instance)
    selected = [BeadEdge(i, j, 0, cost) for cost, i, j in mst_pairs(instance)]
    placement = realize(instance, selected)
    bad = verify_feasible(instance, placement.solution)
    if bad:
        raise ConnectivityError("bead MST unexpectedly infeasible: %r" % (bad[0],))
    return placement.solution


# ---------------------------------------------------------------------------
# Candidate universe


_CHUNK = 256  # rows per block: dedup's float conversion, bead pairs


class _UnitDiskRows(Sequence):
    """The bitmask rows of a planar universe's unit-disk relation, each
    computed on its first read and kept for the universe's lifetime.

    Row i is one vectorized pass of point i against every point:
    (x_i - x_j)² + (y_i - y_j)², then ``sqrt``, then ``<= 1 + EPS_GEO``,
    with bit i cleared.
    """

    def __init__(self, coords: np.ndarray):
        self._x = np.ascontiguousarray(coords[:, 0])
        self._y = np.ascontiguousarray(coords[:, 1])
        self._rows: List[Optional[int]] = [None] * len(coords)

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, i: int) -> int:
        row = self._rows[i]
        if row is None:
            dist = (self._x[i] - self._x) ** 2
            dist += (self._y[i] - self._y) ** 2
            near = np.sqrt(dist, out=dist) <= 1.0 + EPS_GEO
            near[i] = False
            row = int.from_bytes(np.packbits(near, bitorder="little").tobytes(), "little")
            self._rows[i] = row
        return row


class _PlanarPoints(Sequence):
    """The points of a planar universe, each built as a ``Point`` from its
    coordinates on read; the search reads only rows, so only witnesses are
    built."""

    def __init__(self, coords: List[Tuple[float, float]]):
        self._coords = coords

    def __len__(self) -> int:
        return len(self._coords)

    def __getitem__(self, i: int) -> Point:
        return Point.at(*self._coords[i])


@dataclass(frozen=True)
class CandidateUniverse:
    """Shared relay-position candidates; the first n entries are the terminals.

    The unit-disk relation is stored once, as bitmask rows: bit j of
    ``rows[i]`` is set when points i and j are within unit distance.  A
    planar universe computes each row on its first read and builds each
    point on read; a finite metric's points and rows are tuples.  The
    oracle reads the rows of the targets and of the points its search
    grows, and tests leaves against their frame's component masks, not by
    a BFS.
    """

    points: Sequence[Point]
    rows: Sequence[int] = field(repr=False)
    truncated: bool


def coord_keys(coords) -> List[Tuple[float, ...]]:
    """Dedup keys of a block of coordinate rows: each coordinate rounded to 9
    decimals by numpy's rule (scale, round half to even, unscale).

    Every coincidence test between Euclidean points uses these keys: the
    universe's dedup and the scheme's witness union.
    """
    return [tuple(r) for r in np.round(np.asarray(coords, dtype=float), 9).tolist()]


def _pairs(arr: np.ndarray, start: int = 0, stop: Optional[int] = None):
    """Endpoints of the point pairs i < j with start <= i < stop, in
    ``np.triu_indices`` order."""
    stop = len(arr) if stop is None else min(stop, len(arr))
    ii, jj = np.triu_indices(stop - start, start + 1, len(arr))
    return arr[ii + start], arr[jj]


def _bead_counts(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    d = np.sqrt(((b - a) ** 2).sum(axis=1))
    return np.maximum(np.ceil(d - EPS_GEO).astype(int) - 1, 0)


def _candidate_coords(instance: Instance) -> Tuple[List[Tuple[float, float]], bool]:
    """Deduplicated planar candidates, terminals first, and whether the
    ``_MAX_CANDIDATES`` cap cut them short."""
    truncated = False
    coords: List[Tuple[float, float]] = []
    seen: Set[Tuple[float, ...]] = set()

    def push_block(block: np.ndarray) -> None:
        nonlocal truncated
        for start in range(0, len(block), _CHUNK):
            chunk = block[start:start + _CHUNK]
            for key, xy in zip(coord_keys(chunk), chunk.tolist()):
                if key in seen:
                    continue
                if len(coords) >= _MAX_CANDIDATES:
                    truncated = True
                    return
                seen.add(key)
                coords.append((xy[0], xy[1]))

    # Terminals always occupy indices 0..n-1, even at coincident locations.
    terminal_coords = [p.coords for p in instance.terminals]
    seen.update(coord_keys(terminal_coords))
    coords.extend((float(x), float(y)) for x, y in terminal_coords)

    # Unit-circle intersections, layered up to _CANDIDATE_DEPTH.
    for _ in range(_CANDIDATE_DEPTH):
        if len(coords) < 2:
            break
        a, b = _pairs(np.asarray(coords, dtype=float))
        diff = b - a
        d2 = (diff * diff).sum(axis=1)
        mask = (d2 > 0.0) & (d2 <= 4.0)
        if mask.any():
            a, b, diff, d2 = a[mask], b[mask], diff[mask], d2[mask]
            d = np.sqrt(d2)
            h = np.sqrt(np.maximum(1.0 - d2 / 4.0, 0.0))
            mid = (a + b) / 2.0
            offset = np.stack([-diff[:, 1], diff[:, 0]], axis=1) * (h / d)[:, None]
            push_block(np.concatenate([mid + offset, mid - offset]))
        if truncated:
            break

    def push_beads(a, b, counts, c):
        # Step s of every pair with c beads, for s = 1..c.
        sel = counts == c
        aa, bb = a[sel], b[sel]
        for step in range(1, c + 1):
            if truncated:
                return
            push_block(aa + (step / (c + 1)) * (bb - aa))

    # Interior bead points of candidate pair segments, grouped by bead count.
    # The count-1 layer comes from blocks of pairs and stops at the cap; all
    # pairs are built only when that layer leaves room for longer segments.
    if not truncated and len(coords) >= 2:
        arr = np.asarray(coords, dtype=float)
        span = max(1, _CHUNK * 64 // len(arr))  # first points i per block: ~64 * _CHUNK pairs
        for start in range(0, len(arr), span):
            a, b = _pairs(arr, start, start + span)
            push_beads(a, b, _bead_counts(a, b), 1)
            if truncated:
                break
        else:
            a, b = _pairs(arr)
            counts = _bead_counts(a, b)
            for c in sorted(set(counts.tolist()) - {0, 1}):
                push_beads(a, b, counts, c)

    return coords, truncated


def build_candidate_universe(instance: Instance) -> CandidateUniverse:
    metric = instance.metric
    if metric.kind == "finite":
        term_ids = [p.index for p in instance.terminals]
        order = term_ids + sorted(set(range(metric.size)) - set(term_ids))
        near = [[i != j and within_unit(metric.matrix[i][j]) for j in order] for i in order]
        rows = tuple(sum(1 << b for b, hit in enumerate(row) if hit) for row in near)
        return CandidateUniverse(tuple(Point.node(i) for i in order), rows, False)

    if metric.dim != 2:
        raise InstanceError("the geometric oracle only supports the plane")

    coords, truncated = _candidate_coords(instance)
    rows = _UnitDiskRows(np.array(coords, dtype=float).reshape(-1, 2))
    return CandidateUniverse(_PlanarPoints(coords), rows, truncated)


# ---------------------------------------------------------------------------
# Exact small-set oracle


def _merge_masks(masks: List[int], row: int, c: int) -> List[int]:
    """The touch masks, one per component (the OR of its members' rows),
    once point c with row ``row`` joins the set: c merges every component
    it touches, which are those whose mask has bit c, into one."""
    merged = row
    kept = []
    for mask in masks:
        if mask >> c & 1:
            merged |= mask
        else:
            kept.append(mask)
    kept.append(merged)
    return kept


def _deepening_search(universe: CandidateUniverse, targets: List[int], size: int):
    """DFS over candidate sets of the given size, connectivity-pruned, for
    one that connects the targets.

    Every chosen point must touch a target or an earlier choice, which is
    complete for inclusion-minimal relay sets.  Each set is generated once,
    along its least valid order (each step takes its smallest point that
    touches a target or an earlier choice): child c bars its frame's barred
    points and the points up to c that the frame touches.  Children come in
    ascending point order, so the sets come in the order in which a seen-set
    DFS first meets them, and each counts once against ``_STATE_CAP``.

    Every component of targets + chosen holds a target, and a frame carries
    one touch mask per component (``_merge_masks``; the root merges the
    targets one by one).  A child joins the targets iff it touches every
    component, so a frame whose children are full-size takes the AND of its
    masks, hits its lowest untried child in that AND, and counts the
    children up to the hit, or all of them, with one popcount.
    """
    rows = universe.rows
    masks: List[int] = []
    for t in targets:
        masks = _merge_masks(masks, rows[t], t)
    if size == 0:
        return () if len(masks) == 1 else None
    reach = 0
    for mask in masks:
        reach |= mask
    states = 1  # the empty choice
    # Each frame: a chosen sequence, the points it touches, the points barred
    # to its descendants, its untried children and its touch masks.  A frame
    # descends into one child per pop; a frame of full-size children is
    # decided at once.
    stack = [((), reach, 0, reach, masks)]
    while stack:
        chosen, reach, barred, untried, masks = stack.pop()
        if len(chosen) == size - 1:
            # One component's mask holds all of ``untried``: every child joins.
            joins = -1
            for mask in masks:
                joins &= mask
            hits = untried & joins
            if hits:
                low = hits & -hits
                untried &= (low << 1) - 1
            states += untried.bit_count()
            if states > _STATE_CAP:
                raise OracleBudgetError("state cap exceeded")
            if hits:
                return tuple(sorted(chosen + (low.bit_length() - 1,)))
        elif untried:
            low = untried & -untried
            c = low.bit_length() - 1
            states += 1
            if states > _STATE_CAP:
                raise OracleBudgetError("state cap exceeded")
            row = rows[c]
            below = barred | (reach & ((low << 1) - 1))
            grown = reach | row
            stack.append((chosen, reach, barred, untried ^ low, masks))
            masks = _merge_masks(masks, row, c)
            stack.append((chosen + (c,), grown, below, grown & ~below, masks))
    return None


def exact_component_oracle(
    instance: Instance, subset: Iterable[int], universe: Optional[CandidateUniverse] = None
) -> Hyperedge:
    """Fewest relay points connecting the terminal subset, over the universe,
    as the subset's hyperedge."""
    subset = sorted(set(subset))
    if len(subset) < 2:
        raise InstanceError("component oracle needs at least two terminals")
    if len(subset) > _MAX_SUBSET:
        raise InstanceError("component oracle limited to small subsets")
    if universe is None:
        universe = build_candidate_universe(instance)

    # Bead chains along the subset's MST give an always-available fallback.
    mst = mst_pairs(instance, subset)
    ub = sum(cost for cost, _, _ in mst)

    exact = not universe.truncated
    for size in range(0, min(ub, _MAX_STEINER)):
        try:
            hit = _deepening_search(universe, subset, size)
        except OracleBudgetError:
            exact = False
            break
        if hit is not None:
            witness = tuple(universe.points[c] for c in hit)
            return Hyperedge(frozenset(subset), size, witness, exact)
    if ub > _MAX_STEINER:
        exact = False
    fallback = realize(instance, [BeadEdge(i, j, 0, cost) for cost, i, j in mst])
    return Hyperedge(frozenset(subset), ub, fallback.points, exact)


class HypergraphError(RelaysynthError, ValueError):
    pass


@dataclass(frozen=True)
class Hyperedge:
    """A terminal set with its relay cost; a pair edge when |nodes| == 2.

    The witness places relays that connect the set at that cost; cost-only
    hyperedges have none.
    """

    nodes: FrozenSet[int]
    cost: object  # int or Fraction
    witness: Tuple[Point, ...] = ()
    exact: bool = True

    @property
    def is_pair(self) -> bool:
        return len(self.nodes) == 2


@dataclass(frozen=True)
class Hypergraph:
    """Nonnegative hyperedges that connect `nodes`, ordered by (cardinality,
    sorted ids); equal node sets keep their given order."""

    nodes: Tuple[int, ...]
    edges: Tuple[Hyperedge, ...]

    def __post_init__(self):
        for e in self.edges:
            if e.cost < 0:
                raise HypergraphError("hyperedge costs must be nonnegative")
            if not e.nodes <= set(self.nodes):
                raise HypergraphError("hyperedge leaves the node set")
        if hyperedge_classes([e.nodes for e in self.edges], self.nodes) != 1:
            raise HypergraphError("hypergraph is not connected")
        ordered = sorted(self.edges, key=lambda e: (len(e.nodes), sorted(e.nodes)))
        object.__setattr__(self, "edges", tuple(ordered))

    def edge_for(self, subset) -> Hyperedge:
        key = frozenset(subset)
        for e in self.edges:
            if e.nodes == key:
                return e
        raise KeyError(subset)


def _witness_connects(
    instance: Instance,
    witness: Tuple[Point, ...],
    subset: FrozenSet[int],
) -> bool:
    pts = [instance.terminals[t] for t in sorted(subset)] + list(witness)
    if any(p.is_abstract for p in pts):
        return False
    edges = build_unit_disk_graph(pts, instance.metric)
    return hyperedge_classes(edges, range(len(subset))) == 1


def build_component_hypergraph(
    instance: Instance, config: SchemeConfig
) -> Hypergraph:
    """Oracle costs for every terminal subset of size 2..k, pairs in closed form.

    A superset whose witness still connects a smaller set caps that set's cost,
    which keeps the stored table consistent with witness reuse.
    """
    n = instance.n
    top = min(config.k, n)
    total = sum(math.comb(n, j) for j in range(2, top + 1))
    if total > _HYPERGRAPH_BUDGET:
        raise InstanceError(
            "hypergraph of %d edges exceeds budget; lower k" % total
        )
    universe = build_candidate_universe(instance)
    table: Dict[FrozenSet[int], Hyperedge] = {}
    for j in range(2, top + 1):
        for combo in itertools.combinations(range(n), j):
            key = frozenset(combo)
            if j == 2:
                cost = instance.bead_costs[combo]
                witness = realize(instance, [BeadEdge(*combo, 0, cost)]).points
                table[key] = Hyperedge(key, cost, witness, True)
            else:
                table[key] = exact_component_oracle(instance, combo, universe)

    # Witness reuse pass, larger sets first.
    for key in sorted(table, key=lambda s: -len(s)):
        entry = table[key]
        for drop in sorted(key):
            sub = key - {drop}
            if len(sub) < 2:
                continue
            child = table[sub]
            if entry.cost < child.cost and _witness_connects(
                instance, entry.witness, sub
            ):
                table[sub] = Hyperedge(sub, entry.cost, entry.witness, entry.exact)
    return Hypergraph(tuple(range(n)), tuple(table.values()))
