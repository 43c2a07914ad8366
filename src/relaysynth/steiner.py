"""Tree solvers for all-pairs demands: MST baseline, small-set oracle, hypergraph.

The small-set oracle searches a shared candidate universe (terminal positions,
unit-circle intersections, bead points, optional grid) by iterative deepening
on the number of relay points.  It is exact over that universe; the universe
itself is heuristically complete, so callers either use analytically known
cases or cross-validate at two grid resolutions.

The universe stores its unit-disk relation once, as one Python-int bitmask
row per point, built from the distances of one block of points at a time.
The search grows its set of touched points by OR-ing rows, and the oracle
checks the connectivity of each candidate set by a bit BFS on them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from .beads import BeadEdge, realize
from .connectivity import (
    ConnectivityError,
    UnionFind,
    hyperedge_classes,
    is_feasible,
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


class OracleBudgetError(RelaysynthError, RuntimeError):
    pass


@dataclass(frozen=True)
class SchemeConfig:
    """Knobs for the component oracle and the spanning scheme."""

    k: int = 5
    candidate_depth: int = 2
    grid_resolution: Optional[float] = None
    max_candidates: int = 1500
    state_cap: int = 400_000

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


_CHUNK = 256  # rows per block: dedup's float conversion and the relation's distances


@dataclass(frozen=True)
class CandidateUniverse:
    """Shared relay-position candidates; the first n entries are the terminals.

    The unit-disk relation is stored once, as bitmask rows built one block
    at a time: bit j of ``rows[i]`` is set when points i and j are within
    unit distance.
    """

    points: Tuple[Point, ...]
    rows: Tuple[int, ...] = field(repr=False)
    truncated: bool


def coord_keys(coords) -> List[Tuple[float, ...]]:
    """Dedup keys of a block of coordinate rows: each coordinate rounded to 9
    decimals by numpy's rule (scale, round half to even, unscale).

    Every coincidence test between Euclidean points uses these keys: the
    universe's dedup and the scheme's witness union.
    """
    return [tuple(r) for r in np.round(np.asarray(coords, dtype=float), 9).tolist()]


def _candidate_coords(
    instance: Instance, config: SchemeConfig
) -> Tuple[List[Tuple[float, float]], bool]:
    """Deduplicated planar candidates, terminals first, and whether the
    ``max_candidates`` cap cut them short."""
    cap = config.max_candidates
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
                if len(coords) >= cap:
                    truncated = True
                    return
                seen.add(key)
                coords.append((xy[0], xy[1]))

    # Terminals always occupy indices 0..n-1, even at coincident locations.
    terminal_coords = [p.coords for p in instance.terminals]
    seen.update(coord_keys(terminal_coords))
    coords.extend((float(x), float(y)) for x, y in terminal_coords)

    def pair_arrays(points):
        arr = np.asarray(points, dtype=float)
        ii, jj = np.triu_indices(len(arr), k=1)
        return arr[ii], arr[jj]

    # Unit-circle intersections, layered up to the configured depth.
    for _ in range(config.candidate_depth):
        if len(coords) < 2:
            break
        a, b = pair_arrays(coords)
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

    # Interior bead points of candidate pair segments.
    if not truncated and len(coords) >= 2:
        a, b = pair_arrays(coords)
        d = np.sqrt(((b - a) ** 2).sum(axis=1))
        counts = np.maximum(np.ceil(d - EPS_GEO).astype(int) - 1, 0)
        for c in sorted(set(counts.tolist()) - {0}):
            sel = counts == c
            aa, bb = a[sel], b[sel]
            for step in range(1, c + 1):
                push_block(aa + (step / (c + 1)) * (bb - aa))
            if truncated:
                break

    if config.grid_resolution:
        delta = config.grid_resolution
        xs = [p.coords[0] for p in instance.terminals]
        ys = [p.coords[1] for p in instance.terminals]
        gx = np.arange(min(xs) - 1.0, max(xs) + 1.0 + 1e-12, delta)
        gy = np.arange(min(ys) - 1.0, max(ys) + 1.0 + 1e-12, delta)
        mesh = np.stack(np.meshgrid(gx, gy), axis=-1).reshape(-1, 2)
        push_block(mesh)
    return coords, truncated


def build_candidate_universe(
    instance: Instance, config: SchemeConfig
) -> CandidateUniverse:
    metric = instance.metric
    if metric.kind == "finite":
        term_ids = [p.index for p in instance.terminals]
        order = term_ids + sorted(set(range(metric.size)) - set(term_ids))
        near = [[i != j and within_unit(metric.matrix[i][j]) for j in order] for i in order]
        rows = tuple(sum(1 << b for b, hit in enumerate(row) if hit) for row in near)
        return CandidateUniverse(tuple(Point.node(i) for i in order), rows, False)

    if metric.dim != 2:
        raise InstanceError("the geometric oracle only supports the plane")

    coords, truncated = _candidate_coords(instance, config)
    arr = np.array(coords)
    rows: List[int] = []
    for start in range(0, len(arr), _CHUNK):
        block = arr[start:start + _CHUNK]
        dist = np.subtract.outer(block[:, 0], arr[:, 0]) ** 2
        dist += np.subtract.outer(block[:, 1], arr[:, 1]) ** 2
        near = np.sqrt(dist, out=dist) <= 1.0 + EPS_GEO
        np.fill_diagonal(near[:, start:], False)  # bit start + i of row i
        packed = np.packbits(near, axis=1, bitorder="little")
        rows.extend(int.from_bytes(r.tobytes(), "little") for r in packed)
    points = tuple(Point.at(*c) for c in coords)
    return CandidateUniverse(points, tuple(rows), truncated)


# ---------------------------------------------------------------------------
# Exact small-set oracle


def _connects(
    rows: Sequence[int], nodes: Sequence[int], targets: Sequence[int]
) -> bool:
    """Whether the targets, which are among the nodes, lie in one component
    of the unit-disk graph that ``rows`` induce on the nodes; a bit BFS from
    the first target."""
    pending = 0
    for v in nodes:
        pending |= 1 << v
    goal = 0
    for t in targets:
        goal |= 1 << t
    frontier = 1 << targets[0]
    pending ^= frontier
    while frontier:
        low = frontier & -frontier
        frontier ^= low
        reached = rows[low.bit_length() - 1] & pending
        pending ^= reached
        frontier |= reached
    return not pending & goal


def _deepening_search(
    universe: CandidateUniverse,
    targets: List[int],
    size: int,
    state_cap: int,
    accept,
    with_duplicates: bool,
):
    """DFS over candidate (multi)sets of the given size, connectivity-pruned.

    Every chosen point must touch a target or an earlier choice, which is
    complete for inclusion-minimal relay sets.  Children are tried in
    ascending point order, and each state counts once against the cap.
    """
    if size == 0:
        return () if accept(()) else None
    rows = universe.rows
    reach = 0
    for t in targets:
        reach |= rows[t]
    states = 1  # the empty choice
    if states > state_cap:
        raise OracleBudgetError("state cap exceeded")
    seen: Set[Tuple[int, ...]] = set()
    # Each frame: a chosen tuple, the points it touches, and the untried ones.
    stack = [((), reach, reach)]
    while stack:
        chosen, reach, untried = stack[-1]
        if not untried:
            stack.pop()
            continue
        low = untried & -untried
        stack[-1] = (chosen, reach, untried ^ low)
        c = low.bit_length() - 1
        if not with_duplicates and c in chosen:
            continue
        nxt = tuple(sorted(chosen + (c,)))
        if nxt in seen:
            continue
        seen.add(nxt)
        states += 1
        if states > state_cap:
            raise OracleBudgetError("state cap exceeded")
        if len(nxt) == size:
            if accept(nxt):
                return nxt
            continue
        grown = reach | rows[c]
        stack.append((nxt, grown, grown))
    return None


def exact_component_oracle(
    instance: Instance,
    subset: Iterable[int],
    config: SchemeConfig,
    universe: Optional[CandidateUniverse] = None,
) -> Hyperedge:
    """Fewest relay points connecting the terminal subset, over the universe,
    as the subset's hyperedge."""
    subset = sorted(set(subset))
    if len(subset) < 2:
        raise InstanceError("component oracle needs at least two terminals")
    if len(subset) > max(config.k, 12):
        raise InstanceError("component oracle limited to small subsets")
    if universe is None:
        universe = build_candidate_universe(instance, config)

    # Bead chains along the subset's MST give an always-available fallback.
    mst = mst_pairs(instance, subset)
    ub = sum(cost for cost, _, _ in mst)
    fallback_points = realize(
        instance, [BeadEdge(i, j, 0, cost) for cost, i, j in mst]
    ).points

    exact = not universe.truncated
    rows = universe.rows

    def accept(chosen):
        return _connects(rows, subset + list(chosen), subset)

    for size in range(0, min(ub, _MAX_STEINER)):
        try:
            hit = _deepening_search(
                universe, list(subset), size, config.state_cap, accept, False
            )
        except OracleBudgetError:
            exact = False
            break
        if hit is not None:
            witness = tuple(universe.points[c] for c in hit)
            return Hyperedge(frozenset(subset), size, witness, exact)
    if ub > _MAX_STEINER:
        exact = False
    return Hyperedge(frozenset(subset), ub, fallback_points, exact)


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
    universe = build_candidate_universe(instance, config)
    table: Dict[FrozenSet[int], Hyperedge] = {}
    for j in range(2, top + 1):
        for combo in itertools.combinations(range(n), j):
            key = frozenset(combo)
            if j == 2:
                cost = instance.bead_costs[combo]
                witness = realize(instance, [BeadEdge(*combo, 0, cost)]).points
                table[key] = Hyperedge(key, cost, witness, True)
            else:
                table[key] = exact_component_oracle(instance, combo, config, universe)

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


# ---------------------------------------------------------------------------
# Brute-force optimum for tiny instances


def brute_force_opt(
    instance: Instance,
    max_s: int,
    config: Optional[SchemeConfig] = None,
) -> Tuple[int, Tuple[Point, ...]]:
    """Smallest relay multiset (duplicates allowed) meeting every demand.

    Exhausts the candidate universe by iterative deepening; raises
    OracleBudgetError when max_s is exhausted.
    """
    config = config or SchemeConfig()
    universe = build_candidate_universe(instance, config)
    term_ids = list(range(instance.n))

    def accept(chosen):
        pts = [universe.points[c] for c in chosen]
        sol = SolutionGraph.build(instance, pts)
        return is_feasible(instance, sol)

    for size in range(0, max_s + 1):
        hit = _deepening_search(
            universe, term_ids, size, config.state_cap, accept, True
        )
        if hit is not None:
            return size, tuple(universe.points[c] for c in hit)
    raise OracleBudgetError("infeasible within budget (max_s=%d)" % max_s)
