"""Bead graphs: reducing point placement to edge buying on the terminal multigraph.

Every terminal pair carries k parallel edges whose cost is the number of
degree-2 relay points ("beads") needed to bridge the pair with unit hops.
Buying an edge realizes its beads; the exact solver searches edge multisets
whose selected submultigraph meets every demand with edge-disjoint and
B-disjoint paths, which also makes the realization feasible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Set, Tuple

# element_maxflow is re-exported: perfbench's self-test looks it up here.
from .connectivity import (
    CopyTable,
    copy_table,
    element_maxflow,
    first_deficiency,
    greedy_patch,
    reverse_delete,
    tau_star,
)
from .errors import RelaysynthError
from .instances import Instance, Point, SolutionGraph, build_unit_disk_graph

_MAX_TERMINALS = 10  # terminal bound of tau_integral's branch and bound
_NODE_CAP = 200_000  # node bound of tau_integral's branch and bound


class BeadError(RelaysynthError, ValueError):
    pass


class SizeCapError(BeadError):
    exit_code = 1


@dataclass(frozen=True, order=True)
class BeadEdge:
    u: int
    v: int
    copy: int
    cost: int


@dataclass(frozen=True)
class BeadGraph:
    """k parallel edges per terminal pair with bead costs."""

    n: int
    k: int
    edges: Tuple[BeadEdge, ...]

    def pair_edges(self, u: int, v: int) -> Tuple[BeadEdge, ...]:
        u, v = min(u, v), max(u, v)
        return tuple(e for e in self.edges if (e.u, e.v) == (u, v))


def selection_of(table: CopyTable, counts) -> Tuple[BeadEdge, ...]:
    """The free copies plus the first ``counts[p]`` bought copies of each pair."""
    chosen = [BeadEdge(u, v, 0, 0) for (u, v) in table.base_caps]
    for (u, v), cnt in counts.items():
        free = table.base_caps.get((u, v), 0)
        cost = table.pair_cost[(u, v)]
        chosen.extend(BeadEdge(u, v, free + c, cost) for c in range(cnt))
    return tuple(sorted(chosen))


def build_bead_graph(instance: Instance) -> BeadGraph:
    table = copy_table(instance)
    return BeadGraph(instance.n, table.k, selection_of(table, table.max_extra))


@dataclass(frozen=True)
class BeadPlacement:
    points: Tuple[Point, ...]
    solution: SolutionGraph

    @property
    def size(self) -> int:
        return len(self.points)


def realize(
    instance: Instance, selected: Iterable[BeadEdge], relays: Iterable[Point] = ()
) -> BeadPlacement:
    """Place the beads of the selected edges after the concrete ``relays`` and
    build the resulting graph.

    Euclidean beads are equally spaced interior points of the segment;
    coincident duplicates from parallel copies are kept as distinct nodes.  In
    a finite metric, positive-cost edges realize as abstract chain nodes whose
    only adjacencies are the chain hops; the terminals and relays keep their
    unit-disk edges.
    """
    selected = tuple(sorted(selected))
    euclidean = instance.metric.kind == "euclidean"
    points: List[Point] = list(relays)
    if euclidean:
        for e in selected:
            if e.cost == 0:
                continue
            pu = instance.terminals[e.u].coords
            pv = instance.terminals[e.v].coords
            for step in range(1, e.cost + 1):
                frac = step / (e.cost + 1)
                points.append(
                    Point.at(*(a + frac * (b - a) for a, b in zip(pu, pv)))
                )
        solution = SolutionGraph.build(instance, points)
        return BeadPlacement(tuple(points), solution)

    # Finite metric: abstract bead chains.
    edges = dict(build_unit_disk_graph(list(instance.terminals) + points, instance.metric))
    next_id = instance.n + len(points)
    for e in selected:
        if e.cost == 0:
            continue
        d = instance.terminal_distance(e.u, e.v)
        hop = Fraction(d) / (e.cost + 1)
        chain = [e.u] + [next_id + t for t in range(e.cost)] + [e.v]
        next_id += e.cost
        points.extend(Point.bead() for _ in range(e.cost))
        for a, b in zip(chain, chain[1:]):
            edges[(min(a, b), max(a, b))] = hop
    solution = SolutionGraph(instance, points, edges)
    return BeadPlacement(tuple(points), solution)


# ---------------------------------------------------------------------------
# Exact integral optimum


@dataclass(frozen=True)
class BeadSolveResult:
    cost: int
    selected: Tuple[BeadEdge, ...]
    certified: bool
    lower_bound: Fraction
    nodes_explored: int


class _SearchStop(Exception):
    pass


def tau_integral(instance: Instance) -> BeadSolveResult:
    """Minimum-cost edge multiset meeting every demand, by branch and bound.

    Branching adds one copy across the Menger cut of the first deficient
    demand; tau_star bounds from below and a reverse-deleted greedy patch
    seeds the incumbent.  On hitting the node cap the best incumbent is
    returned flagged non-certified.
    """
    if instance.n > _MAX_TERMINALS:
        raise SizeCapError(
            "terminal count %d exceeds cap %d" % (instance.n, _MAX_TERMINALS)
        )
    table = copy_table(instance)

    if not instance.demands:
        return BeadSolveResult(0, selection_of(table, {}), True, Fraction(0), 0)

    if first_deficiency(instance, table.caps(table.max_extra)) is not None:
        raise BeadError("even the full bead graph misses a demand")

    ts = tau_star(instance)
    lower = ts.value
    lb_int = math.ceil(lower)

    best_counts = reverse_delete(instance, table, greedy_patch(instance, table, {}))
    best_cost = table.cost(best_counts)
    nodes_seen = [0]

    visited: Set[Tuple] = set()

    def search(counts, cost):
        nodes_seen[0] += 1
        if nodes_seen[0] > _NODE_CAP:
            raise _SearchStop
        nonlocal best_counts, best_cost
        if cost >= best_cost:
            return
        defic = first_deficiency(instance, table.caps(counts))
        if defic is None:
            best_counts = dict(counts)
            best_cost = cost
            return
        for p in table.candidates(counts, defic.witness):
            added = cost + table.pair_cost[p]
            if added >= best_cost:
                break
            counts[p] = counts.get(p, 0) + 1
            key = tuple(sorted(counts.items()))
            if key not in visited:
                visited.add(key)
                search(counts, added)
            counts[p] -= 1
            if counts[p] == 0:
                del counts[p]

    certified = True
    if best_cost > lb_int:
        try:
            search({}, 0)
        except _SearchStop:
            certified = False

    best_counts = reverse_delete(instance, table, best_counts)
    best_cost = table.cost(best_counts)
    if best_cost <= lb_int:
        certified = True
    return BeadSolveResult(
        best_cost, selection_of(table, best_counts), certified, lower, nodes_seen[0]
    )
