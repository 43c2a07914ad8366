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
from typing import Iterable, Iterator, List, Optional, Set, Tuple

# element_maxflow is re-exported: perfbench's self-test looks it up here.
from .connectivity import (
    CopyGraph,
    CopyTable,
    copy_table,
    element_maxflow,
    reverse_delete,
    round_tau_star,
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


def selection_of(table: CopyTable, counts) -> Tuple[BeadEdge, ...]:
    """The free copies plus the first ``counts[p]`` bought copies of each pair."""
    chosen = [BeadEdge(u, v, 0, 0) for (u, v) in table.base_caps]
    for (u, v), cnt in counts.items():
        free = table.base_caps.get((u, v), 0)
        cost = table.pair_cost[(u, v)]
        chosen.extend(BeadEdge(u, v, free + c, cost) for c in range(cnt))
    return tuple(sorted(chosen))


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
    # Why the search stopped: "bound" (the incumbent reached ceil(tau*)),
    # "exhausted" (nothing cheaper is left) or "node_cap" (_NODE_CAP nodes);
    # None for a backend without a search.
    stop: Optional[str]


def tau_integral(instance: Instance) -> BeadSolveResult:
    """Minimum-cost edge multiset meeting every demand, by branch and bound.

    The search runs on one CopyGraph, built once.  A node branches on the
    Menger cut of its first deficient demand: each child buys one copy
    across it, cheapest first, while the node's cost plus that copy stays
    below the incumbent, and sells it again on the way back.  The incumbent
    starts as round_tau_star's purchase, the one the pd backend returns:
    tau_star's vertex rounded at 1/2, patched if needed, and
    reverse-deleted.  Every feasible node is reverse-deleted before it
    replaces the incumbent, which tightens the cut-off early.  The search
    stops as soon as the incumbent costs ceil(tau*), the bound tau_star
    proves (``stop == "bound"``), or when no branch is left
    (``"exhausted"``); either way the result is certified.
    After _NODE_CAP nodes it stops with ``"node_cap"`` and returns the
    incumbent uncertified.
    """
    if instance.n > _MAX_TERMINALS:
        raise SizeCapError(
            "terminal count %d exceeds cap %d" % (instance.n, _MAX_TERMINALS)
        )
    table = copy_table(instance)
    tau = tau_star(instance)
    lower = tau.value
    lb_int = math.ceil(lower)
    best_counts = round_tau_star(instance, table, tau)
    best_cost = table.cost(best_counts)

    graph = CopyGraph(instance, table)
    counts = graph.counts
    visited: Set[Tuple] = set()
    nodes = 0
    # One frame per open node: its cost, its untried candidates, and the
    # copy bought to reach it (None at the root).
    frames: List[Tuple[int, Iterator, Optional[Tuple[int, int]]]] = []
    entering: Optional[Tuple[int, Optional[Tuple[int, int]]]] = (0, None)
    stop = "bound" if best_cost <= lb_int else "exhausted"
    while stop == "exhausted" and (entering is not None or frames):
        if entering is None:
            cost, pending, bought = frames[-1]
            p = next(pending, None)
            if p is None or cost + table.pair_cost[p] >= best_cost:
                frames.pop()
                if bought is not None:
                    graph.sell(bought)
                continue
            graph.buy(p)
            key = tuple(sorted(counts.items()))
            if key in visited:
                graph.sell(p)
            else:
                visited.add(key)
                entering = (cost + table.pair_cost[p], p)
            continue

        cost, bought = entering
        entering = None
        if nodes == _NODE_CAP:
            stop = "node_cap"
            break
        nodes += 1
        defic = graph.first_deficiency()
        if defic is not None:
            frames.append((cost, iter(table.candidates(counts, defic.witness)), bought))
            continue
        best_counts = reverse_delete(instance, table, counts)
        best_cost = table.cost(best_counts)
        if best_cost <= lb_int:
            stop = "bound"
        if bought is not None:
            graph.sell(bought)

    return BeadSolveResult(
        best_cost,
        selection_of(table, best_counts),
        stop != "node_cap",
        lower,
        nodes,
        stop,
    )
