"""Output checks that do not use relaysynth's connectivity code.

A placement is feasible when the unit-disk graph over terminals plus relays
carries, for every demand (u, v, r), r paths that share no edge and no
interior node of Q = unstable terminals plus relays.  The checks below
rebuild that graph from the coordinates and count paths with a node-split
max-flow in networkx.
"""

from __future__ import annotations

import math
from fractions import Fraction

import networkx as nx

# Unit-disk tolerance; the library's default ``EPS_GEO`` has the same value.
EPS = 1e-9


def _coords(solution):
    pts = list(solution.instance.terminals) + list(solution.steiner)
    return [p.coords for p in pts]


def unit_disk_edges(coords):
    return [
        (a, b)
        for a in range(len(coords))
        for b in range(a + 1, len(coords))
        if math.dist(coords[a], coords[b]) <= 1.0 + EPS
    ]


def element_flow(n_nodes, edges, q, s, t):
    """Paths from s to t disjoint in edges and in the Q nodes other than s, t."""
    g = nx.DiGraph()
    for v in range(n_nodes):
        if v in q and v not in (s, t):
            g.add_edge((v, "in"), (v, "out"), capacity=1)
        else:
            g.add_edge((v, "in"), (v, "out"))  # no capacity: unbounded
    for a, b in edges:
        g.add_edge((a, "out"), (b, "in"), capacity=1)
        g.add_edge((b, "out"), (a, "in"), capacity=1)
    return nx.maximum_flow_value(g, (s, "out"), (t, "in"))


def unmet_demands(instance, n_nodes, edges, q):
    """Demands (i, j, r) with fewer than r disjoint paths.  One path exists
    exactly when i and j are connected, so r = 1 needs no flow."""
    graph = nx.Graph(edges)
    graph.add_nodes_from(range(n_nodes))

    def met(i, j, r):
        if r == 1:
            return nx.has_path(graph, i, j)
        return element_flow(n_nodes, edges, q, i, j) >= r

    return [d for d in instance.demand_pairs() if not met(*d)]


def _q_nodes(solution):
    n = solution.instance.n
    return set(solution.instance.unstable) | set(range(n, n + len(solution.steiner)))


def placement_problems(solution):
    """Demands the relay placement misses in its full unit-disk graph."""
    coords = _coords(solution)
    edges = unit_disk_edges(coords)
    bad = unmet_demands(solution.instance, len(coords), edges, _q_nodes(solution))
    return ["placement misses demand %r" % (d,) for d in bad]


def subgraph_problems(solution):
    """Demands missed by the solution's own edge set, which must be unit-disk."""
    coords = _coords(solution)
    problems = [
        "edge %r longer than one" % (e,)
        for e in solution.edges
        if math.dist(coords[e[0]], coords[e[1]]) > 1.0 + EPS
    ]
    bad = unmet_demands(
        solution.instance, len(coords), list(solution.edges), _q_nodes(solution)
    )
    return problems + ["subgraph misses demand %r" % (d,) for d in bad]


def check_sn(report):
    """Problems with one solve_sn_msp_012 report; an empty list means it passed."""
    problems = placement_problems(report.solution)
    if report.cost != len(report.solution.steiner):
        problems.append(
            "cost %d but %d relays" % (report.cost, len(report.solution.steiner))
        )
    if report.tau_star_value > report.cost:
        problems.append("tau* %s above cost %d" % (report.tau_star_value, report.cost))
    pruned = report.pruned
    problems += subgraph_problems(pruned)
    budget = Fraction(report.solution.instance.metric.delta * len(pruned.steiner), 2)
    if report.witness.value > budget:
        problems.append("witness %s over budget %s" % (report.witness.value, budget))
    if report.tau_star_value > report.witness.value:
        problems.append(
            "tau* %s above witness %s" % (report.tau_star_value, report.witness.value)
        )
    return problems


def check_scheme(result):
    """Problems with one st_msp_scheme result; an empty list means it passed."""
    problems = placement_problems(result.solution)
    if result.size > result.mst_cost:
        problems.append("scheme size %d above MST cost %d" % (result.size, result.mst_cost))
    if result.size > result.selection_cost:
        problems.append(
            "scheme size %d above its selection cost %s" % (result.size, result.selection_cost)
        )
    return problems
