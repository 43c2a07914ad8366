"""Independent oracles used by the tests; no imports from the solver paths
they check beyond plain data types."""

from __future__ import annotations

from itertools import combinations
from typing import Dict, List, Set, Tuple


def enumerate_simple_paths(edges, u: int, v: int) -> List[Tuple[int, ...]]:
    adj: Dict[int, Set[int]] = {}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    paths: List[Tuple[int, ...]] = []
    if u not in adj or v not in adj:
        return paths

    def dfs(node, visited, trail):
        if node == v:
            paths.append(tuple(trail))
            return
        for w in sorted(adj[node]):
            if w not in visited:
                visited.add(w)
                trail.append(w)
                dfs(w, visited, trail)
                trail.pop()
                visited.discard(w)

    dfs(u, {u}, [u])
    return paths


def brute_q_connectivity(edges, q, u: int, v: int) -> int:
    """Largest family of u-v paths pairwise disjoint in edges and interior
    Q-nodes, by exhaustive search over simple paths."""
    qset = set(q) - {u, v}
    raw = enumerate_simple_paths(edges, u, v)
    items = []
    for trail in raw:
        pedges = frozenset(
            tuple(sorted((trail[i], trail[i + 1]))) for i in range(len(trail) - 1)
        )
        pq = frozenset(n for n in trail[1:-1] if n in qset)
        items.append((pedges, pq))

    best = [0]

    def rec(idx, used_edges, used_q, count):
        if count + (len(items) - idx) <= best[0]:
            return
        if idx == len(items):
            best[0] = max(best[0], count)
            return
        pedges, pq = items[idx]
        if not (pedges & used_edges) and not (pq & used_q):
            rec(idx + 1, used_edges | pedges, used_q | pq, count + 1)
        rec(idx + 1, used_edges, used_q, count)

    rec(0, frozenset(), frozenset(), 0)
    return best[0]


def max_unit_separated_subset(points, eps: float = 1e-9) -> int:
    """Largest subset of the points with all pairwise distances > 1+eps."""
    import math

    n = len(points)
    best = 0
    for size in range(n, 0, -1):
        for combo in combinations(range(n), size):
            ok = True
            for i, j in combinations(combo, 2):
                if math.dist(points[i], points[j]) <= 1 + eps:
                    ok = False
                    break
            if ok:
                return size
    return best


def prune_by_rechecks(instance, solution, feasible):
    """Minimal pruning by feasibility checks alone: drop edges longest first,
    then try every Steiner node in reverse id order, and keep each removal
    after which ``feasible(instance, graph)`` holds."""
    graph = solution
    for edge in sorted(graph.edges, key=lambda e: (-float(graph.edges[e]), e)):
        candidate = graph.without_edge(edge)
        if feasible(instance, candidate):
            graph = candidate
    for node in sorted(graph.steiner_ids(), reverse=True):
        candidate = graph.without_steiner(node)
        if feasible(instance, candidate):
            graph = candidate
    return graph
