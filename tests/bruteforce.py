"""Independent oracles used by the tests; no imports from the solver paths
they check beyond plain data types."""

from __future__ import annotations

from itertools import combinations, product
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


def brute_min_purchase(n: int, demands, unstable, bead_cost) -> int:
    """Least cost of a multiset of bead copies meeting every demand, by trying
    every count map in order of cost.

    ``bead_cost`` maps each pair i < j of the n terminals to its bead count.
    Each pair has k = max(1, largest demand) parallel copies: the first is
    free when the pair needs no bead, and every other copy costs its bead
    count, or one on a free pair.  A count map meets the demand r of (i, j)
    when brute_q_connectivity on its multigraph, with each copy subdivided by
    a node of its own outside Q = ``unstable``, reaches r.
    """
    k = max([1, *demands.values()])
    pairs = sorted(bead_cost)
    options = []  # per pair: (copies, their cost)
    for p in pairs:
        free = 1 if bead_cost[p] == 0 else 0
        price = max(1, bead_cost[p])
        options.append([(free + c, c * price) for c in range(k - free + 1)])
    purchases = sorted(
        (sum(cost for _, cost in choice), [copies for copies, _ in choice])
        for choice in product(*options)
    )
    for cost, multiplicity in purchases:
        edges = []
        for (a, b), copies in zip(pairs, multiplicity):
            for _ in range(copies):
                mid = n + len(edges) // 2
                edges += [(a, mid), (mid, b)]
        if all(
            brute_q_connectivity(edges, unstable, i, j) >= r
            for (i, j), r in sorted(demands.items())
        ):
            return cost
    raise ValueError("no count map meets every demand")


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
