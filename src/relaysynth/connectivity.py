"""Q-connectivity, feasibility certificates, pruning, and the bead cut-LP.

Connectivity between terminals counts paths that are disjoint in edges and in
Q-nodes (Q = unstable terminals plus all Steiner points), computed as max-flow
on a node-split graph.  The same flow engine powers Menger witnesses, the
separation oracle of the cut relaxation, and its exact optimum tau_star.

This module is the one cut engine for {0,1,2} demands.  It owns the bead
copy table of every terminal pair, the pairs crossing a biset, the greedy
patch and reverse delete over copy counts, the rounding of tau_star's
vertex that seeds both {0,1,2} backends, and the Menger check of every
demand: the element max-flow capped at the demand r, with each Q-node of
capacity one.  Its min cut is a biset whose boundary nodes cost one each, so
a violated demand r <= 2 has a witness with at most one node on the boundary,
the form the cut relaxation needs.

Two engines answer that check, and the caller fixes which one runs:

- On integral graphs one lowlink pass (Tarjan's depth-first search) decides
  every demand at once, because with r <= 2 a demand fails only when no
  path joins the pair or one element separates it.  The flow returns the
  residual-reachable side of its cut, the intersection of all min-cut source
  sides, so the witness is unique and the lowlink pass returns the same one:
  the first separating element on the tree path from i; its side is what i
  reaches without it.  The pass serves CopyGraph, one terminal multigraph
  that a search over copy counts (branch and bound, greedy patch, reverse
  delete) changes by one copy at a time, and is_feasible (pruning, degree
  reduction, brute force).
  Pruning's relay pass needs no check: after its edge pass
  it drops exactly the isolated relays.
- element_maxflow serves violated_cuts, fractional_feasible and tau_star
  on fractional capacities, and verify_feasible, so the final check of
  every emitted solution stays independent of the lowlink pass.  It runs
  on capacities scaled once to integers, and only for the demand pairs the
  triangle inequality of element connectivity leaves open: a Q-node never
  sits in the middle of a chain (see _deficiencies).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Set, Tuple

from .errors import RelaysynthError
from .instances import Instance, SolutionGraph
from .simplex import CoverLP, CoverRow

_HALF = Fraction(1, 2)
_MAX_CUTS = 5000  # row bound of tau_star's constraint generation


class ConnectivityError(RelaysynthError, ValueError):
    pass


class NonTreeComponentError(ConnectivityError):
    """A Steiner component is not a tree, so the input was not pruned minimal."""


# ---------------------------------------------------------------------------
# Small graph helpers


class UnionFind:
    """Disjoint sets of comparable items; a class is named by its smallest member."""

    def __init__(self, items=()):
        self.parent = {x: x for x in items}

    def find(self, x):
        parent = self.parent
        root = parent.setdefault(x, x)
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, a, b) -> bool:
        """Merge the classes of a and b; False when they already coincide."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if rb < ra:
            ra, rb = rb, ra
        self.parent[rb] = ra
        return True


def hyperedge_classes(hyperedges, ground) -> int:
    """Number of classes left among the ground nodes after joining the nodes
    of each hyperedge; `ground` is iterated twice."""
    joined = UnionFind(ground)
    for he in hyperedges:
        first = min(he)
        for v in he:
            joined.union(first, v)
    return len({joined.find(v) for v in ground})


def _edge_pairs(edges) -> List[Tuple[int, int]]:
    return [tuple(sorted(e)) for e in edges]


def adjacency_of(edges, nodes=()) -> Dict[int, Set[int]]:
    adj: Dict[int, Set[int]] = {v: set() for v in nodes}
    for a, b in edges:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    return adj


def _lowlink(adj):
    """Iterative depth-first search over the multigraph {v: {w: multiplicity}}.

    Returns (order, disc, low, last, parent): the preorder, each node's index
    in it, the least index one back edge from its subtree reaches, the index
    of its subtree's last node, and its tree parent (None at a root).  A
    parallel edge to the parent counts as a back edge.
    """
    order: List[int] = []
    disc: Dict[int, int] = {}
    low: Dict[int, int] = {}
    last: Dict[int, int] = {}
    parent: Dict[int, Optional[int]] = {}
    for root in adj:
        if root in disc:
            continue
        disc[root] = low[root] = len(order)
        order.append(root)
        parent[root] = None
        stack = [(root, iter(adj[root].items()))]
        while stack:
            v, it = stack[-1]
            for w, mult in it:
                if w not in disc:
                    disc[w] = low[w] = len(order)
                    order.append(w)
                    parent[w] = v
                    stack.append((w, iter(adj[w].items())))
                    break
                if (w != parent[v] or mult > 1) and disc[w] < low[v]:
                    low[v] = disc[w]
            else:
                stack.pop()
                last[v] = len(order) - 1
                p = parent[v]
                if p is not None and low[v] < low[p]:
                    low[p] = low[v]
    return order, disc, low, last, parent


# ---------------------------------------------------------------------------
# Bisets and element max-flow


@dataclass(frozen=True)
class Biset:
    """Nested node-set pair; the boundary models node removals in cuts."""

    inner: frozenset
    outer: frozenset

    def __post_init__(self):
        if not self.inner <= self.outer:
            raise ConnectivityError("biset inner part must lie inside the outer part")

    @property
    def boundary(self) -> frozenset:
        return self.outer - self.inner


@dataclass(frozen=True)
class DemandViolation:
    pair: Tuple[int, int]
    required: int
    achieved: object  # int for graphs, Fraction for fractional capacities
    witness: Biset


def element_maxflow(
    edge_caps: Mapping[Tuple[int, int], object],
    qnodes: Iterable[int],
    s: int,
    t: int,
    *,
    limit=None,
    q_cap=1,
):
    """Max flow between terminals where Q-nodes (except s,t) have capacity
    ``q_cap``, one unless the edge capacities come scaled.

    Returns (flow_value, biset).  The biset is the min cut that the last
    augmenting search, the one that fails to reach t, leaves behind: its
    inner part holds the nodes whose out-copy that search reached, its outer
    part the nodes with either copy reached, so the boundary holds the Q-nodes
    the cut runs through.  Once the flow reaches ``limit`` no search fails and
    the biset is None.  Edge capacities may be ints or Fractions;
    zero-capacity edges are ignored.
    """
    if s == t:
        raise ConnectivityError("endpoints must differ")
    nodes = sorted({s, t}.union(*edge_caps))
    idx = {v: i for i, v in enumerate(nodes)}
    qset = set(qnodes) - {s, t}

    total = sum(c for c in edge_caps.values())
    inf_cap = total + len(qset) * q_cap + 1

    nn = 2 * len(idx)  # even = in-copy, odd = out-copy
    cap: List[Dict[int, object]] = [dict() for _ in range(nn)]

    def add(u, v, c):
        cap[u][v] = cap[u].get(v, 0) + c
        cap[v].setdefault(u, 0)

    for v, i in idx.items():
        add(2 * i, 2 * i + 1, q_cap if v in qset else inf_cap)
    for (a, b), c in edge_caps.items():
        if c <= 0:
            continue
        ia, ib = idx[a], idx[b]
        add(2 * ia + 1, 2 * ib, c)
        add(2 * ib + 1, 2 * ia, c)

    src = 2 * idx[s] + 1
    snk = 2 * idx[t]
    flow = 0
    while True:
        if limit is not None and flow >= limit:
            return flow, None
        parent = {src: None}
        queue = deque([src])
        while queue:
            u = queue.popleft()
            if u == snk:
                break
            for v, c in cap[u].items():
                if c > 0 and v not in parent:
                    parent[v] = u
                    queue.append(v)
        if snk not in parent:
            # The search ran to the end: it reached the whole residual side.
            inner = frozenset(nodes[u >> 1] for u in parent if u & 1)
            return flow, Biset(inner, frozenset(nodes[u >> 1] for u in parent))
        bottleneck = None
        v = snk
        while parent[v] is not None:
            u = parent[v]
            c = cap[u][v]
            bottleneck = c if bottleneck is None else min(bottleneck, c)
            v = u
        v = snk
        while parent[v] is not None:
            u = parent[v]
            cap[u][v] -= bottleneck
            cap[v][u] += bottleneck
            v = u
        flow += bottleneck


# ---------------------------------------------------------------------------
# Feasibility and pruning


def _deficiencies(instance: Instance, caps, q) -> Iterator[DemandViolation]:
    """Unmet demands in order, each with its Menger cut.

    An element flow capped at the demand r decides a pair.  A flow that
    stops below r ends with a search that finds no augmenting path, so it is
    maximum and it returns the min cut that search reached; a flow that
    reaches r returns no cut.  Each Q-node on the boundary of that cut costs
    one, so for r <= 2 the witness has at most one boundary node.

    Pairs the triangle inequality decides run no flow: for j outside Q,
    kappa(i, k) >= min(kappa(i, j), kappa(j, k)), since a smaller element
    cut for (i, k) keeps j and so separates i from j or j from k.  Per level
    1 and 2, flows join outside-Q terminals in a union-find class, and each
    Q terminal keeps the outside-Q terminals it reaches.  A Q terminal never
    joins a class: i and k each tied to a Q-node u by two parallel edges
    have kappa(i, u) = kappa(u, k) = 2 but kappa(i, k) = 1.  Only pairs shown
    to meet r are skipped, so the violations, their flows and their cuts are
    those of one flow per pair.

    The capacities are scaled once to integers by the lcm D of their
    denominators, and each flow runs with Q-node capacity D and limit r * D:
    no comparison of the search changes, so neither does any path or cut.
    """
    scale = 1
    for c in caps.values():
        if not isinstance(c, (int, Fraction)):
            raise ConnectivityError("capacity %r is neither an int nor a Fraction" % (c,))
        scale = math.lcm(scale, c.denominator)
    caps = {e: int(c * scale) for e, c in caps.items()}
    joined = {1: UnionFind(), 2: UnionFind()}
    reaches: Dict[int, Dict[int, Set[int]]] = {1: {}, 2: {}}

    def classes(v, level):
        if v in q:
            return {joined[level].find(w) for w in reaches[level].get(v, ())}
        return {joined[level].find(v)}

    for (i, j, r) in instance.demand_pairs():
        if classes(i, r) & classes(j, r):
            continue
        flow, biset = element_maxflow(caps, q, i, j, limit=r * scale, q_cap=scale)
        for level in range(1, min(flow // scale, 2) + 1):
            if i not in q and j not in q:
                joined[level].union(i, j)
            elif j not in q:
                reaches[level].setdefault(i, set()).add(j)
            elif i not in q:
                reaches[level].setdefault(j, set()).add(i)
        if biset is not None:
            yield DemandViolation((i, j), r, Fraction(flow, scale) if scale > 1 else flow, biset)


def _multiplicities(caps, nodes) -> Dict[int, Dict[int, int]]:
    """The adjacency {v: {w: multiplicity}} of the multigraph ``caps`` over
    ``nodes``, without its zero-capacity pairs.

    ConnectivityError is raised for any capacity that is not an integer: the
    lowlink pass reads an edge as separating only when its multiplicity is one.
    """
    adj: Dict[int, Dict[int, int]] = {v: {} for v in nodes}
    for (a, b), c in caps.items():
        if not isinstance(c, int):
            raise ConnectivityError("capacity %r of %r is not an integer" % (c, (a, b)))
        if c > 0:
            row_a, row_b = adj.setdefault(a, {}), adj.setdefault(b, {})
            row_a[b] = row_a.get(b, 0) + c
            row_b[a] = row_b.get(a, 0) + c
    return adj


def _unit_deficiencies(instance: Instance, caps, q, nodes) -> Iterator[DemandViolation]:
    """The violations _deficiencies yields, for an integral multigraph ``caps``
    whose ``nodes`` cover every terminal: one lowlink pass, as in CopyGraph."""
    adj = _multiplicities(caps, nodes)
    return _lowlink_deficiencies(instance.demand_pairs(), adj, q)


def _lowlink_deficiencies(demands, adj, q) -> Iterator[DemandViolation]:
    """Unmet ``demands`` of the multigraph ``adj`` with Q-nodes ``q``, each
    with the biset element_maxflow returns.

    One lowlink pass decides every demand.  With r <= 2 a demand fails only
    when no path joins i and j, or when one element separates them: an edge
    of multiplicity one or a Q-node other than i and j.  Every such element
    lies on the tree path from i to j.  The cut element_maxflow returns is
    its residual-reachable side, the intersection of all min-cut source
    sides, so it is the same for every maximum flow.  The i-sides of the
    separating elements are nested along the path, so that cut belongs to
    the first one met from i; an edge comes before its far endpoint, which
    settles the tie of a multiplicity-one edge entering a separating Q-node.
    The cut's inner part is what i reaches without that element (without
    anything when no path joins the pair).
    """
    _, disc, low, last, parent = _lowlink(adj)

    for (i, j, r) in demands:
        up = [i]
        while not disc[up[-1]] <= disc[j] <= last[up[-1]] and parent[up[-1]] is not None:
            up.append(parent[up[-1]])
        top = up[-1]
        flow, skip_node, skip_edge = 0, None, {}
        if disc[top] <= disc[j] <= last[top]:
            if r < 2:
                continue
            down = [j]
            while down[-1] != top:
                down.append(parent[down[-1]])
            path = up + down[-2::-1]
            for m in range(1, len(path)):
                a, b = path[m - 1], path[m]
                c, p = (a, b) if parent[a] == b else (b, a)
                if low[c] > disc[p]:  # (p, c) is a bridge of multiplicity one
                    skip_edge = {a: b, b: a}
                    break
                if b != j and b in q and any(
                    parent[x] == b and low[x] >= disc[b] for x in (a, path[m + 1])
                ):
                    skip_node = b
                    break
            else:
                continue
            flow = 1
        inner = {i}
        stack = [i]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in inner and w != skip_node and skip_edge.get(v) != w:
                    inner.add(w)
                    stack.append(w)
        inner = frozenset(inner)
        outer = inner if skip_node is None else inner | {skip_node}
        yield DemandViolation((i, j), r, flow, Biset(inner, outer))


def _graph_elements(solution: SolutionGraph):
    """Unit capacities and Q = B union S of a solution graph."""
    return {e: 1 for e in solution.edges}, solution.q_nodes()


def verify_feasible(instance: Instance, solution: SolutionGraph) -> List[DemandViolation]:
    """Empty list iff every demand is met with B-and-Steiner disjoint paths.

    Runs element max-flows, skipping the demands the triangle inequality
    decides, not the lowlink pass that is_feasible shares with the search,
    so the final check of an emitted solution stays independent of it.
    """
    return list(_deficiencies(instance, *_graph_elements(solution)))


def is_feasible(instance: Instance, solution: SolutionGraph) -> bool:
    """True iff every demand is met; one lowlink pass over the solution graph."""
    caps, q = _graph_elements(solution)
    return next(_unit_deficiencies(instance, caps, q, range(solution.n_nodes)), None) is None


def prune_minimal(instance: Instance, solution: SolutionGraph) -> SolutionGraph:
    """Remove edges (longest first) while feasibility holds, then the Steiner
    nodes left without an edge."""
    if not is_feasible(instance, solution):
        raise ConnectivityError("cannot prune an infeasible solution")
    graph = solution
    order = sorted(graph.edges, key=lambda e: (-float(graph.edges[e]), e))
    for edge in order:
        candidate = graph.without_edge(edge)
        if is_feasible(instance, candidate):
            graph = candidate
    # Every kept edge failed its test in a supergraph, and feasibility only drops
    # as edges go, so the relays that can go are exactly the isolated ones.
    linked = {v for e in graph.edges for v in e}
    for node in sorted(set(graph.steiner_ids()) - linked, reverse=True):
        graph = graph.without_steiner(node)
    return graph


# ---------------------------------------------------------------------------
# Bead copies and the integral cut engine


@dataclass(frozen=True)
class CopyTable:
    """The parallel bead copies of every terminal pair, as counts per pair.

    A pair within unit distance has one free copy (``base_caps``).  Every
    other copy costs ``pair_cost`` beads (one for the extra copies of a free
    pair), and at most ``max_extra`` of them can be bought, so a pair has
    k = max(1, largest demand) copies in all.  A purchase is a count map
    {pair: copies bought}.
    """

    pair_cost: Dict[Tuple[int, int], int]
    max_extra: Dict[Tuple[int, int], int]
    base_caps: Dict[Tuple[int, int], int]

    def caps(self, counts) -> Dict[Tuple[int, int], int]:
        caps = dict(self.base_caps)
        for pair, cnt in counts.items():
            caps[pair] = caps.get(pair, 0) + cnt
        return caps

    def cost(self, counts) -> int:
        return sum(self.pair_cost[p] * c for p, c in counts.items())

    def candidates(self, counts, cut: Biset) -> List[Tuple[int, int]]:
        """Pairs crossing the cut with a copy left to buy, cheapest first."""
        found = [
            p
            for p in crossing_pairs(self.pair_cost, cut)
            if counts.get(p, 0) < self.max_extra[p]
        ]
        return sorted(found, key=lambda p: (self.pair_cost[p], p))


def copy_table(instance: Instance) -> CopyTable:
    """The copy table at k = max(1, largest demand): no demand needs more
    parallel copies of one pair than it asks for."""
    k = max(1, instance.max_demand)
    pair_cost: Dict[Tuple[int, int], int] = {}
    max_extra: Dict[Tuple[int, int], int] = {}
    base_caps: Dict[Tuple[int, int], int] = {}
    for p, dhat in instance.bead_costs.items():
        if dhat > 0:
            pair_cost[p] = dhat
            max_extra[p] = k
            continue
        base_caps[p] = 1
        if k > 1:
            pair_cost[p] = 1
            max_extra[p] = k - 1
    return CopyTable(pair_cost, max_extra, base_caps)


def crossing_pairs(pairs, cut: Biset) -> List[Tuple[int, int]]:
    """Pairs with one end inside the cut and no end on its boundary."""
    inner = cut.inner
    blocked = cut.boundary
    crossing = []
    for (a, b) in pairs:
        if a in blocked or b in blocked:
            continue
        if (a in inner) != (b in inner):
            crossing.append((a, b))
    return crossing


def violated_cuts(instance: Instance, caps) -> Iterator[DemandViolation]:
    """Violated constraints of the cut relaxation over pair capacities ``caps``.

    Each is an unmet demand of the element flow with the unstable terminals
    as Q, so its witness has at most one unstable terminal on the boundary,
    and a cut with boundary b needs ``required - len(b)`` crossing capacity.
    """
    return _deficiencies(instance, caps, instance.unstable)


class CopyGraph:
    """The terminal multigraph of a copy table under a purchase that changes
    one copy at a time.

    It is built once from a count map: its lowlink adjacency comes from the
    free plus the bought copies, with the integer check of their capacities.
    ``buy`` and ``sell`` then add and remove one bought copy of a pair in
    place, in ``counts`` and the adjacency, and ``first_deficiency`` runs one
    lowlink pass on the current multigraph.
    Branch and bound, greedy_patch and reverse_delete all run on it.
    """

    def __init__(self, instance: Instance, table: CopyTable, counts=()):
        self.counts: Dict[Tuple[int, int], int] = dict(counts)
        self._adj = _multiplicities(table.caps(self.counts), range(instance.n))
        self._demands = instance.demand_pairs()
        self._q = instance.unstable

    def buy(self, pair: Tuple[int, int]) -> None:
        a, b = pair
        self.counts[pair] = self.counts.get(pair, 0) + 1
        row_a, row_b = self._adj[a], self._adj[b]
        row_a[b] = row_a.get(b, 0) + 1
        row_b[a] = row_b.get(a, 0) + 1

    def sell(self, pair: Tuple[int, int]) -> None:
        """Remove one bought copy of ``pair``; KeyError when none is bought."""
        a, b = pair
        rows = ((self.counts, pair), (self._adj[a], b), (self._adj[b], a))
        for row, key in rows:
            if row[key] == 1:
                del row[key]
            else:
                row[key] -= 1

    def first_deficiency(self) -> Optional[DemandViolation]:
        """The first cut violated_cuts yields on the same capacities, or None."""
        return next(_lowlink_deficiencies(self._demands, self._adj, self._q), None)


def greedy_patch(instance: Instance, table: CopyTable, counts) -> Dict[Tuple[int, int], int]:
    """Buy the cheapest copy across the first deficient cut until none is left."""
    graph = CopyGraph(instance, table, counts)
    while True:
        defic = graph.first_deficiency()
        if defic is None:
            return graph.counts
        candidates = table.candidates(graph.counts, defic.witness)
        if not candidates:
            raise ConnectivityError("deficient cut with no purchasable copy")
        graph.buy(candidates[0])


def reverse_delete(instance: Instance, table: CopyTable, counts) -> Dict[Tuple[int, int], int]:
    """Drop bought copies, costliest first, while every demand stays met."""
    graph = CopyGraph(instance, table, counts)
    order = sorted(
        (p for p in counts for _ in range(counts[p])),
        key=lambda p: (-table.pair_cost[p], p),
    )
    for p in order:
        graph.sell(p)
        if graph.first_deficiency() is not None:
            graph.buy(p)
    return graph.counts


def round_tau_star(
    instance: Instance, table: CopyTable, tau: TauStarResult
) -> Dict[Tuple[int, int], int]:
    """Buy floor(y + 1/2) copies of every pair that tau_star's vertex buys
    y of, complete the purchase with greedy_patch, and reverse-delete it.

    The rounded copies cost at most 2 * tau*, since floor(y + 1/2) <= 2y for
    every y >= 1/2.  No theorem says they meet every demand, so greedy_patch
    completes them; a purchase it had to patch carries no factor.
    """
    counts = {p: math.floor(y + _HALF) for p, y in tau.bought.items() if y >= _HALF}
    return reverse_delete(instance, table, greedy_patch(instance, table, counts))


# ---------------------------------------------------------------------------
# Blocks and R-components


def blocks(edges, nodes=()):
    """2-connected components and bridges; every edge lands in exactly one block.

    A child c opens a new block when low[c] >= disc[parent[c]] and otherwise
    shares its parent's block; an edge joins the block of its deeper end.
    Repeated pairs collapse to one edge.
    """
    pairs = [(a, b) for a, b in _edge_pairs(edges) if a != b]
    adj: Dict[int, Dict[int, int]] = {v: {} for v in nodes}
    for a, b in pairs:
        adj.setdefault(a, {})[b] = 1
        adj.setdefault(b, {})[a] = 1
    order, disc, low, _, parent = _lowlink(adj)
    block: Dict[int, int] = {}
    for v in order:
        p = parent[v]
        if p is not None:
            block[v] = v if low[v] >= disc[p] else block[p]
    found: Dict[int, Set[Tuple[int, int]]] = {}
    for a, b in pairs:
        deeper = a if disc[a] > disc[b] else b
        found.setdefault(block[deeper], set()).add((a, b))
    return sorted((frozenset(blk) for blk in found.values()), key=lambda blk: sorted(blk))


def r_components(edges, terminals: Iterable[int], nodes=()):
    """One subgraph per component of G minus R, with its terminal attachments,
    in order of their smallest relay; relays in ``nodes`` without an edge
    stay single-node components."""
    terminals = set(terminals)
    joined = UnionFind(v for v in nodes if v not in terminals)
    attached = []  # (a relay end, edge)
    for a, b in _edge_pairs(edges):
        if a in terminals and b in terminals:
            continue
        relay = b if a in terminals else a
        joined.union(relay, relay if b in terminals else b)  # registers a lone relay
        attached.append((relay, (a, b)))
    # Class roots are smallest members, so the classes come in relay order.
    comps: Dict[int, Tuple[Set[int], Set[Tuple[int, int]]]] = {}
    for v in sorted(joined.parent):
        comps.setdefault(joined.find(v), (set(), set()))[0].add(v)
    for relay, edge in attached:
        comp_nodes, comp_edges = comps[joined.find(relay)]
        comp_nodes.update(edge)
        comp_edges.add(edge)
    return [(frozenset(ns), frozenset(es)) for ns, es in comps.values()]


def dfs_cycle(edges, terminals: Iterable[int]):
    """Euler-style cycle of a Steiner tree, duplicating each internal node.

    Returns the cyclic occurrence list [(node, copy_index), ...]; every
    terminal appears once and every internal node deg(v) times, and
    consecutive occurrences always share a tree edge.  The leaves must be
    exactly the tree's terminals.
    """
    terminals = set(terminals)
    pairs = _edge_pairs(edges)
    adj = adjacency_of(pairs)
    if not adj:
        raise ConnectivityError("empty tree")
    if len(pairs) != len(adj) - 1 or hyperedge_classes(pairs, adj) != 1:
        raise ConnectivityError("input is not a tree")
    leaves = {v for v, nb in adj.items() if len(nb) == 1}
    for v in terminals & set(adj):
        if v not in leaves:
            raise ConnectivityError("terminal %r is internal in the tree" % (v,))
    if not leaves <= terminals:
        raise ConnectivityError("tree has a non-terminal leaf")
    root = min(leaves & terminals)

    seq: List[int] = []
    stack = [(root, None, iter(sorted(adj[root])))]
    seq.append(root)
    while stack:
        v, parent, it = stack[-1]
        moved = False
        for w in it:
            if w == parent:
                continue
            seq.append(w)
            stack.append((w, v, iter(sorted(adj[w]))))
            moved = True
            break
        if not moved:
            stack.pop()
            if stack:
                seq.append(stack[-1][0])
    # The walk ends back at the root; drop the trailing occurrence (cyclic).
    assert seq[-1] == root
    seq = seq[:-1]
    counts: Dict[int, int] = {}
    out = []
    for v in seq:
        out.append((v, counts.get(v, 0)))
        counts[v] = counts.get(v, 0) + 1
    return out


# ---------------------------------------------------------------------------
# Fractional bead solutions


@dataclass(frozen=True)
class WitnessEdge:
    u: int
    v: int
    copy: int
    cost: int
    x: Fraction


@dataclass(frozen=True)
class FractionalBeadSolution:
    """Capacities on parallel terminal-pair edges, each worth its bead cost."""

    entries: Tuple[WitnessEdge, ...]

    def __post_init__(self):
        for e in self.entries:
            if not (0 <= e.x <= 1):
                raise ConnectivityError("capacities must lie in [0,1]")
            if e.cost < 0:
                raise ConnectivityError("bead costs are nonnegative")

    @property
    def value(self) -> Fraction:
        return sum((e.x * e.cost for e in self.entries), Fraction(0))

    def pair_capacities(self) -> Dict[Tuple[int, int], Fraction]:
        caps: Dict[Tuple[int, int], Fraction] = {}
        for e in self.entries:
            key = tuple(sorted((e.u, e.v)))
            caps[key] = caps.get(key, Fraction(0)) + e.x
        return caps

    def to_json(self):
        return {
            "value": str(self.value),
            "edges": [
                {"u": e.u, "v": e.v, "copy": e.copy, "cost": e.cost, "x": str(e.x)}
                for e in self.entries
            ],
        }


def half_integral_witness(solution: SolutionGraph) -> FractionalBeadSolution:
    """Certificate from a pruned minimal solution: DFS cycles at capacity 1/2.

    Each Steiner component must be a tree (anything else means the input was
    not minimal).  Segments of a component's cycle between consecutive
    terminals become parallel pair edges whose cost is the number of interior
    Steiner copies; terminal-terminal solution edges keep capacity one.
    """
    nt = solution.n_terminals
    terminals = set(range(nt))
    copy_counter: Dict[Tuple[int, int], int] = {}
    entries: List[WitnessEdge] = []

    def add(u: int, v: int, cost: int, x: Fraction):
        key = tuple(sorted((u, v)))
        idx = copy_counter.get(key, 0)
        copy_counter[key] = idx + 1
        entries.append(WitnessEdge(key[0], key[1], idx, cost, x))

    for (a, b) in sorted(solution.edges):
        if a < nt and b < nt:
            add(a, b, 0, Fraction(1))

    for comp_nodes, comp_edges in r_components(solution.edges, terminals):
        if len(comp_edges) != len(comp_nodes) - 1:
            raise NonTreeComponentError(
                "Steiner component %s is not a tree" % sorted(comp_nodes)
            )
        cycle = dfs_cycle(comp_edges, terminals & comp_nodes)
        term_positions = [k for k, (v, _) in enumerate(cycle) if v in terminals]
        if len(term_positions) == 1:
            # Single attachment: the component serves no demand crossing, but a
            # minimal solution never keeps it; guard anyway.
            continue
        for pi in range(len(term_positions)):
            a_pos = term_positions[pi]
            b_pos = term_positions[(pi + 1) % len(term_positions)]
            u = cycle[a_pos][0]
            v = cycle[b_pos][0]
            if b_pos > a_pos:
                interior = b_pos - a_pos - 1
            else:
                interior = len(cycle) - a_pos - 1 + b_pos
            add(u, v, interior, _HALF)
    return FractionalBeadSolution(tuple(entries))


def fractional_feasible(
    instance: Instance, fractional: FractionalBeadSolution
) -> Optional[DemandViolation]:
    """Separation over the cut relaxation: the first violated cut, or None."""
    return next(violated_cuts(instance, fractional.pair_capacities()), None)


# ---------------------------------------------------------------------------
# Exact optimum of the cut relaxation


@dataclass(frozen=True)
class TauStarResult:
    """tau*, its LP vertex as the capacity ``bought`` per pair beyond the
    free copies (nonzero entries only), and the LP's work."""

    value: Fraction
    bought: Mapping[Tuple[int, int], Fraction]
    cuts: int
    lp_solves: int  # solve calls of the one CoverLP, one per cut round
    pivots: int  # dual simplex pivots over those solves


def tau_star(instance: Instance) -> TauStarResult:
    """Optimal fractional bead value by constraint generation, exactly.

    Variables aggregate the bought copies of one pair in the copy table
    (identical LP columns); free copies are fixed at capacity one and moved
    to the right hand side.  Every cut violated_cuts yields becomes a row, up
    to _MAX_CUTS rows.  One CoverLP takes each round's new rows and
    re-optimizes from the previous round's basis; the last round's
    solution is the vertex it returns.
    """
    if instance.max_demand == 0:
        return TauStarResult(Fraction(0), {}, 0, 0, 0)

    pairs = list(instance.bead_costs)
    table = copy_table(instance)
    var_of = {p: idx for idx, p in enumerate(table.pair_cost)}
    lp = CoverLP(
        list(table.pair_cost.values()), [table.max_extra[p] for p in table.pair_cost]
    )
    free_cap = table.base_caps

    fresh: List[CoverRow] = []
    seen_rows: Set[Tuple[Tuple[int, ...], Fraction]] = set()

    def add_cut(crossing, need) -> bool:
        coeffs = {}
        fixed = 0
        for p in crossing:
            fixed += free_cap.get(p, 0)
            if p in var_of:
                coeffs[var_of[p]] = Fraction(1)
        rhs = Fraction(need - fixed)
        if rhs <= 0 or not coeffs:
            return False
        key = (tuple(sorted(coeffs)), rhs)
        if key in seen_rows:
            return False
        seen_rows.add(key)
        fresh.append(CoverRow(coeffs, rhs))
        return True

    # Seed with the singleton cuts of every demand endpoint.
    for (i, j, r) in instance.demand_pairs():
        for v in (i, j):
            add_cut([p for p in pairs if v in p], r)

    while True:
        if len(seen_rows) > _MAX_CUTS:
            raise ConnectivityError("cut generation exceeded %d rows" % _MAX_CUTS)
        lp.add_rows(fresh)
        fresh.clear()
        value, y = lp.solve()
        bought = {p: yp for p, yp in zip(table.pair_cost, y) if yp}
        caps = table.caps(bought)
        progress = False
        violated = False
        for cut in violated_cuts(instance, caps):
            violated = True
            need = cut.required - len(cut.witness.boundary)
            progress |= add_cut(crossing_pairs(pairs, cut.witness), need)
        if violated and not progress:
            raise ConnectivityError("separation produced no new cut")
        if not progress:
            break
    return TauStarResult(Fraction(value), bought, len(seen_rows), lp.solves, lp.pivots)
