"""Tree surgery certifying the rank-bounded hypergraph cover of Steiner trees.

Pipeline: normalize a costed tree into a full binary tree whose leaves are the
terminals, construct a mapping from internal nodes to descendant leaves along
edge-disjoint paths that each cross a unit-cost edge, cut the tree into
depth-bounded pieces at the cheapest level offset, and emit one hyperedge per
piece.  Every structural claim is re-checked on the produced objects rather
than trusted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from .connectivity import adjacency_of, hyperedge_classes, r_components
from .errors import RelaysynthError


class DecompositionError(RelaysynthError, ValueError):
    pass


class CostedRootedTree:
    """Rooted tree with terminal leaves, per-edge costs, and node provenance.

    After ``normalize_binary`` the three shape facts hold: terminals are
    exactly the leaves, each edge cost is 0 or >= 1 with at most one zero-cost
    child edge per node, and every internal node has exactly two children.
    """

    def __init__(self, root, parent, up_cost, terminals, provenance):
        self.root = root
        self.parent: Dict[int, Optional[int]] = dict(parent)
        self.up_cost: Dict[int, object] = dict(up_cost)
        self.terminals: Set[int] = set(terminals)
        self.provenance: Dict[int, int] = dict(provenance)
        self.children: Dict[int, List[int]] = {v: [] for v in self.parent}
        for v, p in self.parent.items():
            if p is not None:
                self.children[p].append(v)
        for v in self.children:
            self.children[v].sort()
        self.depth: Dict[int, int] = {self.root: 0}
        order = [self.root]
        for v in order:
            for c in self.children[v]:
                self.depth[c] = self.depth[v] + 1
                order.append(c)
        if set(self.depth) != set(self.parent):
            raise DecompositionError("tree is not connected under the parent map")

    def nodes(self):
        return sorted(self.parent)

    def leaves(self):
        return sorted(v for v in self.parent if not self.children[v])

    def internal_nodes(self):
        return sorted(v for v in self.parent if self.children[v])

    def total_cost(self):
        return sum(self.up_cost[v] for v in self.parent if v != self.root)

    def f1_children(self, v) -> List[int]:
        return [c for c in self.children[v] if self.up_cost[c] >= 1]

    def path_to_ancestor(self, node, ancestor) -> List[Tuple[int, int]]:
        """Edges from a node up to one of its ancestors, as (parent, child)."""
        path = []
        v = node
        while v != ancestor:
            p = self.parent[v]
            if p is None:
                raise DecompositionError("%r is not an ancestor of %r" % (ancestor, node))
            path.append((p, v))
            v = p
        return path

    def check_shape(self):
        leaves = set(self.leaves())
        if leaves != self.terminals:
            raise DecompositionError("terminals and leaves disagree after normalization")
        for v in self.parent:
            if v == self.root:
                continue
            c = self.up_cost[v]
            if not (c == 0 or c >= 1):
                raise DecompositionError("edge cost %r is neither 0 nor >= 1" % (c,))
        for v in self.internal_nodes():
            kids = self.children[v]
            if len(kids) != 2:
                raise DecompositionError("node %r has %d children" % (v, len(kids)))
            zeros = [c for c in kids if self.up_cost[c] == 0]
            if len(zeros) > 1:
                raise DecompositionError("node %r has two zero-cost child edges" % (v,))


def _peel(adj, keep) -> Set[int]:
    """Nodes left once every leaf outside ``keep`` is removed, repeatedly."""
    degree = {v: len(nb) for v, nb in adj.items()}
    stack = [v for v, d in degree.items() if d <= 1 and v not in keep]
    gone = set(stack)
    while stack:
        for w in adj[stack.pop()]:
            degree[w] -= 1
            if degree[w] == 1 and w not in keep:
                gone.add(w)
                stack.append(w)
    return set(adj) - gone


def normalize_binary(
    edges: Sequence[Tuple[int, int, object]], terminals: Iterable[int]
) -> CostedRootedTree:
    """Standard reductions to a full binary tree with terminal leaves.

    Input edge costs must already be 0 or >= 1 with at most one zero-cost edge
    per node, and an internal terminal must not already have a zero-cost child
    edge: its zero-cost companion leaf would add a second, and since every
    fresh edge costs zero, some node of its binary split then has two
    zero-cost children (three leaves, two internal nodes at the least).
    Companion leaves and fan-out splits add only zero-cost edges, and
    contracting a relay path keeps its cost on the merged edge; pruning
    terminal-free branches and handing the root down a relay path drop cost.
    """
    terminals = set(terminals)
    if not terminals:
        raise DecompositionError("terminal set is empty")
    nodes = set()
    adj: Dict[int, Dict[int, object]] = {}
    for u, v, c in edges:
        if not (c == 0 or c >= 1):
            raise DecompositionError("edge cost %r is neither 0 nor >= 1" % (c,))
        nodes.update((u, v))
        adj.setdefault(u, {})[v] = c
        adj.setdefault(v, {})[u] = c
    nodes.update(terminals)
    if len(nodes) <= 1:
        raise DecompositionError("single-node tree cannot be normalized")
    if len(edges) != len(nodes) - 1:
        raise DecompositionError("input is not a tree")

    root = min((v for v in adj if len(adj[v]) >= 2), default=min(nodes))
    parent: Dict[int, Optional[int]] = {root: None}
    stack = [root]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in parent:
                parent[w] = v
                stack.append(w)
    if len(parent) != len(nodes):
        raise DecompositionError("input is not connected")

    # Remove terminal-free leaf branches.
    kept = _peel(adj, terminals | {root})
    parent = {v: parent[v] for v in kept}
    up_cost = {v: adj[v][parent[v]] for v in kept - {root}}
    children: Dict[int, Set[int]] = {v: set() for v in kept}
    for v in up_cost:
        children[parent[v]].add(v)
    term = set(terminals)
    prov = {v: v for v in nodes}
    next_id = max(nodes) + 1

    # Give every internal terminal a zero-cost companion leaf.
    for v in sorted(parent):
        if v in term and children[v]:
            comp = next_id
            next_id += 1
            parent[comp] = v
            up_cost[comp] = 0
            children[comp] = set()
            children[v].add(comp)
            prov[comp] = prov[v]
            term.discard(v)
            term.add(comp)

    # Contract single-child relays; splicing one out leaves every other
    # node's child count unchanged, so one pass reaches them all.
    for v in sorted(parent):
        if v != root and v not in term and len(children[v]) == 1:
            (child,) = children.pop(v)
            p = parent.pop(v)
            parent[child] = p
            up_cost[child] += up_cost.pop(v)
            children[p].discard(v)
            children[p].add(child)
    while root not in term and len(children[root]) == 1:
        (child,) = children.pop(root)
        del parent[root]
        parent[child] = None
        del up_cost[child]
        root = child

    # Split fan-outs so every internal node keeps exactly two children.
    queue = [v for v in sorted(parent) if len(children.get(v, ())) > 2]
    while queue:
        v = queue.pop(0)
        if len(children.get(v, ())) <= 2:
            continue
        payers = sorted(c for c in children[v] if up_cost[c] >= 1)
        if not payers:
            raise DecompositionError("node %r has only zero-cost child edges" % (v,))
        keep = payers[0]
        fresh = next_id
        next_id += 1
        parent[fresh] = v
        up_cost[fresh] = 0
        children[fresh] = set()
        prov[fresh] = prov[v]
        for c in sorted(children[v]):
            if c in (keep, fresh):
                continue
            children[v].discard(c)
            children[fresh].add(c)
            parent[c] = fresh
        children[v].add(fresh)
        queue.append(fresh)

    tree = CostedRootedTree(root, parent, up_cost, term, prov)
    tree.check_shape()
    return tree


# ---------------------------------------------------------------------------
# Proper mappings


def check_proper_mapping(tree: CostedRootedTree, mapping: Dict[int, int]) -> None:
    used_edges: Set[Tuple[int, int]] = set()
    for u in tree.internal_nodes():
        if u not in mapping:
            raise DecompositionError("internal node %r is unmapped" % (u,))
        target = mapping[u]
        if target not in tree.terminals:
            raise DecompositionError("%r maps to non-terminal %r" % (u, target))
        path = tree.path_to_ancestor(target, u)  # raises unless descendant
        if not any(tree.up_cost[c] >= 1 for _, c in path):
            raise DecompositionError("path of %r crosses no unit-cost edge" % (u,))
        for e in path:
            if e in used_edges:
                raise DecompositionError("paths overlap on edge %r" % (e,))
            used_edges.add(e)


def proper_mapping(tree: CostedRootedTree) -> Dict[int, int]:
    """Map each internal node to a descendant leaf along edge-disjoint paths.

    Built level by level.  When a former leaf becomes internal it claims one
    of its unit-cost child edges; the single older node whose target sat there
    is diverted to the sibling, keeping its unit-cost edge from before.
    """
    mapping: Dict[int, int] = {}
    target_of: Dict[int, int] = {}  # leaf -> the internal node mapped onto it
    max_depth = max(tree.depth.values(), default=0)
    for h in range(1, max_depth + 1):
        fresh = [
            v
            for v in tree.internal_nodes()
            if tree.depth[v] == h - 1 and tree.children[v]
        ]
        for v in sorted(fresh):
            payers = tree.f1_children(v)
            if not payers:
                raise DecompositionError("no unit-cost child edge at %r" % (v,))
            claimed = payers[0]
            incoming = target_of.pop(v, None)
            mapping[v] = claimed
            target_of[claimed] = v
            if incoming is not None:
                siblings = [c for c in tree.children[v] if c != claimed]
                other = siblings[0]
                mapping[incoming] = other
                target_of[other] = incoming
    check_proper_mapping(tree, mapping)
    return mapping


# ---------------------------------------------------------------------------
# Level-cut partition


@dataclass(frozen=True)
class TreePiece:
    root: int
    edges: Tuple[Tuple[int, int], ...]  # (parent, child)
    hyperedge: FrozenSet[int]  # terminal leaves plus mapped images of boundaries


@dataclass(frozen=True)
class LevelCutPartition:
    pieces: Tuple[TreePiece, ...]
    span: int  # floor(lg p)
    connecting_paths: Tuple[Tuple[int, Tuple[Tuple[int, int], ...]], ...]
    path_cost_total: object


def level_cut_partition(
    tree: CostedRootedTree, mapping: Dict[int, int], p: int
) -> LevelCutPartition:
    """Cut edges at the cheapest depth offset of span floor(lg p).

    Pieces keep at most 2^span leaves, every boundary node contributes one
    connecting path to its mapped terminal, and the resulting hypergraph over
    the terminals is connected of rank at most p.
    """
    if p < 2:
        raise DecompositionError("rank target p must be at least 2")
    span = p.bit_length() - 1
    internal = tree.internal_nodes()

    def path_cost(v) -> object:
        return sum(tree.up_cost[c] for _, c in tree.path_to_ancestor(mapping[v], v))

    best_offset = 0
    best_cost = None
    for offset in range(span):
        cost = sum(
            path_cost(v)
            for v in internal
            if tree.depth[v] >= 1 and tree.depth[v] % span == offset
        )
        if best_cost is None or cost < best_cost:
            best_offset, best_cost = offset, cost

    cut_nodes = {
        v
        for v in internal
        if tree.depth[v] >= 1 and tree.depth[v] % span == best_offset
    }
    piece_roots = {tree.root} | cut_nodes

    groups: Dict[int, List[Tuple[int, int]]] = {r: [] for r in piece_roots}
    for v in tree.nodes():
        if v == tree.root:
            continue
        u = tree.parent[v]
        anchor = u
        while anchor not in piece_roots:
            anchor = tree.parent[anchor]
        groups[anchor].append((u, v))

    pieces: List[TreePiece] = []
    paths: List[Tuple[int, Tuple[Tuple[int, int], ...]]] = []
    total_path_cost = 0
    for rt in sorted(groups):
        edges = sorted(groups[rt])
        if not edges:
            continue
        piece_nodes = {rt}
        non_leaf = set()
        for u, v in edges:
            piece_nodes.update((u, v))
            non_leaf.add(u)
        leaves = sorted(piece_nodes - non_leaf)
        term_leaves = tuple(v for v in leaves if v in tree.terminals)
        boundary = tuple(v for v in leaves if v not in tree.terminals)
        hyper = set(term_leaves)
        for w in boundary:
            if w not in cut_nodes:
                raise DecompositionError("piece leaf %r is not a cut node" % (w,))
            hyper.add(mapping[w])
            path = tuple(tree.path_to_ancestor(mapping[w], w))
            paths.append((w, path))
            total_path_cost += sum(tree.up_cost[c] for _, c in path)
        pieces.append(TreePiece(rt, tuple(edges), frozenset(hyper)))

    # Structural re-checks: exact edge partition, rank, count and cost of paths.
    covered = [e for piece in pieces for e in piece.edges]
    if len(covered) != len(set(covered)) or len(covered) != len(tree.nodes()) - 1:
        raise DecompositionError("pieces do not partition the edge set")
    for piece in pieces:
        if len(piece.hyperedge) > p:
            raise DecompositionError("piece hyperedge exceeds rank %d" % p)
    if len(paths) < len(pieces) - 1:
        raise DecompositionError("fewer connecting paths than pieces minus one")
    if total_path_cost * span > tree.total_cost():
        raise DecompositionError("connecting paths exceed the cost budget")
    if hyperedge_classes([piece.hyperedge for piece in pieces], tree.terminals) > 1:
        raise DecompositionError("hyperedges do not connect the terminal set")
    return LevelCutPartition(tuple(pieces), span, tuple(paths), total_path_cost)


# ---------------------------------------------------------------------------
# Rank certificate for trees with bounded relay degree


@dataclass(frozen=True)
class CertificateEdge:
    terminals: FrozenSet[int]
    steiner_support: FrozenSet[int]


@dataclass(frozen=True)
class DecompositionCertificate:
    hyperedges: Tuple[CertificateEdge, ...]
    rank: int
    steiner_total: int
    steiner_budget: Fraction
    p: int


def rank_certificate(
    edges: Sequence[Tuple[int, int]],
    terminals: Iterable[int],
    delta: int,
    k: int,
) -> DecompositionCertificate:
    """Connected hypergraph of rank <= k whose Steiner support stays within budget.

    Works per Steiner component: stars become one hyperedge; larger components
    go through normalization, mapping, and level cutting with rank target
    p = k // (delta - 1); terminal-terminal edges pass through as pairs.
    """
    terminals = set(terminals)
    if delta < 2:
        raise DecompositionError("delta must be at least 2")
    if k < 2 * delta - 2:
        raise DecompositionError("k must be at least 2*delta-2")
    pairs = [tuple(sorted(e)) for e in edges]
    nodes = set(terminals)
    for u, v in pairs:
        nodes.update((u, v))
    if len(pairs) != len(nodes) - 1:
        raise DecompositionError("certificate input must be a tree")
    adj = adjacency_of(pairs)
    for v, nb in adj.items():
        if len(nb) > delta:
            raise DecompositionError("node %r exceeds degree bound %d" % (v, delta))
    if len(terminals) < 2:
        raise DecompositionError("need at least two terminals")
    steiner = nodes - terminals
    p = k // (delta - 1)

    hyperedges: List[FrozenSet[int]] = []
    for u, v in pairs:
        if u in terminals and v in terminals:
            hyperedges.append(frozenset((u, v)))

    for comp_nodes, comp_edges in r_components(pairs, terminals):
        comp = comp_nodes - terminals
        attached = sorted(comp_nodes & terminals)
        if len(attached) < 2:
            continue  # pendant branch: no demand crossing, no hyperedge needed
        boundary_relays = sorted(
            v for v in comp if any(t in terminals for t in adj[v])
        )
        if len(comp) == 1 or len(boundary_relays) == 1:
            # A star (or a component whose terminals all hang off one relay).
            hyperedges.append(frozenset(attached))
            continue
        inner_edges = [
            (u, v, 1) for u, v in sorted(comp_edges) if u in comp and v in comp
        ]
        norm = normalize_binary(inner_edges, boundary_relays)
        mapping = proper_mapping(norm)
        partition = level_cut_partition(norm, mapping, p)
        for piece in partition.pieces:
            originals = {norm.provenance[x] for x in piece.hyperedge}
            grown: Set[int] = set()
            for relay in originals:
                grown.update(t for t in adj[relay] if t in terminals)
            if len(grown) < 2:
                raise DecompositionError("degenerate piece hyperedge")
            hyperedges.append(frozenset(grown))

    if hyperedge_classes(hyperedges, terminals) > 1:
        raise DecompositionError("hyperedges do not connect the terminal set")
    entries = []
    total = 0
    rank = 0
    for he in sorted(hyperedges, key=lambda s: (len(s), sorted(s))):
        support = frozenset(_peel(adj, he) & steiner)
        entries.append(CertificateEdge(he, support))
        total += len(support)
        rank = max(rank, len(he))
    if rank > k:
        raise DecompositionError("certificate rank %d exceeds k=%d" % (rank, k))
    span = p.bit_length() - 1
    budget = (1 + Fraction(2, span)) * len(steiner)
    if total > budget:
        raise DecompositionError(
            "steiner support %d exceeds budget %s" % (total, budget)
        )
    return DecompositionCertificate(tuple(entries), rank, total, budget, p)
