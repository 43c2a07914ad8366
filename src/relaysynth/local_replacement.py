"""Greedy spanning-tree improvement over a costed hypergraph.

Starting from a spanning tree on the pair edges, repeatedly pick the hyperedge
whose contraction removes the most tree cost per unit of its own cost, commit
it while that trade is strictly profitable, and return the surviving tree
edges together with the committed hyperedges.  The run trace records every
committed step so the logarithmic cost bound can be replayed afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from .beads import BeadEdge, realize
from .connectivity import UnionFind, verify_feasible
from .instances import Instance, Point, SolutionGraph
from .steiner import (
    Hyperedge,
    Hypergraph,
    HypergraphError,
    SchemeConfig,
    build_component_hypergraph,
    coord_keys,
    mst_pairs,
    require_all_pairs_unit_demands,
)


def costed_hypergraph(nodes: Iterable[int], edge_items) -> Hypergraph:
    """Build a cost-only hypergraph from [(nodes, cost), ...]."""
    edges = tuple(Hyperedge(frozenset(ns), cost) for ns, cost in edge_items)
    return Hypergraph(tuple(sorted(nodes)), edges)


# ---------------------------------------------------------------------------
# Maximum overlapped edge set


def max_overlapped_set(
    tree_edges: Sequence[Tuple[int, int, object]], group: Iterable[int]
) -> List[Tuple[int, int, object]]:
    """Costliest tree-edge set whose removal is repaired by contracting the group.

    Equivalently the complement of the cheapest spanning tree after the
    contraction; ties resolve lexicographically so reruns are stable.
    """
    group = set(group)
    nodes = set()
    for u, v, _ in tree_edges:
        nodes.update((u, v))
    if not group <= nodes:
        raise HypergraphError("group is not contained in the tree")
    if len(group) < 2:
        return []

    anchor = min(group)

    def rep(x):
        return anchor if x in group else x

    joined = UnionFind()
    dropped = []
    order = sorted(
        enumerate(tree_edges), key=lambda item: (item[1][2], item[1][0], item[1][1])
    )
    kept_ids = set()
    for idx, (u, v, cost) in order:
        if joined.union(rep(u), rep(v)):
            kept_ids.add(idx)
    for idx, edge in enumerate(tree_edges):
        if idx not in kept_ids:
            dropped.append(edge)
    return dropped


# ---------------------------------------------------------------------------
# The replacement loop


@dataclass(frozen=True)
class TraceStep:
    step: int
    chosen: Tuple[int, ...]
    hyperedge_cost: object
    removed_cost: object
    remaining_cost: object

    def to_json(self):
        return {
            "step": self.step,
            "chosen": list(self.chosen),
            "s_i": str(self.hyperedge_cost),
            "removed_cost": str(self.removed_cost),
            "f_i": str(self.remaining_cost),
        }


@dataclass(frozen=True)
class ReplacementTrace:
    start_cost: object
    steps: Tuple[TraceStep, ...]
    stopped_early: bool  # True when the loop ended on an unprofitable maximizer

    def to_json(self):
        return {
            "f_0": str(self.start_cost),
            "stopped_early": self.stopped_early,
            "steps": [s.to_json() for s in self.steps],
        }


@dataclass(frozen=True)
class ReplacementResult:
    kept_pairs: Tuple[Hyperedge, ...]
    selected: Tuple[Hyperedge, ...]
    trace: ReplacementTrace

    @property
    def cost(self):
        return sum(e.cost for e in self.kept_pairs) + sum(
            e.cost for e in self.selected
        )

    def all_edges(self) -> Tuple[Hyperedge, ...]:
        return self.kept_pairs + self.selected


def _ratio_better(a_num, a_den, b_num, b_den) -> bool:
    """a_num/a_den > b_num/b_den with zero denominators read as +infinity."""
    if a_den == 0 and b_den == 0:
        return a_num > b_num  # both infinite: larger overlap wins
    if a_den == 0:
        return a_num > 0
    if b_den == 0:
        return b_num <= 0
    return a_num * b_den > b_num * a_den


def local_replacement(
    hypergraph: Hypergraph, tree: Sequence[Hyperedge]
) -> ReplacementResult:
    """Run the improvement loop from a spanning tree of the pair edges.

    The tree edges are taken from `hypergraph.edges`, and each is tracked by
    its position there, so equal node sets stay distinct.
    """
    nodes = set(hypergraph.nodes)
    position = {id(e): eid for eid, e in enumerate(hypergraph.edges)}
    spanned = UnionFind(nodes)
    live: List[Tuple[int, int, object, int]] = []
    for e in tree:
        if not e.is_pair:
            raise HypergraphError("the starting tree must consist of pair edges")
        eid = position.get(id(e))
        if eid is None:
            raise HypergraphError("tree edge %r is not part of the hypergraph" % (e,))
        if not spanned.union(*e.nodes):
            raise HypergraphError("the starting edges contain a cycle")
        u, v = sorted(e.nodes)
        live.append((u, v, e.cost, eid))
    if len(tree) != len(nodes) - 1 or len({spanned.find(v) for v in nodes}) != 1:
        raise HypergraphError("the starting edges do not span the nodes as a tree")

    merged = UnionFind(nodes)
    rep = merged.find

    f0 = sum(c for _, _, c, _ in live)
    steps: List[TraceStep] = []
    selected: List[Hyperedge] = []
    stopped_early = False

    if f0 > 0:
        step = 0
        while sum(c for _, _, c, _ in live) > 0:
            # hypergraph.edges is ordered by (cardinality, node ids), so letting
            # the first strict improvement win resolves ratio ties that way.
            best = None
            best_drop = None
            for edge in hypergraph.edges:
                group = {rep(v) for v in edge.nodes}
                if len(group) < 2:
                    continue
                drop = max_overlapped_set(
                    [(u, v, c) for u, v, c, _ in live], group
                )
                gain = sum(c for _, _, c in drop)
                if best is None or _ratio_better(gain, edge.cost, best[0], best[1]):
                    best = (gain, edge.cost, edge)
                    best_drop = drop
            if best is None or not best[0] > best[1]:
                stopped_early = best is not None
                break
            gain, _, edge = best
            # Drop exactly the overlapped copies, respecting multiplicity.
            remaining = list(best_drop)
            new_live = []
            for u, v, c, eid in live:
                if (u, v, c) in remaining:
                    remaining.remove((u, v, c))
                else:
                    new_live.append((u, v, c, eid))
            anchor = min(edge.nodes)
            for v in edge.nodes:
                merged.union(anchor, v)
            live = [
                (min(rep(u), rep(v)), max(rep(u), rep(v)), c, eid)
                for u, v, c, eid in new_live
            ]
            selected.append(edge)
            step += 1
            steps.append(
                TraceStep(
                    step,
                    tuple(sorted(edge.nodes)),
                    edge.cost,
                    gain,
                    sum(c for _, _, c, _ in live),
                )
            )

    kept = tuple(
        hypergraph.edges[eid] for _, _, _, eid in sorted(live, key=lambda t: t[3])
    )
    trace = ReplacementTrace(f0, tuple(steps), stopped_early)
    return ReplacementResult(kept, tuple(selected), trace)


# ---------------------------------------------------------------------------
# Full scheme for all-pairs unit demands


@dataclass(frozen=True)
class SchemeResult:
    solution: SolutionGraph
    selection: Tuple[Hyperedge, ...]
    trace: ReplacementTrace
    hypergraph: Hypergraph
    mst_cost: int
    selection_cost: object

    @property
    def size(self) -> int:
        return len(self.solution.steiner)


def st_msp_scheme(
    instance: Instance, config: Optional[SchemeConfig] = None
) -> SchemeResult:
    """Hypergraph spanning pipeline: oracle costs, MST start, replacement, witnesses."""
    config = config or SchemeConfig()
    require_all_pairs_unit_demands(instance)
    hypergraph = build_component_hypergraph(instance, config)
    tree = [hypergraph.edge_for((i, j)) for _, i, j in mst_pairs(instance)]
    mst_cost = sum(e.cost for e in tree)

    result = local_replacement(hypergraph, tree)

    # A witness with abstract beads is its set's bead-MST chains (the oracle's
    # fallback); it is placed as those chains, next to the concrete relays.
    chains: List[BeadEdge] = []
    points: List[Point] = []
    seen = set()
    terminal_keys = set()
    if instance.metric.kind == "euclidean":
        terminal_keys = set(coord_keys([p.coords for p in instance.terminals]))
    for edge in result.all_edges():
        if any(p.is_abstract for p in edge.witness):
            mst = mst_pairs(instance, edge.nodes)
            chains.extend(BeadEdge(i, j, 0, cost) for cost, i, j in mst)
            continue
        for p in edge.witness:
            key = coord_keys([p.coords])[0] if p.coords else ("n", p.index)
            if key in seen or key in terminal_keys:
                continue
            seen.add(key)
            points.append(p)

    solution = realize(instance, chains, points).solution
    bad = verify_feasible(instance, solution)
    if bad:
        raise HypergraphError("scheme produced an infeasible union: %r" % (bad[0],))
    return SchemeResult(
        solution,
        result.all_edges(),
        result.trace,
        hypergraph,
        mst_cost,
        result.cost,
    )
