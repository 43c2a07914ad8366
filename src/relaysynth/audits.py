"""Randomized inequality audits shared by the test suite and the CLI.

Each audit draws seeded random structures, replays one of the library's
guarantees against an independent oracle (exhaustive search, partition
shortest-path, or exact separation), and reports violations as strings; an
empty list means the sweep passed.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Dict, FrozenSet, Sequence, Tuple

from .connectivity import UnionFind, adjacency_of, fractional_feasible, r_components
from .decomposition import DecompositionError, rank_certificate
from .generators import draw_box_instance
from .instances import Instance
from .local_replacement import costed_hypergraph, local_replacement, max_overlapped_set
from .steiner import Hyperedge
from .survivable import solve_sn_msp_012

_RANK_KS = (8, 16)  # component size caps k that audit_decomposition alternates


@dataclass(frozen=True)
class AuditOutcome:
    name: str
    trials: int
    violations: Tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self):
        return {
            "name": self.name,
            "trials": self.trials,
            "violations": list(self.violations),
            "ok": self.ok,
        }


# ---------------------------------------------------------------------------
# Random structures


def random_tree(rng: random.Random, n: int, max_degree: int = 0):
    """Random tree edge list on 0..n-1, optionally degree capped."""
    deg = {0: 0}
    edges = []
    for v in range(1, n):
        choices = [u for u in range(v) if not max_degree or deg[u] < max_degree]
        u = rng.choice(choices)
        edges.append((u, v))
        deg[u] = deg.get(u, 0) + 1
        deg[v] = 1
    return edges


def random_connected_hypergraph(rng: random.Random, n: int, extra_edges: int):
    """A spanning tree of costed pair edges plus random costed hyperedges."""
    drawn = []
    for u, v in random_tree(rng, n):
        drawn.append(((u, v), rng.randint(1, 9)))
    for _ in range(extra_edges):
        size = rng.randint(2, n)
        nodes = tuple(sorted(rng.sample(range(n), size)))
        drawn.append((nodes, rng.randint(1, 9)))
    # Collapse duplicate node sets, keeping the cheaper cost.
    best: Dict[FrozenSet[int], int] = {}
    for nodes, cost in drawn:
        key = frozenset(nodes)
        if key not in best or cost < best[key]:
            best[key] = cost
    return costed_hypergraph(range(n), list(best.items()))


def min_spanning_subhypergraph_cost(n: int, edges: Sequence[Hyperedge]) -> int:
    """Exhaustive optimum: shortest merge sequence over node partitions."""
    start = tuple(tuple([v]) for v in range(n))

    def canon(blocks):
        return tuple(sorted(tuple(sorted(b)) for b in blocks))

    dist = {start: 0}
    heap = [(0, start)]
    while heap:
        d, state = heapq.heappop(heap)
        if d > dist.get(state, math.inf):
            continue
        if len(state) == 1:
            return d
        for He in edges:
            touched = []
            rest = []
            for block in state:
                if He.nodes & set(block):
                    touched.append(block)
                else:
                    rest.append(block)
            if len(touched) <= 1:
                continue
            merged = tuple(sorted(v for block in touched for v in block))
            nxt = canon(rest + [merged])
            nd = d + He.cost
            if nd < dist.get(nxt, math.inf):
                dist[nxt] = nd
                heapq.heappush(heap, (nd, nxt))
    raise ValueError("hypergraph does not span the nodes")


def replacement_bound_holds(cost, tau, start_cost, digits: int = 30) -> bool:
    """cost <= tau * (1 + ln(start/tau)) at the given precision, one ulp slack."""
    if tau <= 0:
        return cost <= 0
    if start_cost <= tau:
        return cost <= tau
    with localcontext() as ctx:
        ctx.prec = digits
        bound = Decimal(int(tau)) * (
            1 + (Decimal(int(start_cost)) / Decimal(int(tau))).ln()
        )
        return Decimal(int(cost)) <= bound.next_plus()


# ---------------------------------------------------------------------------
# Audits


def audit_overlap_sum(trials: int = 500, seed: int = 0) -> AuditOutcome:
    """Over random (tree, connected hypergraph) pairs the total overlapped cost
    removable by the hyperedges is at least the full tree cost."""
    rng = random.Random(seed)
    violations = []
    for t in range(trials):
        n = rng.randint(3, 8)
        tree = [(u, v, rng.randint(1, 9)) for u, v in random_tree(rng, n)]
        hyper = random_connected_hypergraph(rng, n, rng.randint(0, 10))
        total = sum(c for _, _, c in tree)
        overlap = 0
        for e in hyper.edges:
            overlap += sum(c for _, _, c in max_overlapped_set(tree, e.nodes))
        if overlap < total:
            violations.append(
                "trial %d: overlap sum %d below tree cost %d" % (t, overlap, total)
            )
    return AuditOutcome("overlap-sum", trials, tuple(violations))


def audit_replacement_bound(trials: int = 200, seed: int = 1) -> AuditOutcome:
    """Replacement output stays within tau*(1+ln(c(T*)/tau)) of the exhaustive
    optimum, compared in 30-digit decimals; the trace recursion is replayed."""
    rng = random.Random(seed)
    violations = []
    for t in range(trials):
        n = rng.randint(3, 8)
        hyper = random_connected_hypergraph(rng, n, rng.randint(0, 12))
        pair_edges = [e for e in hyper.edges if e.is_pair]
        # Kruskal spanning tree over the pair edges (always present).
        joined = UnionFind(range(n))
        tree = [
            e
            for e in sorted(pair_edges, key=lambda e: (e.cost, sorted(e.nodes)))
            if joined.union(*e.nodes)
        ]
        if len(tree) != n - 1:
            continue
        result = local_replacement(hyper, tree)
        tau = min_spanning_subhypergraph_cost(n, hyper.edges)
        start = sum(e.cost for e in tree)
        if not replacement_bound_holds(result.cost, tau, start):
            violations.append(
                "trial %d: cost %s exceeds bound for tau=%d start=%d"
                % (t, result.cost, tau, start)
            )
        # Replay the committed-step ledger.
        f_prev = result.trace.start_cost
        spent = 0
        for step in result.trace.steps:
            if not step.removed_cost > step.hyperedge_cost:
                violations.append("trial %d: committed an unprofitable step" % t)
            if not step.remaining_cost < f_prev:
                violations.append("trial %d: tree cost failed to drop" % t)
            f_prev = step.remaining_cost
            spent += step.hyperedge_cost
        if result.trace.steps:
            f_q = result.trace.steps[-1].remaining_cost
            if f_q <= tau < result.trace.start_cost:
                if not replacement_bound_holds(
                    f_q + spent, tau, result.trace.start_cost
                ):
                    violations.append("trial %d: trace replay exceeds bound" % t)
    return AuditOutcome("replacement-bound", trials, tuple(violations))


def audit_decomposition(trials: int = 200, seed: int = 2) -> AuditOutcome:
    """Random degree-capped trees admit rank certificates within the budget."""
    rng = random.Random(seed)
    violations = []
    for t in range(trials):
        n = rng.randint(4, 24)
        edges = random_tree(rng, n, max_degree=5)
        adj = adjacency_of(edges)
        leaves = {v for v in range(n) if len(adj[v]) == 1}
        terminals = set(leaves)
        for v in range(n):
            if rng.random() < 0.35:
                terminals.add(v)
        if len(terminals) < 2:
            continue
        k = _RANK_KS[t % len(_RANK_KS)]
        try:
            cert = rank_certificate(edges, terminals, 5, k)
        except DecompositionError as exc:
            violations.append("trial %d: %s" % (t, exc))
            continue
        if cert.rank > k:
            violations.append("trial %d: rank %d over k=%d" % (t, cert.rank, k))
        if cert.steiner_total > cert.steiner_budget:
            violations.append("trial %d: budget exceeded" % t)
    return AuditOutcome("decomposition", trials, tuple(violations))


def random_survivable_instance(
    rng: random.Random, n_max: int = 8, box: float = 4.0
) -> Instance:
    return draw_box_instance(rng, rng.randint(3, n_max), box, "random")


def audit_witness(trials: int = 100, seed: int = 3) -> AuditOutcome:
    """Pipeline sweep: exact backend solutions verify, dominate tau_star, and
    their pruned forms carry a feasible half-integral witness within the
    packing budget; Steiner components stay trees with single attachments."""
    rng = random.Random(seed)
    violations = []
    for t in range(trials):
        inst = random_survivable_instance(rng)
        delta = inst.metric.delta
        try:
            report = solve_sn_msp_012(inst, "exact", include_witness=True)
        except Exception as exc:  # any pipeline failure is a violation
            violations.append("pipeline: trial %d: %s" % (t, exc))
            continue
        if Fraction(report.cost) < report.tau_star_value:
            violations.append(
                "cost: trial %d: %d below tau* %s"
                % (t, report.cost, report.tau_star_value)
            )
        pruned = report.pruned
        witness = report.witness
        n_pruned_steiner = len(pruned.steiner)
        if witness.value > Fraction(delta * n_pruned_steiner, 2):
            violations.append(
                "witness: trial %d: value %s over %d*%d/2"
                % (t, witness.value, delta, n_pruned_steiner)
            )
        if fractional_feasible(inst, witness) is not None:
            violations.append("witness: trial %d: separation failed" % t)
        if report.tau_star_value > witness.value:
            # a feasible fractional solution can never undercut the optimum
            violations.append("witness: trial %d: tau* above witness value" % t)
        terminals = set(range(inst.n))
        for comp_nodes, comp_edges in r_components(pruned.edges, terminals):
            if len(comp_edges) != len(comp_nodes) - 1:
                violations.append("structure: trial %d: non-tree component" % t)
            inner = comp_nodes - terminals
            for term in comp_nodes & terminals:
                touching = sum(
                    1
                    for (a, b) in comp_edges
                    if (a == term and b in inner) or (b == term and a in inner)
                )
                if touching > 1:
                    violations.append(
                        "structure: trial %d: terminal %d multiply attached"
                        % (t, term)
                    )
    return AuditOutcome("witness", trials, tuple(violations))


AUDITS = {
    "overlap-sum": audit_overlap_sum,
    "replacement-bound": audit_replacement_bound,
    "decomposition": audit_decomposition,
    "witness": audit_witness,
}
