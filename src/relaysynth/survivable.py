"""{0,1,2}-demand solvers on the bead graph plus the relay degree-reduction pass.

The exact backend is the branch-and-bound bead optimum (``tau_integral``);
the primal-dual backend grows moats for the connectivity-1 skeleton, patches
remaining 2-connectivity deficits greedily, and reverse-deletes.  Both return
a ``BeadSolveResult``, and the pipeline realizes the selection, re-verifies
it, and reports the cost next to the fractional optimum.

The primal-dual backend is a heuristic with no proven factor.  The
Goemans-Williamson factor-2 proof for demands in {0,1} deletes edges in
reverse order of addition; the shared ``reverse_delete`` drops the costliest
copy first instead.  The moat forest stays as the patch's seed: seeding
``greedy_patch`` with nothing instead changes pd on one instance of the
sweep, benchmark and uniform-box pools (9 relays become 10, against an
optimum of 8).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Set, Tuple

from .beads import BeadEdge, BeadSolveResult, realize, selection_of, tau_integral
from .connectivity import (
    ConnectivityError,
    FractionalBeadSolution,
    UnionFind,
    adjacency_of,
    bead_costs,
    copy_table,
    greedy_patch,
    half_integral_witness,
    fractional_feasible,
    is_feasible,
    prune_minimal,
    reverse_delete,
    tau_star,
    verify_feasible,
)
from .instances import Instance, InstanceError, SolutionGraph, pairwise_distance, within_unit

_MAX_ROUNDS = 10_000  # swap-round bound of degree_reduce


def _moat_forest(instance: Instance) -> List[Tuple[int, int]]:
    """Primal-dual forest for the connectivity-1 part, grown in exact duals."""
    want = [(i, j) for (i, j, r) in instance.demand_pairs() if r >= 1]
    if not want:
        return []
    remaining = {p: Fraction(c) for p, c in bead_costs(instance).items()}
    uf = UnionFind(range(instance.n))
    find = uf.find

    def active_components() -> Set[int]:
        act = set()
        for (u, v) in want:
            if find(u) != find(v):
                act.add(find(u))
                act.add(find(v))
        return act

    chosen: List[Tuple[int, int]] = []
    while True:
        act = active_components()
        if not act:
            break
        loads = {}
        for p in remaining:
            ru, rv = find(p[0]), find(p[1])
            if ru != rv and (ru in act or rv in act):
                loads[p] = (ru in act) + (rv in act)
        if not loads:
            raise ConnectivityError("no growable moat for an unmet demand")
        delta, tight_pair = min((remaining[p] / load, p) for p, load in loads.items())
        for p, load in loads.items():
            remaining[p] -= delta * load
        chosen.append(tight_pair)
        uf.union(*tight_pair)
    return chosen


def sn_backend_primal_dual(instance: Instance) -> BeadSolveResult:
    """Moat-grown forest, greedy 2-connectivity patching, reverse delete.

    Never certified, with tau* as its lower bound; it explores no search
    nodes.
    """
    table = copy_table(instance)
    counts = {p: 1 for p in _moat_forest(instance) if p not in table.base_caps}
    counts = reverse_delete(instance, table, greedy_patch(instance, table, counts))
    lower = tau_star(instance).value
    return BeadSolveResult(
        table.cost(counts), selection_of(table, counts), False, lower, 0, None
    )


@dataclass(frozen=True)
class SnReport:
    """One {0,1,2} solve.

    ``cost`` and ``solution`` are the realized bead selection.  ``pruned`` is
    the minimal subgraph behind the half-integral ``witness``; it may hold
    fewer relays than ``solution``, since beads of different pairs can serve
    each other's demands.
    """

    backend: str
    cost: int
    certified: bool
    tau_star_value: Fraction
    solution: SolutionGraph
    selected: Tuple[BeadEdge, ...]
    pruned: Optional[SolutionGraph]
    witness: Optional[FractionalBeadSolution]

    @property
    def ratio_vs_taustar(self) -> Optional[Fraction]:
        if self.tau_star_value == 0:
            return None
        return Fraction(self.cost) / self.tau_star_value

    def to_json(self):
        return {
            "backend": self.backend,
            "cost": self.cost,
            "certified": self.certified,
            "tau_star": str(self.tau_star_value),
            "ratio_vs_taustar": None
            if self.ratio_vs_taustar is None
            else str(self.ratio_vs_taustar),
            "witness_ref": None if self.witness is None else self.witness.to_json(),
            "selected": [[e.u, e.v, e.copy, e.cost] for e in self.selected],
        }


def solve_sn_msp_012(
    instance: Instance,
    backend: str = "exact",
    *,
    include_witness: bool = True,
) -> SnReport:
    """Bead-graph pipeline: backend selection, realization, verification, audit."""
    if any(r not in (1, 2) for r in instance.demands.values()):
        raise InstanceError("demands must stay within {0,1,2}")
    if backend == "exact":
        result = tau_integral(instance)
    elif backend == "pd":
        result = sn_backend_primal_dual(instance)
    else:
        raise InstanceError("unknown backend %r" % (backend,))

    placement = realize(instance, result.selected)
    bad = verify_feasible(instance, placement.solution)
    if bad:
        raise ConnectivityError("backend emitted an infeasible selection: %r" % (bad[0],))
    if placement.size != result.cost:
        raise ConnectivityError("realized size disagrees with selection cost")

    pruned = None
    witness = None
    if include_witness:
        pruned = prune_minimal(instance, placement.solution)
        witness = half_integral_witness(instance, pruned)
        violation = fractional_feasible(instance, witness)
        if violation is not None:
            raise ConnectivityError(
                "half-integral witness failed separation: %r" % (violation,)
            )
    return SnReport(
        backend=backend,
        cost=result.cost,
        certified=result.certified,
        tau_star_value=result.lower_bound,
        solution=placement.solution,
        selected=result.selected,
        pruned=pruned,
        witness=witness,
    )


# ---------------------------------------------------------------------------
# Degree reduction


@dataclass(frozen=True)
class DegreeReduceResult:
    solution: SolutionGraph
    converged: bool
    swaps: int


def degree_reduce(
    instance: Instance,
    solution: SolutionGraph,
) -> DegreeReduceResult:
    """Shorten-and-swap until every relay degree is at most the packing bound.

    While some Steiner node s exceeds delta, try neighbor pairs (a,b) by
    ascending d(a,b) with d(a,b) <= 1 and strictly shorter than the longer of
    the two spokes; replace that spoke by ab when feasibility survives, then
    re-prune.  Total length strictly drops at every commit.
    """
    if solution.abstract:
        raise InstanceError("degree reduction needs concrete point locations")
    if not is_feasible(instance, solution):
        raise ConnectivityError("degree reduction expects a feasible solution")
    delta = instance.metric.delta
    metric = instance.metric
    graph = solution
    swaps = 0

    for _ in range(_MAX_ROUNDS):
        adj = adjacency_of(graph.edges, range(graph.n_nodes))
        over = [
            s
            for s in graph.steiner_ids()
            if len(adj[s]) > delta
        ]
        if not over:
            return DegreeReduceResult(graph, True, swaps)
        progressed = False
        for s in sorted(over):
            neighbors = sorted(adj[s])
            options = []
            for a, b in itertools.combinations(neighbors, 2):
                dab = pairwise_distance(graph.point_of(a), graph.point_of(b), metric)
                dsa = graph.edges.get(tuple(sorted((s, a))))
                dsb = graph.edges.get(tuple(sorted((s, b))))
                if not within_unit(dab):
                    continue
                if not dab < max(dsa, dsb):
                    continue
                options.append((float(dab), a, b, dab, dsa, dsb))
            options.sort(key=lambda t: (t[0], t[1], t[2]))
            for _, a, b, dab, dsa, dsb in options:
                drop = (s, a) if dsa >= dsb else (s, b)
                candidate = graph.without_edge(drop).with_edge(a, b, dab)
                if is_feasible(instance, candidate):
                    graph = prune_minimal(instance, candidate)
                    swaps += 1
                    progressed = True
                    break
            if progressed:
                break
        if not progressed:
            return DegreeReduceResult(graph, False, swaps)
    return DegreeReduceResult(graph, False, swaps)
