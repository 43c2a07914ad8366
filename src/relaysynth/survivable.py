"""{0,1,2}-demand solvers on the bead graph plus the relay degree-reduction pass.

The exact backend is the branch-and-bound bead optimum (``tau_integral``).
The primal-dual backend (``sn_backend_primal_dual``, backend key ``"pd"``)
rounds tau_star's vertex, which buys y copies of each pair: ``round_tau_star``
buys floor(y + 1/2) of them, lets ``greedy_patch`` complete the purchase if a
demand is still unmet, and reverse-deletes.  The exact search starts from the
same purchase.  Both return a ``BeadSolveResult``, and the pipeline realizes
the selection, re-verifies it, and reports the cost next to the fractional
optimum.

The rounded copies cost at most 2 * tau*, and ``audit_witness`` checks
tau* <= Delta * |S| / 2 for feasible placements S, so pd costs at most
2 * tau* <= Delta * opt whenever the rounding alone meets every demand.  No
theorem says it does; a patched purchase carries no factor, and pd is
reported ``certified=False`` either way.  The function and the ``"pd"`` key
keep their primal-dual names because the CLI and the benchmark call them; a
rename waits for a change to the benchmark.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

from .beads import BeadEdge, BeadSolveResult, realize, selection_of, tau_integral
from .connectivity import (
    ConnectivityError,
    FractionalBeadSolution,
    adjacency_of,
    copy_table,
    half_integral_witness,
    fractional_feasible,
    is_feasible,
    prune_minimal,
    round_tau_star,
    tau_star,
    verify_feasible,
)
from .instances import Instance, InstanceError, SolutionGraph, pairwise_distance, within_unit

_MAX_ROUNDS = 10_000  # swap-round bound of degree_reduce


def sn_backend_primal_dual(instance: Instance) -> BeadSolveResult:
    """tau_star's vertex rounded at 1/2, patched if needed, reverse-deleted.

    Never certified, with tau* as its lower bound; it explores no search
    nodes.
    """
    table = copy_table(instance)
    tau = tau_star(instance)
    counts = round_tau_star(instance, table, tau)
    return BeadSolveResult(
        table.cost(counts), selection_of(table, counts), False, tau.value, 0, None
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
        witness = half_integral_witness(pruned)
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
