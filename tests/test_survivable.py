import gc
import math
import random
from fractions import Fraction

import pytest

from relaysynth import connectivity
from relaysynth.audits import random_survivable_instance
from relaysynth.beads import realize, tau_integral
from relaysynth.connectivity import (
    ConnectivityError,
    CopyGraph,
    TauStarResult,
    copy_table,
    first_deficiency,
    greedy_patch,
    is_feasible,
    prune_minimal,
    round_tau_star,
    tau_star,
    verify_feasible,
)
from relaysynth.instances import (
    InstanceError,
    MetricSpace,
    Point,
    SolutionGraph,
    all_pairs_demands,
    make_instance,
)
from relaysynth.generators import star_instance, uniform_box_instance
from relaysynth.survivable import (
    degree_reduce,
    sn_backend_primal_dual,
    solve_sn_msp_012,
)

E2 = MetricSpace.euclidean(2)


def test_exact_backend_examples():
    inst = make_instance([Point.at(0, 0), Point.at(3, 0)], {(0, 1): 2}, E2)
    res = tau_integral(inst)
    assert res.cost == 4
    assert res.certified

    square = make_instance(
        [Point.at(0, 0), Point.at(1, 0), Point.at(1, 1), Point.at(0, 1)],
        all_pairs_demands(4, 2),
        E2,
    )
    assert tau_integral(square).cost == 0

    path = make_instance(
        [Point.at(0, 0), Point.at(2, 0), Point.at(4, 0)],
        {(0, 1): 1, (1, 2): 1},
        E2,
    )
    assert tau_integral(path).cost == 2


def test_primal_dual_matches_exact_on_examples():
    inst = make_instance([Point.at(0, 0), Point.at(3, 0)], {(0, 1): 2}, E2)
    res = sn_backend_primal_dual(inst)
    assert res.cost == 4
    assert not res.certified

    square = make_instance(
        [Point.at(0, 0), Point.at(1, 0), Point.at(1, 1), Point.at(0, 1)],
        all_pairs_demands(4, 2),
        E2,
    )
    assert sn_backend_primal_dual(square).cost == 0


def test_primal_dual_pure_forest_for_unit_demands():
    # the rounded vertex buys the two one-bead pairs and nothing to patch
    pts = [Point.at(0, 0), Point.at(2, 0), Point.at(4, 0)]
    inst = make_instance(pts, {(0, 1): 1, (1, 2): 1}, E2)
    res = sn_backend_primal_dual(inst)
    assert res.cost == 2
    assert all(e.cost <= 1 for e in res.selected)


def _random_finite_instance(rng, n):
    """Shortest-path closure of random quarter-unit distances, random demands."""
    d = [[Fraction(0) if i == j else None for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = Fraction(rng.randint(2, 14), 4)
    for k in range(n):
        for i in range(n):
            for j in range(n):
                d[i][j] = min(d[i][j], d[i][k] + d[k][j])
    demands = {}
    for i in range(n):
        for j in range(i + 1, n):
            r = rng.choice((0, 0, 1, 1, 2))
            if r:
                demands[(i, j)] = r
    unstable = [v for v in range(n) if rng.random() < 0.3]
    return make_instance(
        [Point.node(i) for i in range(n)],
        demands,
        MetricSpace.finite(d, delta=5),
        unstable=unstable,
    )


def _bought_copies_are_each_needed(inst, check_realized):
    res = sn_backend_primal_dual(inst)
    table = copy_table(inst)
    selected = list(res.selected)
    bought = [
        i for i, e in enumerate(selected)
        if e.copy >= table.base_caps.get((e.u, e.v), 0)
    ]
    counts = {}
    for i in bought:
        pair = (selected[i].u, selected[i].v)
        counts[pair] = counts.get(pair, 0) + 1
    assert table.cost(counts) == res.cost
    for i in bought:
        e = selected[i]
        fewer = dict(counts)
        fewer[(e.u, e.v)] -= 1
        assert first_deficiency(inst, table.caps(fewer)) is not None, e
        if check_realized:
            rest = selected[:i] + selected[i + 1:]
            assert verify_feasible(inst, realize(inst, rest).solution), e
    return len(bought)


def test_primal_dual_selection_is_minimal():
    # Finite-metric beads realize as chains whose only adjacencies are their
    # own hops, so the realized graph loses exactly the dropped copy.  Planar
    # beads of different pairs may land within unit distance of each other,
    # so there only the bead multigraph is checked.  Rounded purchases are
    # small, so the pool is large enough to keep 100 copies under test.
    rng = random.Random(61)
    bought = 0
    for _ in range(30):
        inst = _random_finite_instance(rng, rng.randint(8, 10))
        bought += _bought_copies_are_each_needed(inst, check_realized=True)
    for n in (8, 9, 10):
        for seed in range(4):
            inst = uniform_box_instance(n, 4.0, seed, "random")
            bought += _bought_copies_are_each_needed(inst, check_realized=False)
    assert bought >= 100


def _rounded_vertex(table, tau):
    """The non-free copies at x >= 1/2 in tau_star's vertex, counted per pair."""
    counts = {}
    for (a, b, copy), value in tau.x.items():
        if value >= Fraction(1, 2) and copy >= table.base_caps.get((a, b), 0):
            counts[(a, b)] = counts.get((a, b), 0) + 1
    return counts


def test_rounded_vertex_costs_at_most_twice_tau_star(monkeypatch):
    # The audit_witness sweep plus the uniform boxes of 8-10 terminals.  The
    # purchase handed to greedy_patch is the rounded vertex; it costs at
    # most 2 * tau*, and so does pd's answer when nothing was patched.
    handed = []

    def recording_patch(instance, table, counts):
        handed.append(dict(counts))
        return greedy_patch(instance, table, counts)

    monkeypatch.setattr(connectivity, "greedy_patch", recording_patch)
    rng = random.Random(3)
    pool = [random_survivable_instance(rng) for _ in range(100)]
    pool += [
        uniform_box_instance(n, box, seed, "random")
        for n in (8, 9, 10)
        for box in (3.0, 4.0, 6.0)
        for seed in range(4)
    ]
    unpatched = 0
    for inst in pool:
        table = copy_table(inst)
        tau = tau_star(inst)
        handed.clear()
        res = sn_backend_primal_dual(inst)
        assert res.lower_bound == tau.value
        assert handed == [_rounded_vertex(table, tau)]
        assert table.cost(handed[0]) <= 2 * tau.value
        if first_deficiency(inst, table.caps(handed[0])) is None:
            unpatched += 1
            assert res.cost <= 2 * tau.value
    # Measured, not a theorem: every vertex of this pool rounds to a
    # purchase that meets every demand, so the factor is checked on all.
    assert unpatched == len(pool)


def _is_minimal_cover(inst, table, counts):
    graph = CopyGraph(inst, table, counts)
    if graph.first_deficiency() is not None:
        return False
    for pair in list(counts):
        graph.sell(pair)
        if graph.first_deficiency() is None:
            return False
        graph.buy(pair)
    return True


def test_round_tau_star_completes_a_vertex_below_one_half():
    # No pool leaves a demand unmet after rounding, so hand-built vertices
    # with every coordinate below 1/2 drive the greedy_patch completion.
    two = make_instance([Point.at(0, 0), Point.at(3, 0)], {(0, 1): 2}, E2)
    box = uniform_box_instance(8, 4.0, 0, "random")
    for inst, expected in ((two, {(0, 1): 2}), (box, None)):
        table = copy_table(inst)
        below = {key: Fraction(1, 3) for key in tau_star(inst).x}
        vertex = TauStarResult(Fraction(0), below, 0, 0, 0)
        assert _rounded_vertex(table, vertex) == {}
        counts = round_tau_star(inst, table, vertex)
        assert counts
        assert _is_minimal_cover(inst, table, counts)
        if expected is not None:
            assert counts == expected


def test_pipeline_reports_and_verifies():
    inst = make_instance([Point.at(0, 0), Point.at(3, 0)], {(0, 1): 2}, E2)
    report = solve_sn_msp_012(inst, "exact")
    assert report.cost == 4
    assert len(report.solution.steiner) == 4
    assert report.tau_star_value == 4
    assert report.ratio_vs_taustar == 1
    assert report.witness is not None
    assert report.witness.value <= Fraction(5 * len(report.pruned.steiner), 2)
    payload = report.to_json()
    assert payload["cost"] == 4
    assert payload["tau_star"] == "4"
    assert payload["witness_ref"] is not None


def test_pipeline_length_two_demand_single_pair():
    inst = make_instance([Point.at(0, 0), Point.at(2.2, 0)], {(0, 1): 1}, E2)
    report = solve_sn_msp_012(inst, "exact")
    assert report.cost == 2


def test_pipeline_heuristic_never_beats_exact():
    rng = random.Random(77)
    for _ in range(12):
        inst = random_survivable_instance(rng, n_max=6)
        exact = solve_sn_msp_012(inst, "exact", include_witness=False)
        heur = solve_sn_msp_012(inst, "pd", include_witness=False)
        assert heur.cost >= exact.cost
        assert Fraction(exact.cost) >= exact.tau_star_value


def test_exact_solve_leaves_nothing_for_the_collector():
    # The branch-and-bound state is freed when tau_integral returns, not
    # kept alive by a reference cycle.  Instance 28 of the audit_witness
    # sweep is its largest search.
    rng = random.Random(3)
    inst = [random_survivable_instance(rng, 8, 4.0) for _ in range(29)][28]
    gc.collect()
    gc.disable()
    try:
        solve_sn_msp_012(inst, "exact")
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_pipeline_rejects_unknown_backend():
    inst = make_instance([Point.at(0, 0), Point.at(1, 0)], {(0, 1): 1}, E2)
    with pytest.raises(InstanceError):
        solve_sn_msp_012(inst, "nope")


# ---------------------------------------------------------------------------
# Degree reduction


def _star_solution(inst):
    n = inst.n
    edges = {
        (i, n): float(math.hypot(*inst.terminals[i].coords)) for i in range(n)
    }
    return SolutionGraph(inst, [Point.at(0.0, 0.0)], edges)


def test_degree_reduce_leaves_compliant_solution_alone():
    inst = make_instance([Point.at(0, 0), Point.at(2, 0)], {(0, 1): 1}, E2)
    sol = prune_minimal(inst, SolutionGraph.build(inst, [Point.at(1, 0)]))
    res = degree_reduce(inst, sol)
    assert res.converged
    assert res.swaps == 0
    assert res.solution.edges == sol.edges


def test_degree_reduce_ignores_degree_two_chains():
    inst = make_instance([Point.at(0, 0), Point.at(3, 0)], {(0, 1): 1}, E2)
    sol = prune_minimal(
        inst, SolutionGraph.build(inst, [Point.at(1, 0), Point.at(2, 0)])
    )
    res = degree_reduce(inst, sol)
    assert res.converged
    assert res.swaps == 0


def test_degree_reduce_shrinks_crowded_hub():
    inst = star_instance(6, seed=5)
    sol = _star_solution(inst)
    assert is_feasible(inst, sol)
    pruned = prune_minimal(inst, sol)
    if max(pruned.degree(s) for s in pruned.steiner_ids()) < 6:
        pytest.skip("pruning already dissolved the hub for this seed")
    before = pruned.total_length()
    res = degree_reduce(inst, pruned)
    assert res.converged
    assert res.swaps >= 1
    assert is_feasible(inst, res.solution)
    assert res.solution.total_length() <= before + 1e-12
    assert all(res.solution.degree(s) <= 5 for s in res.solution.steiner_ids())


def test_degree_reduce_requires_feasible_input():
    inst = make_instance([Point.at(0, 0), Point.at(3, 0)], {(0, 1): 1}, E2)
    with pytest.raises(ConnectivityError):
        degree_reduce(inst, SolutionGraph.build(inst))


def test_degree_reduce_flags_stuck_hub():
    # finite metric where the six spokes admit no shortcut: flagged, unchanged
    size = 7
    hub = 6
    matrix = [[0] * size for _ in range(size)]
    for i in range(6):
        for j in range(6):
            if i != j:
                matrix[i][j] = 2
        matrix[i][hub] = matrix[hub][i] = 1
    fin = MetricSpace.finite(matrix, delta=5)
    inst = make_instance(
        [Point.node(i) for i in range(6)],
        {(0, 3): 1, (1, 4): 1, (2, 5): 1},
        fin,
    )
    edges = {(i, 6): 1 for i in range(6)}  # node 6 built as the lone relay
    sol = SolutionGraph(inst, [Point.node(hub)], edges)
    assert is_feasible(inst, sol)
    res = degree_reduce(inst, sol)
    assert not res.converged
    assert res.swaps == 0
    assert res.solution.edges == sol.edges
