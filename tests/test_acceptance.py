"""Acceptance gate: every shipped guarantee replayed at its stated tolerance.

Each test prints one [PASS] line (visible with ``pytest -s``); a failing
assertion is the corresponding [FAIL].  Random sweeps are seeded, so reruns
are bit-identical.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from relaysynth import steiner
from relaysynth.audits import (
    audit_decomposition,
    audit_overlap_sum,
    audit_replacement_bound,
    audit_witness,
)
from relaysynth.connectivity import element_maxflow, is_feasible, prune_minimal
from relaysynth.generators import (
    collinear_instance,
    pentagon_instance,
    square_instance,
    star_instance,
)
from relaysynth.instances import (
    MetricSpace,
    Point,
    SolutionGraph,
    all_pairs_demands,
    make_instance,
)
from relaysynth.local_replacement import st_msp_scheme
from relaysynth.steiner import SchemeConfig, mst_baseline
from relaysynth.survivable import degree_reduce, solve_sn_msp_012

from bruteforce import brute_force_opt, brute_q_connectivity, edge_multiplicities

DELTA_PLANE = 5


def _report(name: str, detail: str, elapsed: float, limit: float) -> None:
    print("[PASS] %s: %s (%.2fs, limit %.0fs)" % (name, detail, elapsed, limit))


@pytest.fixture(scope="module")
def witness_sweep():
    t0 = time.perf_counter()
    outcome = audit_witness(trials=100, seed=3)
    return outcome, time.perf_counter() - t0


def test_pentagon_tightness(monkeypatch):
    monkeypatch.setattr(steiner, "_CANDIDATE_DEPTH", 1)
    t0 = time.perf_counter()
    inst = pentagon_instance()
    baseline = mst_baseline(inst)
    opt, _ = brute_force_opt(inst, 2)
    elapsed = time.perf_counter() - t0
    assert len(baseline.steiner) == 4
    assert opt == 1
    assert Fraction(len(baseline.steiner), opt) == DELTA_PLANE - 1
    assert elapsed < 1.0
    _report(
        "pentagon tightness",
        "baseline=4 optimum=1 ratio=4",
        elapsed,
        1,
    )


def test_scheme_improvement():
    t0 = time.perf_counter()
    pent = pentagon_instance()
    res_pent = st_msp_scheme(pent, SchemeConfig(k=5))
    s3 = math.sqrt(3)
    tri = make_instance(
        [Point.at(0, 0), Point.at(s3, 0), Point.at(s3 / 2, 1.5)],
        all_pairs_demands(3, 1),
        MetricSpace.euclidean(2),
    )
    res_tri = st_msp_scheme(tri, SchemeConfig(k=5))
    elapsed = time.perf_counter() - t0
    assert res_pent.size == 1 and is_feasible(pent, res_pent.solution)
    assert res_tri.size == 1 and is_feasible(tri, res_tri.solution)
    assert len(mst_baseline(tri).steiner) == 2
    assert elapsed < 5.0
    _report("scheme improvement", "pentagon=1 triangle=1 (baseline 4 and 2)", elapsed, 5)


def test_replacement_cost_bound():
    t0 = time.perf_counter()
    outcome = audit_replacement_bound(trials=200, seed=1)
    elapsed = time.perf_counter() - t0
    assert outcome.trials == 200
    assert outcome.violations == ()
    assert elapsed < 60.0
    _report("replacement cost bound", "200 hypergraphs, 0 violations", elapsed, 60)


def test_overlap_sum_inequality():
    t0 = time.perf_counter()
    outcome = audit_overlap_sum(trials=500, seed=0)
    elapsed = time.perf_counter() - t0
    assert outcome.trials == 500
    assert outcome.violations == ()
    assert elapsed < 30.0
    _report("overlap sum inequality", "500 pairs, 0 violations", elapsed, 30)


def test_survivable_pipeline_sweep(witness_sweep):
    outcome, elapsed = witness_sweep
    pipeline_faults = [
        v
        for v in outcome.violations
        if v.startswith(("pipeline:", "cost:", "witness:"))
    ]
    assert outcome.trials == 100
    assert pipeline_faults == []
    assert elapsed < 300.0
    _report(
        "survivable pipeline sweep",
        "100 instances: feasible, tau* dominated, witnesses within budget",
        elapsed,
        300,
    )


def test_collinear_and_square_solutions(monkeypatch):
    monkeypatch.setattr(steiner, "_CANDIDATE_DEPTH", 1)
    t0 = time.perf_counter()
    col = collinear_instance()
    rep = solve_sn_msp_012(col, "exact", include_witness=False)
    opt, _ = brute_force_opt(col, 4)
    sq = square_instance()
    rep_sq = solve_sn_msp_012(sq, "exact", include_witness=False)
    elapsed = time.perf_counter() - t0
    assert rep.cost == 4 and len(rep.solution.steiner) == 4
    assert opt == 4
    assert rep_sq.cost == 0 and len(rep_sq.solution.steiner) == 0
    assert elapsed < 1.0
    _report("collinear and square", "collinear=4=optimum, square=0", elapsed, 1)


def test_pruned_component_structure(witness_sweep):
    outcome, _ = witness_sweep
    structure_faults = [v for v in outcome.violations if v.startswith("structure:")]
    assert structure_faults == []
    _report(
        "pruned component structure",
        "all components trees, single attachments",
        0.0,
        300,
    )


def test_rank_certificate_sweep():
    t0 = time.perf_counter()
    outcome = audit_decomposition(trials=200, seed=2)
    elapsed = time.perf_counter() - t0
    assert outcome.trials == 200
    assert outcome.violations == ()
    assert elapsed < 60.0
    _report("rank certificate sweep", "200 trees at k in {8,16}", elapsed, 60)


def test_connectivity_oracle_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(9)
    mismatches = 0
    trials = 300
    for _ in range(trials):
        n = rng.randint(3, 8)
        edges = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.45:
                    edges.append((i, j))
        q = {v for v in range(n) if rng.random() < 0.4}
        u, v = rng.sample(range(n), 2)
        flow = element_maxflow(edge_multiplicities(edges), q, u, v)[0]
        if flow != brute_q_connectivity(edges, q, u, v):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    assert mismatches == 0
    assert elapsed < 60.0
    _report(
        "connectivity oracle equivalence",
        "300 graphs, 0 mismatches",
        elapsed,
        60,
    )


def test_degree_reduction_audit():
    t0 = time.perf_counter()
    rng = random.Random(2024)
    passed = 0
    attempts = 0
    while passed < 50:
        attempts += 1
        assert attempts < 500, "could not construct enough crowded hubs"
        inst = star_instance(rng.choice([6, 7]), seed=rng.randrange(1 << 30))
        n = inst.n
        edges = {
            (i, n): float(math.hypot(*inst.terminals[i].coords))
            for i in range(n)
        }
        sol = SolutionGraph(inst, [Point.at(0.0, 0.0)], edges)
        if not is_feasible(inst, sol):
            continue
        pruned = prune_minimal(inst, sol)
        degrees = [pruned.degree(s) for s in pruned.steiner_ids()]
        if not degrees or max(degrees) < 6:
            continue
        before = pruned.total_length()
        result = degree_reduce(inst, pruned)
        assert result.converged
        assert is_feasible(inst, result.solution)
        assert result.solution.total_length() <= before + 1e-12
        assert all(
            result.solution.degree(s) <= DELTA_PLANE
            for s in result.solution.steiner_ids()
        )
        passed += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(
        "degree reduction audit",
        "50 crowded hubs converged within the packing bound",
        elapsed,
        60,
    )
