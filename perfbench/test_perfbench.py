"""Self-test of the benchmark: python3 -m pytest perfbench -q (about a minute)."""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import run

wl = run.load_workloads()

import checker  # noqa: E402  (needs the library path set by load_workloads)
import tracer  # noqa: E402
from relaysynth import audits, connectivity  # noqa: E402

HERE = Path(__file__).resolve().parent


def _small_reports(count=12, seed=11):
    rng = random.Random(seed)
    reports = []
    while len(reports) < count:
        inst = audits.random_survivable_instance(rng, 6, 3.0)
        reports.append(wl._solve_exact(inst))
    return reports


def _variants(report, rng):
    """The placement, its pruned form, and damaged copies of both."""
    sols = [report.solution, report.pruned]
    for sol in (report.solution, report.pruned):
        if sol.steiner:
            sols.append(sol.without_steiner(rng.choice(list(sol.steiner_ids()))))
        edges = sorted(sol.edges)
        for _ in range(2):
            if edges:
                sol = sol.without_edge(edges.pop(rng.randrange(len(edges))))
                sols.append(sol)
    return sols


def test_checker_agrees_with_verify_feasible():
    rng = random.Random(5)
    verdicts = set()
    for report in _small_reports():
        for sol in _variants(report, rng):
            ours = not checker.subgraph_problems(sol)
            theirs = not connectivity.verify_feasible(sol.instance, sol)
            assert ours == theirs
            verdicts.add(ours)
        assert not checker.placement_problems(report.solution)
    assert verdicts == {True, False}


def test_checker_flags_pruned_placement_missing_a_relay():
    flagged = 0
    for report in _small_reports():
        pruned = report.pruned
        assert not checker.subgraph_problems(pruned)
        for node in pruned.steiner_ids():
            assert checker.subgraph_problems(pruned.without_steiner(node))
            flagged += 1
    assert flagged > 0


def _traced_counts(name, pool):
    p = run.run_pass(wl, wl.WORKLOADS[name], pool, 7, 1, tracer.Tracer())
    assert not p["errors"]
    return {
        layer: {k: v for k, v in totals.items() if k not in ("s", "self_s")}
        for layer, totals in p["tracer"].totals.items()
    }


def test_traced_counts_repeat_and_wrappers_come_off():
    maxflow = connectivity.element_maxflow
    pools = {
        "sn_exact_sweep": wl.WORKLOADS["sn_exact_sweep"].build()[:15],
        "sn_pd_large": wl.WORKLOADS["sn_pd_large"].build()[:1],
        "st_scheme_small": wl.WORKLOADS["st_scheme_small"].build()[:3],
    }
    for name, pool in pools.items():
        first = _traced_counts(name, pool)
        assert first == _traced_counts(name, pool)
        assert sum(t["calls"] for t in first.values()) > 0
    import relaysynth.beads

    assert connectivity.element_maxflow is maxflow
    assert relaysynth.beads.element_maxflow is maxflow


def test_benchmark_json_matches_the_code():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(wl.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END.items())
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == tracer.PER_LAYER


def test_fails_without_the_library(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sn_exact_sweep",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert out.stdout == ""
