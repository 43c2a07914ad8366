import copy
import importlib
import json
import math
import pkgutil
import random
from fractions import Fraction

import pytest

import relaysynth.cli
import relaysynth.steiner
from bruteforce import brute_force_opt
from relaysynth.beads import BeadError, SizeCapError
from relaysynth.cli import _solve_one, main
from relaysynth.connectivity import ConnectivityError, NonTreeComponentError
from relaysynth.decomposition import DecompositionError
from relaysynth.errors import RelaysynthError
from relaysynth.generators import ExperimentConfig, uniform_box_instance
from relaysynth.instances import InstanceError
from relaysynth.local_replacement import HypergraphError
from relaysynth.reporting import CSV_COLUMNS
from relaysynth.simplex import CoverLP, CoverRow, SimplexError
from relaysynth.steiner import OracleBudgetError


def run_cli(*argv):
    return main(list(argv))


def test_gen_is_deterministic(capsys):
    assert run_cli("gen", "--family", "uniform-box", "--n", "8", "--box", "4",
                   "--seed", "7") == 0
    first = capsys.readouterr().out
    assert run_cli("gen", "--family", "uniform-box", "--n", "8", "--box", "4",
                   "--seed", "7") == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert len(payload["terminals"]) == 8


def test_gen_writes_instance_file(tmp_path, capsys):
    target = tmp_path / "inst.json"
    assert run_cli("gen", "--family", "square", "--out", str(target)) == 0
    capsys.readouterr()
    payload = json.loads(target.read_text())
    assert payload["default_demand"] == 0
    assert len(payload["demands"]) == 6


def test_solve_pentagon_mst_vs_scheme(tmp_path, capsys):
    out1 = tmp_path / "mst"
    assert run_cli("solve", "--family", "pentagon", "--algo", "mst",
                   "--out", str(out1)) == 0
    capsys.readouterr()
    csv1 = (out1 / "report.csv").read_text().splitlines()
    assert csv1[0] == ",".join(CSV_COLUMNS)
    row = dict(zip(CSV_COLUMNS, csv1[1].split(",")))
    assert row["cost"] == "4"
    assert row["feasible"] == "True"

    out2 = tmp_path / "scheme"
    assert run_cli("solve", "--family", "pentagon", "--algo", "scheme",
                   "--k", "5", "--out", str(out2)) == 0
    capsys.readouterr()
    csv2 = (out2 / "report.csv").read_text().splitlines()
    row2 = dict(zip(CSV_COLUMNS, csv2[1].split(",")))
    assert row2["cost"] == "1"
    assert (out2 / "trace-0.json").exists()


def test_solve_square_exact_backend(tmp_path, capsys):
    out = tmp_path / "sq"
    assert run_cli("solve", "--family", "square", "--algo", "sn012",
                   "--backend", "exact", "--out", str(out)) == 0
    capsys.readouterr()
    report = json.loads((out / "report.json").read_text())
    row = report["rows"][0]
    assert row["n_steiner"] == 0
    assert row["tau_star"] == "0"
    assert (out / "witness-0.json").exists()


def test_solve_reports_are_reproducible(tmp_path, capsys):
    from relaysynth.cli import run as run_config
    from relaysynth.generators import ExperimentConfig

    config = ExperimentConfig(
        generator="uniform-box", n=6, box=4.0, seed=11,
        algorithm="sn012", backend="exact", trials=2,
    )
    report1, _, ok1 = run_config(config)
    report2, _, ok2 = run_config(config)
    assert ok1 and ok2
    assert report1.to_json(include_timing=False) == report2.to_json(
        include_timing=False
    )
    capsys.readouterr()


def test_solve_from_instance_file(tmp_path, capsys):
    target = tmp_path / "inst.json"
    assert run_cli("gen", "--family", "collinear", "--out", str(target)) == 0
    out = tmp_path / "run"
    assert run_cli("solve", "--instance", str(target), "--algo", "sn012",
                   "--out", str(out)) == 0
    capsys.readouterr()
    report = json.loads((out / "report.json").read_text())
    assert report["rows"][0]["cost"] == 4
    assert report["rows"][0]["opt"] is None


def test_sweep_emits_ordered_rows(tmp_path, capsys):
    out = tmp_path / "sweep"
    assert run_cli("sweep", "--family", "uniform-box", "--n", "4",
                   "--trials", "3", "--seed", "3", "--algo", "sn012",
                   "--out", str(out)) == 0
    capsys.readouterr()
    report = json.loads((out / "report.json").read_text())
    assert [row["index"] for row in report["rows"]] == [0, 1, 2]
    assert all(row["feasible"] for row in report["rows"])


def test_svg_artifact(tmp_path, capsys):
    out = tmp_path / "svg"
    assert run_cli("solve", "--family", "collinear", "--algo", "sn012",
                   "--svg", "--out", str(out)) == 0
    capsys.readouterr()
    svg = (out / "solution-0.svg").read_text()
    assert svg.startswith("<svg")
    assert svg.count("<rect") == 4  # one marker per placed relay


def test_audit_command_passes(tmp_path, capsys):
    out = tmp_path / "audit"
    code = run_cli("audit", "--check", "overlap-sum", "--trials", "40",
                   "--seed", "1", "--out", str(out))
    output = capsys.readouterr().out
    assert code == 0
    assert "[PASS] overlap-sum" in output
    payload = json.loads((out / "audit.json").read_text())
    assert payload[0]["ok"] is True


def test_usage_error_exits_one(capsys):
    assert run_cli("solve", "--algo", "bogus") == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ("audit", "--check", "witness", "--trials", "-1"),
        ("audit", "--trials", "0"),
        ("solve", "--trials", "-1"),
        ("solve", "--trials", "0"),
        ("sweep", "--trials", "0"),
        ("gen", "--trials", "0"),
    ],
    ids=" ".join,
)
def test_trials_below_one_is_a_usage_error(capsys, argv):
    assert run_cli(*argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be at least 1" in captured.err


def test_star_family_keeps_its_terminal_count(capsys):
    assert run_cli("gen", "--family", "star", "--n", "2") == 1
    assert capsys.readouterr().err == "error: star family needs at least 4 terminals\n"
    assert run_cli("gen", "--family", "star", "--n", "5") == 0
    assert len(json.loads(capsys.readouterr().out)["terminals"]) == 5


@pytest.mark.parametrize("family, size", [("pentagon", 5), ("square", 4), ("collinear", 2)])
def test_fixed_family_refuses_another_terminal_count(capsys, family, size):
    for command in ("gen", "solve", "sweep"):
        assert run_cli(command, "--family", family, "--n", "99") == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err
        assert err.startswith("error: %s family has %d terminals" % (family, size))
        assert err.count("\n") == 1
    for argv in ((), ("--n", str(size))):
        assert run_cli("gen", "--family", family, *argv) == 0
        assert len(json.loads(capsys.readouterr().out)["terminals"]) == size


@pytest.mark.parametrize("family, size", [("pentagon", 5), ("square", 4), ("collinear", 2)])
def test_fixed_family_reports_its_terminal_count(tmp_path, capsys, family, size):
    assert run_cli("solve", "--family", family, "--out", str(tmp_path)) == 0
    capsys.readouterr()
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["config"]["n"] == size
    assert report["rows"][0]["n_terminals"] == size


@pytest.mark.parametrize("option, value", [("--box", "-3"), ("--seed", "5"), ("--demands", "all-2")])
@pytest.mark.parametrize("family", ["pentagon", "square", "collinear"])
def test_fixed_family_refuses_generator_options(capsys, family, option, value):
    for command in ("gen", "solve", "sweep"):
        assert run_cli(command, "--family", family, option, value) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: %s family is fixed and takes no %s\n" % (family, option)


@pytest.mark.parametrize("option, value", [("--box", "-3"), ("--demands", "all-2")])
def test_star_family_refuses_box_and_demands(capsys, option, value):
    for command in ("gen", "solve", "sweep"):
        assert run_cli(command, "--family", "star", "--n", "5", option, value) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: star family takes no %s\n" % option
    assert run_cli("gen", "--family", "star", "--n", "5", "--seed", "3") == 0
    assert len(json.loads(capsys.readouterr().out)["terminals"]) == 5


def test_tau_star_accompanies_mst_up_to_the_terminal_cutoff(tmp_path, capsys):
    cutoff = relaysynth.cli._TAU_STAR_TERMINALS
    assert cutoff == 12
    for n, tau in ((cutoff, "0"), (cutoff + 1, "None")):
        out = tmp_path / str(n)
        argv = ("solve", "--algo", "mst", "--demands", "all-1", "--n", str(n), "--box", "4")
        assert run_cli(*argv, "--out", str(out)) == 0
        assert capsys.readouterr().out.rstrip().endswith("tau*=%s" % tau)
        (row,) = json.loads((out / "report.json").read_text())["rows"]
        assert (row["tau_star"] is None) == (n > cutoff)


def test_distance_cap_error_is_one_short_line(tmp_path, capsys):
    assert run_cli("solve", "--box", "1e308", "--n", "3", "--out", str(tmp_path)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: max terminal distance ")
    assert captured.err.count("\n") == 1 and len(captured.err) < 200


@pytest.mark.parametrize("box", ["-1", "0", "nan"])
def test_box_size_must_be_finite_and_positive(tmp_path, capsys, box):
    assert run_cli("solve", "--box", box, "--n", "3", "--out", str(tmp_path)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: box size must be a finite positive number")


def test_missing_instance_file_exits_one(capsys, tmp_path):
    assert run_cli("solve", "--instance", str(tmp_path / "nope.json")) == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "key, value",
    [
        ("metric", "euclidean"),
        ("demands", [[0, 1]]),
        ("unstable", ["a"]),
        ("terminals", [[math.nan, 0.0], [1.5, 0.0]]),
        ("terminals", [["a", 0], [1.5, 0]]),
        ("terminals", [5, [1.5, 0]]),
        ("terminals", {"a": 1}),
        ("terminals", [[10**400, 0], [1.5, 0]]),
        ("demands", 3),
        ("demands", [[0, 1, 1.5]]),
        ("metric", {"type": "euclidean", "dim": 2, "delta": "x"}),
        ("metric", {"type": "euclidean", "dim": 2.5}),
        ("metric", {"type": "finite", "matrix": 3, "delta": 5}),
        ("metric", {"type": "finite", "matrix": [[0, "nan"], ["nan", 0]], "delta": 5}),
        ("metric", {"type": "finite", "matrix": [[0, 2], [2, 0]], "delta": "x"}),
        # a valid finite metric, left with the coordinate terminals below
        ("metric", {"type": "finite", "matrix": [[0, 2], [2, 0]], "delta": 5}),
    ],
)
def test_malformed_instance_json_exits_one(tmp_path, capsys, key, value):
    payload = {
        "metric": {"type": "euclidean", "dim": 2},
        "terminals": [[0.0, 0.0], [1.5, 0.0]],
        "demands": [[0, 1, 1]],
    }
    payload[key] = value
    path = tmp_path / "f.json"
    path.write_text(json.dumps(payload))
    assert run_cli("solve", "--instance", str(path), "--out", str(tmp_path / "out")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_reported_opt_is_the_brute_force_optimum(monkeypatch):
    # ceil(2 tau* / delta) is at most the optimum, here the brute force over
    # a candidate universe, and a row reports opt only where its placed
    # count meets that bound, so every reported opt is the brute force's.
    monkeypatch.setattr(relaysynth.steiner, "_CANDIDATE_DEPTH", 1)
    monkeypatch.setattr(relaysynth.steiner, "_MAX_CANDIDATES", 200)
    monkeypatch.setattr(relaysynth.steiner, "_STATE_CAP", 5000)
    config = ExperimentConfig(algorithm="sn012", backend="exact")
    compared = reported = 0
    for n in (3, 4, 5):
        for profile in ("all-1", "all-2", "random"):
            for seed in range(3):
                inst = uniform_box_instance(n, 3.0, seed, profile)
                row, _, feasible = _solve_one(inst, config, 0)
                assert feasible
                bound = math.ceil(2 * Fraction(row["tau_star"]) / inst.metric.delta)
                try:
                    opt, _ = brute_force_opt(inst, min(row["n_steiner"], 4))
                except OracleBudgetError:
                    opt = None  # none of at most 4 relays found within the cap
                if opt is not None:
                    assert bound <= opt, (n, profile, seed)
                    compared += 1
                if row["opt"] is not None:
                    assert row["opt"] == row["n_steiner"] == bound == opt, (n, profile, seed)
                    reported += 1
    assert compared >= 15 and reported >= 5, (compared, reported)


def _write_instance(tmp_path, metric, terminals):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(
        {"metric": metric, "terminals": terminals, "demands": [[0, 1, 1]]}
    ))
    return str(path)


def test_solve_three_dimensional_instance(tmp_path, capsys):
    # ceil(2 tau* / delta) = ceil(4 / 11) = 1 < 2 relays, so no optimum is proven.
    path = _write_instance(
        tmp_path, {"type": "euclidean", "dim": 3}, [[0, 0, 0], [2.5, 0, 0]]
    )
    out = tmp_path / "run"
    assert run_cli("solve", "--instance", path, "--out", str(out)) == 0
    capsys.readouterr()
    row = json.loads((out / "report.json").read_text())["rows"][0]
    assert row["cost"] == 2 and row["feasible"] and row["opt"] is None


@pytest.mark.parametrize(
    "metric, terminals",
    [
        ({"type": "euclidean", "dim": 3}, [[0, 0, 0], [2.5, 0, 0]]),
        ({"type": "finite", "matrix": [[0, 3], [3, 0]], "delta": 5}, None),
    ],
    ids=["euclidean-3d", "finite"],
)
def test_svg_of_non_planar_solution_exits_one(tmp_path, capsys, metric, terminals):
    path = _write_instance(tmp_path, metric, terminals)
    assert run_cli("solve", "--instance", path, "--svg",
                   "--out", str(tmp_path / "out")) == 1
    err = capsys.readouterr().err
    assert err == "error: SVG rendering needs planar coordinates\n"


@pytest.mark.parametrize(
    "error",
    [
        ConnectivityError,
        NonTreeComponentError,
        BeadError,
        HypergraphError,
        SimplexError,
        DecompositionError,
        OracleBudgetError,
    ],
)
def test_broken_guarantee_exits_two(monkeypatch, capsys, error):
    def broken(*args, **kwargs):
        raise error("guarantee broken")

    monkeypatch.setattr(relaysynth.cli, "solve_sn_msp_012", broken)
    assert run_cli("solve", "--family", "square", "--algo", "sn012") == 2
    err = capsys.readouterr().err
    assert err == "error: guarantee broken\n"
    assert "Traceback" not in err


def test_infeasible_mst_exits_two(monkeypatch, tmp_path, capsys):
    def violated(instance, solution):
        return [(0, 1, 1)]

    monkeypatch.setattr(relaysynth.steiner, "verify_feasible", violated)
    assert run_cli("solve", "--family", "pentagon", "--algo", "mst",
                   "--out", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_tau_star_error_exits_two(monkeypatch, tmp_path, capsys):
    def broken(*args, **kwargs):
        raise SimplexError("pivot limit reached")

    monkeypatch.setattr(relaysynth.cli, "tau_star", broken)
    assert run_cli("solve", "--family", "pentagon", "--algo", "mst",
                   "--out", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err == "error: pivot limit reached\n"
    assert "Traceback" not in err


def test_warm_lp_infeasible_row_exits_two(monkeypatch, tmp_path, capsys):
    # A row added to a solved CoverLP that no point in the box meets raises
    # InfeasibleError, a SimplexError, so the command line exits 2.
    def broken(*args, **kwargs):
        lp = CoverLP([Fraction(1)], [Fraction(1)])
        lp.solve()
        lp.add_rows([CoverRow({0: Fraction(1)}, Fraction(2))])

    monkeypatch.setattr(relaysynth.cli, "tau_star", broken)
    assert run_cli("solve", "--family", "pentagon", "--algo", "mst",
                   "--out", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err == "error: row unsatisfiable even at upper bounds\n"
    assert "Traceback" not in err


def test_terminal_cap_exits_one(tmp_path, capsys):
    assert run_cli("solve", "--family", "uniform-box", "--n", "11", "--algo",
                   "sn012", "--out", str(tmp_path)) == 1
    assert capsys.readouterr().err == "error: terminal count 11 exceeds cap 10\n"


def _public_error_classes():
    for info in pkgutil.iter_modules(relaysynth.__path__):
        module = importlib.import_module("relaysynth." + info.name)
        for name, obj in vars(module).items():
            if (
                isinstance(obj, type)
                and issubclass(obj, Exception)
                and obj.__module__ == module.__name__
                and not name.startswith("_")
            ):
                yield obj


def test_every_library_error_carries_an_exit_code():
    # main catches only RelaysynthError, so an error class outside it would
    # end in a traceback instead of exit 1 or 2.
    errors = set(_public_error_classes())
    assert {InstanceError, SizeCapError, ConnectivityError, OracleBudgetError} <= errors
    for error in errors:
        assert issubclass(error, RelaysynthError), error
        assert error.exit_code in (1, 2), error


# Seeded fuzz over instance JSON: each case replaces 1-3 fields of a base
# instance with values from _FUZZ_VALUES and solves it with a seeded choice
# of algorithm, backend and k.
_FUZZ_BASES = [
    {  # euclidean, with an unstable terminal
        "metric": {"type": "euclidean", "dim": 2},
        "terminals": [[0.0, 0.0], [1.5, 0.0], [0.7, 1.2]],
        "unstable": [2],
        "demands": [[0, 1, 1], [1, 2, 1]],
        "default_demand": 1,
    },
    {  # finite: node 1 is the only relay position between the terminals
        "metric": {"type": "finite", "matrix": [[0, 1, 2], [1, 0, 1], [2, 1, 0]], "delta": 5},
        "terminals": [0, 2],
        "demands": [[0, 1, 1]],
    },
]
_FUZZ_VALUES = [
    None, True, False, 0, 1, -1, 2.5, 1e308, math.inf, "x", "1/2", [], {}, 10**30,
    [0], [0, 1], [1, 2, 1],
]


def _fuzz_paths(node, path=()):
    keys = node.keys() if isinstance(node, dict) else range(len(node))
    for key in keys:
        yield path + (key,)
        if isinstance(node[key], (dict, list)):
            yield from _fuzz_paths(node[key], path + (key,))


def _mutated(rng, base):
    payload = copy.deepcopy(base)
    for _ in range(rng.randint(1, 3)):
        path = rng.choice(list(_fuzz_paths(payload)))
        parent = payload
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = copy.deepcopy(rng.choice(_FUZZ_VALUES))
    return payload


def test_fuzzed_instances_exit_cleanly(tmp_path, capsys):
    rng = random.Random(2024)
    codes = set()
    for case in range(120):
        path = tmp_path / ("case-%d.json" % case)
        path.write_text(json.dumps(_mutated(rng, rng.choice(_FUZZ_BASES))))
        argv = [
            "solve", "--instance", str(path),
            "--algo", rng.choice(["mst", "scheme", "sn012"]),
            "--backend", rng.choice(["exact", "pd"]),
            "--k", rng.choice(["1", "2", "3", "5"]),
        ]
        if rng.random() < 0.3:
            argv += ["--svg", "--out", str(tmp_path / ("out-%d" % case))]
        code = run_cli(*argv)
        err = capsys.readouterr().err
        assert code in (0, 1, 2), (argv, code)
        assert "Traceback" not in err, argv
        if code:
            assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        codes.add(code)
    assert codes >= {0, 1}
