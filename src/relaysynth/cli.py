"""Command-line front end: instance generation, solving, audits, and sweeps.

Exit codes: 0 when every emitted solution verifies and every audited
inequality holds, 1 on usage, instance, terminal-cap or I/O errors, 2 on audit
violations, infeasible output or any other broken guarantee.  A library error
carries its code as ``RelaysynthError.exit_code``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Dict, Optional, Tuple

from .audits import AUDITS
from .connectivity import tau_star, verify_feasible
from .errors import RelaysynthError
from .generators import FIXED_SIZES, ExperimentConfig, generate
from .instances import Instance, InstanceError, parse_instance, serialize_instance
from .local_replacement import st_msp_scheme
from .reporting import RunReport, instance_hash, render_svg
from .steiner import SchemeConfig, mst_baseline
from .survivable import solve_sn_msp_012

_TAU_STAR_TERMINALS = 12  # terminals up to which mst and scheme rows get tau_star


def _fmt(value) -> Optional[str]:
    if value is None:
        return None
    if isinstance(value, Fraction):
        return str(value)
    return value


def _solve_one(
    instance: Instance, config: ExperimentConfig, index: int
) -> Tuple[Dict[str, object], Dict[str, str], bool]:
    t0 = time.perf_counter()
    artifacts: Dict[str, str] = {}
    tau_star_value = None
    tau_integral_value = None
    certified = None

    if config.algorithm == "mst":
        solution = mst_baseline(instance)
        cost = len(solution.steiner)
    elif config.algorithm == "scheme":
        result = st_msp_scheme(instance, SchemeConfig(k=config.k))
        solution = result.solution
        cost = result.size
        artifacts["trace-%d.json" % index] = json.dumps(
            result.trace.to_json(), sort_keys=True, indent=1
        )
    elif config.algorithm == "sn012":
        report = solve_sn_msp_012(instance, config.backend)
        solution = report.solution
        cost = report.cost
        tau_star_value = report.tau_star_value
        certified = report.certified
        if config.backend == "exact" and report.certified:
            tau_integral_value = report.cost
        artifacts["report-%d.json" % index] = json.dumps(
            report.to_json(), sort_keys=True, indent=1
        )
        if report.witness is not None:
            artifacts["witness-%d.json" % index] = json.dumps(
                report.witness.to_json(), sort_keys=True, indent=1
            )
    else:
        raise InstanceError("unknown algorithm %r" % (config.algorithm,))

    if tau_star_value is None and instance.n <= _TAU_STAR_TERMINALS:
        tau_star_value = tau_star(instance).value

    feasible = not verify_feasible(instance, solution)
    # tau* <= (delta / 2) * opt bounds every placement, so a placed count at
    # ceil(2 tau* / delta) is optimal; no other row claims an optimum.
    opt = None
    n_steiner = len(solution.steiner)
    if (
        tau_star_value is not None
        and n_steiner == math.ceil(2 * tau_star_value / instance.metric.delta)
    ):
        opt = n_steiner
    row = {
        "index": index,
        "instance_hash": instance_hash(instance),
        "generator": config.generator if config.instance_path is None else "file",
        "n_terminals": instance.n,
        "algorithm": config.algorithm,
        "k": config.k if config.algorithm == "scheme" else None,
        "backend": config.backend if config.algorithm == "sn012" else None,
        "n_steiner": n_steiner,
        "cost": cost,
        "tau_star": _fmt(tau_star_value),
        "tau_integral": tau_integral_value,
        "opt": opt,
        "ratio_vs_taustar": _fmt(
            Fraction(cost) / tau_star_value
            if tau_star_value not in (None, 0)
            else None
        ),
        "tau_over_opt": _fmt(
            Fraction(tau_integral_value) / opt
            if tau_integral_value is not None and opt
            else None
        ),
        "taustar_over_opt": _fmt(
            tau_star_value / opt
            if tau_star_value is not None and opt
            else None
        ),
        "feasible": feasible,
        "certified": certified,
        "wall_time_s": round(time.perf_counter() - t0, 4),
    }
    if config.svg:
        artifacts["solution-%d.svg" % index] = render_svg(solution)
    return row, artifacts, feasible


def _load_or_generate(config: ExperimentConfig, index: int) -> Instance:
    if config.instance_path:
        text = Path(config.instance_path).read_text()
        return parse_instance(text)
    return generate(config, index)


def run(config: ExperimentConfig) -> Tuple[RunReport, Dict[str, str], bool]:
    """Solve config.trials instances and gather rows; see the CLI for I/O."""
    report = RunReport(
        config={
            "generator": config.generator,
            "n": config.n,
            "box": config.box,
            "seed": config.seed,
            "algorithm": config.algorithm,
            "k": config.k,
            "backend": config.backend,
            "demand_profile": config.demand_profile,
            "trials": config.trials,
            "instance": config.instance_path,
        }
    )
    artifacts: Dict[str, str] = {}
    all_ok = True
    for index in range(config.trials):
        instance = _load_or_generate(config, index)
        row, arts, feasible = _solve_one(instance, config, index)
        report.add_row(**row)
        artifacts.update(arts)
        all_ok = all_ok and feasible
    return report, artifacts, all_ok


def _write_artifacts(out: Optional[str], report: RunReport, artifacts: Dict[str, str]):
    if out is None:
        return
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_text(report.to_json())
    (out_dir / "report.csv").write_text(report.to_csv())
    for name, content in sorted(artifacts.items()):
        (out_dir / name).write_text(content)


def _positive_int(text: str) -> int:
    if int(text) < 1:
        raise argparse.ArgumentTypeError("must be at least 1, got %s" % text)
    return int(text)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--instance", help="instance JSON path")
    parser.add_argument(
        "--family",
        default="uniform-box",
        choices=["uniform-box", "pentagon", "square", "collinear", "star"],
    )
    # Generator options default to None so that a fixed family can refuse
    # them; _config_from fills in ExperimentConfig's defaults.
    parser.add_argument("--n", type=int)
    parser.add_argument("--box", type=float)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--demands", choices=["random", "all-1", "all-2"])
    parser.add_argument("--algo", default="sn012", choices=["mst", "scheme", "sn012"])
    parser.add_argument("--k", type=int, default=5)
    parser.add_argument("--backend", default="exact", choices=["exact", "pd"])
    parser.add_argument("--trials", type=_positive_int, default=1)
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--svg", action="store_true")


def _config_from(args) -> ExperimentConfig:
    size = FIXED_SIZES.get(args.family)
    n = args.n
    if args.instance is None and size is not None:
        if n not in (None, size):
            raise InstanceError("%s family has %d terminals, got --n %d" % (args.family, size, n))
        for option in ("box", "seed", "demands"):
            if getattr(args, option) is not None:
                raise InstanceError("%s family is fixed and takes no --%s" % (args.family, option))
        n = size
    elif args.instance is None and args.family == "star":
        for option in ("box", "demands"):
            if getattr(args, option) is not None:
                raise InstanceError("star family takes no --%s" % option)
    given = {"n": n, "box": args.box, "seed": args.seed, "demand_profile": args.demands}
    return ExperimentConfig(
        generator=args.family,
        algorithm=args.algo,
        k=args.k,
        backend=args.backend,
        trials=args.trials,
        svg=args.svg,
        instance_path=args.instance,
        **{key: value for key, value in given.items() if value is not None},
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="relaysynth",
        description="Relay placement solvers for unit-disk survivable networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="write an instance JSON")
    _add_common(p_gen)

    p_solve = sub.add_parser("solve", help="solve one instance")
    _add_common(p_solve)

    p_sweep = sub.add_parser("sweep", help="solve a seeded batch of instances")
    _add_common(p_sweep)

    p_audit = sub.add_parser("audit", help="replay the library's inequalities")
    p_audit.add_argument(
        "--check", default="all", choices=sorted(AUDITS) + ["all"]
    )
    p_audit.add_argument("--trials", type=_positive_int, default=None)
    p_audit.add_argument("--seed", type=int, default=0)
    p_audit.add_argument("--out", help="output directory")

    try:
        args = parser.parse_args(argv)
    except SystemExit:
        return 1

    try:
        if args.command == "gen":
            config = _config_from(args)
            instance = _load_or_generate(config, 0)
            text = serialize_instance(instance)
            if args.out:
                path = Path(args.out)
                if path.suffix != ".json":
                    path.mkdir(parents=True, exist_ok=True)
                    path = path / "instance.json"
                path.write_text(text + "\n")
                print(path)
            else:
                print(text)
            return 0

        if args.command in ("solve", "sweep"):
            config = _config_from(args)
            report, artifacts, all_ok = run(config)
            _write_artifacts(args.out, report, artifacts)
            for row in report.rows:
                print(
                    "[%s] %s n=%s algo=%s cost=%s tau*=%s"
                    % (
                        "ok" if row["feasible"] else "INFEASIBLE",
                        row["instance_hash"],
                        row["n_terminals"],
                        row["algorithm"],
                        row["cost"],
                        row["tau_star"],
                    )
                )
            return 0 if all_ok else 2

        if args.command == "audit":
            names = sorted(AUDITS) if args.check == "all" else [args.check]
            outcomes = []
            ok = True
            for name in names:
                kwargs = {"seed": args.seed}
                if args.trials is not None:
                    kwargs["trials"] = args.trials
                outcome = AUDITS[name](**kwargs)
                outcomes.append(outcome)
                ok = ok and outcome.ok
                print(
                    "[%s] %s (trials=%d%s)"
                    % (
                        "PASS" if outcome.ok else "FAIL",
                        outcome.name,
                        outcome.trials,
                        ""
                        if outcome.ok
                        else "; " + "; ".join(outcome.violations[:3]),
                    )
                )
            if args.out:
                out_dir = Path(args.out)
                out_dir.mkdir(parents=True, exist_ok=True)
                payload = [o.to_json() for o in outcomes]
                (out_dir / "audit.json").write_text(
                    json.dumps(payload, sort_keys=True, indent=1)
                )
            return 0 if ok else 2
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except RelaysynthError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return exc.exit_code
    return 1


if __name__ == "__main__":
    sys.exit(main())
