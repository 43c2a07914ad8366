#!/usr/bin/env python3
"""relaysynth benchmark: one closed-loop client, one instance at a time.

    python3 perfbench/run.py --workload sn_exact_sweep --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; the library is imported from its ``src/``.
A run repeats passes over the workload's instance pool until the next pass
would overrun ``--seconds``, with at least three passes.  With ``--trace 1``,
untraced and traced passes alternate, starting with an untraced one.
Every output of every pass is checked afterwards by ``checker``, outside the
timed spans.  The last line of standard output is one JSON object; with
``--trace 0`` its metrics are the end-to-end metrics, with ``--trace 1`` the
per-layer ones from the first traced pass.  The lines before it give the
output digest, the unscaled timings and a summary.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 7
# Set-up (imports and instance generation) is scaled by a middle value of the
# workloads' host exponents (see calibrate).
SETUP_EXPONENT = 0.7
# The calibration loop is timed before a solve when this long has passed
# since it was last timed, and once after the last solve of a pass, so that
# every solve lies between two calibration points at most this far apart plus
# its own length.  Each point times the loop at least once and for at least
# CAL_SHARE of the time since the previous point.
CAL_EVERY_S = 0.25
CAL_SHARE = 0.05
# Three passes run even when that overruns --seconds, so that every solve
# has three untraced timings (two with --trace 1).  There is no
# warm-up pass: the library has no lazy set-up (no imports inside functions,
# no caches), and on the sn_pd_large pool the first pass's scaled times
# matched the later passes'.
MIN_PASSES = 3
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "solve_s.p50": "s",
    "solve_s.p90": "s",
    "peak_rss_mb": "MB",
    "relays_total": "count",
}
MAX_FAIL_LINES = 20


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--setup-probe",
        action="store_true",
        help="internal: time the library import plus pool generation, print seconds",
    )
    return p.parse_args(argv)


def load_workloads():
    """Import the library from this checkout's src/ and the workload table."""
    sys.path.insert(0, str(SRC))
    import relaysynth

    if Path(relaysynth.__file__).resolve().parent != SRC / "relaysynth":
        raise ImportError("relaysynth was imported from %s" % relaysynth.__file__)
    import workloads

    return workloads


def setup_seconds(workload):
    """Median of fresh-process timings of import plus instance generation."""
    times = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(out.stdout.split()[-1]))
    return statistics.median(times)


def run_pass(wl, workload, pool, seed, index, tracer=None):
    """Solve the pool once.  Untraced passes also time the calibration loop
    (see CAL_EVERY_S) and scale each solve by the two points around it."""
    import calibrate

    inputs = wl.pass_inputs(pool, seed, index)
    outputs = [None] * len(pool)
    latency = [0.0] * len(pool)
    before = [0] * len(pool)  # index of the last calibration point before each solve
    errors = {}
    calibration = []
    clock = time.perf_counter
    t_pass = clock()
    last_cal = t_pass - CAL_EVERY_S

    def calibrate_point():
        nonlocal last_cal
        point = []
        calibrate.sample(CAL_SHARE * (clock() - last_cal), point)
        calibration.append(point)
        last_cal = clock()

    with tracer if tracer is not None else contextlib.nullcontext():
        for i, inst in inputs:
            if tracer is None and clock() - last_cal >= CAL_EVERY_S:
                calibrate_point()
            before[i] = len(calibration) - 1
            t0 = clock()
            try:
                outputs[i] = workload.solve(inst)
            except Exception as exc:  # a failed solve is counted, not fatal
                errors[i] = "%s: %s" % (type(exc).__name__, exc)
            latency[i] = clock() - t0
        if tracer is None:
            calibrate_point()
    scaled = None
    if tracer is None:
        scaled = [
            t * calibrate.speed(calibration[b] + calibration[b + 1], workload.host_exponent)
            for t, b in zip(latency, before)
        ]
    return {
        "index": index,
        "traced": tracer is not None,
        # Read per pass: the high-water mark creeps up over later passes.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "tracer": tracer,
        "elapsed": clock() - t_pass,
        "wall": sum(latency),
        "latency": latency,
        "scaled": scaled,
        "calibration": calibration,
        "outputs": outputs,
        "errors": errors,
    }


def measure(wl, workload, pool, seed, seconds, trace):
    from tracer import Tracer

    passes = []
    t_start = time.perf_counter()
    while True:
        traced = bool(trace) and len(passes) % 2 == 1
        passes.append(
            run_pass(wl, workload, pool, seed, len(passes), Tracer() if traced else None)
        )
        if len(passes) < MIN_PASSES:
            continue
        next_traced = bool(trace) and len(passes) % 2 == 1
        same_kind = [p["elapsed"] for p in passes if p["traced"] == next_traced]
        if time.perf_counter() - t_start + max(same_kind) > seconds:
            return passes


def digest(workload, pool, outputs):
    records = [
        [label] + (workload.record(out) if out is not None else [None])
        for (label, _), out in zip(pool, outputs)
    ]
    blob = json.dumps(records, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def check_pass(check, p):
    """Problems per pool index; a failed solve is a problem too."""
    problems = {i: [err] for i, err in p["errors"].items()}
    for i, out in enumerate(p["outputs"]):
        if out is not None:
            found = check(out)
            if found:
                problems[i] = found
    return problems


def quantile(values, q):
    """Inclusive-interpolated quantile, q in (0, 1)."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "relaysynth" / "__init__.py").is_file():
        print("error: no relaysynth sources under %s" % SRC, file=sys.stderr)
        return 2
    if args.setup_probe:
        # The calibration loop imports numpy, so the time below covers the
        # library's own modules and the pool, not numpy's import.
        import calibrate

        samples = [calibrate.timed_work() for _ in range(2)]
        t0 = time.perf_counter()
        wl = load_workloads()
        wl.WORKLOADS[args.workload].build()
        elapsed = time.perf_counter() - t0
        samples += [calibrate.timed_work() for _ in range(2)]
        print(repr(elapsed * calibrate.speed(samples, SETUP_EXPONENT)))
        return 0

    wl = load_workloads()
    if args.workload not in wl.WORKLOADS:
        print("error: unknown workload %r; choose from %s"
              % (args.workload, ", ".join(wl.WORKLOADS)), file=sys.stderr)
        return 2
    workload = wl.WORKLOADS[args.workload]
    setup_s = setup_seconds(args.workload)
    pool = workload.build()

    passes = measure(wl, workload, pool, args.seed, args.seconds, args.trace)

    import checker  # networkx is loaded only now, after the passes

    attempted = failed = 0
    for p in passes:
        problems = check_pass(getattr(checker, workload.check), p)
        attempted += len(pool)
        for i, found in sorted(problems.items()):
            if failed < MAX_FAIL_LINES:
                print("FAIL pass %d %s: %s" % (p["index"], pool[i][0], "; ".join(found)),
                      file=sys.stderr)
            failed += 1

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    median = statistics.median
    raw_wall = median(p["wall"] for p in plain)
    raw_instance = sorted(
        statistics.mean(p["latency"][i] for p in plain) for i in range(len(pool))
    )
    # The host's speed swings within seconds, so each solve is scaled by the
    # calibration points just before and after it (run_pass), not by a whole
    # pass's.  A pass's wall is its scaled solves summed, and each instance
    # takes the mean of its scaled solves over the untraced passes: over
    # groups of three or four passes in one long run, the mean spread less
    # than the median on sn_pd_large and about as much on st_scheme_small.
    wall_s = median(sum(p["scaled"]) for p in plain)
    per_instance = sorted(
        statistics.mean(p["scaled"][i] for p in plain) for i in range(len(pool))
    )
    done = [out for out in passes[0]["outputs"] if out is not None]
    relays_total = sum(workload.relays(out) for out in done)
    digests = [digest(workload, pool, p["outputs"]) for p in passes]

    print("digest %s %s" % (args.workload, digests[0]))
    print("raw: pass_walls_s=%s scaled_s=%s p50_s=%.6g p90_s=%.6g calibration_s=%s "
          "(%d samples)" % (
        ",".join("%.3f%s" % (p["wall"], "t" if p["traced"] else "") for p in passes),
        ",".join("%.3f" % sum(p["scaled"]) for p in plain),
        quantile(raw_instance, 0.5), quantile(raw_instance, 0.9),
        ",".join("%.4f" % median(sum(p["calibration"], [])) for p in plain),
        sum(len(point) for p in plain for point in p["calibration"])))
    print(
        "summary: workload=%s seed=%d passes=%d traced=%d solves=%d latency_samples=%d "
        "relays_total=%d %s fail_frac=%.4f outputs_agree_across_passes=%s"
        % (args.workload, args.seed, len(passes), len(traced), attempted,
           len(plain) * len(pool), relays_total,
           workload.quality(done) if done else "no outputs",
           failed / attempted, len(set(digests)) == 1)
    )

    if args.trace:
        from tracer import per_layer_metrics

        metrics = per_layer_metrics(
            traced[0]["tracer"], median(p["wall"] for p in traced), raw_wall
        )
    else:
        values = {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "solve_s.p50": quantile(per_instance, 0.5),
            "solve_s.p90": quantile(per_instance, 0.9),
            "peak_rss_mb": passes[0]["peak_rss_mb"],
            "relays_total": relays_total,
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
