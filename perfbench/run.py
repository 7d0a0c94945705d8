"""diskflow benchmark: wall time of fixed-length preset runs, and where it goes.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the package is imported from its ``src``.
Each repetition runs in a fresh process (worker.py), one at a time, so the
benchmark never holds more threads than one worker's BLAS pool, peak memory
is read per repetition, and module-level caches never carry over.
``DISKFLOW_THREADS`` is removed from the workers' environment.

--trace 0 repeats the workload until --seconds have passed (at least three
repetitions) and reports the end-to-end metrics, medians over the
repetitions.

--trace 1 runs every workload, whatever --workload names, so that each
per-layer metric is measured on the workload it is tied to (layers.py):
TRACE_PAIRS times untraced and traced in turn.  It reports the per-layer
metrics, medians over the traced repetitions.

Every timing is scaled to the nominal host speed by a reference kernel timed
in the same repetition (reference.py).

The last line of standard output is one JSON object with keys correct,
attempted, failed and metrics.  The lines before it give every metric with
its unit and sample count, the failed fraction, the seed and the
environment; the same record is written to .perfbench-out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench-out")
sys.path.insert(0, HERE)

import layers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_REPS = 3
TRACE_PAIRS = 2
REP_TIMEOUT_S = 120

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "step_ms_p50": "ms",
    "step_ms_p95": "ms",
    "peak_rss_mb": "MB",
}


class WorkerError(RuntimeError):
    pass


def run_rep(name, seed, trace):
    """One repetition in a fresh process; returns its record."""
    env = dict(os.environ)
    env.pop("DISKFLOW_THREADS", None)
    out_dir = os.path.join(OUT, name)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), name, str(seed), str(trace), out_dir]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{name} repetition exceeded {REP_TIMEOUT_S} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{name} worker exited with status {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1]) | {"workload": name, "trace": trace}


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(recs):
    """Metrics and sample counts over the repetitions that ran to the end.

    setup_s, wall_s and peak_rss_mb are medians over the repetitions.  Every
    repetition runs the same inputs, so step i of one repetition repeats
    step i of the others: the step percentiles are taken over the per-step
    medians across repetitions, which drops a stall that hit one repetition
    and keeps periodic work such as observer steps.
    """
    done = [r for r in recs if "wall_s" in r]
    steps = [statistics.median(ms) for ms in zip(*(r["step_ms"] for r in done))]
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in done),
        "wall_s": statistics.median(r["wall_s"] for r in done),
        "step_ms_p50": statistics.median(steps),
        "step_ms_p95": percentile(steps, 95),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in done),
    }
    counts = {k: len(done) for k in values}
    counts["step_ms_p50"] = counts["step_ms_p95"] = len(steps)
    return values, counts


def per_layer(seed):
    """Every workload TRACE_PAIRS times untraced and traced; per-layer metrics.

    A layer metric is the median over the traced repetitions.  The tracing
    overhead is the fastest traced wall time over the fastest untraced one,
    both taken from repetitions run alternately.
    """
    recs, values, counts = [], {}, {}
    for name in WORKLOADS:
        plain, traced = [], []
        for _ in range(TRACE_PAIRS):
            plain.append(run_rep(name, seed, 0))
            traced.append(run_rep(name, seed, 1))
        recs += plain + traced
        plain = [r for r in plain if "wall_s" in r]
        traced = [r for r in traced if "layers" in r]
        for metric in traced[0]["layers"] if traced else ():
            values[f"{name}.{metric}"] = statistics.median(r["layers"][metric] for r in traced)
            counts[f"{name}.{metric}"] = len(traced)
        if plain and traced:
            values[f"{name}.{layers.OVERHEAD}"] = (min(r["traced_wall_s"] for r in traced)
                                                    / min(r["wall_s"] for r in plain))
            counts[f"{name}.{layers.OVERHEAD}"] = len(plain) + len(traced)
    return recs, values, layers.metric_units(), counts


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "diskflow", "__init__.py")):
        print(f"error: no diskflow sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    workload = WORKLOADS[args.workload]
    try:
        if args.trace:
            recs, values, units, counts = per_layer(args.seed)
        else:
            recs, t0 = [], time.monotonic()
            while len(recs) < MIN_REPS or time.monotonic() - t0 < args.seconds:
                recs.append(run_rep(workload.name, args.seed, 0))
            if not any("wall_s" in r for r in recs):
                raise WorkerError("no repetition ran to the end: " + "; ".join(recs[0]["failures"]))
            values, counts = end_to_end(recs)
            units = END_TO_END_UNITS
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    missing = sorted(set(units) - set(values))
    if missing:
        print(f"error: no value for {', '.join(missing)}", file=sys.stderr)
        return 1

    failed = sum(not r["ok"] for r in recs)
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "amplitude": next((r["amplitude"] for r in recs if r.get("workload") == workload.name
                           and "amplitude" in r), None),
        "trace": args.trace,
        "repetitions": len(recs),
        "failed_frac": failed / len(recs),
        "failures": [f for r in recs for f in r["failures"]],
        "samples": counts,
        "metrics": metrics,
        "repetitions_detail": [{k: r.get(k) for k in ("workload", "trace", "wall_s", "setup_s",
                                                      "scale", "setup_scale", "reference_s",
                                                      "untraced_share")}
                               | {"raw": {k: v for k, v in r.get("raw", {}).items()
                                          if k != "step_ms"}}
                               for r in recs],
        "env": next((r["env"] for r in recs if "env" in r), None),
    }
    for k, m in metrics.items():
        print(f"{k} = {m['value']:.6g} {m['unit']} (n={counts[k]})")
    print(f"failed_frac = {detail['failed_frac']:.6g} fraction (n={len(recs)})")
    for f in detail["failures"]:
        print(f"failure: {f}")
    print(json.dumps({k: detail[k] for k in ("workload", "seed", "amplitude", "samples", "env")}))
    with open(os.path.join(OUT, f"result-{workload.name}-trace{args.trace}.json"), "w") as fh:
        json.dump(detail, fh, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": len(recs), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
