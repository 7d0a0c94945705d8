"""Run-to-run spread of the benchmark, and the baseline record.

    python3 perfbench/spread.py [--sets 1] [--seeds 10] [--first-seed 1]
                                [--seconds 40] [--workload NAME ...]
                                [--traced 0] [--out FILE]

Runs run.py once per seed and workload, one after another, --sets times
with fresh seeds each time, and prints for each end-to-end metric the median
and the quartile spread (q3 - q1) / median, quartiles as
statistics.quantiles(values, n=4) gives them, and from the second set on the
change of each median against the first set.  With --traced N it then makes
N traced runs (run.py --trace 1) and checks that every exact count (units
count and calls/step) is the same in all of them.

With --out the whole record is written as JSON; perfbench/baseline.json is
this record for

    python3 perfbench/spread.py --sets 2 --traced 2 --out perfbench/baseline.json
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

LISTED = [w["name"] for w in json.load(open(os.path.join(ROOT, "BENCHMARK.json")))["workloads"]]
ENV = {}  # the environment the runs report (the same for all of them)


def run(workload, seed, seconds, trace):
    """One run.py run: (result line, detail line) of its standard output."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    detail = json.loads(lines[-2])
    ENV.update(detail["env"] or {})
    return json.loads(lines[-1]), detail


def measure_set(names, seeds, seconds, first=None):
    """Ten (or --seeds) runs per workload; per-metric median and spread."""
    out = {}
    for name in names:
        results = [run(name, seed, seconds, 0)[0] for seed in seeds]
        summary = {}
        for metric, m in results[0]["metrics"].items():
            vals = [r["metrics"][metric]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            summary[metric] = {"median": med, "q1": q1, "q3": q3,
                               "spread": (q3 - q1) / med, "unit": m["unit"]}
            line = (f"{name:11s} {metric:12s} median {med:.6g} {m['unit']:3s} "
                    f"spread {100 * (q3 - q1) / med:6.2f}%")
            if first is not None:
                change = med / first[name]["summary"][metric]["median"] - 1.0
                summary[metric]["change_vs_first_set"] = change
                line += f"  vs first set {100 * change:+6.2f}%"
            print(line, flush=True)
        out[name] = {
            "seeds": list(seeds),
            "failed_frac": sum(r["failed"] for r in results) / sum(r["attempted"] for r in results),
            "summary": summary,
            "runs": [{k: v["value"] for k, v in r["metrics"].items()} for r in results],
        }
    return out


def measure_traced(seeds, seconds):
    """Traced runs, and whether every exact count agrees between them."""
    runs = []
    for seed in seeds:
        result, _ = run(LISTED[0], seed, seconds, 1)
        runs.append({"seed": seed, "failed_frac": result["failed"] / result["attempted"],
                     "metrics": {k: v["value"] for k, v in result["metrics"].items()}})
    counts = [k for k, unit in layers.metric_units().items() if unit in ("count", "calls/step")]
    equal = all(r["metrics"][k] == runs[0]["metrics"][k] for r in runs for k in counts)
    print(f"traced runs: {len(runs)}, failed fractions {[r['failed_frac'] for r in runs]}, "
          f"{len(counts)} exact counts {'equal' if equal else 'DIFFER'}", flush=True)
    return {"runs": runs, "exact_counts": counts, "exact_counts_equal": equal}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--traced", type=int, default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    names = args.workload or LISTED
    sets = []
    for i in range(args.sets):
        first = args.first_seed + i * args.seeds
        sets.append(measure_set(names, range(first, first + args.seeds), args.seconds,
                                sets[0] if sets else None))
    record = {"command": " ".join(["python3", "perfbench/spread.py"] + sys.argv[1:])}
    record["end_to_end"] = {"seconds": args.seconds, "sets": sets}
    if args.traced:
        seeds = range(args.first_seed, args.first_seed + args.traced)
        record["per_layer"] = measure_traced(seeds, args.seconds)
    record["environment"] = ENV
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
