"""Run alternating parent/change benchmark pairs and judge the end-to-end metrics.

Usage:  python3 tools/bench_pairs.py <rev> --workload W [--pairs 10]
            [--first-seed S] [--seconds T] [--held-out SEED]

Exports <rev> with `git archive` (compare_outputs.export) into a temporary
directory and runs `perfbench/run.py --workload W --seed s --seconds T
--trace 0` there (the parent) and in the work tree (the change), one run at
a time, for the seeds S, S + 1, ..., alternating which side runs first.
--seconds defaults to BENCHMARK.json's run_seconds.  A held-out seed adds
one more pair, reported on its own and left out of the statistics.

For each end-to-end metric of BENCHMARK.json it prints both sides' medians
and quartiles over the pairs, the pairs the change wins (ties count for
neither side), whether a gain is shown, and whether the change stays within
the metric's bound.  A gain is shown when the change wins at least 9/10 of
the pairs and its median is better than the parent's by more than the
parent's interquartile range.  The bound is the fraction of the parent's
median by which the change's median may be worse; where the parent's
interquartile range exceeds it, the metric is unresolved unless every run
of the change is better than every run of the parent.  Nothing under
perfbench/ is changed; each tree's runs write its own .perfbench-out/.
Exits 1 when a run fails or reports failed repetitions.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from compare_outputs import export  # noqa: E402

# a gain needs wins in at least WINS_OF_TEN tenths of the pairs
WINS_OF_TEN = 9


def run_bench(tree, workload, seed, seconds):
    """The JSON result line of one untraced benchmark run in tree."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited with status "
                           f"{proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def quartiles(values):
    """(first quartile, median, third quartile) of values."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs, end_to_end, held_out=None):
    """Lines judging each end-to-end metric over pairs.

    pairs is a list of (parent, change) dicts mapping metric names to values,
    one per alternating pair; end_to_end is BENCHMARK.json's list of metric
    specs (name, unit, better, bound); held_out, if given, is one more
    (parent, change) pair reported apart.
    """
    lines = []
    for spec in end_to_end:
        name, sign = spec["name"], 1.0 if spec["better"] == "lower" else -1.0
        parent = [p[name] for p, _ in pairs]
        change = [c[name] for _, c in pairs]
        p1, pm, p3 = quartiles(parent)
        c1, cm, c3 = quartiles(change)
        wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
        gap, iqr = sign * (pm - cm), p3 - p1
        shown = 10 * wins >= WINS_OF_TEN * len(pairs) and gap > iqr
        move = (cm - pm) / pm if pm else 0.0
        worse = sign * move
        dominated = max(sign * c for c in change) < min(sign * p for p in parent)
        if worse > spec["bound"]:
            bound = "worse than the bound"
        elif iqr > spec["bound"] * abs(pm) and not dominated:
            bound = "unresolved (parent IQR wider than the bound)"
        else:
            bound = "within the bound"
        lines.append(
            f"{name} [{spec['unit']}, {spec['better']} is better]: "
            f"parent {pm:.6g} (quartiles {p1:.6g}-{p3:.6g}), "
            f"change {cm:.6g} (quartiles {c1:.6g}-{c3:.6g}); "
            f"wins {wins}/{len(pairs)}; gap {gap:.6g} against parent IQR {iqr:.6g}: "
            f"gain {'shown' if shown else 'not shown'}; "
            f"change {100.0 * move:+.1f} % against bound {100.0 * spec['bound']:.0f} %: {bound}")
        if held_out is not None:
            p, c = held_out[0][name], held_out[1][name]
            verdict = "win" if sign * (p - c) > 0 else "tie" if p == c else "loss"
            lines.append(f"  held-out: parent {p:.6g}, change {c:.6g}: {verdict}")
    return lines


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="git revision of the parent")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--held-out", type=int, default=None, metavar="SEED")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    seeds = [args.first_seed + i for i in range(args.pairs)]
    if args.held_out is not None:
        seeds.append(args.held_out)
    failed = 0
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        export(args.rev, tmp)
        for i, seed in enumerate(seeds):
            order = [("parent", tmp), ("change", ROOT)]
            if i % 2:
                order.reverse()
            got = {}
            try:
                for side, tree in order:
                    got[side] = run_bench(tree, args.workload, seed, args.seconds)
            except RuntimeError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            failed += got["parent"]["failed"] + got["change"]["failed"]
            pair = tuple({k: m["value"] for k, m in got[side]["metrics"].items()}
                         for side in ("parent", "change"))
            results.append(pair)
            print(f"seed {seed} ({order[0][0]} first): "
                  + ", ".join(f"{k} {pair[0][k]:.6g} -> {pair[1][k]:.6g}" for k in pair[0])
                  + f"; failed {got['parent']['failed']}/{got['parent']['attempted']}"
                  + f" -> {got['change']['failed']}/{got['change']['attempted']}", flush=True)
    held_out = results.pop() if args.held_out is not None else None
    print(f"{args.workload}, {len(results)} pairs, seeds {seeds[0]}-{seeds[len(results) - 1]}"
          + (f", held-out seed {args.held_out}" if held_out else "")
          + f", {args.seconds:g} s per run:")
    for line in summarize(results, bench["end_to_end"], held_out):
        print(line)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
