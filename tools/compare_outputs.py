"""Compare the CLI output files of a git revision with those of the work tree.

Usage:  python3 tools/compare_outputs.py <rev>

Exports <rev> with `git archive` into a temporary directory and runs the same
experiment configs with `python -m diskflow run` there and in the work tree:
the seven presets, each at its own kind, compare-asymptotic on
translating-disk, ns-small-q32 under evolve-stokes (n_points = 512,
t_end = 4), kato-small with its checks disabled, unit-kick-k0 at t_end = 2
(a failing self-similar check, exit status 2) and two fit-decay runs with an
expected exponent on the unit-kick-k0 series the same tree has just written
(one passing, one log-corrected and failing).  So every runner, every output
file and each exit status is covered.  The two trees run side by side, one
process each; on two cores the whole comparison takes about a minute, most
of it the ns-small-q32 run.

For each output file it prints "identical", or the size of the difference
of its numbers, or the first line that differs in anything but numbers.
The size is the largest pointwise relative difference, and the largest
difference over the largest value of its column, with that column named,
among the columns above roundoff; the roundoff columns follow with their
absolute differences (see compare_file).  Comment lines (the resolved
config) are set aside.
Each label's exit status is printed too, and a differing one counts as a
difference.
Exits 0 when every file is identical and every exit status equal.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# a column whose largest |a| is below this fraction of the largest |a| of its
# file is roundoff around zero (an omega of 4e-22 beside velocities of 1e-2)
ROUNDOFF = 1e-12

# (label, config body without [output]); each preset at its own kind first.
# {out_root} in a body is the output root of the tree that runs it.
CONFIGS = [
    (preset, f"[experiment]\nkind = {kind}\n[initial_data]\npreset = {preset}\n")
    for preset, kind in (
        ("unit-kick-k0", "mode-heat"),
        ("w-bump-k1", "mode-heat"),
        ("translating-disk", "evolve-stokes"),
        ("neutral-buoyancy", "evolve-stokes"),
        ("higher-modes-only", "evolve-stokes"),
        ("ns-small-q32", "evolve-ns"),
        ("kato-small", "kato"),
    )
] + [
    ("translating-disk-compare", "[experiment]\nkind = compare-asymptotic\n"
     "[initial_data]\npreset = translating-disk\n"),
    ("ns-small-q32-stokes", "[experiment]\nkind = evolve-stokes\n"
     "[initial_data]\npreset = ns-small-q32\n[grid]\nn_points = 512\n[time]\nt_end = 4\n"),
    ("kato-small-unchecked", "[experiment]\nkind = kato\n[initial_data]\npreset = kato-small\n"
     "[checks]\nenabled = false\n"),
    ("unit-kick-k0-t2", "[experiment]\nkind = mode-heat\n[initial_data]\npreset = unit-kick-k0\n"
     "[time]\nt_end = 2\n"),
    ("unit-kick-k0-fit", "[experiment]\nkind = fit-decay\nname = unit-kick-k0-fit\n[fit]\n"
     "file = {out_root}/unit-kick-k0/time_series.txt\ncolumn = norm_p2\nt_min = 10\n"
     "t_max = 100\nexpected = -0.5\np = 2\n"),
    ("unit-kick-k0-fit-log", "[experiment]\nkind = fit-decay\n[fit]\n"
     "file = {out_root}/unit-kick-k0/time_series.txt\ncolumn = norm_pinf\n"
     "log_correction = yes\nexpected = -1.5\ntolerance = 0.01\n"),
]


def export(rev, dest):
    """Write the tree of rev into dest."""
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", dest], input=archive.stdout, check=True)


def start(tree, label, body, out_root):
    """Start one run of config body in tree; returns (process, output dir)."""
    out = os.path.join(out_root, label)
    os.makedirs(out)
    cfg = os.path.join(out_root, f"{label}.cfg")
    with open(cfg, "w") as fh:
        fh.write(body.format(out_root=out_root) + f"[output]\ndir = {out}\n")
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    proc = subprocess.Popen([sys.executable, "-m", "diskflow", "run", cfg], cwd=tree, env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return proc, out


def data_lines(path):
    with open(path) as fh:
        return [line.rstrip("\n") for line in fh if not line.startswith("#")]


def tokens(line):
    """The words of a line, split at whitespace, commas, '=' and brackets, so
    a number in a check line's '(drift 1.5e-12)' or '['3.4e-02']' stands
    alone."""
    return re.sub(r"[,=()\[\]']", " ", line).split()


def compare_file(a, b):
    """'identical', or the size of the difference, or the first line that
    differs beyond its numbers.

    The size is given twice: as the largest pointwise relative difference,
    and as the largest |a - b| over the largest |a| of its column, with that
    column named.  The first measure reads O(1) on a column that is roundoff
    around zero; the second gives the size of a move against what the column
    holds.  It names the worst column among those whose largest |a| is at
    least ROUNDOFF of the file's largest; the columns below that follow by
    name with their largest |a - b|.  A columnar file's columns are named by
    its header line; in any other file (summary.txt) the numbers of one line
    form a column, named by the line's text before its first '=' or ':'.
    """
    la, lb = data_lines(a), data_lines(b)
    if la == lb:
        return "identical"
    if len(la) != len(lb):
        first = next((x for x, y in zip(la, lb) if x != y), "(none)")
        return f"{len(la)} against {len(lb)} lines, first differing line {first!r}"
    header = tokens(la[0]) if "," in la[0] and "=" not in la[0] else None
    worst = 0.0
    diff, scale = {}, {}  # per column: largest |a - b| and largest |a|
    for x, y in zip(la, lb):
        tx, ty = tokens(x), tokens(y)
        if len(tx) != len(ty):
            return f"differs: {x!r} against {y!r}"
        for j, (u, v) in enumerate(zip(tx, ty)):
            try:
                fu, fv = float(u), float(v)
            except ValueError:
                if u == v:
                    continue
                return f"differs: {x!r} against {y!r}"
            if header is not None and len(tx) == len(header):
                column = header[j]
            else:
                column = re.split("[=:]", x)[0].strip()
            scale[column] = max(scale.get(column, 0.0), abs(fu))
            diff[column] = max(diff.get(column, 0.0), abs(fu - fv))
            if fu != fv:
                worst = max(worst, abs(fu - fv) / max(abs(fu), abs(fv)))

    def size(c):
        return diff[c] / scale[c] if scale[c] else math.inf if diff[c] else 0.0

    top = max(scale.values(), default=0.0)
    roundoff = [c for c in diff if scale[c] < ROUNDOFF * top]
    column = max((c for c in diff if c not in roundoff), key=size, default=None)
    if column is None:
        return f"differs in spacing only: {la[0]!r}"
    text = (f"largest relative difference {worst:.3e}; of the column scale {size(column):.3e}, "
            f"in {column} (scale {scale[column]:.3e})")
    if roundoff:
        text += "; roundoff columns, absolute: " + ", ".join(f"{c} {diff[c]:.3e}" for c in roundoff)
    return text


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="git revision to compare the work tree against")
    args = parser.parse_args(argv)
    all_identical = True
    with tempfile.TemporaryDirectory() as tmp:
        base = os.path.join(tmp, "rev")
        os.makedirs(base)
        export(args.rev, base)
        for label, body in CONFIGS:
            runs = [start(tree, label, body, os.path.join(tmp, side))
                    for tree, side in ((base, "out-rev"), (ROOT, "out-tree"))]
            (pa, da), (pb, db) = runs
            status = (pa.wait(), pb.wait())
            if status[0] != status[1]:
                all_identical = False
                print(f"{label}: exit status {status[0]} against {status[1]}")
            else:
                print(f"{label}: exit status {status[0]} on both")
            for name in sorted(set(os.listdir(da)) | set(os.listdir(db))):
                fa, fb = os.path.join(da, name), os.path.join(db, name)
                if not (os.path.exists(fa) and os.path.exists(fb)):
                    verdict = "written by one side only"
                else:
                    verdict = compare_file(fa, fb)
                all_identical &= verdict == "identical"
                print(f"{label}/{name}: {verdict}")
    return 0 if all_identical else 1


if __name__ == "__main__":
    sys.exit(main())
