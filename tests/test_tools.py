"""Tests of the command-line tools under tools/."""

import importlib.util
import os

import pytest

TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")


def _load(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(TOOLS, f"{name}.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture(scope="module")
def compare_outputs():
    return _load("compare_outputs")


def _write(path, rows):
    path.write_text("# [experiment]\nt, omega, ell_x\n"
                    + "".join(f"{t!r}, {om!r}, {ex!r}\n" for t, om, ex in rows))
    return str(path)


def test_compare_file_names_the_worst_column_above_roundoff(tmp_path, compare_outputs):
    # omega is roundoff around zero (1e-22 beside ell_x ~ 1e-2): its relative
    # move is O(1) but it must not hide the physical column's 1e-13
    a = _write(tmp_path / "a.txt", [(0.0, 4.0e-22, 1.0e-2), (1.0, -2.0e-22, 5.0e-3)])
    b = _write(tmp_path / "b.txt", [(0.0, 1.0e-22, 1.0e-2), (1.0, -2.0e-22, 5.0e-3 + 1e-15)])
    verdict = compare_outputs.compare_file(a, b)
    assert verdict.startswith("largest relative difference")
    assert "of the column scale 1.000e-13, in ell_x (scale 1.000e-02)" in verdict
    assert verdict.endswith("; roundoff columns, absolute: omega 3.000e-22")
    # the comment line is set aside, and equal numbers are identical
    c = _write(tmp_path / "c.txt", [(0.0, 4.0e-22, 1.0e-2), (1.0, -2.0e-22, 5.0e-3)])
    with open(c, "a") as fh:
        fh.write("# another comment\n")
    assert compare_outputs.compare_file(a, c) == "identical"


def test_bench_pairs_summary_judges_gain_and_bound():
    # fixed pair numbers, no benchmark run: a step time won in 9 of 10 pairs
    # by more than the parent's IQR shows a gain; a wall time won in 8 shows
    # none; a set-up time 30 % worse breaks its 25 % bound; a memory figure
    # whose parent IQR spans more than its 5 % bound is unresolved
    bench_pairs = _load("bench_pairs")
    spec = [{"name": "step_ms_p50", "unit": "ms", "better": "lower", "bound": 0.2},
            {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.2},
            {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
            {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05}]
    parent_step = [0.27, 0.28, 0.26, 0.29, 0.27, 0.25, 0.28, 0.27, 0.26, 0.12]
    change_step = [0.15, 0.16, 0.14, 0.17, 0.15, 0.13, 0.16, 0.15, 0.14, 0.16]
    pairs = [({"step_ms_p50": p, "wall_s": 1.0, "setup_s": 1.0, "peak_rss_mb": 100.0 + 10 * i},
              {"step_ms_p50": c, "wall_s": 0.9 if i < 8 else 1.1, "setup_s": 1.3,
               "peak_rss_mb": 104.0 + 10 * i})
             for i, (p, c) in enumerate(zip(parent_step, change_step))]
    held_out = ({"step_ms_p50": 0.27, "wall_s": 1.0, "setup_s": 1.0, "peak_rss_mb": 100.0},
                {"step_ms_p50": 0.15, "wall_s": 1.0, "setup_s": 1.2, "peak_rss_mb": 100.0})
    step, step_held, wall, _, setup, _, rss, _ = bench_pairs.summarize(pairs, spec, held_out)
    assert step.startswith("step_ms_p50 [ms, lower is better]: parent 0.27 (quartiles 0.26-0.2775)")
    assert "wins 9/10; gap 0.12 against parent IQR 0.0175: gain shown" in step
    assert step.endswith("change -44.4 % against bound 20 %: within the bound")
    assert step_held == "  held-out: parent 0.27, change 0.15: win"
    assert "wins 8/10" in wall and "gain not shown" in wall
    assert setup.endswith("change +30.0 % against bound 25 %: worse than the bound")
    assert rss.endswith(": unresolved (parent IQR wider than the bound)")
