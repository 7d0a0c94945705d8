"""Tests of the command-line tools under tools/."""

import importlib.util
import os

import pytest

TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")


@pytest.fixture(scope="module")
def compare_outputs():
    spec = importlib.util.spec_from_file_location(
        "compare_outputs", os.path.join(TOOLS, "compare_outputs.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


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
