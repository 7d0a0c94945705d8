"""Command-line harness: configs, outputs, determinism, exit codes."""

import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from diskflow import cli
from diskflow.analysis import expected_exponent
from diskflow.presets import preset_names


def test_check_bounds_match_the_verdicts():
    # the CLI's checks and the acceptance verdicts share their bounds
    from test_acceptance import VERDICT_BOUNDS

    assert cli.CHECK_BOUNDS == VERDICT_BOUNDS


def test_list_presets(capsys):
    assert cli.main(["list-presets"]) == 0
    out = capsys.readouterr().out
    for name in preset_names():
        assert name in out


def test_print_expected(capsys):
    assert cli.main(["print-expected", "semigroup", "inf", "1.0001"]) == 0
    out = capsys.readouterr().out.strip()
    assert abs(float(out.split()[0]) - float(expected_exponent("semigroup", math.inf, 1.0001))) < 1e-12
    assert cli.main(["print-expected", "ns_diff", "2", "1.3333333333333333"]) == 0
    out = capsys.readouterr().out
    assert "log-corrected" in out
    # out-of-range lookups are reported as errors
    assert cli.main(["print-expected", "semigroup", "1.5", "2"]) == 1


def test_malformed_config(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[experiment]\nkind = evolve-warp\n")
    assert cli.main(["run", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "evolve-warp" in err and err.count("\n") == 1
    missing = tmp_path / "missing.cfg"
    assert cli.main(["run", str(missing)]) == 1


def test_unknown_preset(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "[experiment]\nkind = mode-heat\n[initial_data]\npreset = no-such-thing\n"
        f"[output]\ndir = {tmp_path/'out'}\n"
    )
    assert cli.main(["run", str(cfg)]) == 1


MODE_HEAT_CFG = """
[experiment]
kind = mode-heat

[initial_data]
preset = unit-kick-k0

[grid]
n_points = 512
r_max = 90

[time]
dt = 0.05
t_end = 20

[norms]
p = 1, 2, inf

[output]
dir = {out}
"""


def test_mode_heat_run_and_determinism(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    cfg1 = tmp_path / "r1.cfg"
    cfg2 = tmp_path / "r2.cfg"
    cfg1.write_text(MODE_HEAT_CFG.format(out=out1))
    cfg2.write_text(MODE_HEAT_CFG.format(out=out2))
    assert cli.main(["run", str(cfg1)]) == 0
    assert cli.main(["run", str(cfg2)]) == 0
    ts1 = (out1 / "time_series.txt").read_text()
    ts2 = (out2 / "time_series.txt").read_text()
    # byte-identical output modulo the configured output path
    assert ts1.replace(str(out1), "X") == ts2.replace(str(out2), "X")
    lines = ts1.splitlines()
    header = [ln for ln in lines if not ln.startswith("#")][0]
    assert header == "t, ell, norm_p1, norm_p2, norm_pinf, mass"
    assert any(ln.startswith("# [grid]") or ln == "# [grid]" for ln in lines)
    summary = (out1 / "summary.txt").read_text()
    assert "mass drift" in summary
    assert "check mass-conservation: pass" in summary
    assert "check self-similar-boundary" in summary


def test_power_of_two_end_has_no_duplicate_rows(tmp_path):
    # at t_end = 4 the observe times hold both 2^2 - eps and 4.0, which the
    # last step passes together: that state is written once
    cfg = tmp_path / "p2.cfg"
    out = tmp_path / "out"
    cfg.write_text(
        "[experiment]\nkind = mode-heat\n[initial_data]\npreset = unit-kick-k0\n"
        "[grid]\nn_points = 256\nr_max = 30\n[time]\ndt = 0.05\nt_end = 4\n"
        f"[checks]\nenabled = false\n[output]\ndir = {out}\n"
    )
    assert cli.main(["run", str(cfg)]) == 0
    lines = (out / "time_series.txt").read_text().splitlines()
    ts = [ln.split(",")[0] for ln in lines if not ln.startswith("#")][1:]
    assert len(set(ts)) == len(ts)
    assert float(ts[-1]) == pytest.approx(4.0)


def test_fit_decay_experiment(tmp_path):
    out = tmp_path / "out"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(MODE_HEAT_CFG.format(out=out))
    assert cli.main(["run", str(cfg)]) == 0
    # synthetic series file for the fit harness
    series = tmp_path / "series.txt"
    t = np.geomspace(1.0, 100.0, 30)
    with open(series, "w") as fh:
        fh.write("t, norm_L2\n")
        for ti in t:
            fh.write(f"{ti:.17e}, {ti**-0.5:.17e}\n")
    fit_cfg = tmp_path / "fit.cfg"
    fit_cfg.write_text(
        "[experiment]\nkind = fit-decay\nname = synthetic\n"
        f"[fit]\nfile = {series}\ncolumn = norm_L2\nt_min = 1\nt_max = 100\n"
        "expected = -0.5\ntolerance = 0.01\n"
        f"[output]\ndir = {out}\n"
    )
    assert cli.main(["run", str(fit_cfg)]) == 0
    report = (out / "report.txt").read_text()
    body = [ln for ln in report.splitlines() if not ln.startswith("#")]
    assert body[0] == "experiment, p, q, expected, fitted, residual, pass"
    assert "True" in body[1]
    # a failing expectation exits with status 2
    fit_cfg.write_text(
        "[experiment]\nkind = fit-decay\n"
        f"[fit]\nfile = {series}\ncolumn = norm_L2\nt_min = 1\nt_max = 100\n"
        "expected = -1.5\ntolerance = 0.01\n"
        f"[output]\ndir = {out}\n"
    )
    assert cli.main(["run", str(fit_cfg)]) == 2


def test_truncation_policy_warning(tmp_path, capsys):
    out = tmp_path / "o"
    cfg = tmp_path / "warn.cfg"
    cfg.write_text(
        "[experiment]\nkind = mode-heat\n[initial_data]\npreset = unit-kick-k0\n"
        "[grid]\nn_points = 256\nr_max = 12\n[time]\ndt = 0.1\nt_end = 10\n"
        "[checks]\nenabled = false\n"
        f"[output]\ndir = {out}\n"
    )
    assert cli.main(["run", str(cfg)]) == 0
    assert "truncation policy" in capsys.readouterr().err


SMALL_STOKES_CFG = """
[experiment]
kind = {kind}

[initial_data]
preset = {preset}

[grid]
n_points = 512
r_max = 40

[time]
dt = 0.05
t_end = {t_end}

[output]
dir = {out}
"""


def test_stokes_experiment(tmp_path):
    cfg = tmp_path / "s.cfg"
    out = tmp_path / "out"
    cfg.write_text(
        SMALL_STOKES_CFG.format(kind="evolve-stokes", preset="translating-disk",
                                t_end=20, out=out)
    )
    # the translation check is specified and measured at t = 100; at t = 20
    # the run completes but the ratio is still relaxing, so disable checks
    cfg.write_text(cfg.read_text() + "\n[checks]\nenabled = false\n")
    assert cli.main(["run", str(cfg)]) == 0
    series = (out / "stokes_series.txt").read_text().splitlines()
    header = [ln for ln in series if not ln.startswith("#")][0]
    assert header.startswith("t, ell_x, ell_y, omega, norm_L")
    assert "mass_phi" in header and "added_mass_resid" in header
    assert "momentum" in (out / "summary.txt").read_text()


def test_compare_asymptotic_experiment(tmp_path):
    cfg = tmp_path / "c.cfg"
    out = tmp_path / "out"
    body = SMALL_STOKES_CFG.format(kind="compare-asymptotic", preset="translating-disk",
                                   t_end=100, out=out)
    cfg.write_text(body)
    assert cli.main(["run", str(cfg)]) == 0
    summary = (out / "summary.txt").read_text()
    assert "translation_ratio" in summary
    assert "check disk-translation: pass" in summary
    assert "check profile-convergence: pass" in summary


def test_kato_experiment(tmp_path):
    cfg = tmp_path / "k.cfg"
    out = tmp_path / "out"
    cfg.write_text(
        "[experiment]\nkind = kato\n[initial_data]\npreset = kato-small\n"
        "[grid]\nn_points = 512\n[time]\ndt = 0.03125\nt_end = 0.5\n"
        f"[output]\ndir = {out}\n"
    )
    assert cli.main(["run", str(cfg)]) == 0
    diag = (out / "kato_diagnostics.txt").read_text().splitlines()
    header, first = [ln for ln in diag if not ln.startswith("#")][:2]
    assert header == "n, G_n, ratio"
    # n is written as an integer and the first iterate has no ratio
    assert first.startswith("0, ") and first.endswith(", nan")
    summary = (out / "summary.txt").read_text()
    assert "check kato-contraction: pass" in summary
    assert "check kato-imex-cross: pass" in summary


def test_ns_experiment(tmp_path):
    cfg = tmp_path / "n.cfg"
    out = tmp_path / "out"
    cfg.write_text(
        "[experiment]\nkind = evolve-ns\n[initial_data]\npreset = kato-small\n"
        "[grid]\nn_points = 512\n[time]\ndt = 0.03125\nt_end = 1\n"
        f"[norms]\np = 2\n[output]\ndir = {out}\n"
    )
    assert cli.main(["run", str(cfg)]) == 0
    series = (out / "ns_series.txt").read_text().splitlines()
    header = [ln for ln in series if not ln.startswith("#")][0]
    assert header == "t, ell_x, ell_y, omega, norm_L2, diff_norm_L2, diff_norm_L4"


def test_run_rejects_malformed_field_file(tmp_path, capsys):
    from diskflow.fields import save_field_file
    from diskflow.presets import build_setup, get_preset

    setup = build_setup(get_preset("translating-disk"), {"grid": {"n_points": 256}})
    field = tmp_path / "field.txt"
    save_field_file(field, setup["decomp0"])
    lines = field.read_text().splitlines()
    lines[5] = lines[5].rsplit(",", 1)[0]  # a row one value short
    field.write_text("\n".join(lines) + "\n")
    cfg = tmp_path / "f.cfg"
    cfg.write_text(
        "[experiment]\nkind = evolve-stokes\n"
        f"[initial_data]\npreset = translating-disk\nfile = {field}\n"
        f"[grid]\nn_points = 256\n[time]\nt_end = 1\n[output]\ndir = {tmp_path / 'out'}\n"
    )
    assert cli.main(["run", str(cfg)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[-1].startswith("error: field file line 6")


_RUN_KINDS = ("mode-heat", "evolve-stokes", "evolve-ns", "kato", "compare-asymptotic")


@pytest.mark.parametrize("kind", _RUN_KINDS)
@pytest.mark.parametrize("preset", preset_names())
def test_every_preset_and_kind_exits_cleanly(tmp_path, capsys, preset, kind):
    # a kind the preset cannot run is an error message, never a traceback
    cfg = tmp_path / "p.cfg"
    cfg.write_text(
        f"[experiment]\nkind = {kind}\n[initial_data]\npreset = {preset}\n"
        "[grid]\nn_points = 128\n[time]\ndt = 0.025\nt_end = 0.1\n"
        f"[output]\ndir = {tmp_path / 'out'}\n"
    )
    status = cli.main(["run", str(cfg)])
    err = capsys.readouterr().err
    assert status in (0, 1, 2)
    assert "Traceback" not in err
    if status == 1:
        assert err.splitlines()[-1].startswith("error: ")


def test_translation_ratio_along_y_momentum(tmp_path):
    # ns-small-q32 translates along y (M_vec = (0, My)): the ratio divides by
    # the nonzero component and says so.  gamma = 2 gives its stream profile
    # the finite momentum the translation law assumes.
    cfg = tmp_path / "y.cfg"
    out = tmp_path / "out"
    cfg.write_text(
        "[experiment]\nkind = evolve-stokes\n[initial_data]\npreset = ns-small-q32\ngamma = 2\n"
        "[grid]\nn_points = 128\n[time]\ndt = 0.025\nt_end = 0.1\n"
        f"[output]\ndir = {out}\n"
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        cli.main(["run", str(cfg)])
    (line,) = [ln for ln in (out / "summary.txt").read_text().splitlines()
               if ln.startswith("translation_ratio")]
    label, value = line.split(" = ")
    assert label == "translation_ratio 8*pi*nu*t*ell_y/My"
    assert math.isfinite(float(value))


def test_no_translation_check_without_finite_momentum(tmp_path):
    # ns-small-q32's r^-0.34 stream tail carries no finite momentum, so the
    # translation law does not apply: no ratio, no check, a clean exit
    cfg = tmp_path / "q.cfg"
    out = tmp_path / "out"
    cfg.write_text(
        "[experiment]\nkind = evolve-stokes\n[initial_data]\npreset = ns-small-q32\n"
        f"[grid]\nn_points = 512\n[time]\nt_end = 4\n[output]\ndir = {out}\n"
    )
    assert cli.main(["run", str(cfg)]) == 0
    summary = (out / "summary.txt").read_text()
    assert "disk-translation" not in summary and "translation_ratio" not in summary
    assert "momentum = " in summary


def test_kind_mismatch_names_kind_and_preset(tmp_path, capsys):
    cfg = tmp_path / "m.cfg"
    cfg.write_text(
        "[experiment]\nkind = evolve-ns\n[initial_data]\npreset = translating-disk\n"
        f"[output]\ndir = {tmp_path / 'out'}\n"
    )
    assert cli.main(["run", str(cfg)]) == 1
    err = capsys.readouterr().err.splitlines()[-1]
    assert err.startswith("error: ") and "'evolve-ns'" in err and "'translating-disk'" in err


def test_compare_asymptotic_needs_t10(tmp_path, capsys):
    # the profile check compares t = 10 with t_end: shorter runs are rejected
    cfg = tmp_path / "c.cfg"
    out = tmp_path / "out"
    cfg.write_text(SMALL_STOKES_CFG.format(kind="compare-asymptotic", preset="translating-disk",
                                           t_end=3, out=out))
    assert cli.main(["run", str(cfg)]) == 1
    assert capsys.readouterr().err.splitlines()[-1].startswith("error: compare-asymptotic")
    assert not (out / "stokes_series.txt").exists()


def test_non_numeric_override(tmp_path, capsys):
    cfg = tmp_path / "o.cfg"
    cfg.write_text(MODE_HEAT_CFG.format(out=tmp_path / "out").replace("n_points = 512",
                                                                     "n_points = abc"))
    assert cli.main(["run", str(cfg)]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == (
        "error: grid.n_points = 'abc' is not a finite number"
    )


def test_inertia_is_rejected(tmp_path, capsys):
    # the disk is homogeneous (inertia = m/2): a configured inertia would
    # otherwise be dropped without notice
    cfg = tmp_path / "i.cfg"
    out = tmp_path / "out"
    cfg.write_text(SMALL_STOKES_CFG.format(kind="evolve-stokes", preset="translating-disk",
                                           t_end=1, out=out) + "\n[physical]\ninertia = 50.0\n")
    assert cli.main(["run", str(cfg)]) == 1
    err = capsys.readouterr().err.splitlines()[-1]
    assert err.startswith("error: physical.inertia")
    assert not (out / "stokes_series.txt").exists()


def _fit_cfg(tmp_path, series):
    cfg = tmp_path / "fit.cfg"
    cfg.write_text(
        f"[experiment]\nkind = fit-decay\n[fit]\nfile = {series}\ncolumn = norm_L2\n"
        f"t_min = 1\nt_max = 100\n[output]\ndir = {tmp_path / 'out'}\n"
    )
    return cfg


def test_fit_decay_missing_series_file(tmp_path, capsys):
    cfg = _fit_cfg(tmp_path, tmp_path / "absent.txt")
    assert cli.main(["run", str(cfg)]) == 1
    err = capsys.readouterr().err.splitlines()[-1]
    assert err.startswith("error: cannot read fit.file") and "absent.txt" in err


@pytest.mark.parametrize("bad_row, message", [
    ("2.0, x1", "error: series file line 4: could not convert"),
    ("2.0", "error: series file line 4 has 1 values for 2 columns"),
])
def test_fit_decay_malformed_series_row(tmp_path, capsys, bad_row, message):
    series = tmp_path / "series.txt"
    series.write_text(f"# comment\nt, norm_L2\n1.0, 1.0\n{bad_row}\n4.0, 0.5\n")
    assert cli.main(["run", str(_fit_cfg(tmp_path, series))]) == 1
    assert capsys.readouterr().err.splitlines()[-1].startswith(message)


@pytest.mark.parametrize("old, new, name", [
    ("n_points = 512", "n_point = 64", "error: grid.n_point is not a config key"),
    ("[time]", "[tmie]", "error: unknown config section [tmie]"),
    ("[norms]", "[grid]", "error: cannot parse config file"),
])
def test_unknown_config_key_is_rejected(tmp_path, capsys, old, new, name):
    # a misspelled key or section would otherwise run on the preset's value
    out = tmp_path / "out"
    cfg = tmp_path / "u.cfg"
    cfg.write_text(MODE_HEAT_CFG.format(out=out).replace(old, new))
    assert cli.main(["run", str(cfg)]) == 1
    assert capsys.readouterr().err.splitlines()[-1].startswith(name)
    assert not (out / "time_series.txt").exists()


def test_every_documented_key_is_accepted(tmp_path):
    # the README example, and every [fit] key, pass the key check
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    (tmp_path / "readme.cfg").write_text(example)
    assert set(cli.load_config(tmp_path / "readme.cfg")) == {
        "experiment", "initial_data", "physical", "grid", "time", "norms", "checks", "output"}
    (tmp_path / "fit.cfg").write_text(
        "[experiment]\nkind = fit-decay\nname = f\n[fit]\nfile = s.txt\ncolumn = norm_L2\n"
        "t_min = 1\nt_max = 9\nlog_correction = true\nexpected = -1\ntolerance = 0.1\n"
        "p = 2\nq = 1.5\n"
    )
    assert set(cli.load_config(tmp_path / "fit.cfg")["fit"]) == set(cli._CONFIG_KEYS["fit"])


def _cfg_text(sections):
    return "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                   for name, keys in sections.items())


@pytest.mark.parametrize("preset, kind, section, key, value, message", [
    # a count with a fraction would otherwise be truncated and run
    *((preset, kind, section, key, value, f"{section}.{key} = '{value}' is not an integer")
      for preset, kind, section, key, value in (
          ("higher-modes-only", "evolve-stokes", "grid", "n_points", "256.9"),
          ("higher-modes-only", "evolve-stokes", "spectral", "k_max", "4.6"),
          ("higher-modes-only", "evolve-stokes", "initial_data", "k", "3.5"),
          ("kato-small", "kato", "spectral", "n_theta", "16.5"),
          ("kato-small", "kato", "spectral", "kato_max_iters", "8.2"))),
    # no harmonic at all: an IndexError, or a bump written into the top mode
    ("ns-small-q32", "evolve-ns", "spectral", "k_max", "0", "k_max must be >= 1, got 0"),
    ("ns-small-q32", "evolve-ns", "spectral", "k_max", "-1", "k_max must be >= 1, got -1"),
    # no iteration at all: iterations = 0 and a failed contraction check
    ("kato-small", "kato", "spectral", "kato_max_iters", "0", "kato_max_iters must be >= 1, got 0"),
    ("higher-modes-only", "evolve-stokes", "initial_data", "k", "0",
     "higher-bump data needs a harmonic k >= 1, got 0"),
])
def test_bad_count_is_rejected(tmp_path, capsys, preset, kind, section, key, value, message):
    out = tmp_path / "out"
    sections = {"experiment": {"kind": kind}, "initial_data": {"preset": preset},
                "grid": {"n_points": 128}, "time": {"t_end": 0.1}, "output": {"dir": out}}
    sections.setdefault(section, {})[key] = value
    cfg = tmp_path / "n.cfg"
    cfg.write_text(_cfg_text(sections))
    assert cli.main(["run", str(cfg)]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == f"error: {message}"
    assert not (out / "summary.txt").exists()


@pytest.mark.parametrize("key, value, shown", [
    ("dt", "-0.02", "-0.02"),  # marched nowhere: an IndexError on the empty mass column
    ("dt", "0", "0.0"),  # a ZeroDivisionError in the step count
    ("t_end", "-1", "-1.0"),  # a math domain error in the truncation warning
    ("t_end", "0", "0.0"),
])
def test_nonpositive_time_is_rejected(tmp_path, capsys, key, value, shown):
    out = tmp_path / "out"
    sections = {"experiment": {"kind": "mode-heat"}, "initial_data": {"preset": "unit-kick-k0"},
                "grid": {"n_points": 128}, "time": {key: value}, "output": {"dir": out}}
    cfg = tmp_path / "t.cfg"
    cfg.write_text(_cfg_text(sections))
    assert cli.main(["run", str(cfg)]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == f"error: time.{key} = {shown} must be > 0"
    assert not (out / "summary.txt").exists()


@pytest.mark.parametrize("value", ["0.5", "-1", "0", "2, nan", "2, -inf", "2, four"])
def test_norm_exponent_below_one_is_rejected(tmp_path, capsys, value):
    # p < 1 is no norm: it would run and write a norm_L0.5 column, or die on 1/p
    out = tmp_path / "out"
    cfg = tmp_path / "p.cfg"
    cfg.write_text(MODE_HEAT_CFG.format(out=out).replace("p = 1, 2, inf", f"p = {value}"))
    assert cli.main(["run", str(cfg)]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"error: norms.p = {value!r} is not a list of exponents p >= 1 (or inf)")
    assert not (out / "time_series.txt").exists()


@pytest.mark.parametrize("value, checked", [("on", True), ("Yes", True), ("OFF", False), ("0", False)])
def test_checks_enabled_takes_every_boolean_word(tmp_path, value, checked):
    # configparser's words in any case; 'on' used to turn every check off
    out = tmp_path / "out"
    cfg = tmp_path / "b.cfg"
    cfg.write_text(MODE_HEAT_CFG.format(out=out) + f"[checks]\nenabled = {value}\n")
    assert cli.main(["run", str(cfg)]) == 0
    summary = (out / "summary.txt").read_text()
    assert ("check mass-conservation: pass" in summary) is checked
    assert ("check " in summary) is checked


@pytest.mark.parametrize("section, key", [("checks", "enabled"), ("fit", "log_correction")])
def test_misspelled_boolean_is_rejected(tmp_path, capsys, section, key):
    # 'ture' used to mean false: every check off and exit status 0
    out = tmp_path / "out"
    sections = {"experiment": {"kind": "fit-decay"},
                "fit": {"file": tmp_path / "series.txt", "expected": -0.5},
                "output": {"dir": out}}
    sections.setdefault(section, {})[key] = "ture"
    (tmp_path / "series.txt").write_text("t, norm_L2\n10, 1\n100, 0.1\n")
    cfg = tmp_path / "b.cfg"
    cfg.write_text(_cfg_text(sections))
    assert cli.main(["run", str(cfg)]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"error: {section}.{key} = 'ture' is not one of 1/yes/true/on or 0/no/false/off")
    assert not (out / "summary.txt").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("t_min, log_correction, message", [
    (0, "false", "error: window (0.0, 100.0) holds t = 0.0, where log t is undefined"),
    (1, "true", "error: window (1.0, 100.0) holds t = 1, where the log correction divides"),
])
def test_fit_window_where_the_log_fails(tmp_path, capsys, t_min, log_correction, message):
    # every CLI series starts at t = 0; these windows used to write
    # exponent = nan and exit 2
    series = tmp_path / "series.txt"
    t = np.concatenate(([0.0], np.geomspace(1.0, 100.0, 30)))
    series.write_text("t, norm_L2\n" + "".join(f"{ti:.17e}, {(1 + ti) ** -0.5:.17e}\n"
                                               for ti in t))
    cfg = _fit_cfg(tmp_path, series)
    cfg.write_text(cfg.read_text().replace(
        "t_min = 1\n", f"t_min = {t_min}\nlog_correction = {log_correction}\n"))
    assert cli.main(["run", str(cfg)]) == 1
    assert capsys.readouterr().err.splitlines()[-1].startswith(message)
    assert not (tmp_path / "out" / "summary.txt").exists()


def test_fit_log_correction_word(tmp_path):
    series = tmp_path / "series.txt"
    t = np.geomspace(1.0, 100.0, 30)
    series.write_text("t, norm_L2\n" + "".join(f"{ti:.17e}, {ti**-0.5 * math.log(ti + 2):.17e}\n"
                                               for ti in t))
    cfg = _fit_cfg(tmp_path, series)
    cfg.write_text(cfg.read_text().replace("t_min = 1\n", "t_min = 2\nlog_correction = On\n"))
    assert cli.main(["run", str(cfg)]) == 0
    assert "log_correction = True" in (tmp_path / "out" / "summary.txt").read_text()


def test_failing_check_exits_2_unless_checks_are_disabled(tmp_path):
    # at t_end = 2 unit-kick-k0 is far from its self-similar profile: the
    # check fails and the status is 2; with checks disabled the same run
    # writes the same files without check lines and exits 0
    statuses, summaries = [], []
    for enabled in ("true", "false"):
        out = tmp_path / enabled
        cfg = tmp_path / f"{enabled}.cfg"
        cfg.write_text(_cfg_text({
            "experiment": {"kind": "mode-heat"}, "initial_data": {"preset": "unit-kick-k0"},
            "grid": {"n_points": 512}, "time": {"t_end": 2},
            "checks": {"enabled": enabled}, "output": {"dir": out}}))
        statuses.append(cli.main(["run", str(cfg)]))
        summaries.append([ln for ln in (out / "summary.txt").read_text().splitlines()
                          if not ln.startswith("#")])
    assert statuses == [2, 0]
    assert "check self-similar-boundary: FAIL" in "\n".join(summaries[0])
    assert [ln for ln in summaries[0] if not ln.startswith("check ")] == summaries[1]

