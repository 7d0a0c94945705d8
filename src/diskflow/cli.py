"""Command-line harness: configured experiments with tabular output.

Subcommands:
    run <config>                 execute the experiment described by a flat
                                 INI-style config file
    list-presets                 show the shipped presets
    print-expected <kind> <p> <q>   closed-form decay exponent lookup

Every output file starts with a comment header embedding the fully resolved
configuration, and all numbers are written in full double precision, so
identical configs produce byte-identical outputs.  The exit status is 0 on
success, 2 when a requested acceptance-style check fails, and 1 on errors.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import sys

import numpy as np

from . import dynbc
from .analysis import expected_exponent, fit_decay
from .errors import ConfigError, DiskflowError
from .fields import _floats, decomp_axpy, load_field_file, weighted_field_norm
from .navier_stokes import evolve_ns, kato_solve
from .presets import build_setup, get_preset, preset_names
from .stokes import (
    StokesRecorder,
    asymptotic_momenta,
    evolve_stokes,
    init_stokes,
)

# every experiment kind with the build_setup keys its runner reads
_EXPERIMENTS = {
    "mode-heat": ("scalar_state",),
    "evolve-stokes": ("state",),
    "evolve-ns": ("state", "ns_config"),
    "kato": ("state", "ns_config"),
    "fit-decay": (),
    "compare-asymptotic": ("state",),
}

# every config section with the keys it accepts; any other section or key is
# an error.  The numeric keys of the sections in _OVERRIDES are merged over
# the preset (initial_data over its data section).
_CONFIG_KEYS = {
    "experiment": ("kind", "name", "preset"),
    "initial_data": ("preset", "file", "amplitude", "gamma", "ell0", "k"),
    "physical": ("nu", "m"),
    "grid": ("n_points", "r_max", "stretch"),
    "time": ("dt", "t_end", "output_ratio"),
    "spectral": ("k_max", "n_theta", "kato_max_iters", "kato_tol"),
    "norms": ("p",),
    "fit": ("file", "column", "t_min", "t_max", "log_correction", "expected", "tolerance",
            "p", "q"),
    "checks": ("enabled",),
    "output": ("dir",),
}
_OVERRIDES = {"physical": "physical", "grid": "grid", "time": "time", "spectral": "spectral",
              "initial_data": "data"}


def load_config(path):
    """Read the flat key = value config with bracketed sections."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        read = cp.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config file {path!r}: {exc.message}") from None
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    cfg = {section: dict(cp.items(section)) for section in cp.sections()}
    for section, entries in cfg.items():
        known = _CONFIG_KEYS.get(section)
        if known is None:
            raise ConfigError(f"unknown config section [{section}]; "
                              f"sections are {', '.join(_CONFIG_KEYS)}")
        for key in entries:
            if key not in known:
                raise ConfigError(f"{section}.{key} is not a config key; "
                                  f"[{section}] takes {', '.join(known)}")
    if "experiment" not in cfg or "kind" not in cfg["experiment"]:
        raise ConfigError("config needs an [experiment] section with a 'kind' key")
    kind = cfg["experiment"]["kind"]
    if kind not in _EXPERIMENTS:
        raise ConfigError(
            f"experiment.kind = {kind!r} not in {', '.join(_EXPERIMENTS)}"
        )
    return cfg


def _resolved_comment(cfg):
    lines = []
    for section in sorted(cfg):
        lines.append(f"[{section}]")
        for key in sorted(cfg[section]):
            lines.append(f"{key} = {cfg[section][key]}")
    return "\n".join(lines)


def _config_float(cfg, section, key, default=None):
    """cfg[section][key] as a finite float (default when absent)."""
    raw = cfg.get(section, {}).get(key)
    if raw is None:
        return default
    try:
        val = float(raw)
    except ValueError:
        val = math.nan
    if not math.isfinite(val):
        raise ConfigError(f"{section}.{key} = {raw!r} is not a finite number")
    return val


def _setup_from_config(cfg):
    exp = cfg["experiment"]
    overrides = {
        dest: {key: _config_float(cfg, section, key) for key in _CONFIG_KEYS[section]
               if key in cfg.get(section, {}) and key not in ("preset", "file")}
        for section, dest in _OVERRIDES.items()
    }
    preset_name = cfg.get("initial_data", {}).get("preset") or exp.get("preset")
    if preset_name is None:
        raise ConfigError("config must name an initial_data preset")
    preset = get_preset(preset_name)
    setup = build_setup(preset, overrides)
    if "file" in cfg.get("initial_data", {}):
        src = cfg["initial_data"]["file"]
        try:
            decomp = load_field_file(src, setup["grid"])
        except OSError as exc:
            raise ConfigError(f"cannot read initial_data.file {src!r}: {exc.strerror}") from None
        setup["decomp0"] = decomp
        setup["state"] = init_stokes(decomp, setup["params"])
    kind = exp["kind"]
    if not all(key in setup for key in _EXPERIMENTS[kind]):
        raise ConfigError(
            f"experiment.kind = {kind!r} cannot run preset {preset_name!r}, "
            f"which is set up for {preset.experiment}"
        )
    nu = setup["params"].nu
    t_end = float(setup["time"]["t_end"])
    if setup["grid"].r_max < 6.0 * math.sqrt(nu * t_end):
        print(
            f"warning: r_max = {setup['grid'].r_max} below the truncation policy "
            f"6*sqrt(nu*t_end) = {6.0 * math.sqrt(nu * t_end):.1f}",
            file=sys.stderr,
        )
    return setup


def _norm_list(cfg):
    raw = cfg.get("norms", {}).get("p", "2, 4, inf")
    try:
        return tuple(float(tok) for tok in raw.split(","))
    except ValueError:
        raise ConfigError(f"norms.p = {raw!r} is not a list of numbers") from None


def _out_dir(cfg):
    d = cfg.get("output", {}).get("dir", ".")
    os.makedirs(d, exist_ok=True)
    return d


def _write_summary(path, cfg, lines, checks):
    with open(path, "w") as fh:
        for line in _resolved_comment(cfg).splitlines():
            fh.write(f"# {line}\n")
        for line in lines:
            fh.write(line + "\n")
        for name, ok, detail in checks:
            fh.write(f"check {name}: {'pass' if ok else 'FAIL'} ({detail})\n")


def _observe_times(time_cfg):
    t_end = float(time_cfg["t_end"])
    ratio = float(time_cfg.get("output_ratio", 2.0 ** 0.25))
    t0 = min(1.0, t_end)
    times = dynbc.geometric_times(t0, t_end, ratio)
    return np.unique(np.concatenate([[0.0], times, [t_end]]))


def run_mode_heat(cfg, setup, out_dir, do_checks):
    params = setup["scalar_params"]
    state = setup["scalar_state"]
    p_list = _norm_list(cfg)
    rec = dynbc.TimeSeriesRecorder(params, p_list, with_mass=params.k == 0)
    times = _observe_times(setup["time"])
    final = dynbc.evolve(
        state, params, float(setup["time"]["t_end"]), float(setup["time"]["dt"]),
        observer=rec, observe_times=times,
    )
    rec.write(os.path.join(out_dir, "time_series.txt"), _resolved_comment(cfg))
    lines = [f"final t = {final.t:.17e}", f"final ell = {final.ell:.17e}"]
    checks = []
    if params.k == 0:
        masses = rec.column("mass")
        m0, mT = masses[0], masses[-1]
        drift = abs(mT - m0) / max(abs(m0), 1e-300)
        lines.append(f"mass initial = {m0:.17e}")
        lines.append(f"mass final = {mT:.17e}")
        lines.append(f"mass drift = {drift:.3e}")
        ratio = 4.0 * math.pi * params.nu * final.t * final.ell / m0
        lines.append(f"self_similar_ratio 4*pi*nu*t*ell/M = {ratio:.10f}")
        if do_checks:
            checks.append(("mass-conservation", drift <= 1e-10, f"drift {drift:.3e}"))
            checks.append(
                ("self-similar-boundary", abs(ratio - 1.0) <= 0.1, f"|ratio-1| = {abs(ratio - 1):.3e}")
            )
    _write_summary(os.path.join(out_dir, "summary.txt"), cfg, lines, checks)
    return all(ok for _, ok, _ in checks)


def run_stokes(cfg, setup, out_dir, do_checks, compare_asymptotic=False):
    if compare_asymptotic and float(setup["time"]["t_end"]) < 10.0:
        raise ConfigError(
            "compare-asymptotic compares the profile error at t = 10 with t_end; "
            f"t_end = {setup['time']['t_end']} < 10"
        )
    params = setup["params"]
    state = setup["state"]
    mom = asymptotic_momenta(state)
    p_list = _norm_list(cfg)
    M_vec = mom.M_vec if float(np.hypot(*mom.M_vec)) > 0 else None
    rec = StokesRecorder(params, p_list, M_vec=M_vec, profile_ps=(2.0, 4.0))
    times = _observe_times(setup["time"])
    final = evolve_stokes(
        state, float(setup["time"]["t_end"]), float(setup["time"]["dt"]),
        observer=rec, observe_times=times,
    )
    rec.write(os.path.join(out_dir, "stokes_series.txt"), _resolved_comment(cfg))
    lines = [f"final t = {final.t:.17e}",
             f"momentum = {mom.M_vec[0]:.17e} {mom.M_vec[1]:.17e}",
             f"mass_phi = {mom.M_phi:.17e}", f"mass_psi = {mom.M_psi:.17e}"]
    checks = []
    if M_vec is not None:
        # the momentum component of larger magnitude (x on a tie) is nonzero
        i, axis = (1, "y") if abs(mom.M_vec[1]) > abs(mom.M_vec[0]) else (0, "x")
        ratio = 8.0 * math.pi * params.nu * final.t * final.rigid.ell[i] / mom.M_vec[i]
        lines.append(f"translation_ratio 8*pi*nu*t*ell_{axis}/M{axis} = {ratio:.10f}")
        if do_checks:
            checks.append(
                ("disk-translation", abs(ratio - 1.0) <= 0.15, f"|ratio-1| = {abs(ratio - 1):.3e}")
            )
        if compare_asymptotic:
            t_arr = np.asarray(rec.column("t"))
            e_arr = np.sqrt(t_arr) * np.asarray(rec.column("profile_err_L2"))
            i10 = int(np.argmin(np.abs(t_arr - 10.0)))
            i_end = len(t_arr) - 1
            lines.append(f"profile_e10 = {e_arr[i10]:.17e}")
            lines.append(f"profile_eT = {e_arr[i_end]:.17e}")
            if do_checks:
                checks.append(
                    (
                        "profile-convergence",
                        e_arr[i_end] <= 0.5 * e_arr[i10],
                        f"e(T)/e(10) = {e_arr[i_end] / e_arr[i10]:.3f}",
                    )
                )
    amr = np.nanmax(np.abs(np.asarray(rec.column("added_mass_resid"))))
    lines.append(f"max_added_mass_residual = {amr:.3e}")
    _write_summary(os.path.join(out_dir, "summary.txt"), cfg, lines, checks)
    return all(ok for _, ok, _ in checks)


def run_ns(cfg, setup, out_dir, do_checks):
    params = setup["params"]
    shadow = init_stokes(setup["decomp0"], params)
    p_list = _norm_list(cfg)
    header = (
        ["t", "ell_x", "ell_y", "omega"]
        + [f"norm_L{dynbc.fmt_p(p)}" for p in p_list]
        + ["diff_norm_L2", "diff_norm_L4"]
    )

    def row(st, sh):
        d = decomp_axpy(1.0, st.decomp, -1.0, sh.decomp)
        return (
            [st.t, st.rigid.ell[0], st.rigid.ell[1], st.rigid.omega]
            + [weighted_field_norm(st.grid, st.decomp, p, params) for p in p_list]
            + [weighted_field_norm(st.grid, d, p, params) for p in (2.0, 4.0)]
        )

    rec = dynbc.Recorder(header, row)
    evolve_ns(
        setup["state"], setup["ns_config"], float(setup["time"]["t_end"]),
        float(setup["time"]["dt"]), observer=rec,
        observe_times=_observe_times(setup["time"]), linear_shadow=shadow,
    )
    rec.write(os.path.join(out_dir, "ns_series.txt"), _resolved_comment(cfg))
    lines = [f"rows = {len(rec.rows)}"]
    checks = []
    _write_summary(os.path.join(out_dir, "summary.txt"), cfg, lines, checks)
    return True


def run_kato(cfg, setup, out_dir, do_checks):
    params = setup["params"]
    ns_cfg = setup["ns_config"]
    t_end = float(setup["time"]["t_end"])
    dt = float(setup["time"]["dt"])
    states, diag = kato_solve(setup["state"], ns_cfg, t_end, dt)
    ratios = [math.nan, *diag.contraction_ratios]
    rows = [(str(n), gn, ratios[n] if n < len(ratios) else math.nan)
            for n, gn in enumerate(diag.G_n)]
    dynbc.write_columns(os.path.join(out_dir, "kato_diagnostics.txt"), ("n", "G_n", "ratio"),
                        rows, _resolved_comment(cfg))
    # cross-validate against the IMEX stepper
    final, _ = evolve_ns(init_stokes(setup["decomp0"], params), ns_cfg, t_end, dt)
    d = decomp_axpy(1.0, final.decomp, -1.0, states[-1].decomp)
    disc = weighted_field_norm(final.grid, d, 2.0, params)
    lines = [
        f"iterations = {len(diag.G_n) - 1}",
        f"converged = {diag.converged}",
        f"mu0_estimate = {diag.mu0_estimate:.17e}",
        f"imex_discrepancy_L2 = {disc:.17e}",
    ]
    checks = []
    if do_checks:
        ok_contract = bool(diag.contraction_ratios) and all(
            rr < 1.0 for rr in diag.contraction_ratios
        )
        checks.append(
            ("kato-contraction", ok_contract, f"ratios {['%.2e' % rr for rr in diag.contraction_ratios]}")
        )
        checks.append(("kato-imex-cross", disc <= 1e-3, f"discrepancy {disc:.3e}"))
    _write_summary(os.path.join(out_dir, "summary.txt"), cfg, lines, checks)
    return all(ok for _, ok, _ in checks)


def run_fit_decay(cfg, out_dir, do_checks):
    fit_cfg = cfg.get("fit", {})
    src = fit_cfg.get("file")
    if src is None:
        raise ConfigError("[fit] section needs file = <time series path>")
    column = fit_cfg.get("column", "norm_L2")
    window = (_config_float(cfg, "fit", "t_min", 10.0), _config_float(cfg, "fit", "t_max", 100.0))
    log_corr = fit_cfg.get("log_correction", "false").lower() in ("1", "true", "yes")
    try:
        with open(src) as fh:
            lines = [(i, line) for i, line in enumerate(fh, start=1)
                     if line.strip() and not line.startswith("#")]
    except OSError as exc:
        raise ConfigError(f"cannot read fit.file {src!r}: {exc.strerror}") from None
    header = [tok.strip() for tok in lines[0][1].split(",")] if lines else []
    rows = [_floats(line.split(","), f"series file line {i}", len(header), finite=False)
            for i, line in lines[1:]]
    data = np.asarray(rows).reshape(len(rows), len(header))
    cols = {name: data[:, i] for i, name in enumerate(header)}
    if column not in cols:
        raise ConfigError(f"column {column!r} not among {header}")
    fit = fit_decay(cols["t"], np.abs(cols[column]), window, log_corr)
    expected = fit_cfg.get("expected")
    lines = [
        f"column = {column}",
        f"window = {window[0]} {window[1]}",
        f"exponent = {fit.exponent:.10f}",
        f"residual = {fit.residual:.3e}",
        f"log_correction = {fit.log_correction}",
    ]
    checks = []
    report_rows = []
    if expected is not None:
        tol = _config_float(cfg, "fit", "tolerance", 0.2)
        exp_val = _config_float(cfg, "fit", "expected")
        ok = abs(fit.exponent - exp_val) <= tol
        if do_checks:
            checks.append(
                ("fitted-exponent", ok, f"fit {fit.exponent:.4f} vs {exp_val:.4f} +- {tol}")
            )
        report_rows.append(
            (
                cfg["experiment"].get("name", "fit-decay"),
                fit_cfg.get("p", ""),
                fit_cfg.get("q", ""),
                f"{exp_val:.10f}",
                f"{fit.exponent:.10f}",
                f"{fit.residual:.3e}",
                str(ok),
            )
        )
    dynbc.write_columns(
        os.path.join(out_dir, "report.txt"),
        ("experiment", "p", "q", "expected", "fitted", "residual", "pass"),
        report_rows, _resolved_comment(cfg),
    )
    _write_summary(os.path.join(out_dir, "summary.txt"), cfg, lines, checks)
    return all(ok for _, ok, _ in checks)


def run(config_path):
    """Execute a configured experiment; returns the process exit status."""
    cfg = load_config(config_path)
    kind = cfg["experiment"]["kind"]
    out_dir = _out_dir(cfg)
    do_checks = cfg.get("checks", {}).get("enabled", "true").lower() in (
        "1",
        "true",
        "yes",
    )
    if kind == "fit-decay":
        ok = run_fit_decay(cfg, out_dir, do_checks)
        return 0 if ok else 2
    setup = _setup_from_config(cfg)
    if kind == "mode-heat":
        ok = run_mode_heat(cfg, setup, out_dir, do_checks)
    elif kind == "evolve-stokes":
        ok = run_stokes(cfg, setup, out_dir, do_checks)
    elif kind == "compare-asymptotic":
        ok = run_stokes(cfg, setup, out_dir, do_checks, compare_asymptotic=True)
    elif kind == "evolve-ns":
        ok = run_ns(cfg, setup, out_dir, do_checks)
    elif kind == "kato":
        ok = run_kato(cfg, setup, out_dir, do_checks)
    else:  # pragma: no cover
        raise ConfigError(f"unhandled experiment kind {kind!r}")
    return 0 if ok else 2


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="diskflow",
        description="Spectral disk-in-fluid experiments (see README for config format)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run a configured experiment")
    p_run.add_argument("config", help="path to the experiment config file")
    sub.add_parser("list-presets", help="list the shipped presets")
    p_exp = sub.add_parser("print-expected", help="closed-form decay exponent lookup")
    p_exp.add_argument("kind")
    p_exp.add_argument("p", type=float)
    p_exp.add_argument("q", type=float)
    p_exp.add_argument("--regime", default="long", choices=("short", "long"))
    args = parser.parse_args(argv)
    try:
        if args.command == "list-presets":
            for name in preset_names():
                print(f"{name}: {get_preset(name).description}")
            return 0
        if args.command == "print-expected":
            rate = expected_exponent(args.kind, args.p, args.q, args.regime)
            suffix = " (log-corrected)" if rate.log_correction else ""
            print(f"{rate.exponent:.17e}{suffix}")
            return 0
        return run(args.config)
    except DiskflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
