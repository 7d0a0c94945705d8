"""Command-line harness: configured experiments with tabular output.

Subcommands:
    run <config>                 execute the experiment described by a flat
                                 INI-style config file
    list-presets                 show the shipped presets
    print-expected <kind> <p> <q>   closed-form decay exponent lookup

Each experiment kind is one entry of _EXPERIMENTS: its runner and the
build_setup keys the runner reads.  A runner takes (cfg, setup) and returns
its output files (name -> (header, rows)), its summary lines and its checks;
`run` alone writes them, each file and summary.txt under a comment header
embedding the fully resolved configuration.  All numbers are written in full
double precision, so identical configs produce byte-identical outputs.  The
exit status is 0 on success, 2 when an enabled acceptance-style check fails
([checks] enabled, default true), and 1 on errors.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import math
import os
import sys

import numpy as np

from . import dynbc
from .analysis import expected_exponent, fit_decay
from .errors import ConfigError, DiskflowError
from .fields import (
    _floats,
    decomp_axpy,
    load_field_file,
    weighted_field_norm,
    weighted_field_norms,
)
from .navier_stokes import evolve_ns, kato_solve
from .presets import build_setup, get_preset, preset_names
from .stokes import (
    StokesRecorder,
    asymptotic_momenta,
    evolve_stokes,
    init_stokes,
)

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
# the keys among those whose value must be a whole number
_INTEGER_KEYS = ("grid.n_points", "spectral.k_max", "spectral.n_theta",
                 "spectral.kato_max_iters", "initial_data.k")

# the bound of each acceptance-style check; the acceptance suite pins the
# same values for its verdicts, and a test keeps the two sets equal
CHECK_BOUNDS = {
    "mass-conservation": 1e-10,  # relative mass drift
    "self-similar-boundary": 0.1,  # |4 pi nu t ell/M - 1|
    "disk-translation": 0.15,  # |8 pi nu t ell/M - 1|
    "profile-convergence": 0.5,  # e(T)/e(10)
    "kato-imex-cross": 1e-3,  # L^2 gap between the Kato and IMEX solutions
}


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


def _config_bool(cfg, section, key, default):
    """cfg[section][key] as one of configparser's boolean words, in any case
    (default when absent)."""
    raw = cfg.get(section, {}).get(key)
    if raw is None:
        return default
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
    except KeyError:
        raise ConfigError(f"{section}.{key} = {raw!r} is not one of "
                          "1/yes/true/on or 0/no/false/off") from None


def _setup_from_config(cfg):
    exp = cfg["experiment"]
    overrides = {
        dest: {key: _config_float(cfg, section, key) for key in _CONFIG_KEYS[section]
               if key in cfg.get(section, {}) and key not in ("preset", "file")}
        for section, dest in _OVERRIDES.items()
    }
    for name in _INTEGER_KEYS:
        section, key = name.split(".")
        if not overrides[_OVERRIDES[section]].get(key, 0.0).is_integer():
            raise ConfigError(f"{name} = {cfg[section][key]!r} is not an integer")
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
    if not all(key in setup for key in _EXPERIMENTS[kind][1]):
        raise ConfigError(
            f"experiment.kind = {kind!r} cannot run preset {preset_name!r}, "
            f"which is set up for {preset.experiment}"
        )
    for key in ("dt", "t_end"):
        if not float(setup["time"][key]) > 0:
            raise ConfigError(f"time.{key} = {setup['time'][key]} must be > 0")
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
        p_list = tuple(float(tok) for tok in raw.split(","))
    except ValueError:
        p_list = (math.nan,)
    if not all(p >= 1 for p in p_list):
        raise ConfigError(f"norms.p = {raw!r} is not a list of exponents p >= 1 (or inf)")
    names = [dynbc.fmt_p(p) for p in p_list]
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise ConfigError(f"norms.p = {raw!r} repeats the exponent(s) {', '.join(repeated)}")
    return p_list


def _check(name, value, label):
    """Check triple of value against CHECK_BOUNDS[name], reported as 'label value'."""
    return name, value <= CHECK_BOUNDS[name], f"{label} {value:.3e}"


def _observe_times(time_cfg):
    t_end = float(time_cfg["t_end"])
    ratio = float(time_cfg.get("output_ratio", 2.0 ** 0.25))
    t0 = min(1.0, t_end)
    times = dynbc.geometric_times(t0, t_end, ratio)
    return np.unique(np.concatenate([[0.0], times, [t_end]]))


def run_mode_heat(cfg, setup):
    params = setup["scalar_params"]
    rec = dynbc.TimeSeriesRecorder(params, _norm_list(cfg), with_mass=params.k == 0)
    final = dynbc.evolve(
        setup["scalar_state"], params, float(setup["time"]["t_end"]),
        float(setup["time"]["dt"]), observer=rec, observe_times=_observe_times(setup["time"]),
    )
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
        checks = [_check("mass-conservation", drift, "drift"),
                  _check("self-similar-boundary", abs(ratio - 1.0), "|ratio-1| =")]
    return {"time_series.txt": (rec.header, rec.rows)}, lines, checks


# The translation law 8 pi nu t ell -> M holds for data of finite fluid
# momentum, whose mode-1 stream profiles decay faster than 1/r.  It is checked
# only when r_max * max(|psi_1|, |phi_1|)(r_max) / |ell| of the data lies below
# this: a 1/r tail reads O(1) at any r_max (the harmonic wake of a pure
# translation reads 1), a faster one tends to 0 as r_max grows.  The compact
# presets read below 2e-5, ns-small-q32's r^-0.34 tail reads 43.
_FINITE_MOMENTUM_TAIL = 0.1


def run_stokes(cfg, setup, compare_asymptotic=False):
    if compare_asymptotic and float(setup["time"]["t_end"]) < 10.0:
        raise ConfigError(
            "compare-asymptotic compares the profile error at t = 10 with t_end; "
            f"t_end = {setup['time']['t_end']} < 10"
        )
    params = setup["params"]
    state = setup["state"]
    mom = asymptotic_momenta(state)
    M_vec = mom.M_vec if float(np.hypot(*mom.M_vec)) > 0 else None
    rec = StokesRecorder(params, _norm_list(cfg), M_vec=M_vec, profile_ps=(2.0, 4.0))
    final = evolve_stokes(
        state, float(setup["time"]["t_end"]), float(setup["time"]["dt"]),
        observer=rec, observe_times=_observe_times(setup["time"]),
    )
    lines = [f"final t = {final.t:.17e}",
             f"momentum = {mom.M_vec[0]:.17e} {mom.M_vec[1]:.17e}",
             f"mass_phi = {mom.M_phi:.17e}", f"mass_psi = {mom.M_psi:.17e}"]
    checks = []
    d0 = state.decomp
    tail = d0.grid.nodes[-1] * max(abs(d0.psi[-1]), abs(d0.phi[-1]))
    if M_vec is not None:
        if tail <= _FINITE_MOMENTUM_TAIL * float(np.hypot(*d0.rigid.ell)):
            # the momentum component of larger magnitude (x on a tie) is nonzero
            i, axis = (1, "y") if abs(mom.M_vec[1]) > abs(mom.M_vec[0]) else (0, "x")
            ratio = 8.0 * math.pi * params.nu * final.t * final.rigid.ell[i] / mom.M_vec[i]
            lines.append(f"translation_ratio 8*pi*nu*t*ell_{axis}/M{axis} = {ratio:.10f}")
            checks.append(_check("disk-translation", abs(ratio - 1.0), "|ratio-1| ="))
        if compare_asymptotic:
            t_arr = np.asarray(rec.column("t"))
            e_arr = np.sqrt(t_arr) * np.asarray(rec.column("profile_err_L2"))
            e10, eT = e_arr[int(np.argmin(np.abs(t_arr - 10.0)))], e_arr[-1]
            lines.append(f"profile_e10 = {e10:.17e}")
            lines.append(f"profile_eT = {eT:.17e}")
            ok = eT <= CHECK_BOUNDS["profile-convergence"] * e10
            with np.errstate(divide="ignore", invalid="ignore"):  # the ratio is only reported
                checks.append(("profile-convergence", ok, f"e(T)/e(10) = {eT / e10:.3f}"))
    amr = np.nanmax(np.abs(np.asarray(rec.column("added_mass_resid"))))
    lines.append(f"max_added_mass_residual = {amr:.3e}")
    return {"stokes_series.txt": (rec.header, rec.rows)}, lines, checks


def run_ns(cfg, setup):
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
            + weighted_field_norms(st.grid, st.decomp, p_list, params)
            + weighted_field_norms(st.grid, d, (2.0, 4.0), params)
        )

    rec = dynbc.Recorder(header, row)
    evolve_ns(
        setup["state"], setup["ns_config"], float(setup["time"]["t_end"]),
        float(setup["time"]["dt"]), observer=rec,
        observe_times=_observe_times(setup["time"]), linear_shadow=shadow,
    )
    return {"ns_series.txt": (rec.header, rec.rows)}, [f"rows = {len(rec.rows)}"], []


def run_kato(cfg, setup):
    params = setup["params"]
    ns_cfg = setup["ns_config"]
    t_end = float(setup["time"]["t_end"])
    dt = float(setup["time"]["dt"])
    states, diag = kato_solve(setup["state"], ns_cfg, t_end, dt)
    ratios = [math.nan, *diag.contraction_ratios]
    rows = [(str(n), gn, ratios[n] if n < len(ratios) else math.nan)
            for n, gn in enumerate(diag.G_n)]
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
    contract = diag.contraction_ratios
    checks = [("kato-contraction", bool(contract) and all(rr < 1.0 for rr in contract),
               f"ratios {['%.2e' % rr for rr in contract]}"),
              _check("kato-imex-cross", disc, "discrepancy")]
    return {"kato_diagnostics.txt": (("n", "G_n", "ratio"), rows)}, lines, checks


def run_fit_decay(cfg, setup):
    fit_cfg = cfg.get("fit", {})
    src = fit_cfg.get("file")
    if src is None:
        raise ConfigError("[fit] section needs file = <time series path>")
    column = fit_cfg.get("column", "norm_L2")
    window = (_config_float(cfg, "fit", "t_min", 10.0), _config_float(cfg, "fit", "t_max", 100.0))
    log_corr = _config_bool(cfg, "fit", "log_correction", False)
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
    lines = [
        f"column = {column}",
        f"window = {window[0]} {window[1]}",
        f"exponent = {fit.exponent:.10f}",
        f"residual = {fit.residual:.3e}",
        f"log_correction = {fit.log_correction}",
    ]
    checks, report_rows = [], []
    if "expected" in fit_cfg:
        tol = _config_float(cfg, "fit", "tolerance", 0.2)
        exp_val = _config_float(cfg, "fit", "expected")
        ok = abs(fit.exponent - exp_val) <= tol
        checks.append(("fitted-exponent", ok, f"fit {fit.exponent:.4f} vs {exp_val:.4f} +- {tol}"))
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
    header = ("experiment", "p", "q", "expected", "fitted", "residual", "pass")
    return {"report.txt": (header, report_rows)}, lines, checks


# every experiment kind: its runner and the build_setup keys the runner reads
# (None: fit-decay reads its [fit] file and no preset)
_EXPERIMENTS = {
    "mode-heat": (run_mode_heat, ("scalar_state",)),
    "evolve-stokes": (run_stokes, ("state",)),
    "evolve-ns": (run_ns, ("state", "ns_config")),
    "kato": (run_kato, ("state", "ns_config")),
    "fit-decay": (run_fit_decay, None),
    "compare-asymptotic": (functools.partial(run_stokes, compare_asymptotic=True), ("state",)),
}


def run(config_path):
    """Execute a configured experiment; returns the process exit status."""
    cfg = load_config(config_path)
    runner, keys = _EXPERIMENTS[cfg["experiment"]["kind"]]
    checks_on = _config_bool(cfg, "checks", "enabled", True)
    out_dir = cfg.get("output", {}).get("dir", ".")
    os.makedirs(out_dir, exist_ok=True)
    files, lines, checks = runner(cfg, None if keys is None else _setup_from_config(cfg))
    comment = _resolved_comment(cfg)
    for name, (header, rows) in files.items():
        dynbc.write_columns(os.path.join(out_dir, name), header, rows, comment)
    checks = checks if checks_on else []
    with open(os.path.join(out_dir, "summary.txt"), "w") as fh:
        fh.writelines(f"# {line}\n" for line in comment.splitlines())
        fh.writelines(f"{line}\n" for line in lines)
        fh.writelines(f"check {name}: {'pass' if ok else 'FAIL'} ({detail})\n"
                      for name, ok, detail in checks)
    return 0 if all(ok for _, ok, _ in checks) else 2


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
