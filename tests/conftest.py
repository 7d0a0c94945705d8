"""Shared fixtures: random field generators and cached benchmark runs.

The long evolutions feeding several acceptance criteria are run once per
session and their observables shared between tests.
"""

import math
import tracemalloc

import numpy as np
import pytest

from diskflow import dynbc
from diskflow.fields import ModeDecomposition, RigidState, decomp_axpy, PolarField
from diskflow.grid import build_grid
from diskflow.presets import build_setup, get_preset
from diskflow.stokes import asymptotic_momenta, lamb_oseen_profile
from diskflow.fields import added_mass_pairing, fluid_lp_norm, weighted_field_norm


def smooth_profile(grid, rng, decay=1.0, trace=None):
    """Random smooth decaying radial profile; trace pins the r = 1 value."""
    r = grid.nodes
    a, b, c = rng.standard_normal(3)
    w = rng.uniform(0.5, 2.0)
    prof = np.exp(-decay * (r - 1.0) ** 2) * (a + b * np.sin(w * (r - 1.0))) + c / r**2
    if trace is not None:
        prof = prof + (trace - prof[0]) / r**3
    return prof


def random_decomposition(grid, rng, k_max=4, noslip=False):
    """Random admissible decomposition; noslip additionally matches the
    tangential traces (derivative compatibility at r = 1)."""
    r = grid.nodes
    w = smooth_profile(grid, rng)
    psi = smooth_profile(grid, rng)
    phi = smooth_profile(grid, rng)
    higher = np.zeros((max(k_max - 1, 0), 2, grid.n_points))
    for j in range(k_max - 1):
        for c in range(2):
            higher[j, c] = smooth_profile(grid, rng) * (r - 1.0) ** 2 / (1 + (r - 1) ** 2)
            higher[j, c][0] = 0.0
    rigid = RigidState(np.array([-phi[0], psi[0]]), float(w[0]))
    return ModeDecomposition(grid, w, psi, phi, higher, rigid)


def random_polar_field(grid, rng, n_theta=32, kmax=7, with_ball=True):
    """Random (not divergence-free) physical field plus rigid ball data."""
    r = grid.nodes
    th = 2.0 * math.pi * np.arange(n_theta) / n_theta
    vr = np.zeros((grid.n_points, n_theta))
    vt = np.zeros_like(vr)
    for k in range(kmax + 1):
        amps = rng.standard_normal(4)
        cr = np.exp(-((r - rng.uniform(1, 4)) ** 2)) * amps[0]
        dr_ = np.exp(-((r - rng.uniform(1, 4)) ** 2)) * amps[1]
        ct = np.exp(-((r - rng.uniform(1, 4)) ** 2)) * amps[2]
        dt_ = np.exp(-((r - rng.uniform(1, 4)) ** 2)) * amps[3]
        if k == 0:
            vr += cr[:, None]
            vt += ct[:, None]
        else:
            vr += cr[:, None] * np.cos(k * th) + dr_[:, None] * np.sin(k * th)
            vt += ct[:, None] * np.cos(k * th) + dt_[:, None] * np.sin(k * th)
    ball = (rng.standard_normal(2), float(rng.standard_normal())) if with_ball else (np.zeros(2), 0.0)
    return PolarField(grid, vr, vt), ball


def polar_inner(a, b, params, ball_a=(np.zeros(2), 0.0), ball_b=(np.zeros(2), 0.0)):
    """Discrete weighted inner product of two sampled fields with rigid ball data."""
    w = a.grid.quad_weights
    fluid = float(np.sum(w @ (a.v_r * b.v_r + a.v_theta * b.v_theta))) * (
        2.0 * math.pi / a.n_theta
    )
    (ea, oa), (eb, ob) = ball_a, ball_b
    ball = (params.m / math.pi) * (
        math.pi * float(np.dot(ea, eb)) + 0.5 * math.pi * oa * ob
    )
    return fluid + ball


def traced_peak(call):
    """Peak bytes traced during call() above what was live before it; a
    first, untraced call fills the caches on the grid."""
    call()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def fit_exponent(ts, vals, window=(10.0, 100.0)):
    from diskflow.analysis import fit_decay

    return fit_decay(np.asarray(ts), np.asarray(vals), window).exponent


# ---------------------------------------------------------------------------
# session-scoped benchmark runs
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def unit_kick_run():
    """k = 0 dynamic run of the unit-kick preset with per-step monitors."""
    setup = build_setup(get_preset("unit-kick-k0"))
    params = setup["scalar_params"]
    state = setup["scalar_state"]
    dt = setup["time"]["dt"]
    t_end = setup["time"]["t_end"]
    p_list = (1.0, 2.0, 4.0, 8.0)
    M0 = dynbc.mass(state, params)
    prev = {p: dynbc.lyapunov_functional(state, params, p) for p in p_list}
    worst_increase = {p: -np.inf for p in p_list}
    mass_drift = 0.0
    vmin, vmax = min(0.0, state.y.min(), state.ell), max(0.0, state.y.max(), state.ell)
    trace_gap = 0.0
    ts, ells, l1_dist = [], [], []
    grid = setup["grid"]
    n_steps = int(round(t_end / dt))
    st = state
    for j in range(n_steps):
        st = dynbc.step(st, params, dt, first_step=(j == 0))
        mass_drift = max(mass_drift, abs(dynbc.mass(st, params) - M0) / abs(M0))
        for p in p_list:
            cur = dynbc.lyapunov_functional(st, params, p)
            worst_increase[p] = max(
                worst_increase[p], (cur - prev[p]) / max(prev[p], 1e-300)
            )
            prev[p] = cur
        vmin = min(vmin, float(st.y.min()), st.ell)
        vmax = max(vmax, float(st.y.max()), st.ell)
        trace_gap = max(trace_gap, abs(st.y[0] - st.ell))
        if j % 25 == 0 or j == n_steps - 1:
            ts.append(st.t)
            ells.append(st.ell)
            G = dynbc.gaussian_profile(grid, st.t, params.nu)
            l1_dist.append(
                2.0 * math.pi * float(np.sum(grid.quad_weights * np.abs(st.y - M0 * G)))
            )
    return {
        "params": params,
        "grid": grid,
        "dt": dt,
        "M0": M0,
        "mass_drift": mass_drift,
        "lyapunov_worst": worst_increase,
        "range": (vmin, vmax),
        "trace_gap": trace_gap,
        "t": np.array(ts),
        "ell": np.array(ells),
        "l1_dist": np.array(l1_dist),
        "final_ratio": 4.0 * math.pi * params.nu * ts[-1] * ells[-1] / M0,
    }


def _stokes_preset_run(name, p_norms=(2.0,), overrides=None):
    setup = build_setup(get_preset(name), overrides)
    params = setup["params"]
    grid = setup["grid"]
    state = setup["state"]
    mom = asymptotic_momenta(state)
    dt = setup["time"]["dt"]
    t_end = setup["time"]["t_end"]
    obs_times = np.unique(
        np.concatenate([np.geomspace(1.0, t_end, 41), [10.0, t_end]])
    )
    out = {
        "params": params,
        "grid": grid,
        "momenta": mom,
        "t": [],
        "ell": [],
        "omega": [],
        "norms": {p: [] for p in p_norms},
        "profile_err2": [],
        "added_mass_resid": [],
        "mass_phi": [],
        "lyapunov_worst": {p: -np.inf for p in (1.0, 2.0, 4.0, 8.0)},
    }

    def obs(st):
        out["t"].append(st.t)
        out["ell"].append(np.array(st.rigid.ell))
        out["omega"].append(st.rigid.omega)
        for p in p_norms:
            out["norms"][p].append(weighted_field_norm(grid, st.decomp, p, params))
        if st.t > 0 and float(np.hypot(*mom.M_vec)) > 0:
            ref = lamb_oseen_profile(grid, st.t, params.nu, mom.M_vec)
            diff = decomp_axpy(1.0, st.decomp, -1.0, ref)
            out["profile_err2"].append(fluid_lp_norm(diff, 2.0))
        else:
            out["profile_err2"].append(np.nan)
        out["added_mass_resid"].append(
            added_mass_pairing(st.decomp, 1) + math.pi * st.decomp.rigid.ell[0]
        )
        out["mass_phi"].append(asymptotic_momenta(st).M_phi)

    # per-step Lyapunov monitoring of the scalar subsystems
    from diskflow.stokes import subsystem_params, step_stokes

    zp_params = subsystem_params(params, "z1")
    n_steps = int(round(t_end / dt))
    st = state
    obs(st)
    prev_fun = {
        p: dynbc.lyapunov_functional(st.z_phi, zp_params, p) for p in (1.0, 2.0, 4.0, 8.0)
    }
    obs_sorted = np.sort(obs_times)
    ptr = 0
    while ptr < len(obs_sorted) and obs_sorted[ptr] <= 0:
        ptr += 1
    for j in range(n_steps):
        st = step_stokes(st, dt, first_step=(j == 0 and st.t == 0.0))
        for p in (1.0, 2.0, 4.0, 8.0):
            cur = dynbc.lyapunov_functional(st.z_phi, zp_params, p)
            out["lyapunov_worst"][p] = max(
                out["lyapunov_worst"][p], (cur - prev_fun[p]) / max(prev_fun[p], 1e-300)
            )
            prev_fun[p] = cur
        while ptr < len(obs_sorted) and obs_sorted[ptr] <= st.t + 1e-9 * dt:
            obs(st)
            ptr += 1
    for key in ("t", "omega", "profile_err2", "added_mass_resid", "mass_phi"):
        out[key] = np.asarray(out[key])
    out["ell"] = np.asarray(out["ell"])
    for p in p_norms:
        out["norms"][p] = np.asarray(out["norms"][p])
    out["final_state"] = st
    return out


@pytest.fixture(scope="session")
def translating_run():
    return _stokes_preset_run("translating-disk", p_norms=(2.0,))


@pytest.fixture(scope="session")
def neutral_run():
    return _stokes_preset_run("neutral-buoyancy", p_norms=(2.0,))


@pytest.fixture(scope="session")
def higher_modes_run():
    return _stokes_preset_run("higher-modes-only", p_norms=(2.0,))


@pytest.fixture(scope="session")
def w_bump_run():
    setup = build_setup(get_preset("w-bump-k1"))
    params = setup["scalar_params"]
    st = setup["scalar_state"]
    dt = setup["time"]["dt"]
    t_end = setup["time"]["t_end"]
    ts, ells = [], []
    worst = {p: -np.inf for p in (1.0, 2.0, 4.0, 8.0)}
    prev = {p: dynbc.lyapunov_functional(st, params, p) for p in worst}
    n_steps = int(round(t_end / dt))
    for j in range(n_steps):
        st = dynbc.step(st, params, dt, first_step=(j == 0))
        for p in worst:
            cur = dynbc.lyapunov_functional(st, params, p)
            worst[p] = max(worst[p], (cur - prev[p]) / max(prev[p], 1e-300))
            prev[p] = cur
        if j % 20 == 0 or j == n_steps - 1:
            ts.append(st.t)
            ells.append(abs(st.ell))
    return {
        "params": params,
        "t": np.array(ts),
        "ell": np.array(ells),
        "lyapunov_worst": worst,
    }


@pytest.fixture(scope="session")
def ns_q32_run():
    """Improved-decay experiment at the ns-small-q32 preset."""
    from diskflow.navier_stokes import improved_decay_experiment

    setup = build_setup(get_preset("ns-small-q32"))
    window = setup["fit_window"]
    base_fit, diff_fit = improved_decay_experiment(
        setup["decomp0"],
        setup["params"],
        setup["ns_config"],
        q=1.5,
        p=2.0,
        t_end=setup["time"]["t_end"],
        dt=setup["time"]["dt"],
        t_fit=window,
        base_tail_norm2=setup["base_tail_norm2"],
    )
    return {"base": base_fit, "diff": diff_fit, "window": window}


@pytest.fixture(scope="session")
def kato_run():
    """Successive-approximation run plus the IMEX cross-validation."""
    from diskflow.navier_stokes import evolve_ns, kato_solve
    from diskflow.stokes import init_stokes

    setup = build_setup(get_preset("kato-small"))
    params = setup["params"]
    cfg = setup["ns_config"]
    dt = setup["time"]["dt"]
    t_end = setup["time"]["t_end"]
    states, diag = kato_solve(setup["state"], cfg, t_end, dt)
    final, _ = evolve_ns(init_stokes(setup["decomp0"], params), cfg, t_end, dt)
    d = decomp_axpy(1.0, final.decomp, -1.0, states[-1].decomp)
    disc = weighted_field_norm(final.grid, d, 2.0, params)
    return {"diag": diag, "imex_discrepancy": disc, "params": params}
