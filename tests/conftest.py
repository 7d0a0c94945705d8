"""Shared fixtures: random field generators and cached benchmark runs.

The long evolutions feeding several acceptance criteria are run once per
session and their observables shared between tests.
"""

import math
import tracemalloc

import numpy as np
import pytest

from diskflow import dynbc
from diskflow.fields import ModeDecomposition, PolarField, RigidState, decomp_axpy, weighted_field_norm
from diskflow.presets import build_setup, get_preset
from diskflow.stokes import StokesRecorder, asymptotic_momenta, step_stokes, subsystem_params


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
    return ModeDecomposition(grid, w, np.concatenate([[[psi, phi]], higher]), rigid)


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


class LyapunovWatch:
    """Worst relative per-step increase of the Lyapunov functionals of one
    scalar system, p in {1, 2, 4, 8}: call it on each new state."""

    def __init__(self, state, params):
        self.params = params
        self.prev = {p: dynbc.lyapunov_functional(state, params, p) for p in (1.0, 2.0, 4.0, 8.0)}
        self.worst = {p: -np.inf for p in self.prev}

    def __call__(self, state):
        for p, prev in self.prev.items():
            cur = dynbc.lyapunov_functional(state, self.params, p)
            self.worst[p] = max(self.worst[p], (cur - prev) / max(prev, 1e-300))
            self.prev[p] = cur


def march_columns(state0, step_fn, t_end, dt, recorder, observe_times, *watches):
    """dynbc.march with every watch(new state) called after each step;
    returns the recorder's columns as arrays keyed by name."""

    def stepped(state, first_step):
        new = step_fn(state, first_step)
        for watch in watches:
            watch(new)
        return new

    dynbc.march(state0, stepped, t_end, dt, recorder, observe_times)
    return {name: np.array(recorder.column(name)) for name in recorder.header}


@pytest.fixture(scope="session")
def unit_kick_run():
    """k = 0 dynamic run of the unit-kick preset with per-step monitors."""
    setup = build_setup(get_preset("unit-kick-k0"))
    params, grid, state = setup["scalar_params"], setup["grid"], setup["scalar_state"]
    dt, t_end = setup["time"]["dt"], setup["time"]["t_end"]
    M0 = dynbc.mass(state, params)
    lyapunov = LyapunovWatch(state, params)
    drift = []

    def row(st):
        G = dynbc.gaussian_profile(grid, st.t, params.nu)
        l1 = 2.0 * math.pi * float(np.sum(grid.quad_weights * np.abs(st.y - M0 * G)))
        return [st.t, st.ell, l1]

    run = march_columns(
        state, lambda s, first: dynbc.step(s, params, dt, first_step=first), t_end, dt,
        dynbc.Recorder(("t", "ell", "l1_dist"), row),
        np.append(dt * (1 + 25 * np.arange(200)), t_end),  # after steps 1, 26, 51, ...
        lyapunov, lambda st: drift.append(abs(dynbc.mass(st, params) - M0) / abs(M0)),
    )
    return {
        **run,
        "mass_drift": max(drift),
        "lyapunov_worst": lyapunov.worst,
        "final_ratio": 4.0 * math.pi * params.nu * run["t"][-1] * run["ell"][-1] / M0,
    }


def _stokes_preset_run(name):
    """StokesRecorder columns of a linear preset at {0, 10} and 41 geometric
    times up to t_end, plus the z_phi Lyapunov watch."""
    setup = build_setup(get_preset(name))
    params, state = setup["params"], setup["state"]
    dt, t_end = setup["time"]["dt"], setup["time"]["t_end"]
    mom = asymptotic_momenta(state)
    lyapunov = LyapunovWatch(state.z_phi, subsystem_params(params, "z1"))
    run = march_columns(
        state, lambda s, first: step_stokes(s, dt, first_step=first), t_end, dt,
        StokesRecorder(params, M_vec=mom.M_vec if mom.M_vec.any() else None),
        np.concatenate([[0.0, 10.0, t_end], np.geomspace(1.0, t_end, 41)]),
        lambda st: lyapunov(st.z_phi),
    )
    return {**run, "momenta": mom, "lyapunov_worst": lyapunov.worst}


@pytest.fixture(scope="session")
def translating_run():
    return _stokes_preset_run("translating-disk")


@pytest.fixture(scope="session")
def neutral_run():
    return _stokes_preset_run("neutral-buoyancy")


@pytest.fixture(scope="session")
def higher_modes_run():
    return _stokes_preset_run("higher-modes-only")


@pytest.fixture(scope="session")
def w_bump_run():
    setup = build_setup(get_preset("w-bump-k1"))
    params, state = setup["scalar_params"], setup["scalar_state"]
    dt, t_end = setup["time"]["dt"], setup["time"]["t_end"]
    lyapunov = LyapunovWatch(state, params)
    run = march_columns(
        state, lambda s, first: dynbc.step(s, params, dt, first_step=first), t_end, dt,
        dynbc.Recorder(("t", "ell"), lambda st: [st.t, abs(st.ell)]),
        np.append(dt * (1 + 20 * np.arange(250)), t_end),  # after steps 1, 21, 41, ...
        lyapunov,
    )
    return {**run, "lyapunov_worst": lyapunov.worst}


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
