"""Nonlinear driver: convection term structure, IMEX, successive approximation."""

import gc
import math
import weakref

import numpy as np
import pytest

from conftest import random_decomposition, traced_peak
from oracles import physical_space_convection

from diskflow import dynbc
from diskflow import fields
from diskflow import navier_stokes as ns
from diskflow import stokes
from diskflow.elliptic import invert_z
from diskflow.errors import BlowUp, GridMismatch, InvalidArgument, NoContraction
from diskflow.fields import (
    ModeDecomposition,
    RigidState,
    decomp_axpy,
    weighted_field_norm,
    zero_decomposition,
)
from diskflow.grid import PhysicalParams, RadialGrid, build_grid
from diskflow.presets import build_setup, get_preset


@pytest.fixture(scope="module")
def grid():
    return build_grid(512, 30.0, 1.5)


@pytest.fixture(scope="module")
def params():
    return PhysicalParams(nu=1.0, m=2.0 * math.pi)


def mode1_bump(grid, eps):
    g = np.exp(-2.0 * (grid.nodes - 1.5) ** 2)
    scale = -eps / float(np.sum(grid.quad_weights * g))
    phi = -invert_z(grid, [scale * g], (1,), [eps])[0]
    n = grid.n_points
    profiles = np.zeros((2, 2, n))
    profiles[0, 1] = phi
    return ModeDecomposition(grid, np.zeros(n), profiles, RigidState(np.array([eps, 0.0]), 0.0))


def test_nonlinear_term_zero_field(grid, params):
    cfg = ns.NonlinearConfig(k_max=2, n_theta=16)
    out = ns.nonlinear_term(zero_decomposition(grid, 2), params, cfg)
    assert np.max(np.abs(out.psi)) == 0.0 and np.max(np.abs(out.w)) == 0.0


def test_nonlinear_term_rigid_everywhere(grid, params):
    # V identically the rigid translation (ell - V == 0 pointwise): the
    # advecting factor vanishes, so the term is exactly zero
    r = grid.nodes
    ell = np.array([0.4, -0.7])
    d = ModeDecomposition(grid, np.zeros_like(r), [[ell[1] * r, -ell[0] * r]], RigidState(ell, 0.0))
    cfg = ns.NonlinearConfig(k_max=3, n_theta=16)
    out = ns.nonlinear_term(d, params, cfg)
    for arr in (out.w, out.psi, out.phi, out.higher):
        assert np.max(np.abs(arr)) < 1e-13
    assert np.max(np.abs(out.rigid.ell)) < 1e-13


def test_mode_coupling_audit(grid, params):
    # mode-1 data: the quadratic term populates only modes 0, 1 and 2
    d = mode1_bump(grid, 1.0)
    d = ModeDecomposition(
        grid, d.w, np.concatenate([d.profiles, np.zeros((3, 2, grid.n_points))]), d.rigid
    )
    cfg = ns.NonlinearConfig(k_max=5, n_theta=32)
    out = ns.nonlinear_term(d, params, cfg)
    assert np.max(np.abs(out.higher[0])) > 1e-6  # mode 2 is populated
    assert np.max(np.abs(out.higher[1:])) < 1e-12  # modes >= 3 are not


def test_nonlinear_term_brute_force_convolution(grid, params):
    # doubling the angular resolution must not change the retained modes:
    # the product of modes {0,1} is exactly held below the dealias cut
    d = mode1_bump(grid, 0.7)
    cfg16 = ns.NonlinearConfig(k_max=4, n_theta=16)
    cfg64 = ns.NonlinearConfig(k_max=4, n_theta=64)
    pad = np.zeros((2, 2, grid.n_points))
    d = ModeDecomposition(grid, d.w, np.concatenate([d.profiles, pad]), d.rigid)
    a = ns.nonlinear_term(d, params, cfg16)
    b = ns.nonlinear_term(d, params, cfg64)
    scale = max(
        np.max(np.abs(b.psi)), np.max(np.abs(b.w)), np.max(np.abs(b.higher)), 1e-30
    )
    assert np.max(np.abs(a.w - b.w)) < 1e-10 * scale
    assert np.max(np.abs(a.psi - b.psi)) < 1e-10 * scale
    assert np.max(np.abs(a.higher - b.higher)) < 1e-10 * scale


def test_config_validation():
    with pytest.raises(InvalidArgument):
        ns.NonlinearConfig(k_max=8, n_theta=16)  # needs 3*k_max + 1 with dealias
    with pytest.raises(InvalidArgument):
        ns.NonlinearConfig(k_max=8, n_theta=16, dealias=False)
    with pytest.raises(InvalidArgument):
        ns.NonlinearConfig(k_max=4, n_theta=12)  # mode 8 aliases onto mode 4
    for iters in (0, -3):
        with pytest.raises(InvalidArgument):
            ns.NonlinearConfig(kato_max_iters=iters)
    cfg = ns.NonlinearConfig(k_max=4, n_theta=13)
    assert cfg.n_theta == 13


def _max_abs(d):
    return max(np.max(np.abs(a), initial=0.0) for a in (d.w, d.psi, d.phi, d.higher, d.rigid.ell))


def _rel_gap(a, b):
    return _max_abs(decomp_axpy(1.0, a, -1.0, b)) / _max_abs(b)


def test_dealias_guard_random_field(params):
    # the smallest accepted resolution n_theta = 3*k_max + 1 reproduces a
    # finely resolved reference; one angle fewer (only allowed without the
    # dealias guard) aliases the product's mode 8 onto mode 4
    grid = build_grid(256, 20.0, 1.5)
    d = random_decomposition(grid, np.random.default_rng(7), k_max=4)
    ref = ns.nonlinear_term(d, params, ns.NonlinearConfig(k_max=4, n_theta=64))
    ok = ns.nonlinear_term(d, params, ns.NonlinearConfig(k_max=4, n_theta=13))
    aliased = ns.nonlinear_term(d, params, ns.NonlinearConfig(k_max=4, n_theta=12, dealias=False))
    assert _rel_gap(ok, ref) < 1e-12
    assert _rel_gap(aliased, ref) > 1e-3


@pytest.mark.parametrize("k_max", [1, 2, 4, 5])
def test_nonlinear_term_matches_physical_space_oracle(params, k_max):
    # coefficient-space convection against FFT sampling, FFT angular
    # derivatives, radial derivatives of the planes and per-mode projection
    grid = build_grid(256, 20.0, 1.5)
    rng = np.random.default_rng(100 + k_max)
    d = random_decomposition(grid, rng, k_max=k_max)
    d = ModeDecomposition(grid, d.w, d.profiles, RigidState(rng.standard_normal(2), d.rigid.omega))
    for n_theta in sorted({3 * k_max + 1, 16, 32}):
        cfg = ns.NonlinearConfig(k_max=k_max, n_theta=n_theta)
        new = ns.nonlinear_term(d, params, cfg)
        ref = physical_space_convection(d, params, k_max, n_theta)
        assert _rel_gap(new, ref) <= 1e-12, n_theta


@pytest.mark.parametrize("n", [fields.BLOCK - 1, fields.BLOCK + 1, 2 * fields.BLOCK + 3])
def test_nonlinear_term_block_edges(params, n):
    # grids whose last synthesis block is short by one, long by one, or partial
    grid = build_grid(n, 20.0, 1.5)
    rng = np.random.default_rng(n)
    d = random_decomposition(grid, rng, k_max=4)
    d = ModeDecomposition(grid, d.w, d.profiles, RigidState(rng.standard_normal(2), d.rigid.omega))
    for n_theta in (13, 16):
        new = ns.nonlinear_term(d, params, ns.NonlinearConfig(k_max=4, n_theta=n_theta))
        ref = physical_space_convection(d, params, 4, n_theta)
        assert _rel_gap(new, ref) <= 1e-12, n_theta


def test_nonlinear_term_memory_peak(params):
    # at the ns-small-q32 resolution the six full sample planes alone take
    # 3 MB; sampled in blocks, one call peaks below 4 MB in all
    grid = build_grid(4096, 300.0, 1.0)
    d = random_decomposition(grid, np.random.default_rng(3), k_max=4)
    cfg = ns.NonlinearConfig(k_max=4, n_theta=16)
    assert traced_peak(lambda: ns.nonlinear_term(d, params, cfg)) <= 4 * 2**20


def test_degeneration_to_stokes(grid, params):
    # with the source forced to zero the IMEX step reproduces the plain
    # linear step bit for bit
    d = mode1_bump(grid, 1e-2)
    st = stokes.init_stokes(d, params)
    plain = stokes.step_stokes(st, 0.02, first_step=True)
    src = stokes.decomp_to_sources(zero_decomposition(grid, d.k_max))
    forced = stokes.step_stokes(st, 0.02, sources=src, first_step=True)
    assert np.array_equal(plain.decomp.phi, forced.decomp.phi)
    assert np.array_equal(plain.z_phi.y, forced.z_phi.y)


def test_quadratic_smallness_scaling(grid, params):
    cfg = ns.NonlinearConfig(k_max=2, n_theta=16)

    def correction(eps):
        d = mode1_bump(grid, eps)
        stn = stokes.init_stokes(d, params)
        stl = stokes.init_stokes(d, params)
        stn, stl = ns.evolve_ns(stn, cfg, 1.0, 1.0 / 64, linear_shadow=stl)
        diff = decomp_axpy(1.0, stn.decomp, -1.0, stl.decomp)
        return weighted_field_norm(grid, diff, 2.0, params)

    ratio = correction(1e-2) / correction(5e-3)
    assert 3.5 < ratio < 4.5


def test_energy_inequality(grid, params):
    cfg = ns.NonlinearConfig(k_max=2, n_theta=16)
    d = mode1_bump(grid, 1e-2)
    state = stokes.init_stokes(d, params)
    E0 = ns.kinetic_energy(state)
    prev = E0
    src = None
    dt = 1.0 / 64
    for j in range(int(10 / dt)):
        state, src = ns.step_ns(state, cfg, dt, src, first_step=(j == 0))
        E = ns.kinetic_energy(state)
        assert E - prev <= 1e-8 * E0
        prev = E


def test_energy_matches_rigid_bracket(grid, params):
    # ball part of the kinetic energy equals (m|ell|^2 + J omega^2)/2 for a
    # homogeneous disk
    d = mode1_bump(grid, 0.3)
    d = ModeDecomposition(grid, d.w, d.profiles, RigidState(d.rigid.ell, 0.8))
    st = stokes.init_stokes(d, params)
    E = ns.kinetic_energy(st)
    from diskflow.fields import fluid_lp_norm

    fluid = 0.5 * fluid_lp_norm(d, 2.0) ** 2
    bracket = 0.5 * (
        params.m * float(np.dot(d.rigid.ell, d.rigid.ell))
        + params.inertia * d.rigid.omega**2
    )
    assert abs(E - fluid - bracket) < 1e-12 * E


def test_cfl_guard(grid, params):
    cfg = ns.NonlinearConfig(k_max=2, n_theta=16)
    d = mode1_bump(grid, 50.0)
    st = stokes.init_stokes(d, params)
    with pytest.raises(InvalidArgument):
        ns.evolve_ns(st, cfg, 1.0, 0.5)
    # the bound is 0.5 h_min / |V|max: one step just above raises, just below runs
    st = stokes.init_stokes(mode1_bump(grid, 1.0), params)
    vmax = fields.fluid_lp_norm(st.decomp, np.inf, cfg.n_theta)
    limit = 0.5 * float(grid.spacings.min()) / vmax
    with pytest.raises(InvalidArgument):
        ns.evolve_ns(st, cfg, 1.01 * limit, 1.01 * limit)
    final, _ = ns.evolve_ns(st, cfg, 0.99 * limit, 0.99 * limit)
    assert final.t == 0.99 * limit


def test_cfl_guard_during_the_run(grid, params, monkeypatch):
    # the velocity grows to twice the advective bound partway through the
    # run; the guard, re-run every CFL_CHECK_STEPS steps, stops the run at
    # its next check and names that time
    cfg = ns.NonlinearConfig(k_max=2, n_theta=16)
    st = stokes.init_stokes(mode1_bump(grid, 1e-2), params)
    dt = 0.05
    limit = 0.5 * float(grid.spacings.min()) / dt
    grow_at = ns.CFL_CHECK_STEPS - 10
    inner = ns.step_ns
    seen = []

    def growing(state, config, dt, prev_nonlinear=None, first_step=False):
        new, nl = inner(state, config, dt, prev_nonlinear, first_step)
        seen.append(new.t)
        if len(seen) == grow_at:
            f = 2.0 * limit / fields.fluid_lp_norm(new.decomp, np.inf, cfg.n_theta)
            new = stokes.StokesState(grid, f * new.z, f * new.ell, new.t, params)
        return new, nl

    monkeypatch.setattr(ns, "step_ns", growing)
    with pytest.raises(InvalidArgument, match="advective guard") as info:
        ns.evolve_ns(st, cfg, (ns.CFL_CHECK_STEPS + 5) * dt, dt)
    assert len(seen) == ns.CFL_CHECK_STEPS
    assert str(info.value).endswith(f"at t = {seen[-1]}")


def test_step_ns_observed_order():
    # AB2 with an implicit linear block is second order; a first-order
    # extrapolation (weights (1, 0)) reads about 1.56 and 1.30 here
    setup = build_setup(get_preset("kato-small"), {
        "grid": {"n_points": 128, "r_max": 20.0}, "data": {"amplitude": 0.02}})
    params = setup["params"]
    cfg = ns.NonlinearConfig(k_max=2, n_theta=16)
    runs = [ns.evolve_ns(setup["state"], cfg, 1.0, 1.0 / n)[0] for n in (32, 64, 128, 256)]

    diffs = [decomp_axpy(1.0, a.decomp, -1.0, b.decomp) for a, b in zip(runs, runs[1:])]
    norms = [math.sqrt(fields.inner_l2(d, d, params)) for d in diffs]
    orders = [math.log2(a / b) for a, b in zip(norms, norms[1:])]
    assert min(orders) >= 1.8, orders


def test_blowup_guard(grid, params):
    cfg = ns.NonlinearConfig(k_max=2, n_theta=16, blowup_factor=2.0)
    d = mode1_bump(grid, 200.0)
    st = stokes.init_stokes(d, params)
    with pytest.raises(BlowUp):
        st2 = st
        src = None
        for j in range(40):
            st2, src = ns.step_ns(st2, cfg, 0.5, src, first_step=(j == 0))


def test_imex_state_solves_every_row_and_its_shadow_one(monkeypatch):
    # ns-small-q32 data live in z_psi_1: the forced IMEX state step solves
    # all nine rows of its k_max = 4 stack, the unforced linear shadow that
    # one row
    setup = build_setup(get_preset("ns-small-q32"), {"grid": {"n_points": 256}})
    sizes = []
    inner = dynbc.cho_solve_banded

    def recorded(fac, rhs):
        sizes.append(rhs.size)
        return inner(fac, rhs)

    monkeypatch.setattr(dynbc, "cho_solve_banded", recorded)
    dt = setup["time"]["dt"]
    shadow0 = stokes.init_stokes(setup["decomp0"], setup["params"])
    ns.evolve_ns(setup["state"], setup["ns_config"], 3 * dt, dt, linear_shadow=shadow0)
    row = setup["grid"].n_points - 1
    # two start-up substeps each, then one solve per step
    assert sizes == [9 * row] * 2 + [row] * 2 + [9 * row, row] * 2


def test_kato_zero_data(grid, params):
    cfg = ns.NonlinearConfig(k_max=2, n_theta=16, kato_tol=1e-14)
    st = stokes.init_stokes(zero_decomposition(grid, 2), params)
    states, diag = ns.kato_solve(st, cfg, 0.5, 1.0 / 16)
    assert diag.converged
    assert diag.G_n[0] == 0.0
    assert all(weighted_field_norm(grid, s.decomp, 2.0, params) == 0.0 for s in states)


def test_kato_contracts_and_matches_imex(grid, params):
    cfg = ns.NonlinearConfig(k_max=2, n_theta=16,
                             kato_max_iters=8, kato_tol=1e-12)
    d = mode1_bump(grid, 1e-2)
    states, diag = ns.kato_solve(stokes.init_stokes(d, params), cfg, 0.5, 1.0 / 32)
    assert diag.converged
    assert all(rr < 1.0 for rr in diag.contraction_ratios)
    assert 0.0 < diag.mu0_estimate < 1.0
    # fitted quadratic recursion bounds the iterates by construction
    G = diag.G_n
    for n in range(len(G) - 1):
        assert G[n + 1] <= G[0] + 2.0 * diag.c0_estimate * G[n] ** 2 + 1e-12
    final, _ = ns.evolve_ns(stokes.init_stokes(d, params), cfg, 0.5, 1.0 / 32)
    gap = weighted_field_norm(
        grid, decomp_axpy(1.0, final.decomp, -1.0, states[-1].decomp), 2.0, params
    )
    assert gap <= 1e-3


def test_kato_forcing_states_skip_decomp_axpy(monkeypatch):
    # step_stokes reads the stack only, so the forced state of each Kato step
    # combines no decomposition: what is left is the zero state, then per
    # iterate one call per new state and one per difference to the previous
    calls = []
    inner = fields.decomp_axpy

    def counted(*args):
        calls.append(None)
        return inner(*args)

    for mod in (fields, stokes, ns):
        monkeypatch.setattr(mod, "decomp_axpy", counted)
    setup = build_setup(get_preset("kato-small"))
    t_end, dt = setup["time"]["t_end"], setup["time"]["dt"]
    states, diag = ns.kato_solve(setup["state"], setup["ns_config"], t_end, dt)
    iterates, steps = len(diag.G_n) - 1, len(states) - 1
    assert (iterates, steps) == (4, 64)
    assert len(calls) == 1 + iterates * (steps + steps + 1)


def test_kato_no_contraction_for_large_data(grid, params):
    cfg = ns.NonlinearConfig(k_max=2, n_theta=16,
                             kato_max_iters=10, kato_tol=1e-14)
    d = mode1_bump(grid, 30.0)
    with pytest.raises((NoContraction, BlowUp)):
        ns.kato_solve(stokes.init_stokes(d, params), cfg, 0.5, 1.0 / 32)


def test_improved_decay_q2_no_gain(grid, params):
    # compact (every-class) data at q = 2: the proximity rate offers no
    # improvement over the flow's own decay; both fits land near each other
    d = mode1_bump(grid, 0.05)
    cfg = ns.NonlinearConfig(k_max=2, n_theta=16)
    base_fit, diff_fit = ns.improved_decay_experiment(
        d, params, cfg, p=2.0, t_end=50.0, dt=0.05, t_fit=(5.0, 50.0)
    )
    assert abs(base_fit.exponent - diff_fit.exponent) <= 0.15


def test_evolve_ns_rejects_past_end(grid, params):
    cfg = ns.NonlinearConfig(k_max=2, n_theta=16)
    st = stokes.init_stokes(mode1_bump(grid, 1e-2), params, t=1.0)
    with pytest.raises(InvalidArgument):
        ns.evolve_ns(st, cfg, 0.5, 0.05)


def test_evolve_ns_rejects_shadow_on_other_grid(grid, params):
    cfg = ns.NonlinearConfig(k_max=2, n_theta=16)
    st = stokes.init_stokes(mode1_bump(grid, 1e-2), params)
    other = build_grid(grid.n_points, grid.r_max, grid.stretch)
    shadow = stokes.init_stokes(mode1_bump(other, 1e-2), params)
    with pytest.raises(GridMismatch):
        ns.evolve_ns(st, cfg, 0.1, 0.05, linear_shadow=shadow)


def test_evolve_ns_rejects_shadow_at_other_time(grid, params):
    cfg = ns.NonlinearConfig(k_max=2, n_theta=16)
    st = stokes.init_stokes(mode1_bump(grid, 1e-2), params)
    shadow = stokes.init_stokes(mode1_bump(grid, 1e-2), params, t=0.05)
    with pytest.raises(InvalidArgument):
        ns.evolve_ns(st, cfg, 0.1, 0.05, linear_shadow=shadow)


def test_step_ns_reuses_guard_norm(grid, params, monkeypatch):
    # each state's fluid L2 norm is computed once and kept on its
    # decomposition: the guard's n_old is the previous step's n_new, so n
    # steps take n + 1 norms, one per decomposition
    calls = []
    inner = fields._fluid_l2

    def counted(decomp):
        calls.append(decomp)
        return inner(decomp)

    monkeypatch.setattr(fields, "_fluid_l2", counted)
    cfg = ns.NonlinearConfig(k_max=2, n_theta=16)
    st = stokes.init_stokes(mode1_bump(grid, 1e-2), params)
    final, _ = ns.evolve_ns(st, cfg, 0.25, 0.05)
    assert len(calls) == 6 and len({id(d) for d in calls}) == 6
    assert final.l2_norm == weighted_field_norm(grid, final.decomp, 2.0, params)


def test_steady_step_ns_derives_the_profiles_once(grid, params, monkeypatch):
    # a step after the first: the convection term reuses the derivative
    # stack the previous step's blow-up guard took, so one ddr for the
    # velocity derivatives and one for the new state's L2 norm
    cfg = ns.NonlinearConfig(k_max=2, n_theta=16)
    st = stokes.init_stokes(mode1_bump(grid, 1e-2), params)
    st1, nl = ns.step_ns(st, cfg, 0.05, first_step=True)
    calls = []
    inner = RadialGrid.ddr

    def counted(self, f):
        calls.append(np.shape(f))
        return inner(self, f)

    monkeypatch.setattr(RadialGrid, "ddr", counted)
    ns.step_ns(st1, cfg, 0.05, nl)
    assert len(calls) == 2, calls


def test_kato_solve_rejects_past_end(grid, params):
    cfg = ns.NonlinearConfig(k_max=2, n_theta=16)
    st = stokes.init_stokes(mode1_bump(grid, 1e-2), params, t=1.0)
    with pytest.raises(InvalidArgument):
        ns.kato_solve(st, cfg, 0.5, 0.05)


def test_dropped_grid_is_collected(params):
    # factorizations and other derived operators live on the grid, so a grid
    # nobody references any more is freed together with them
    grid = build_grid(64, 10.0, 1.0)
    ref = weakref.ref(grid)
    cfg = ns.NonlinearConfig(k_max=2, n_theta=16)
    st = stokes.init_stokes(mode1_bump(grid, 1e-2), params)
    st, nl = ns.step_ns(st, cfg, 0.05, first_step=True)
    st, nl = ns.step_ns(st, cfg, 0.05, nl)
    dynbc.step(st.w_state, stokes.subsystem_params(params, "w"), 0.05)
    assert any(key[0] == "leray" for key in grid.cache)
    assert any(key[0] == "dynbc" for key in grid.cache)
    del grid, st, nl
    gc.collect()
    assert ref() is None
