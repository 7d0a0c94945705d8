"""Coupled linear evolution: consistency, decoupling, asymptotic profiles."""

import math

import numpy as np
import pytest

from conftest import random_decomposition
from oracles import dense_channel_step

from diskflow import dynbc, stokes
from diskflow.elliptic import z_transform
from diskflow.dynbc import DynBCParams
from diskflow.errors import InvalidArgument, NonpositiveTime, SolverFailure
from diskflow.fields import (
    ModeDecomposition,
    RigidState,
    decomp_axpy,
    fluid_lp_norm,
    weighted_field_norm,
    zero_decomposition,
)
from diskflow.grid import PhysicalParams, build_grid
from diskflow.presets import build_setup, get_preset


@pytest.fixture(scope="module")
def grid():
    return build_grid(768, 40.0, 1.5)


@pytest.fixture(scope="module")
def params():
    return PhysicalParams(nu=1.0, m=2.0 * math.pi)


def translating_data(grid, amplitude=1.0):
    return build_setup(
        get_preset("translating-disk"),
        {"grid": {"n_points": grid.n_points, "r_max": grid.r_max, "stretch": grid.stretch}},
    )


def test_init_zero(grid, params):
    st = stokes.init_stokes(zero_decomposition(grid, 3), params)
    assert np.all(st.z_psi.y == 0) and st.z_psi.ell == 0
    assert np.all(st.w_state.y == 0)
    assert all(np.all(z.y == 0) for pair in st.z_higher for z in pair)


def test_init_rejects_nonfinite_data(grid, params):
    # a nan in w or in a higher-mode profile
    d = random_decomposition(grid, np.random.default_rng(28), k_max=2)
    w, profiles = d.w.copy(), d.profiles.copy()
    w[5] = profiles[1, 0, 5] = np.nan
    for bad in (ModeDecomposition(grid, w, d.profiles, d.rigid),
                ModeDecomposition(grid, d.w, profiles, d.rigid)):
        with pytest.raises(InvalidArgument):
            stokes.init_stokes(bad, params)


def test_init_pure_translation_harmonic_tail(grid, params):
    # ell0 = (1, 0) with the decaying harmonic wake phi = -1/r: the
    # transformed unknown is supported on the ball alone
    r = grid.nodes
    d = ModeDecomposition(
        grid, np.zeros_like(r), [[np.zeros_like(r), -1.0 / r]],
        RigidState(np.array([1.0, 0.0]), 0.0),
    )
    st = stokes.init_stokes(d, params)
    assert np.max(np.abs(st.z_phi.y)) < 1e-10
    assert st.z_phi.ell == 2.0


def test_init_consistency_invariant(grid, params):
    rng = np.random.default_rng(0)
    d = random_decomposition(grid, rng, k_max=3)
    st = stokes.init_stokes(d, params)
    zp = z_transform(grid, [d.psi], (1,))[0]
    assert np.max(np.abs(st.z_psi.y - zp)) < 1e-12
    assert st.z_psi.ell == 2.0 * d.rigid.ell[1]


def test_step_zero_state(grid, params):
    st = stokes.init_stokes(zero_decomposition(grid, 2), params)
    st2 = stokes.step_stokes(st, 0.1, first_step=True)
    assert np.all(st2.decomp.psi == 0) and np.all(st2.decomp.w == 0)
    assert st2.t == 0.1


def test_higher_mode_isolation(grid, params):
    # single k = 3 bump: modes 0, 1 stay identically zero and the field norm
    # decays monotonically
    r = grid.nodes
    profiles = np.zeros((4, 2, grid.n_points))
    profiles[2, 0] = (r - 1.0) ** 2 * np.exp(-2.0 * (r - 1.5) ** 2)
    d = ModeDecomposition(grid, np.zeros_like(r), profiles, RigidState(np.zeros(2), 0.0))
    st = stokes.init_stokes(d, params)
    prev = weighted_field_norm(grid, st.decomp, 2.0, params)
    for j in range(20):
        st = stokes.step_stokes(st, 0.05, first_step=(j == 0))
        assert np.max(np.abs(st.decomp.w)) <= 1e-14
        assert np.max(np.abs(st.decomp.psi)) <= 1e-14
        assert np.max(np.abs(st.decomp.phi)) <= 1e-14
        assert np.max(np.abs(st.decomp.higher[0])) <= 1e-14
        assert np.max(np.abs(st.decomp.higher[2])) <= 1e-14
        cur = weighted_field_norm(grid, st.decomp, 2.0, params)
        assert cur <= prev * (1 + 1e-12)
        prev = cur


def test_semigroup_property(grid, params):
    setup = translating_data(grid)
    st = setup["state"]
    a = stokes.evolve_stokes(st, 4.0, 0.05)
    b = stokes.evolve_stokes(stokes.evolve_stokes(st, 1.5, 0.05), 4.0, 0.05)
    diff = decomp_axpy(1.0, a.decomp, -1.0, b.decomp)
    assert fluid_lp_norm(diff, 2.0) < 1e-10
    assert abs(a.rigid.ell[0] - b.rigid.ell[0]) < 1e-12


def test_evolution_consistency_invariant(grid, params):
    # the state's (profile, z, trace) triple stays exactly self-consistent:
    # transforming the rebuilt profile with the known trace reproduces the
    # primary z variable
    setup = translating_data(grid)
    st = stokes.evolve_stokes(setup["state"], 2.0, 0.05)
    minus_phi = [-st.decomp.phi]
    zf = z_transform(grid, minus_phi, (1,), z1=[st.z_phi.ell])[0]
    assert np.max(np.abs(zf - st.z_phi.y)) < 1e-10
    assert abs(-2.0 * st.decomp.phi[0] - st.z_phi.ell) < 1e-12
    # without the trace the smoothness selector agrees at its own accuracy
    zf2 = z_transform(grid, minus_phi, (1,))[0]
    assert np.max(np.abs(zf2 - st.z_phi.y)) < 1e-6


def test_lamb_oseen_profiles(grid):
    nu = 1.0
    z = stokes.lamb_oseen_profile(grid, 5.0, nu, (0.0, 0.0))
    assert np.all(z.psi == 0) and np.all(z.phi == 0)
    with pytest.raises(NonpositiveTime):
        stokes.lamb_oseen_profile(grid, 0.0, nu, (1.0, 0.0))
    # closed-form check of the stream profile at a point
    M = (math.pi, 0.0)
    t = 4.0
    d = stokes.lamb_oseen_profile(grid, t, nu, M)
    r5 = grid.nodes[100]
    expect = -(M[0]) * (1.0 - math.exp(-(r5**2) / (4 * nu * t))) / (2 * math.pi * r5)
    assert abs(d.phi[100] - expect) < 1e-14


def test_lamb_oseen_self_similar_plateau():
    # t^(1-1/p) ||U(t)||_{L^p(fluid)} increases toward the plane-norm limit;
    # the t = 100 value sits within 5% of the t = 400 value.  The norm is
    # evaluated from the closed-form profile by adaptive quadrature (the
    # grid norm would truncate the self-similar tail, which scales with
    # sqrt(t)); the grid route is cross-checked at moderate t.
    from scipy.integrate import quad

    Mx = math.pi

    def norm_p(t, p):
        def dpsi(r):
            s = r * r / (4.0 * t)
            return (
                -Mx * (1.0 - math.exp(-s)) / (2.0 * math.pi * r * r)
                + Mx * math.exp(-s) * 2.0 * s / (2.0 * math.pi * r * r) * 1.0
            )

        def psi_over_r(r):
            return Mx * (1.0 - math.exp(-(r * r) / (4.0 * t))) / (2.0 * math.pi * r * r)

        if p == 2.0:
            f = lambda r: (dpsi(r) ** 2 + psi_over_r(r) ** 2) * math.pi * r  # noqa: E731
        else:  # p == 4: angular integral of (a sin^2 + b cos^2)^2
            def f(r):
                a = psi_over_r(r) ** 2
                b = dpsi(r) ** 2
                return (0.75 * math.pi * (a * a + b * b) + 0.5 * math.pi * a * b) * r

        val = quad(f, 1.0, np.inf, limit=200)[0]
        return val ** (1.0 / p)

    g = build_grid(2048, 120.0, 0.5)
    for p in (2.0, 4.0):
        vals = [t ** (1.0 - 1.0 / p) * norm_p(t, p) for t in (25.0, 100.0, 400.0)]
        assert vals[0] <= vals[1] * (1 + 1e-9) <= vals[2] * (1 + 1e-9)
        assert abs(vals[1] - vals[2]) <= 0.05 * vals[2]
        d = stokes.lamb_oseen_profile(g, 25.0, 1.0, (Mx, 0.0))
        grid_val = 25.0 ** (1.0 - 1.0 / p) * fluid_lp_norm(d, p)
        assert abs(grid_val - vals[0]) < 5e-3 * vals[0]


def test_recover_mode1_pressure(grid, params):
    st = stokes.init_stokes(zero_decomposition(grid, 2), params)
    assert stokes.recover_mode1_pressure(st) == (0.0, 0.0)
    # steady harmonic channel: fluid z = 0 with nonzero ball value
    r = grid.nodes
    d = ModeDecomposition(
        grid, np.zeros_like(r), [[np.zeros_like(r), -1.0 / r]],
        RigidState(np.array([1.0, 0.0]), 0.0),
    )
    st1 = stokes.init_stokes(d, params)
    bq, bp = stokes.recover_mode1_pressure(st1)
    assert abs(bq) < 1e-9 and abs(bp) < 1e-9
    # dual-formula consistency on an evolving state: the flux form
    # beta = nu dz/dr(1) (pi - m)/(pi + m) equals the boundary-balance form
    # beta = ell' - nu dz/dr(1), with ell' taken by centered time
    # differencing of the trajectory.  The two routes share nothing but the
    # state, and agree at the boundary-flux discretization level (the gap
    # shrinks under grid refinement).
    dt = 0.005
    setup2 = translating_data(grid)
    s0 = stokes.evolve_stokes(setup2["state"], 1.0, dt)
    s1 = stokes.evolve_stokes(s0, s0.t + dt, dt)
    s2 = stokes.evolve_stokes(s1, s1.t + dt, dt)
    _, beta_flux = stokes.recover_mode1_pressure(s1)
    ell1_dot = (s2.rigid.ell[0] - s0.rigid.ell[0]) / (2.0 * dt)
    dz = s1.grid.boundary_derivative(s1.z_phi.y)
    beta_balance = ell1_dot - s1.params.nu * dz
    assert abs(beta_balance - beta_flux) < 2e-3 * abs(beta_flux)


def test_reconstruct_trajectory():
    g = build_grid(64, 10.0)
    dt = 0.5
    series = [RigidState(np.array([1.0, 0.0]), 2.0) for _ in range(9)]
    out = stokes.reconstruct_trajectory(series, dt=dt)
    assert np.allclose(out[-1].h, [4.0, 0.0])
    assert abs(out[-1].theta - 8.0) < 1e-14
    # ell ~ M/(8 pi nu t): the center goes logarithmically to infinity
    times = np.geomspace(1.0, 100.0, 1200)
    M = math.pi
    series = [RigidState(np.array([M / (8 * math.pi * t), 0.0]), 0.0) for t in times]
    out = stokes.reconstruct_trajectory(series, times=times)
    hx = np.array([o.h[0] for o in out])
    model = (M / (8 * math.pi)) * np.log(times)
    assert abs((hx[-1] - hx[0]) - (model[-1] - model[0])) < 1e-3 * abs(model[-1])


def test_asymptotic_momenta_cases(grid):
    r = grid.nodes
    zero = np.zeros_like(r)
    # m = pi: zero total momentum whatever the kick
    p_pi = PhysicalParams(nu=1.0, m=math.pi)
    d = ModeDecomposition(grid, zero, [[zero, -1.0 / r]], RigidState(np.array([1.0, 0.0]), 0.0))
    st = stokes.init_stokes(d, p_pi)
    mom = stokes.asymptotic_momenta(st)
    assert np.allclose(mom.M_vec, 0.0)
    # ell0 = 0: zero momentum
    p2 = PhysicalParams(nu=1.0, m=2 * math.pi)
    st0 = stokes.init_stokes(zero_decomposition(grid, 2), p2)
    assert np.allclose(stokes.asymptotic_momenta(st0).M_vec, 0.0)
    # m = 2 pi, ell0 = (1, 0): momentum (pi, 0); quadrature route agrees
    setup = translating_data(grid)
    mom2 = stokes.asymptotic_momenta(setup["state"])
    assert np.allclose(mom2.M_vec, [math.pi, 0.0], atol=1e-12)
    assert abs(mom2.M_phi - math.pi) < 1e-6


def test_recorder_output(tmp_path, grid, params):
    setup = translating_data(grid)
    mom = stokes.asymptotic_momenta(setup["state"])
    rec = stokes.StokesRecorder(params, (2.0,), M_vec=mom.M_vec)
    stokes.evolve_stokes(setup["state"], 1.0, 0.25, observer=rec)
    path = tmp_path / "series.txt"
    rec.write(path, "cfg")
    lines = path.read_text().splitlines()
    assert lines[0] == "# cfg"
    assert lines[1].startswith("t, ell_x, ell_y, omega, norm_L2, profile_err_L2")
    assert len(lines) == 2 + 5


def test_coupled_spin_down(grid, params):
    # nonzero tangential mean: the disk's rotation decays like t^-2 inside
    # the coupled solver (same channel as the scalar run, routed through the
    # full state machinery)
    from diskflow.analysis import fit_decay

    r = grid.nodes
    w0 = np.exp(-2.0 * (r - 1.0) ** 2)
    d = ModeDecomposition(
        grid, w0, np.zeros((1, 2, grid.n_points)), RigidState(np.zeros(2), float(w0[0]))
    )
    st = stokes.init_stokes(d, params)
    ts, oms = [], []

    def obs(state):
        ts.append(state.t)
        oms.append(abs(state.rigid.omega))

    stokes.evolve_stokes(st, 50.0, 0.05, observer=obs,
                         observe_times=np.geomspace(5.0, 50.0, 17))
    expo = fit_decay(np.array(ts), np.array(oms), (5.0, 50.0)).exponent
    assert abs(expo + 2.0) < 0.35


def test_evolved_state_compatibility(grid, params):
    # after solver steps: traces match the rigid data exactly, the no-slip
    # derivative compatibility holds to discretization order, and the
    # reconstructed field is discretely divergence-free
    from diskflow.fields import divergence_residual, reconstruct

    setup = translating_data(grid)
    st = stokes.evolve_stokes(setup["state"], 5.0, 0.05)
    d = st.decomp
    assert d.psi[0] == d.rigid.ell[1]
    assert d.phi[0] == -d.rigid.ell[0]
    assert d.w[0] == d.rigid.omega
    dpsi1 = grid.boundary_derivative(d.psi)
    dphi1 = grid.boundary_derivative(d.phi)
    scale = max(abs(d.rigid.ell[0]), abs(d.rigid.ell[1]), 1e-30)
    assert abs(dpsi1 - d.psi[0]) < 1e-3 * max(scale, 1.0)
    assert abs(dphi1 - d.phi[0]) < 1e-3 * max(scale, 1.0)
    f = reconstruct(d, 16)
    vmax = max(np.abs(f.v_r).max(), np.abs(f.v_theta).max())
    assert divergence_residual(f, d.k_max) < 1e-10 * vmax / grid.spacings.min()


def test_mode1_mass_invariance_through_evolution(translating_run):
    # both transformed mode-1 masses are step invariants of the coupled
    # evolution (up to the far-field leak, negligible on this box); this is
    # what keeps the total momentum meaningful over the whole run
    phi_series = translating_run["mass_phi"]
    m0 = phi_series[0]
    drift = np.max(np.abs(phi_series - m0)) / abs(m0)
    assert drift < 1e-6


def _rows(st):
    """ScalarModeState views of a state's rows, in stack order."""
    return [st.w_state, st.z_psi, st.z_phi, *(z for pair in st.z_higher for z in pair)]


def _row_params(params, k_max):
    """DynBCParams of each row of a k_max state: w, mode 1 twice, then each
    higher mode twice."""
    ops = [stokes.subsystem_params(params, "w")] + [stokes.subsystem_params(params, "z1")] * 2
    for k in range(2, k_max + 1):
        ops += [stokes.subsystem_params(params, "higher", k=k)] * 2
    return ops


def test_packed_step_matches_dense_channels():
    # one packed banded solve for every row against a dense solve per row,
    # over random grids, step lengths, startup and sources
    rng = np.random.default_rng(2024)
    for _ in range(16):
        grid = build_grid(int(rng.integers(16, 120)), float(rng.uniform(2.5, 40.0)),
                          float(rng.uniform(0.0, 2.5)))
        params = PhysicalParams(nu=float(rng.uniform(0.2, 3.0)), m=float(rng.uniform(0.5, 10.0)))
        k_max = int(rng.integers(1, 6))
        dt = float(rng.uniform(1e-3, 0.5))
        first_step = bool(rng.integers(2))
        state = stokes.init_stokes(random_decomposition(grid, rng, k_max), params)
        sources = None
        if rng.integers(2):
            sources = stokes.decomp_to_sources(random_decomposition(grid, rng, k_max))
        new = stokes.step_stokes(state, dt, sources=sources, first_step=first_step)
        ops = _row_params(params, k_max)
        assert len(ops) == len(state.z) == len(new.z) == 2 * k_max + 1
        for i, (before, p) in enumerate(zip(_rows(state), ops)):
            s = None if sources is None else (sources[0][i], sources[1][i])
            y, ell = dense_channel_step(before, p, dt, source=s, first_step=first_step)
            scale = max(np.max(np.abs(y)), abs(ell), 1e-300)
            assert np.max(np.abs(new.z[i] - y)) <= 1e-12 * scale
            assert abs(new.ell[i] - ell) <= 1e-12 * scale
        assert new.t == state.t + dt


def _same_stack(a, b):
    """Two (z, ell) stacks hold the same values, bit for bit."""
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_init_channels_are_the_source_layout(grid, params):
    d = random_decomposition(grid, np.random.default_rng(21), k_max=4)
    st = stokes.init_stokes(d, params, t=0.5)
    _same_stack((st.z, st.ell), stokes.decomp_to_sources(d))
    assert st.z.shape == (9, grid.n_points) and st.k_max == 4
    # rows w, z_psi_1, z_phi_1, z_psi_2, ...: w and the boundary values
    # omega, 2 ell_y, 2 ell_x, then zeros
    assert np.array_equal(st.z[0], d.w)
    assert list(st.ell) == [d.rigid.omega, 2.0 * d.rigid.ell[1], 2.0 * d.rigid.ell[0]] + [0.0] * 6
    assert [(z.ell, z.t) for z in _rows(st)] == [(e, 0.5) for e in st.ell]
    assert all(np.shares_memory(z.y, st.z) for z in _rows(st))


def test_sources_with_fewer_modes_leave_the_extra_modes_unforced(grid, params):
    rng = np.random.default_rng(22)
    st = stokes.init_stokes(random_decomposition(grid, rng, k_max=4), params)
    sources = stokes.decomp_to_sources(random_decomposition(grid, rng, k_max=2))
    forced = stokes.step_stokes(st, 0.05, sources=sources, first_step=True)
    plain = stokes.step_stokes(st, 0.05, first_step=True)
    n = len(sources[1])
    _same_stack((forced.z[n:], forced.ell[n:]), (plain.z[n:], plain.ell[n:]))
    assert not np.array_equal(forced.z_phi.y, plain.z_phi.y)


def test_sources_beyond_the_state_modes_are_ignored(grid, params):
    rng = np.random.default_rng(23)
    st = stokes.init_stokes(random_decomposition(grid, rng, k_max=2), params)
    z, ell = stokes.decomp_to_sources(random_decomposition(grid, rng, k_max=5))
    rows = len(st.ell)
    assert len(ell) > rows
    full = stokes.step_stokes(st, 0.05, sources=(z, ell))
    cut = stokes.step_stokes(st, 0.05, sources=(z[:rows], ell[:rows]))
    _same_stack((full.z, full.ell), (cut.z, cut.ell))


def test_stepped_channels_are_read_only_and_unshared(grid, params):
    st = stokes.init_stokes(random_decomposition(grid, np.random.default_rng(24), k_max=4), params)
    st = stokes.step_stokes(st, 0.05, first_step=True)
    new = stokes.step_stokes(st, 0.05)
    assert len(_rows(st)) == 9
    for a in (st.z, st.ell, *(z.y for z in _rows(st))):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[..., 1] = 1.0
    assert not np.shares_memory(st.z, new.z)


def test_state_axpy_pads_the_shorter_stack(grid, params):
    # unequal mode counts combine as zero-padded stacks, like decomp_axpy, so
    # a step of the sum keeps every mode
    rng = np.random.default_rng(27)
    a = stokes.init_stokes(random_decomposition(grid, rng, k_max=4), params)
    b = stokes.init_stokes(random_decomposition(grid, rng, k_max=2), params)
    for mixed in (stokes.state_axpy(1.0, a, 1.0, b), stokes.state_axpy(1.0, b, 1.0, a)):
        assert stokes.step_stokes(mixed, 0.05).decomp.k_max == 4
        assert mixed.z.shape == a.z.shape and mixed.decomp.k_max == 4
        _same_stack((mixed.z[5:], mixed.ell[5:]), (a.z[5:], a.ell[5:]))
        assert np.array_equal(mixed.z[:5], a.z[:5] + b.z)
        stepped = stokes.step_stokes(mixed, 0.05)
        assert stepped.z.shape == a.z.shape and stepped.decomp.k_max == 4
        _same_stack((stepped.z[5:], stepped.ell[5:]),
                    (stokes.step_stokes(a, 0.05).z[5:], stokes.step_stokes(a, 0.05).ell[5:]))


@pytest.mark.parametrize("k_max", [1, 2, 3, 4, 5])
def test_one_transform_and_one_inversion_per_state(grid, params, monkeypatch, k_max):
    # every channel goes through one stacked call, whatever the mode count
    calls = {"z_transform": 0, "invert_z": 0}

    def counted(name):
        inner = getattr(stokes, name)

        def fn(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        return fn

    for name in calls:
        monkeypatch.setattr(stokes, name, counted(name))
    d = random_decomposition(grid, np.random.default_rng(26), k_max=k_max)
    stokes.decomp_to_sources(d)
    assert calls == {"z_transform": 1, "invert_z": 0}
    st = stokes.init_stokes(d, params)
    stokes._rebuild_decomp(grid, st.z, st.ell)
    assert calls == {"z_transform": 2, "invert_z": 1}


def test_higher_modes_march_solves_its_one_live_row(monkeypatch):
    # higher-modes-only data excite z_psi_3 alone: every (sub)step of its
    # k_max = 4 march solves that row's n - 1 unknowns, not the nine rows'
    # 9 (n - 1), and the eight empty rows stay exactly +0.0
    setup = build_setup(get_preset("higher-modes-only"), {"grid": {"n_points": 256}})
    sizes = []
    inner = dynbc.cho_solve_banded

    def recorded(fac, rhs):
        sizes.append(rhs.size)
        return inner(fac, rhs)

    monkeypatch.setattr(dynbc, "cho_solve_banded", recorded)
    state, dt = setup["state"], setup["time"]["dt"]
    final = stokes.evolve_stokes(state, 5 * dt, dt)
    assert len(state.z) == 9
    assert sizes == [setup["grid"].n_points - 1] * 6  # two start-up substeps
    empty = np.arange(9) != 5
    assert final.z[5].any() and not final.z[empty].any()
    assert not np.signbit(final.z[empty]).any()


def test_march_validates_parameters_on_its_first_step_only(params, monkeypatch):
    grid = build_grid(96, 12.0, 1.0)  # a fresh grid: nothing memoized on it yet
    state0 = stokes.init_stokes(random_decomposition(grid, np.random.default_rng(25), 4), params)
    built = []
    inner = DynBCParams.__post_init__

    def counted(self):
        built.append(self)
        inner(self)

    monkeypatch.setattr(DynBCParams, "__post_init__", counted)
    after_step = []
    stokes.evolve_stokes(state0, 20 * 0.05, 0.05, observer=lambda st: after_step.append(len(built)))
    assert len(after_step) == 21
    assert after_step[0] == 0 and after_step[1] == 5  # w, mode 1, modes 2..4
    assert after_step[-1] == after_step[1]


def test_nonfinite_stokes_source_rejected(grid, params):
    rng = np.random.default_rng(26)
    st = stokes.init_stokes(random_decomposition(grid, rng, k_max=3), params)
    z, ell = stokes.decomp_to_sources(random_decomposition(grid, rng, 3))
    z[4, grid.n_points // 2] = np.nan  # the phi row of mode 2
    with pytest.raises(SolverFailure):
        stokes.step_stokes(st, 0.05, sources=(z, ell))


def _decomp_arrays(d):
    return (d.w, d.psi, d.phi, d.higher, d.rigid.ell, d.rigid.omega, d.rigid.h, d.rigid.theta)


def _assert_same_decomp(a, b):
    for x, y in zip(_decomp_arrays(a), _decomp_arrays(b)):
        assert np.array_equal(x, y)


def _eager_decomp(st):
    return stokes._rebuild_decomp(st.grid, st.z, st.ell)


@pytest.fixture
def rebuilds(monkeypatch):
    """Counts the decomposition rebuilds done through stokes._rebuild_decomp."""
    calls = []
    inner = stokes._rebuild_decomp

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(stokes, "_rebuild_decomp", counted)
    return calls


def test_init_keeps_given_decomposition(grid, params):
    # rigid data that disagrees with the profile traces: a decomposition
    # rebuilt from the z variables would differ, the stored one is kept
    rng = np.random.default_rng(11)
    d = random_decomposition(grid, rng, k_max=3)
    d = ModeDecomposition(grid, d.w, d.profiles,
                          RigidState(np.array([0.3, -0.7]), 0.2, np.array([1.0, 2.0]), 0.5))
    st = stokes.init_stokes(d, params)
    assert st.decomp is d
    assert st.rigid is d.rigid
    assert _eager_decomp(st).psi[0] != d.psi[0]


def test_channel_reads_do_not_rebuild(grid, params, rebuilds):
    rng = np.random.default_rng(12)
    st = stokes.init_stokes(random_decomposition(grid, rng, k_max=3), params)
    for j in range(3):
        st = stokes.step_stokes(st, 0.05, first_step=(j == 0))
    assert st.grid is grid and st.params is params and st.t > 0
    assert st.w_state.y.shape == st.z_psi.y.shape == st.z_phi.y.shape
    assert len(st.z_higher) == 2
    stokes.recover_mode1_pressure(st)
    assert not rebuilds
    d = st.decomp
    assert st.decomp is d and st.rigid is d.rigid
    assert len(rebuilds) == 1


def test_evolve_stokes_rebuilds_per_observation(params, rebuilds):
    grid = build_grid(128, 15.0, 1.0)
    setup = translating_data(grid)
    times = [0.0, 0.5, 1.25, 2.0, 3.0]
    rec = stokes.StokesRecorder(params)
    final = stokes.evolve_stokes(setup["state"], 3.0, 0.05, observer=rec, observe_times=times)
    final.decomp
    assert len(rec.rows) == len(times)
    assert np.allclose(rec.column("t"), times)
    assert len(rebuilds) <= len(times) + 1


def test_state_axpy_decomp_matches_decomp_axpy(grid, params):
    rng = np.random.default_rng(13)
    a = stokes.step_stokes(stokes.init_stokes(random_decomposition(grid, rng, 3), params), 0.1)
    b = stokes.step_stokes(stokes.init_stokes(random_decomposition(grid, rng, 3), params), 0.1)
    mixed = stokes.state_axpy(0.7, a, -1.3, b)
    _assert_same_decomp(mixed.decomp, decomp_axpy(0.7, a.decomp, -1.3, b.decomp))
    _assert_same_decomp(stokes.state_axpy(2.5, a).decomp, decomp_axpy(2.5, a.decomp))


def test_lazy_decomposition_property():
    # marching in two legs equals marching in one, and the decomposition read
    # lazily after every step equals the eager rebuild of that step's stack
    hyp = pytest.importorskip("hypothesis")
    hst = hyp.strategies

    def check_lazy(st):
        _assert_same_decomp(st.decomp, _eager_decomp(st))

    def stepped_only(state0):
        # init_stokes keeps the decomposition it was given, not a rebuild
        return lambda st: st is state0 or check_lazy(st)

    @hyp.settings(max_examples=40, deadline=None, database=None)
    @hyp.given(
        n_points=hst.integers(16, 160),
        r_max=hst.floats(2.5, 40.0),
        stretch=hst.one_of(hst.just(0.0), hst.floats(0.1, 2.5)),
        dt=hst.floats(1e-3, 0.5),
        n1=hst.integers(0, 4),
        n2=hst.integers(1, 4),
        seed=hst.integers(0, 2**32 - 1),
    )
    def check(n_points, r_max, stretch, dt, n1, n2, seed):
        rng = np.random.default_rng(seed)
        grid = build_grid(n_points, r_max, stretch)
        params = PhysicalParams(nu=float(rng.uniform(0.2, 3.0)), m=float(rng.uniform(0.5, 10.0)))
        state0 = stokes.init_stokes(random_decomposition(grid, rng, int(rng.integers(1, 5))), params)
        leg1 = stokes.evolve_stokes(state0, n1 * dt, dt, observer=stepped_only(state0))
        split = stokes.evolve_stokes(leg1, (n1 + n2) * dt, dt, observer=stepped_only(state0))
        whole = stokes.evolve_stokes(state0, (n1 + n2) * dt, dt, observer=stepped_only(state0))
        assert split.t == whole.t
        _same_stack((split.z, split.ell), (whole.z, whole.ell))
        _assert_same_decomp(split.decomp, whole.decomp)
        st = state0
        for j in range(n2):
            st = stokes.step_stokes(st, dt, first_step=(j == 0))
            check_lazy(st)

    check()


def _random_setup(rng, n_points, r_max, stretch):
    grid = build_grid(n_points, r_max, stretch)
    params = PhysicalParams(nu=float(rng.uniform(0.2, 3.0)), m=float(rng.uniform(0.5, 10.0)))
    return grid, params


def test_step_stokes_commutes_with_state_axpy_property():
    # the step is linear in the state and the sources together: stepping a
    # combination equals combining the steps, with unequal mode counts
    # zero-padded on both sides
    hyp = pytest.importorskip("hypothesis")
    hst = hyp.strategies

    @hyp.settings(max_examples=40, deadline=None, database=None)
    @hyp.given(
        n_points=hst.integers(16, 160),
        r_max=hst.floats(2.5, 40.0),
        stretch=hst.one_of(hst.just(0.0), hst.floats(0.1, 2.5)),
        dt=hst.floats(1e-3, 0.5),
        k_a=hst.integers(1, 4),
        k_b=hst.integers(1, 4),
        ca=hst.floats(-3.0, 3.0),
        cb=hst.floats(-3.0, 3.0),
        first_step=hst.booleans(),
        forced=hst.booleans(),
        seed=hst.integers(0, 2**32 - 1),
    )
    def check(n_points, r_max, stretch, dt, k_a, k_b, ca, cb, first_step, forced, seed):
        rng = np.random.default_rng(seed)
        grid, params = _random_setup(rng, n_points, r_max, stretch)
        a, b = (stokes.init_stokes(random_decomposition(grid, rng, k), params) for k in (k_a, k_b))
        src_a = src_b = src = None
        if forced:
            da, db = (random_decomposition(grid, rng, k) for k in (k_a, k_b))
            src_a, src_b = stokes.decomp_to_sources(da), stokes.decomp_to_sources(db)
            src = tuple(stokes._axpy(ca, x, cb, y) for x, y in zip(src_a, src_b))
        lhs = stokes.step_stokes(stokes.state_axpy(ca, a, cb, b), dt, src, first_step)
        rhs = stokes.state_axpy(ca, stokes.step_stokes(a, dt, src_a, first_step),
                                cb, stokes.step_stokes(b, dt, src_b, first_step))
        assert lhs.z.shape == rhs.z.shape == (2 * max(k_a, k_b) + 1, n_points)
        for x, y in ((lhs.z, rhs.z), (lhs.ell, rhs.ell)):
            scale = max(np.max(np.abs(x)), np.max(np.abs(y)), 1e-300)
            assert np.max(np.abs(x - y)) <= 1e-12 * scale

    check()


def test_row_lyapunov_nonincreasing_property():
    # on every unforced step after the first, the p = 2 Lyapunov functional
    # of each row (u^T M u of its packed unknowns) does not grow: exactly so
    # for theta >= 1/2, here to roundoff
    hyp = pytest.importorskip("hypothesis")
    hst = hyp.strategies

    @hyp.settings(max_examples=40, deadline=None, database=None)
    @hyp.given(
        n_points=hst.integers(16, 160),
        r_max=hst.floats(2.5, 40.0),
        stretch=hst.one_of(hst.just(0.0), hst.floats(0.1, 2.5)),
        dt=hst.floats(1e-3, 0.5),
        k_max=hst.integers(1, 4),
        n_steps=hst.integers(1, 6),
        seed=hst.integers(0, 2**32 - 1),
    )
    def check(n_points, r_max, stretch, dt, k_max, n_steps, seed):
        rng = np.random.default_rng(seed)
        grid, params = _random_setup(rng, n_points, r_max, stretch)
        ops = _row_params(params, k_max)
        st = stokes.init_stokes(random_decomposition(grid, rng, k_max), params)
        st = stokes.step_stokes(st, dt, first_step=True)
        for _ in range(n_steps):
            new = stokes.step_stokes(st, dt)
            for before, after, p in zip(_rows(st), _rows(new), ops):
                prev = dynbc.lyapunov_functional(before, p, 2.0)
                assert dynbc.lyapunov_functional(after, p, 2.0) <= prev * (1.0 + 1e-12)
            st = new

    check()
