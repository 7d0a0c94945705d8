"""Scalar dynamic-boundary heat solver: conservation, decay, oracles."""

import itertools
import math
from collections import namedtuple
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import expm
from scipy.linalg.lapack import dpttrf

from diskflow import dynbc
from diskflow.dynbc import DynBCParams, ScalarModeState
from diskflow.errors import InvalidArgument, NonpositiveTime, SolverFailure, UnsupportedVariant
from diskflow.grid import build_grid
from diskflow.presets import build_setup, get_preset
from oracles import dense_channel_step, naive_march


@pytest.fixture(scope="module")
def grid():
    return build_grid(1024, 64.0, 1.5)


def kick_params(m=math.pi, nu=1.0):
    alpha = 4.0 * math.pi / (math.pi + m)
    return DynBCParams(k=0, alpha_tilde=alpha, nu=nu, variant="dynamic")


def test_zero_state_stays_zero(grid):
    params = kick_params()
    s = ScalarModeState(grid, np.zeros(grid.n_points), 0.0, 0.0)
    s2 = dynbc.step(s, params, 0.1, first_step=True)
    assert np.all(s2.y == 0.0) and s2.ell == 0.0 and s2.t == 0.1


def test_mass_formula_trivial(grid):
    # y == 0, ell = 1, alpha = 2: M = 2 pi / 2 = pi
    params = DynBCParams(k=0, alpha_tilde=2.0, nu=1.0, variant="dynamic")
    s = ScalarModeState(grid, np.zeros(grid.n_points), 1.0, 0.0)
    assert abs(dynbc.mass(s, params) - math.pi) < 1e-14


def test_mass_ball_weight_identity(grid):
    # (2 pi / alpha) ell == (pi + m)/2 ell for alpha = 4 pi/(pi + m), any m
    for m in (0.5, math.pi, 2 * math.pi, 10.0):
        params = kick_params(m)
        s = ScalarModeState(grid, np.zeros(grid.n_points), 0.7, 0.0)
        assert abs(dynbc.mass(s, params) - (math.pi + m) / 2.0 * 0.7) < 1e-12


def test_mass_quadrature_oracle(grid):
    # independent re-implementation of the piecewise-linear r-weighted rule
    params = kick_params()
    y0 = np.exp(-2.0 * (grid.nodes - 2.0) ** 2)
    s = ScalarModeState(grid, y0, 0.0, 0.0)
    r = grid.nodes
    oracle = 0.0
    for j in range(grid.n_points - 1):
        a, b = r[j], r[j + 1]
        oracle += (b - a) * (y0[j] * (2 * a + b) + y0[j + 1] * (a + 2 * b)) / 6.0
    oracle *= 2.0 * math.pi
    assert abs(dynbc.mass(s, params) - oracle) < 1e-8 * abs(oracle)
    # and against adaptive quadrature at the discretization-error level
    exact = 2.0 * math.pi * quad(lambda x: math.exp(-2.0 * (x - 2.0) ** 2) * x, 1.0, 64.0)[0]
    assert abs(dynbc.mass(s, params) - exact) < 1e-4 * abs(exact)


def test_mass_requires_k0_dynamic(grid):
    s = ScalarModeState(grid, np.zeros(grid.n_points), 0.0, 0.0)
    with pytest.raises(UnsupportedVariant):
        dynbc.mass(s, DynBCParams(k=1, alpha_tilde=1.0, variant="dynamic"))
    with pytest.raises(UnsupportedVariant):
        dynbc.mass(s, DynBCParams(k=2, variant="dirichlet"))


def test_per_step_mass_invariance(grid):
    params = kick_params()
    rng = np.random.default_rng(0)
    y0 = np.abs(rng.standard_normal(grid.n_points)) * np.exp(-(grid.nodes - 1.0))
    y0[-1] = 0.0
    s = ScalarModeState(grid, y0, 0.4, 0.0)
    m0 = dynbc.mass(s, params)
    for dt in (0.001, 0.05, 1.0):
        s2 = dynbc.step(s, params, dt, first_step=True)
        assert abs(dynbc.mass(s2, params) - m0) < 1e-12 * abs(m0)


def test_trace_enforced_after_step(grid):
    params = kick_params()
    s = ScalarModeState(grid, np.zeros(grid.n_points), 1.0, 0.0)
    s2 = dynbc.step(s, params, 0.05, first_step=True)
    assert s2.y[0] == s2.ell


def test_gaussian_profile_values(grid):
    nu, t = 1.0, 25.0
    G = dynbc.gaussian_profile(grid, t, nu)
    # value at r = 1 is exp(-1/(4 nu t)) / (4 pi nu t)
    assert abs(G[0] - math.exp(-1.0 / 100.0) / (100.0 * math.pi)) < 1e-15
    # value at r = 10: exp(-1)/(100 pi) ~ 1.1709e-3
    i10 = int(np.argmin(np.abs(grid.nodes - 10.0)))
    r10 = grid.nodes[i10]
    assert abs(G[i10] - math.exp(-(r10**2) / 100.0) / (100.0 * math.pi)) < 1e-15
    assert abs(math.exp(-1.0) / (100.0 * math.pi) - 1.1709e-3) < 1e-7
    # plane integral of the kernel is 1 (here restricted to r > 1 plus ball)
    total = 2.0 * math.pi * quad(lambda x: math.exp(-(x * x) / 100.0) / (100.0 * math.pi) * x, 0, np.inf)[0]
    assert abs(total - 1.0) < 1e-12
    with pytest.raises(NonpositiveTime):
        dynbc.gaussian_profile(grid, 0.0, 1.0)


def test_evolve_zero_steps(grid):
    params = kick_params()
    s = ScalarModeState(grid, np.exp(-grid.nodes), 0.3, 0.0)
    s2 = dynbc.evolve(s, params, 0.0, 0.1)
    assert s2 is s


def test_l2_norm_nonincreasing(grid):
    params = kick_params()
    s = ScalarModeState(grid, np.exp(-2.0 * (grid.nodes - 1.5) ** 2), 1.0, 0.0)
    prev = dynbc.lp_norm(s, params, 2.0)
    st = s
    for j in range(50):
        st = dynbc.step(st, params, 0.1, first_step=(j == 0))
        cur = dynbc.lp_norm(st, params, 2.0)
        assert cur <= prev * (1 + 1e-12)
        prev = cur


def test_max_principle_backward_euler(grid):
    # theta = 1 gives an M-matrix step: discrete max principle holds
    params = DynBCParams(k=0, alpha_tilde=2.0, nu=1.0, variant="dynamic", theta=1.0)
    s = ScalarModeState(grid, np.zeros(grid.n_points), 1.0, 0.0)
    st = s
    for j in range(200):
        st = dynbc.step(st, params, 0.1, first_step=(j == 0))
        assert st.y.min() >= -1e-10 and st.y.max() <= 1.0 + 1e-10
        assert -1e-10 <= st.ell <= 1.0 + 1e-10


def test_unit_kick_self_similar_small_grid():
    # minimal-policy grid (r_max = 6 sqrt(nu T)) still meets the 0.1 bound
    g = build_grid(1024, 64.0, 1.5)
    params = kick_params(m=math.pi)
    s = ScalarModeState(g, np.zeros(g.n_points), 1.0, 0.0)
    final = dynbc.evolve(s, params, 100.0, 0.05)
    M = dynbc.mass(s, params)
    ratio = 4.0 * math.pi * params.nu * final.t * final.ell / M
    assert abs(ratio - 1.0) <= 0.1


@pytest.mark.parametrize("preset", ["unit-kick-k0", "w-bump-k1"])
def test_evolve_observed_order(preset):
    # Crank-Nicolson after the startup steps: successive differences at dt,
    # dt/2 and dt/4 shrink fourfold (theta = 0.52 reads about 1.1-1.2)
    setup = build_setup(get_preset(preset), {"grid": {"n_points": 256, "r_max": 20.0}})
    params, s0 = setup["scalar_params"], setup["scalar_state"]
    runs = [dynbc.evolve(s0, params, 1.0, 1.0 / n) for n in (16, 32, 64, 128)]
    diffs = [dynbc.lp_norm(ScalarModeState(a.grid, a.y - b.y, a.ell - b.ell), params, 2.0)
             for a, b in zip(runs, runs[1:])]
    orders = [math.log2(a / b) for a, b in zip(diffs, diffs[1:])]
    assert min(orders) >= 1.8, orders


def test_dirichlet_variant_against_dense_ode_oracle():
    # brute force: exact matrix exponential of the same semi-discrete system,
    # assembled independently with dense loops and Gauss element integrals
    g = build_grid(48, 8.0, 0.5)
    k = 2  # shifted index for field mode 3
    params = DynBCParams(k=k, variant="dirichlet", nu=1.0)
    r = g.nodes
    y0 = (r - 1.0) * np.exp(-((r - 2.5) ** 2))
    y0[0] = y0[-1] = 0.0
    n = g.n_points
    from numpy.polynomial.legendre import leggauss

    xg, wg = leggauss(8)
    Md = np.zeros((n, n))
    Kd = np.zeros((n, n))
    for j in range(n - 1):
        a, b = r[j], r[j + 1]
        h = b - a
        xs = 0.5 * (b - a) * xg + 0.5 * (a + b)
        ws = 0.5 * (b - a) * wg
        hat_j = (b - xs) / h
        hat_j1 = (xs - a) / h
        Md[j, j] += np.sum(ws * hat_j * xs)  # lumped below
        Md[j + 1, j + 1] += np.sum(ws * hat_j1 * xs)
        Md[j, j + 1] += 0.0
        ke = np.sum(ws * xs) / h**2
        Kd[j, j] += ke
        Kd[j + 1, j + 1] += ke
        Kd[j, j + 1] -= ke
        Kd[j + 1, j] -= ke
        for (i1, hat) in ((j, hat_j), (j + 1, hat_j1)):
            Kd[i1, i1] += 0.0
        # potential term k^2/r^2, lumped like the solver
    pot = k * k * g.quad_weights / r**2
    Kd += np.diag(pot)
    interior = slice(1, n - 1)
    A = np.linalg.solve(Md[interior, interior], Kd[interior, interior])
    T = 0.4
    y_exact = expm(-T * A) @ y0[interior]
    dt = 1e-4
    st = ScalarModeState(g, y0, 0.0, 0.0)
    st = dynbc.evolve(st, params, T, dt)
    err = np.max(np.abs(st.y[interior] - y_exact)) / max(np.max(np.abs(y_exact)), 1e-30)
    assert err < 1e-8


def test_change_of_dimension_map():
    # evolving y (angular parameter 1) then forming y/r matches an
    # independent radial five-dimensional... four-dimensional heat solver
    # v_t = nu (v'' + 3 v'/r) with ell' = alpha nu v'(1), to grid accuracy
    n = 4096
    g = build_grid(n, 40.0, 1.0)
    r = g.nodes
    alpha = 2.0
    params = DynBCParams(k=1, alpha_tilde=alpha, nu=1.0, variant="dynamic")
    y0 = r * np.exp(-2.0 * (r - 1.0) ** 2)
    st = ScalarModeState(g, y0, 1.0, 0.0)
    T, dt = 5.0, 0.005
    st = dynbc.evolve(st, params, T, dt)

    # second discretization: lumped P1 against the measure r^3 dr
    h = g.spacings
    w4 = np.zeros(n)
    # int over [a,b] of hat_a r^3 dr and hat_b r^3 dr, exact polynomials
    a, b = r[:-1], r[1:]
    int_rb = (b**5 - a**5) / 5.0
    int_r4 = (b**4 - a**4) / 4.0
    # hat_a = (b - r)/h: integral = (b * int_r3 - int_r4)/h with int_r3 = (b^4-a^4)/4
    w4[:-1] += (b * int_r4 - int_rb) / h
    w4[1:] += (int_rb - a * int_r4) / h
    face = (b**4 - a**4) / (4.0 * h)  # int of (1/h^2) r^3 over the element
    mvec = np.concatenate(([w4[0] + 1.0 / alpha], w4[1:-1]))
    diag = np.empty(n - 1)
    diag[0] = face[0] / h[0] * h[0] ** 0  # face coefficient already has 1/h
    diag[0] = face[0] / h[0]
    diag[1:] = face[:-1] / h[:-1] + face[1:] / h[1:]
    off = -face[:-1] / h[:-1]
    from scipy.linalg import cho_solve_banded, cholesky_banded

    v = y0 / r
    u = np.concatenate(([1.0], v[1:-1]))
    # first right-hand side keeps the true starting mass (trace mismatch)
    mass_fix = w4[0] * (v[0] - 1.0)
    nsteps = int(round(T / dt))

    def apply_k(x):
        out = diag * x
        out[:-1] += off * x[1:]
        out[1:] += off * x[:-1]
        return out

    for jstep in range(nsteps):
        if jstep == 0:
            for i in range(2):
                ab = np.zeros((2, n - 1))
                ab[0, 1:] = (dt / 2) * off
                ab[1] = mvec + (dt / 2) * diag
                rhs = mvec * u
                if i == 0:
                    rhs[0] += mass_fix
                u = cho_solve_banded((cholesky_banded(ab, lower=False), False), rhs)
        else:
            ab = np.zeros((2, n - 1))
            ab[0, 1:] = 0.5 * dt * off
            ab[1] = mvec + 0.5 * dt * diag
            rhs = mvec * u - 0.5 * dt * apply_k(u)
            u = cho_solve_banded((cholesky_banded(ab, lower=False), False), rhs)
    v_final = np.zeros(n)
    v_final[0] = u[0]
    v_final[1:-1] = u[1:]
    assert abs(u[0] - st.ell) < 1e-4
    assert np.max(np.abs(v_final - st.y / r)) < 1e-4


def _random_row_params(rng, nu, theta, startup_steps):
    k = int(rng.integers(0, 5))
    if k < 2 and rng.integers(2):
        return DynBCParams(k, float(rng.uniform(0.2, 5.0)), nu, "dynamic", theta, startup_steps)
    return DynBCParams(max(k, 1), 1.0, nu, "dirichlet", theta, startup_steps)


def _zero_rows(rng, z, ell):
    """Zero the profiles of some rows of the stack (z, ell) in place, about
    half of them as -0.0.  Two in three get a zero trace too, which leaves
    them at +0.0 under a step; the others are kicks of the boundary value."""
    for i in np.flatnonzero(rng.random(len(z)) < 0.5):
        z[i] = zero = rng.choice([0.0, -0.0])
        if rng.random() < 2.0 / 3.0:
            ell[i] = zero


def _step_every_row(stepper, *args):
    """stepper.step(*args) with every row solved: the full-stack reference
    of the step that solves the live rows only."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stepper, "_live_rows", lambda z, ell, sources: slice(None))
        return stepper.step(*args)


def test_packed_stepper_matches_dense_rows():
    # random theta, startup substeps, operators, zero rows and sources: every
    # row of one packed solve, and the one-row dynbc.step, against a dense
    # solve per row; and at theta = 0.5, 0.75, 1 and the random one, with and
    # without the sources and a first step, the whole stack bit for bit
    # against a solve of every row
    rng = np.random.default_rng(2025)
    for _ in range(24):
        g = build_grid(int(rng.integers(16, 120)), float(rng.uniform(2.5, 40.0)),
                       float(rng.uniform(0.0, 2.5)))
        nu, dt = float(rng.uniform(0.2, 3.0)), float(rng.uniform(1e-3, 0.5))
        theta, startup = float(rng.uniform(0.0, 1.0)), int(rng.integers(0, 4))
        first_step = bool(rng.integers(2))
        ops = [_random_row_params(rng, nu, theta, startup) for _ in range(int(rng.integers(1, 7)))]
        z = rng.standard_normal((len(ops), g.n_points))
        z[:, -1] = 0.0
        ell = rng.standard_normal(len(ops))
        _zero_rows(rng, z, ell)
        sources = None
        if rng.integers(2):  # with one row too few or too many
            rows = len(ops) + int(rng.integers(-1, 2))
            sources = (rng.standard_normal((rows, g.n_points)), rng.standard_normal(rows))
        stepper = dynbc.packed_stepper(g, ops)
        for args in itertools.product((0.5, 0.75, 1.0, theta), (startup,), (None, sources),
                                      (False, True)):
            got = stepper.step(z, ell, dt, *args)
            assert got.tobytes() == _step_every_row(stepper, z, ell, dt, *args).tobytes()
        new = stepper.step(z, ell, dt, theta, startup, sources, first_step)
        assert new.shape == z.shape and not new.flags.writeable
        for i, p in enumerate(ops):
            before = ScalarModeState(g, z[i], ell[i], 0.0)
            src = None
            if sources is not None and i < len(sources[1]):
                src = (sources[0][i], sources[1][i])
            y, e = dense_channel_step(before, p, dt, source=src, first_step=first_step)
            scale = max(np.max(np.abs(y)), abs(e), 1e-300)
            assert np.max(np.abs(new[i] - y)) <= 1e-12 * scale
            assert abs(new[i, 0] - e) <= 1e-12 * scale
            one = dynbc.step(before, p, dt, source=src, first_step=first_step)
            assert np.max(np.abs(one.y - y)) <= 1e-12 * scale
            assert one.ell == one.y[0] and one.t == dt


def _k4_rows(nu=1.0, theta=0.5, startup_steps=2, alpha_w=2.0, alpha0=4.0 / 3.0):
    """The operators of a k_max = 4 Stokes stack: w, the z1 pair and three
    Dirichlet pairs, five distinct of nine."""
    rows = [DynBCParams(1, alpha_w, nu, "dynamic", theta, startup_steps)]
    rows += [DynBCParams(0, alpha0, nu, "dynamic", theta, startup_steps)] * 2
    for k in range(1, 4):
        rows += [DynBCParams(k, 1.0, nu, "dirichlet", theta, startup_steps)] * 2
    return rows


@pytest.mark.parametrize("theta, startup_steps, factorizations",
                         [(0.5, 2, 1), (0.6, 2, 2), (0.5, 3, 2)])
def test_one_factorization_per_march(monkeypatch, theta, startup_steps, factorizations):
    # the factor is keyed on theta nu dt, so the substeps theta = 1, dt/2 of a
    # two-substep start reuse the Crank-Nicolson factor, and each distinct
    # operator of the stack is factored once; so too when the only live row
    # is z_psi_3's (higher-modes-only data), whose factor is gathered
    shapes = []
    inner = dynbc.cholesky_banded

    def counted(diag, off):
        shapes.append((diag.shape, off.shape))
        return inner(diag, off)

    monkeypatch.setattr(dynbc, "cholesky_banded", counted)
    g = build_grid(64, 10.0, 1.0)
    ops = _k4_rows(0.7, theta, startup_steps)
    every = np.random.default_rng(4).standard_normal((len(ops), g.n_points))
    every[:, -1] = 0.0
    one = np.zeros_like(every)
    one[5] = every[5]
    size = 5 * (g.n_points - 1)  # the five distinct blocks, stacked
    for z in (every, one):
        shapes.clear()
        stepper = dynbc.PackedStepper(g, ops)  # a fresh factor cache
        ell = z[:, 0]
        for j in range(4):
            z = stepper.step(z, ell, 0.1, theta, startup_steps, first_step=j == 0)
            ell = z[:, 0]
        assert len(shapes) == factorizations
        assert set(shapes) == {((size,), (size - 1,))}


def _row_bands(stepper):
    """Mass, stiffness diagonal and stiffness off-diagonal of every row of a
    stepper's stack, (rows, n - 1) each: its distinct blocks gathered by
    stepper.block (a row's last off-diagonal entry couples to nothing)."""
    size = stepper._blocks[0].size
    return [np.pad(band, (0, size - band.size)).reshape(-1, stepper.w.size - 1)[stepper.block]
            for band in stepper._blocks]


def test_gathered_factor_is_the_stacked_factor(monkeypatch):
    # operator lists with repeats: each row's bands, gathered from the
    # distinct blocks, are the one-row steppers' bands, and the factor each
    # solve receives equals the L D L^T factor (dpttrf) of the whole stacked
    # matrix assembled from them
    factors = []
    inner = dynbc.cho_solve_banded

    def recorded(fac, rhs):
        factors.append(fac)
        return inner(fac, rhs)

    monkeypatch.setattr(dynbc, "cho_solve_banded", recorded)
    rng = np.random.default_rng(19)
    for _ in range(30):
        g = build_grid(int(rng.integers(16, 200)), float(rng.uniform(2.5, 60.0)),
                       float(rng.uniform(0.0, 2.5)))
        nu, dt = float(rng.uniform(0.2, 3.0)), float(rng.uniform(1e-3, 0.5))
        theta = float(rng.uniform(0.05, 1.0))
        pool = [_random_row_params(rng, nu, theta, 0) for _ in range(int(rng.integers(1, 4)))]
        ops = [pool[i] for i in rng.integers(0, len(pool), int(rng.integers(1, 10)))]
        stepper = dynbc.PackedStepper(g, ops)
        z = rng.standard_normal((len(ops), g.n_points))
        stepper.step(z, z[:, 0], dt, theta, 0)
        singles = [dynbc.PackedStepper(g, [p]) for p in ops]
        bands = [np.concatenate(rows) for rows in zip(*map(_row_bands, singles))]
        for got, want in zip(_row_bands(stepper), bands):
            assert np.array_equal(got, want)
        mvec, k_diag, k_off = (band.ravel() for band in bands)
        assert np.array_equal(stepper.mvec, mvec)
        a = theta * nu * dt
        d, e, info = dpttrf(mvec + a * k_diag, a * k_off[:-1])
        assert info == 0
        got_d, got_e = factors.pop()
        assert np.array_equal(got_d, d) and np.array_equal(got_e, e)


def test_theta_step_solves_the_scheme_equation():
    # (M + theta c K) u1 = (M - (1 - theta) c K) u + dt f + fix, c = nu dt,
    # with M and K assembled from the stepper's blocks, holds to roundoff of
    # the terms over random grids, row mixes, dt, sources and first steps
    # with a trace mismatch (one start-up substep is the theta = 1 equation)
    hyp = pytest.importorskip("hypothesis")
    hst = hyp.strategies

    @hyp.settings(max_examples=60, deadline=None, database=None)
    @hyp.given(
        n_points=hst.integers(16, 2048),
        r_max=hst.floats(2.5, 300.0),
        stretch=hst.one_of(hst.just(0.0), hst.floats(0.1, 3.0)),
        kinds=hst.lists(hst.integers(0, 5), min_size=1, max_size=7),
        nu=hst.floats(0.2, 2.0),
        dt=hst.floats(1e-3, 1.0),
        theta=hst.sampled_from([0.5, 0.75, 1.0]),
        startup_steps=hst.integers(0, 1),
        first_step=hst.booleans(),
        forced=hst.booleans(),
        seed=hst.integers(0, 2**32 - 1),
    )
    def check(n_points, r_max, stretch, kinds, nu, dt, theta, startup_steps, first_step,
              forced, seed):
        g = build_grid(n_points, r_max, stretch)
        rng = np.random.default_rng(seed)
        # kind 0, 1: dynamic k = 0, 1; kind 2 .. 5: Dirichlet k = kind - 1
        ops = [DynBCParams(kind, float(rng.uniform(0.2, 5.0)), nu, "dynamic", theta,
                           startup_steps) if kind < 2 else
               DynBCParams(kind - 1, 1.0, nu, "dirichlet", theta, startup_steps)
               for kind in kinds]
        dynamic = np.array([kind < 2 for kind in kinds])
        alpha = np.array([p.alpha_tilde for p in ops])
        z = rng.standard_normal((len(ops), g.n_points))
        z[:, -1] = 0.0
        ell = rng.standard_normal(len(ops))
        sources = None
        if forced:
            sources = (rng.standard_normal((len(ops), g.n_points)), rng.standard_normal(len(ops)))
        stepper = dynbc.packed_stepper(g, ops)
        new = stepper.step(z, ell, dt, theta, startup_steps, sources, first_step)
        if first_step and startup_steps and theta != 1.0:
            theta = 1.0  # the one implicit-Euler start-up substep
        w = g.quad_weights[:-1]
        u = z[:, :-1].copy()
        u[:, 0] = np.where(dynamic, ell, 0.0)
        u1 = new[:, :-1]
        mvec, diag, off = _row_bands(stepper)

        def tridiag(d, o, x):
            out = d * x
            out[:, :-1] += o[:, :-1] * x[:, 1:]
            out[:, 1:] += o[:, :-1] * x[:, :-1]
            return out

        a, b = theta * nu * dt, (1.0 - theta) * nu * dt
        terms = [mvec * u1, a * tridiag(diag, off, u1), -mvec * u, b * tridiag(diag, off, u)]
        # the scale of each term is its product with |M|, |K| and |u|
        scales = [np.abs(mvec) * (np.abs(u1) + np.abs(u)),
                  tridiag(np.abs(diag), np.abs(off), a * np.abs(u1) + b * np.abs(u))]
        if first_step:
            fix = np.zeros_like(u)
            fix[:, 0] = np.where(dynamic, w[0] * (z[:, 0] - ell), 0.0)
            terms.append(-fix)
        if forced:
            f = w * sources[0][:, :-1]
            f[:, 0] = np.where(dynamic, f[:, 0] + sources[1] / alpha, 0.0)
            terms.append(-dt * f)
        scale = np.max(sum(scales) + sum(np.abs(t) for t in terms[4:]))
        assert np.max(np.abs(sum(terms))) <= 1e-13 * scale

    check()


def test_indefinite_system_is_a_solver_failure():
    # positive diagonal, but |off| > sqrt(d_0 d_1): dpttrf meets a pivot <= 0
    with pytest.raises(SolverFailure, match="not positive definite"):
        dynbc.cholesky_banded(np.array([1.0, 1.0, 3.0]), np.array([2.0, 0.5]))
    with pytest.raises(SolverFailure):
        dynbc.cholesky_banded(np.array([1.0, -1.0]), np.array([0.0]))


def test_packed_step_matches_a_dense_solve_property():
    # one theta step of a random row mix is F^{-1} (M u / theta + dt f + fix)
    # - ((1 - theta) / theta) u with F = M + theta nu dt K assembled densely
    # from the stepper's bands and solved by numpy.linalg.solve (a first step
    # with start-up substeps: that many theta = 1 steps of dt / substeps, the
    # trace fix in the first).  Some profiles are zero (+0.0 or -0.0), most
    # with a zero trace, and the sources cover the leading rows only: the
    # whole stack equals the solve of every row bit for bit
    hyp = pytest.importorskip("hypothesis")
    hst = hyp.strategies

    @hyp.settings(max_examples=40, deadline=None, database=None)
    @hyp.given(
        n_points=hst.integers(16, 160),
        r_max=hst.floats(2.5, 100.0),
        stretch=hst.one_of(hst.just(0.0), hst.floats(0.1, 3.0)),
        kinds=hst.lists(hst.integers(0, 5), min_size=1, max_size=6),
        nu=hst.floats(0.2, 2.0),
        dt=hst.floats(1e-3, 1.0),
        theta=hst.one_of(hst.sampled_from([0.5, 0.75, 1.0]), hst.floats(0.05, 1.0)),
        startup_steps=hst.integers(0, 2),
        first_step=hst.booleans(),
        forced=hst.booleans(),
        seed=hst.integers(0, 2**32 - 1),
    )
    def check(n_points, r_max, stretch, kinds, nu, dt, theta, startup_steps, first_step,
              forced, seed):
        g = build_grid(n_points, r_max, stretch)
        rng = np.random.default_rng(seed)
        ops = [DynBCParams(kind, float(rng.uniform(0.2, 5.0)), nu, "dynamic", theta,
                           startup_steps) if kind < 2 else
               DynBCParams(kind - 1, 1.0, nu, "dirichlet", theta, startup_steps)
               for kind in kinds]
        dynamic = np.array([kind < 2 for kind in kinds])
        alpha = np.array([p.alpha_tilde for p in ops])
        z = rng.standard_normal((len(ops), g.n_points))
        z[:, -1] = 0.0
        ell = rng.standard_normal(len(ops))
        _zero_rows(rng, z, ell)
        sources = None
        if forced:
            rows = int(rng.integers(0, len(ops) + 2))
            sources = (rng.standard_normal((rows, g.n_points)), rng.standard_normal(rows))
        stepper = dynbc.PackedStepper(g, ops)
        new = stepper.step(z, ell, dt, theta, startup_steps, sources, first_step)
        whole = _step_every_row(stepper, z, ell, dt, theta, startup_steps, sources, first_step)
        assert new.tobytes() == whole.tobytes()
        w = g.quad_weights[:-1]
        u = z[:, :-1].copy()
        u[:, 0] = np.where(dynamic, ell, 0.0)
        mvec, k_diag, k_off = _row_bands(stepper)
        fix = np.zeros_like(u)
        if first_step:
            fix[:, 0] = np.where(dynamic, w[0] * (z[:, 0] - ell), 0.0)
        f = np.zeros_like(u)
        if forced:
            m = min(len(sources[1]), len(ops))
            f[:m] = w * sources[0][:m, :-1]
            f[:m, 0] = np.where(dynamic[:m], f[:m, 0] + sources[1][:m] / alpha[:m], 0.0)
        substeps = [(theta, dt)]
        if first_step and startup_steps and theta != 1.0:
            substeps = [(1.0, dt / startup_steps)] * startup_steps
        scale = 0.0
        for j, (th, h) in enumerate(substeps):
            a = th * nu * h
            coupling = a * k_off.ravel()[:-1]
            dense = (np.diag((mvec + a * k_diag).ravel()) + np.diag(coupling, 1)
                     + np.diag(coupling, -1))
            rhs = mvec * u / th + h * f + (fix if j == 0 else 0.0)
            x = np.linalg.solve(dense, rhs.ravel()).reshape(u.shape)
            u = x - ((1.0 - th) / th) * u
            scale = max(scale, np.max(np.abs(x)))
        assert np.max(np.abs(new[:, :-1] - u)) <= 1e-12 * scale
        assert np.all(new[:, -1] == 0.0)

    check()


def test_k0_mass_invariance_property():
    # the k = 0 mass of dynbc.step and of the z1 rows of a packed k_max = 4
    # stack holds to roundoff over random grids, dt, startup schemes and
    # data with a trace mismatch, once the flux out through y(r_max) = 0 is
    # counted: the k = 0 stiffness rows sum to zero but for the last, so a
    # (sub)step th, h moves the mass by -2 pi nu h s (th u1 + (1 - th) u0) at
    # node n - 2, s = r_{n-3/2} / h_{n-2}.  On a coarse grid that flux is
    # above roundoff, so the start-up substeps are replayed one at a time to
    # read it, and must give the whole step bit for bit
    hyp = pytest.importorskip("hypothesis")
    hst = hyp.strategies

    @hyp.settings(max_examples=40, deadline=None, database=None)
    @hyp.given(
        n_points=hst.integers(16, 2048),
        r_max=hst.floats(40.0, 300.0),
        stretch=hst.one_of(hst.just(0.0), hst.floats(0.1, 3.0)),
        nu=hst.floats(0.2, 2.0),
        dt=hst.floats(1e-3, 0.5),
        alpha0=hst.floats(0.2, 5.0),
        theta=hst.sampled_from([0.5, 1.0, 0.75]),
        startup_steps=hst.integers(0, 3),
        seed=hst.integers(0, 2**32 - 1),
    )
    def check(n_points, r_max, stretch, nu, dt, alpha0, theta, startup_steps, seed):
        g = build_grid(n_points, r_max, stretch)
        rng = np.random.default_rng(seed)
        bump = np.exp(-((g.nodes - 1.0) ** 2))
        z = rng.standard_normal((9, g.n_points)) * bump
        z[:, -1] = 0.0
        ell = rng.standard_normal(9)
        ops = _k4_rows(nu, theta, startup_steps, float(rng.uniform(0.2, 5.0)), alpha0)
        stepper = dynbc.packed_stepper(g, ops)
        params = ops[1]
        rows = [ScalarModeState(g, z[i], ell[i]) for i in (1, 2)]
        scalar = rows[0]
        flux = 2.0 * math.pi * nu * g.face_r[-1] / g.spacings[-1]
        leak = np.zeros(3)
        for j in range(3):
            whole = stepper.step(z, ell, dt, theta, startup_steps, first_step=j == 0)
            one = dynbc.step(scalar, params, dt, first_step=j == 0)
            subs = [(theta, dt)]
            if j == 0 and startup_steps and theta != 1.0:
                subs = [(1.0, dt / startup_steps)] * startup_steps
            for i, (th, h) in enumerate(subs):
                first = j == 0 and i == 0
                z1 = stepper.step(z, ell, h, th, 0, first_step=first)
                s1 = dynbc.step(scalar, replace(params, theta=th, startup_steps=0), h,
                                first_step=first)
                for col, (u0, u1) in enumerate([(z[1], z1[1]), (z[2], z1[2]), (scalar.y, s1.y)]):
                    leak[col] += flux * h * (th * u1[-2] + (1.0 - th) * u0[-2])
                z, ell, scalar = z1, z1[:, 0], s1
            assert np.array_equal(z, whole) and np.array_equal(scalar.y, one.y)
        for before, after, out in zip(rows + rows[:1], [z[1], z[2], scalar.y], leak):
            now = ScalarModeState(g, after, after[0])
            scale = dynbc.lyapunov_functional(before, params, 1.0)
            drift = dynbc.mass(now, params) - dynbc.mass(before, params) + out
            assert abs(drift) <= 1e-12 * scale

    check()


def test_recorder_format(tmp_path, grid):
    params = kick_params()
    rec = dynbc.TimeSeriesRecorder(params, (1.0, 2.0, math.inf), with_mass=True)
    s = ScalarModeState(grid, np.zeros(grid.n_points), 1.0, 0.0)
    dynbc.evolve(s, params, 1.0, 0.25, observer=rec)
    path = tmp_path / "series.txt"
    rec.write(path, "demo")
    lines = path.read_text().splitlines()
    assert lines[0] == "# demo"
    assert lines[1] == "t, ell, norm_p1, norm_p2, norm_pinf, mass"
    assert len(lines) == 2 + 5


def test_recorder_rows_and_columns(tmp_path, grid, monkeypatch):
    rec = dynbc.Recorder(("t", "ell", "label"), lambda st: [st.t, st.ell, f"at {st.t}"])
    params = kick_params()
    s = ScalarModeState(grid, np.zeros(grid.n_points), 1.0, 0.0)
    dynbc.evolve(s, params, 1.0, 0.5, observer=rec)
    assert len(rec.rows) == 3
    assert rec.column("t") == [row[0] for row in rec.rows] == [0.0, 0.5, 1.0]
    assert rec.column("ell") == [row[1] for row in rec.rows]
    assert rec.column("label") == ["at 0.0", "at 0.5", "at 1.0"]
    with pytest.raises(ValueError):
        rec.column("mass")
    written = []
    monkeypatch.setattr(dynbc, "write_columns", lambda *args: written.append(args))
    series = dynbc.TimeSeriesRecorder(params, (2.0,), with_mass=True)
    series(s)
    for r in (rec, series):
        r.write(tmp_path / "x.txt", "cfg")
    assert [w[1] for w in written] == [["t", "ell", "label"], ["t", "ell", "norm_p2", "mass"]]
    assert [w[2] for w in written] == [rec.rows, series.rows]
    assert series.column("mass") == [dynbc.mass(s, params)]


def test_write_columns_format(tmp_path):
    path = tmp_path / "cols.txt"
    rows = [("a b", 1.5, np.float64(-2.0)), ("7", math.nan, 0.1)]
    dynbc.write_columns(path, ["name", "x", "y"], rows, comment="first\nsecond")
    assert path.read_text().splitlines() == [
        "# first",
        "# second",
        "name, x, y",
        "a b, 1.50000000000000000e+00, -2.00000000000000000e+00",
        "7, nan, 1.00000000000000006e-01",
    ]
    dynbc.write_columns(path, ["t"], [[0.25]])
    assert path.read_text() == "t\n2.50000000000000000e-01\n"


# march reads nothing of a state but its time
Tick = namedtuple("Tick", "t")


def _recorded_march(march, t0, t_end, dt, observe_times):
    """(final state, event log) of a march over Ticks, logging every step
    call as ("step", t, first_step) and every observation as ("observe", t)."""
    events = []

    def step_fn(s, first_step):
        events.append(("step", s.t, first_step))
        return Tick(s.t + dt)

    def observer(s):
        events.append(("observe", s.t))

    final = march(Tick(t0), step_fn, t_end, dt, observer, observe_times)
    return final, events


def test_march_observes_each_state_once():
    # 0.3 and 0.4 both lie inside the step (0.25, 0.5]; 0.5 is listed twice
    final, events = _recorded_march(dynbc.march, 0.0, 1.0, 0.25, [0.4, 0.0, 0.3, 0.5, 0.5, 2.0])
    assert final == Tick(1.0)
    assert [e for e in events if e[0] == "observe"] == [("observe", 0.0), ("observe", 0.5)]
    assert [e for e in events if e[0] == "step"] == [
        ("step", 0.0, True), ("step", 0.25, False), ("step", 0.5, False), ("step", 0.75, False),
    ]
    # startup smoothing is for t = 0 data only
    _, events = _recorded_march(dynbc.march, 0.5, 1.0, 0.25, None)
    assert events == [("observe", 0.5), ("step", 0.5, False), ("observe", 0.75),
                      ("step", 0.75, False), ("observe", 1.0)]


def test_march_matches_naive_loop_property():
    hyp = pytest.importorskip("hypothesis")
    hst = hyp.strategies

    @hyp.settings(max_examples=300, deadline=None, database=None)
    @hyp.given(
        data=hst.data(),
        dt=hst.floats(1e-3, 4.0),
        k0=hst.integers(0, 6),
        n_steps=hst.integers(0, 12),
        every_step=hst.booleans(),
    )
    def check(data, dt, k0, n_steps, every_step):
        t0 = k0 * dt
        t_end = t0 + n_steps * dt
        times = None
        if not every_step:
            # step-grid times, times within a few 1e-9 dt of them, free times,
            # targets before t0 and after t_end
            j = hst.integers(-2, n_steps + 2)
            on_grid = hst.builds(lambda j: t0 + j * dt, j)
            near_grid = hst.builds(lambda j, e: t0 + (j + e) * dt, j, hst.floats(-3e-9, 3e-9))
            anywhere = hst.floats(t0 - 3.0 * dt, t_end + 3.0 * dt)
            times = data.draw(hst.lists(hst.one_of(on_grid, near_grid, anywhere), max_size=12))
            if times:
                times += data.draw(hst.lists(hst.sampled_from(times), max_size=4))
        assert _recorded_march(dynbc.march, t0, t_end, dt, times) == \
            _recorded_march(naive_march, t0, t_end, dt, times)

    @hyp.settings(max_examples=100, deadline=None, database=None)
    @hyp.given(
        dt=hst.floats(1e-3, 4.0),
        k0=hst.integers(0, 6),
        n_steps=hst.integers(0, 12),
        frac=hst.floats(0.01, 0.99),
    )
    def check_rejects(dt, k0, n_steps, frac):
        t0 = k0 * dt

        def step_fn(s, first_step):
            raise AssertionError("a rejected march must not step")

        with pytest.raises(InvalidArgument, match="current time"):
            dynbc.march(Tick(t0), step_fn, t0 - frac * dt, dt)
        with pytest.raises(InvalidArgument, match="integer number of steps"):
            dynbc.march(Tick(t0), step_fn, t0 + (n_steps + frac) * dt, dt)

    check()
    check_rejects()


def test_geometric_times():
    ts = dynbc.geometric_times(1.0, 100.0, 2.0 ** 0.25)
    assert ts[0] == 1.0
    assert ts[-1] <= 100.0 * (1 + 1e-12)
    assert np.allclose(np.diff(np.log(ts)), 0.25 * math.log(2.0))
    with pytest.raises(InvalidArgument):
        dynbc.geometric_times(0.0, 10.0, 2.0)


def test_invalid_steps(grid):
    params = kick_params()
    s = ScalarModeState(grid, np.zeros(grid.n_points), 1.0, 0.0)
    # a dt that is not finite and positive is rejected before any factor is
    # made and cached under it
    factors = dynbc.packed_stepper(grid, (params,))._factors
    cached = len(factors)
    for dt in (-0.1, math.inf, math.nan):
        with pytest.raises(InvalidArgument):
            dynbc.step(s, params, dt)
        assert len(factors) == cached
    with pytest.raises(InvalidArgument):
        dynbc.evolve(s, params, 1.0, 0.3)  # not an integer number of steps
    # a step that is not finite and positive marches nowhere (or divides by 0)
    for dt in (-0.02, 0.0, math.nan, math.inf):
        with pytest.raises(InvalidArgument):
            dynbc.evolve(s, params, 1.0, dt)


def test_nonfinite_source_rejected(grid):
    params = kick_params()
    s = ScalarModeState(grid, np.zeros(grid.n_points), 1.0, 0.0)
    fluid = np.zeros(grid.n_points)
    fluid[grid.n_points // 2] = np.nan
    with pytest.raises(SolverFailure):
        dynbc.step(s, params, 0.1, source=(fluid, 0.0))


def test_stepped_state_is_read_only_and_public_states_copy(grid):
    y = np.exp(-grid.nodes)
    s = ScalarModeState(grid, y, 1.0, 0.0)
    assert not np.shares_memory(s.y, y) and not s.y.flags.writeable
    new = dynbc.step(s, kick_params(), 0.1)
    assert not new.y.flags.writeable and new.ell == new.y[0]
    with pytest.raises(ValueError):
        new.y[0] = 0.0
    with pytest.raises(InvalidArgument):
        ScalarModeState(grid, np.full(grid.n_points, np.nan), 0.0, 0.0)


def test_params_validation():
    with pytest.raises(InvalidArgument):
        DynBCParams(k=2, alpha_tilde=1.0, variant="dynamic")
    with pytest.raises(InvalidArgument):
        DynBCParams(k=0, variant="dirichlet")
    with pytest.raises(InvalidArgument):
        DynBCParams(k=0, alpha_tilde=-1.0, variant="dynamic")
    with pytest.raises(InvalidArgument):
        DynBCParams(k=0, alpha_tilde=1.0, nu=0.0)
    with pytest.raises(InvalidArgument):
        DynBCParams(k=0, alpha_tilde=1.0, theta=1.5)
    # the theta step divides by theta; explicit Euler is unstable at every
    # preset dt anyway
    for theta in (0.0, -0.5, math.nan):
        with pytest.raises(InvalidArgument, match="theta"):
            DynBCParams(k=0, alpha_tilde=1.0, theta=theta)
    with pytest.raises(InvalidArgument):
        DynBCParams(k=0, alpha_tilde=1.0, variant="explicit")
    for startup_steps in (1.5, -1, "2", None):
        with pytest.raises(InvalidArgument, match="startup_steps"):
            DynBCParams(k=0, alpha_tilde=1.0, startup_steps=startup_steps)
    assert DynBCParams(k=0, startup_steps=np.int64(0)).startup_steps == 0


def test_nu_rescaling_equivalence(grid):
    # running at viscosity nu equals running at unit viscosity for time nu*t
    y0 = np.exp(-2.0 * (grid.nodes - 1.5) ** 2)
    p1 = DynBCParams(k=0, alpha_tilde=2.0, nu=1.0, variant="dynamic")
    p4 = DynBCParams(k=0, alpha_tilde=2.0, nu=4.0, variant="dynamic")
    s = ScalarModeState(grid, y0, 1.0, 0.0)
    a = dynbc.evolve(s, p4, 2.0, 0.01)
    b = dynbc.evolve(s, p1, 8.0, 0.04)
    assert np.max(np.abs(a.y - b.y)) < 1e-12
    assert abs(a.ell - b.ell) < 1e-13


def test_self_similar_l1_attraction(unit_kick_run):
    # the profile collapses onto M * (heat kernel) in the plane L1 norm;
    # the distance at t = 100 is well under half its t = 10 value
    t = unit_kick_run["t"]
    dist = unit_kick_run["l1_dist"]
    i10 = int(np.argmin(np.abs(t - 10.0)))
    assert dist[-1] <= 0.5 * dist[i10]
