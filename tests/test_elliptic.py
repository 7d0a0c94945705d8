"""First-order transforms, their inversion, and the elliptic report checks."""

import math

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid

from diskflow.elliptic import check_drz_bound, check_w_elliptic, invert_z, z_transform
from diskflow.errors import InvalidArgument
from diskflow.grid import build_grid


@pytest.fixture(scope="module")
def grid():
    return build_grid(2048, 20.0, 2.0)


def test_harmonic_profile_annihilated(grid):
    # psi = 1/r: d(psi)/dr + psi/r = 0 in the fluid
    r = grid.nodes
    z = z_transform(grid, [1.0 / r], (1,))[0]
    assert np.max(np.abs(z)) < 1e-10


def test_transform_closed_form(grid):
    # psi = r exp(-r^2): z = 2 exp(-r^2) (1 - r^2), second-order accurate
    r = grid.nodes
    psi = r * np.exp(-(r**2))
    z = z_transform(grid, [psi], (1,))[0]
    exact = 2.0 * np.exp(-(r**2)) * (1.0 - r**2)
    assert np.max(np.abs(z - exact)) < 5e-6


def test_sign_flip_convention(grid):
    # the phi channels' orientation z = -(phi' + k phi/r) is one negation:
    # transforming -phi gives exactly -z, smoothest representative included
    r = grid.nodes
    prof = np.exp(-((r - 2.0) ** 2)) + 0.2 / r
    orders = (1, 2)
    plain = z_transform(grid, [prof, prof * (r - 1.0) ** 2], orders)
    flipped = z_transform(grid, -np.stack([prof, prof * (r - 1.0) ** 2]), orders)
    assert np.array_equal(flipped, -plain)


def test_invert_homogeneous(grid):
    # z == 0 with psi(1) = 1 inverts to the harmonic tail 1/r
    psi = invert_z(grid, [np.zeros(grid.n_points)], (1,), [1.0])[0]
    assert np.max(np.abs(psi - 1.0 / grid.nodes)) < 1e-14
    assert psi[0] == 1.0


def test_invert_matches_quadrature_oracle(grid):
    # independent oracle: scipy cumulative trapezoid of s z(s), same grid
    r = grid.nodes
    profs = [r**-3.0, np.exp(-((r - 2.0) ** 2)), (r - 1.0) * np.exp(-r)]
    ells = [0.0, 0.5, -0.3]
    psi = invert_z(grid, profs, (1, 1, 1), ells)
    for row, prof, ell in zip(psi, profs, ells):
        oracle = ell / r + cumulative_trapezoid(r * prof, r, initial=0.0) / r
        scale = np.max(np.abs(oracle)) + 1e-30
        assert np.max(np.abs(row - oracle)) < 1e-12 * scale


def test_invert_closed_form(grid):
    # z = r^-3, psi(1) = 0: psi = (1 - 1/r)/r via int_1^r s^-2 ds = 1 - 1/r
    r = grid.nodes
    psi = invert_z(grid, [r**-3.0], (1,))[0]
    exact = (1.0 - 1.0 / r) / r
    assert np.max(np.abs(psi - exact)) < 5e-6


def test_roundtrip_both_ways(grid):
    rng = np.random.default_rng(5)
    r = grid.nodes
    for _ in range(5):
        a, b = rng.standard_normal(2)
        psi = a * np.exp(-0.5 * (r - 2.0) ** 2) + b / r
        back = invert_z(grid, z_transform(grid, [psi], (1,)), (1,), [psi[0]])[0]
        assert np.max(np.abs(back - psi)) < 1e-10
        assert back[0] == psi[0]
        zvals = a * np.exp(-((r - 1.5) ** 2)) * (r - 1.0)
        z2 = z_transform(grid, invert_z(grid, [zvals], (1,), [b]), (1,))[0]
        scale = np.max(np.abs(zvals)) + abs(b) + 1e-30
        assert np.max(np.abs(z2 - zvals)) < 1e-8 * scale


def test_inversion_deterministic(grid):
    z = [np.exp(-grid.nodes)]
    assert np.array_equal(invert_z(grid, z, (1,), [0.2]), invert_z(grid, z, (1,), [0.2]))


def test_defining_ode_residual_second_order():
    # residual of the difference-stencil relation converges at order 2
    errs = []
    for n in (256, 512, 1024):
        g = build_grid(n, 12.0, 1.0)
        r = g.nodes
        z = np.exp(-((r - 2.0) ** 2))
        psi = invert_z(g, [z], (1,), [0.4])[0]
        resid = g.ddr(psi) + psi / r - z
        errs.append(np.max(np.abs(resid[1:-1])))
    assert errs[0] / errs[1] > 3.0
    assert errs[1] / errs[2] > 3.0


def test_order_k_transform_pair(grid):
    r = grid.nodes
    psi3 = (r - 1.0) ** 2 * np.exp(-((r - 1.5) ** 2))
    z3 = z_transform(grid, [psi3], (3,))[0]
    assert z3[0] == 0.0
    back = invert_z(grid, [z3], (3,))[0]
    assert np.max(np.abs(back - psi3)) < 1e-12
    # other direction on a smooth Dirichlet-compatible z
    zvals = (r - 1.0) * np.exp(-((r - 2.0) ** 2))
    z2 = z_transform(grid, invert_z(grid, [zvals], (3,)), (3,))[0]
    assert np.max(np.abs(z2 - zvals)) < 1e-8


def test_stack_shape_and_orders_checked(grid):
    rows = np.zeros((2, grid.n_points))
    for fn in (z_transform, invert_z):
        with pytest.raises(InvalidArgument):
            fn(grid, rows, (1,))
        with pytest.raises(InvalidArgument):
            fn(grid, rows, (0, 1))
        with pytest.raises(InvalidArgument):
            fn(grid, rows[:, :-1], (1, 2))


def test_exact_z_round_trip_property():
    # over random grids and orders 1..5: pinning z(1) makes the transform the
    # exact inverse of the inversion, and a stacked call is its rows' calls
    hyp = pytest.importorskip("hypothesis")
    hst = hyp.strategies

    @hyp.settings(max_examples=60, deadline=None, database=None)
    @hyp.given(
        n_points=hst.integers(16, 4096),
        r_max=hst.floats(2.5, 300.0),
        stretch=hst.one_of(hst.just(0.0), hst.floats(0.1, 3.0)),
        orders=hst.lists(hst.integers(1, 5), min_size=1, max_size=6),
        seed=hst.integers(0, 2**32 - 1),
    )
    def check(n_points, r_max, stretch, orders, seed):
        rng = np.random.default_rng(seed)
        grid = build_grid(n_points, r_max, stretch)
        r = grid.nodes
        rows = len(orders)
        a, c, w, b = (rng.uniform(lo, hi, (rows, 1)) for lo, hi in
                      ((-2, 2), (1, min(r_max, 6.0)), (0.3, 3), (-1, 1)))
        z = a * np.exp(-((r - c) ** 2) / w) + b * r**-2.0
        ell = rng.standard_normal(rows)
        psi = invert_z(grid, z, orders, ell)
        z2 = z_transform(grid, psi, orders, z1=z[:, 0])
        zscale = np.max(np.abs(z), axis=1)
        assert np.all(np.max(np.abs(z2 - z), axis=1) <= 1e-9 * zscale)
        psi2 = invert_z(grid, z2, orders, ell)
        pscale = np.max(np.abs(psi), axis=1)
        assert np.all(np.max(np.abs(psi2 - psi), axis=1) <= 1e-12 * pscale)
        by_row = [
            (invert_z(grid, z[i:i + 1], (k,), ell[i:i + 1]),
             z_transform(grid, psi[i:i + 1], (k,)),
             z_transform(grid, psi[i:i + 1], (k,), z1=z[i:i + 1, 0]))
            for i, k in enumerate(orders)
        ]
        for got, rows_got in zip((psi, z_transform(grid, psi, orders), z2), zip(*by_row)):
            assert np.array_equal(got, np.concatenate(rows_got))

    check()


def test_drz_report(grid):
    r = grid.nodes
    rep0 = check_drz_bound(np.zeros(grid.n_points), grid, 1.5)
    assert rep0.lhs == 0.0 and not rep0.violation
    rep = check_drz_bound(1.0 / r, grid, 1.5)
    assert math.isfinite(rep.ratio) and rep.ratio > 0
    rep3 = check_drz_bound(1.0 / r, grid, 3.0)
    assert rep3.norms["z_at_1"] == 1.0
    with pytest.raises(InvalidArgument):
        check_drz_bound(1.0 / r, grid, 2.0)
    # constant (not decaying) profile: finite on the truncated grid but not
    # controlled (its derivative vanishes), so the left side grows with
    # r_max while the right side stays at roundoff; r_max is recorded
    small = build_grid(256, 10.0, 0.0)
    big = build_grid(256, 100.0, 0.0)
    r_s = check_drz_bound(np.ones(small.n_points), small, 1.5)
    r_b = check_drz_bound(np.ones(big.n_points), big, 1.5)
    assert r_b.lhs > r_s.lhs
    assert r_b.rhs < 1e-10
    assert r_b.r_max == 100.0


def test_w_elliptic_report(grid):
    r = grid.nodes
    # w = 1/r: f = 0 analytically, a = -2, b = 1
    rep = check_w_elliptic(1.0 / r, grid, 1.5)
    assert rep.norms["f"] < 5e-4
    assert abs(rep.norms["a"] - 2.0) < 1e-4
    assert rep.norms["b"] == 1.0
    zero = check_w_elliptic(np.zeros(grid.n_points), grid, 3.0)
    assert zero.lhs == 0.0 and zero.rhs == 0.0 and not zero.violation
    # ratios stable under refinement within 5%
    vals = []
    for n in (1024, 2048):
        g = build_grid(n, 20.0, 2.0)
        w = g.nodes * np.exp(1.0 - g.nodes)
        vals.append(check_w_elliptic(w, g, 1.5).ratio)
    assert abs(vals[0] - vals[1]) < 0.05 * abs(vals[1])
