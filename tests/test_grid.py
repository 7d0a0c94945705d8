"""Radial grid: construction, quadrature and norms."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from diskflow.errors import InvalidArgument
from diskflow.grid import PhysicalParams, build_grid, fd_weights, lp_norm_radial


def test_uniform_nodes_and_weight_sum():
    g = build_grid(1024, 100.0, 0.0)
    assert g.nodes[0] == 1.0
    assert g.nodes[-1] == 100.0
    assert np.all(np.diff(g.nodes) > 0)
    assert np.allclose(np.diff(g.nodes), np.diff(g.nodes)[0])
    assert np.all(g.quad_weights > 0)
    # exactness on f == 1: sum w = (r_max^2 - 1)/2
    assert abs(g.quad_weights.sum() - 4999.5) < 1e-12 * 4999.5


def test_three_point_conceptual_weights():
    # uniform three-node layout {1, 2, 3}: weights sum to (9 - 1)/2 = 4
    g = build_grid(16, 3.0, 0.0)
    assert abs(g.quad_weights.sum() - 4.0) < 1e-12 * 4.0


def test_grading_concentrates_at_disk():
    g = build_grid(1024, 100.0, 2.0)
    h = np.diff(g.nodes)
    assert h[0] <= h[-1]
    assert g.nodes[0] == 1.0 and g.nodes[-1] == 100.0
    assert abs(g.quad_weights.sum() - 4999.5) < 1e-12 * 4999.5


def test_piecewise_linear_exactness():
    g = build_grid(64, 10.0, 1.0)
    # any piecewise-linear f: quadrature equals the exact integral of f * r
    rng = np.random.default_rng(3)
    f = rng.standard_normal(g.n_points)
    exact = 0.0
    r = g.nodes
    for j in range(g.n_points - 1):
        a, b = r[j], r[j + 1]
        fa, fb = f[j], f[j + 1]
        # integral of the linear interpolant against r dr, in closed form
        exact += (b - a) * (fa * (b + 2 * a) + fb * (2 * b + a)) / 6.0
    assert abs(np.sum(g.quad_weights * f) - exact) < 1e-12 * max(1.0, abs(exact))


def test_graded_quadrature_against_reference():
    # mind the r-weight convention: sum w_i r_i^-4 approximates
    # int_1^100 r^-3 dr = 0.49995 and sum w_i r_i^-3 approximates
    # int_1^100 r^-2 dr = 0.99.  Composite trapezoid at n = 1024, stretch 2
    # carries 8e-4 relative error (refinement-checked below); assert at 1e-3
    # relative plus second-order convergence toward the adaptive oracle.
    exact4 = quad(lambda r: r**-3.0, 1.0, 100.0)[0]
    exact3 = quad(lambda r: r**-2.0, 1.0, 100.0)[0]
    assert abs(exact4 - 0.49995) < 1e-12
    assert abs(exact3 - 0.99) < 1e-12
    errs = []
    for n in (1024, 2048, 4096):
        g = build_grid(n, 100.0, 2.0)
        q4 = float(np.sum(g.quad_weights * g.nodes**-4.0))
        q3 = float(np.sum(g.quad_weights * g.nodes**-3.0))
        if n == 1024:
            assert abs(q4 - 0.49995) < 1e-3 * 0.49995
            assert abs(q3 - 0.99) < 1e-3 * 0.99
        errs.append(abs(q4 - exact4))
    assert errs[0] / errs[1] > 3.5
    assert errs[1] / errs[2] > 3.5


@pytest.mark.parametrize("stretch", [0.0, 1.5])
def test_ddr_t_is_the_transpose_of_ddr(stretch):
    g = build_grid(40, 10.0, stretch)
    D = g.ddr(np.eye(g.n_points))  # column j is ddr of the j-th unit vector
    rng = np.random.default_rng(7)
    f = rng.standard_normal((3, g.n_points))
    assert np.allclose(g.ddr_t(f), f @ D, rtol=0, atol=1e-12 * np.abs(D).max())
    assert np.array_equal(g.ddr_t(f)[1], g.ddr_t(f[1]))


@pytest.mark.parametrize("stretch", [0.0, 1.5])
def test_ddr_gram_is_the_weighted_normal_matrix(stretch):
    g = build_grid(40, 10.0, stretch)
    D = g.ddr(np.eye(g.n_points))
    gram = D.T @ (g.quad_weights[:, None] * D)
    ab = g.ddr_gram()
    assert ab.shape == (3, g.n_points) and not ab.flags.writeable
    assert ab is g.ddr_gram()
    tol = 1e-12 * np.abs(gram).max()
    for d in range(3):
        assert np.allclose(ab[2 - d, d:], np.diagonal(gram, d), rtol=0, atol=tol)
    assert np.all(ab[0, :2] == 0.0) and ab[1, 0] == 0.0
    assert np.allclose(np.triu(gram, 3), 0.0, rtol=0, atol=tol)


def test_boundary_derivative_is_exact_on_quadratics():
    g = build_grid(64, 10.0, 1.5)
    r = g.nodes
    assert abs(g.boundary_derivative(3.0 * r * r - 2.0 * r + 5.0) - 4.0) < 1e-9


def test_build_grid_argument_errors():
    with pytest.raises(InvalidArgument):
        build_grid(8, 100.0)
    with pytest.raises(InvalidArgument):
        build_grid(64, 1.5)
    with pytest.raises(InvalidArgument):
        build_grid(64, 10.0, -1.0)


def test_lp_norm_zero_and_inf():
    g = build_grid(128, 50.0, 1.0)
    zeros = np.zeros(g.n_points)
    for p in (1.0, 2.0, 7.0, math.inf):
        assert lp_norm_radial(g, zeros, p) == 0.0
    vals = 1.0 / g.nodes
    assert lp_norm_radial(g, vals, math.inf) == 1.0


def test_lp_norm_closed_form():
    # ||1/r^2||_{L^2(r dr)} on [1, 100] = ((1 - 100^-2)/2)^(1/2)
    g = build_grid(2048, 100.0, 2.0)
    val = lp_norm_radial(g, g.nodes**-2.0, 2.0)
    exact = math.sqrt((1.0 - 100.0**-2) / 2.0)
    assert abs(val - exact) < 2e-4 * exact
    assert abs(exact - 0.70707) < 5e-5


def test_lp_norm_argument_errors():
    g = build_grid(64, 10.0)
    with pytest.raises(InvalidArgument):
        lp_norm_radial(g, np.zeros(10), 2.0)
    with pytest.raises(InvalidArgument):
        lp_norm_radial(g, np.zeros(g.n_points), 0.5)


def test_norm_monotone_under_truncation_extension():
    # enlarging r_max with the analytic tail never decreases the norm
    prof = lambda r: r**-2.0  # noqa: E731
    g1 = build_grid(512, 20.0, 1.0)
    g2 = build_grid(1024, 60.0, 1.0)
    n1 = lp_norm_radial(g1, prof(g1.nodes), 2.0)
    n2 = lp_norm_radial(g2, prof(g2.nodes), 2.0)
    assert n2 >= n1 - 1e-12


def test_p_interpolation_sanity():
    # ||f||_4 <= ||f||_2^(1/3) ||f||_8^(2/3), exact discrete Hoelder
    g = build_grid(512, 30.0, 1.5)
    rng = np.random.default_rng(11)
    for _ in range(5):
        f = rng.standard_normal(g.n_points) * np.exp(-0.3 * (g.nodes - 1))
        n2 = lp_norm_radial(g, f, 2.0)
        n4 = lp_norm_radial(g, f, 4.0)
        n8 = lp_norm_radial(g, f, 8.0)
        assert n4 <= (n2 ** (1.0 / 3.0)) * (n8 ** (2.0 / 3.0)) * (1 + 1e-10)


def test_fd_weights_exact_on_polynomials():
    x = np.array([1.0, 1.1, 1.25, 1.5])
    w1 = fd_weights(x, 1.0, 1)
    w2 = fd_weights(x, 1.0, 2)
    for c in range(4):
        poly = x**c
        d1 = c * 1.0 ** (c - 1) if c >= 1 else 0.0
        d2 = c * (c - 1) * 1.0 ** (c - 2) if c >= 2 else 0.0
        assert abs(w1 @ poly - d1) < 1e-10
        assert abs(w2 @ poly - d2) < 1e-9


def test_ddr_second_order_convergence():
    errs = []
    for n in (256, 512, 1024):
        g = build_grid(n, 10.0, 1.0)
        f = np.exp(-((g.nodes - 2.0) ** 2))
        exact = -2.0 * (g.nodes - 2.0) * f
        errs.append(np.max(np.abs(g.ddr(f) - exact)))
    assert errs[0] / errs[1] > 3.0
    assert errs[1] / errs[2] > 3.0


def test_physical_params():
    p = PhysicalParams(nu=2.0, m=math.pi)
    assert p.inertia == math.pi / 2.0
    assert abs(p.alpha0 - 4.0 * math.pi / (math.pi + p.m)) < 1e-15
    assert abs(p.alpha_w - 2.0 * math.pi / p.inertia) < 1e-15
    with pytest.raises(InvalidArgument):
        PhysicalParams(nu=-1.0, m=1.0)
    with pytest.raises(InvalidArgument):
        PhysicalParams(nu=1.0, m=0.0)
