"""Decay fitting, expected-rate tables, profile metric."""

import math

import numpy as np
import pytest

from conftest import random_decomposition

from diskflow.analysis import (
    DecayFit,
    expected_exponent,
    fit_decay,
    profile_error,
)
from diskflow.errors import (
    GridMismatch,
    InsufficientSamples,
    InvalidArgument,
    NonpositiveValues,
    OutOfRange,
)
from diskflow.fields import decomp_axpy, fluid_lp_norm
from diskflow.grid import build_grid
from diskflow.stokes import init_stokes
from diskflow.grid import PhysicalParams


def test_fit_exact_power_law():
    t = np.geomspace(1.0, 1000.0, 40)
    fit = fit_decay(t, t**-0.5, (1.0, 1000.0))
    assert abs(fit.exponent + 0.5) < 1e-12
    assert fit.residual < 1e-12
    assert fit.window == (1.0, 1000.0)


def test_fit_power_log_law():
    t = np.geomspace(2.0, 500.0, 50)
    vals = t**-1.0 * np.log(t)
    fit = fit_decay(t, vals, (2.0, 500.0), log_correction=True)
    assert abs(fit.exponent + 1.0) < 1e-10
    assert fit.log_correction


def test_fit_errors():
    t = np.geomspace(10.0, 100.0, 20)
    with pytest.raises(InsufficientSamples):
        fit_decay(t, t**-1.0, (90.0, 100.0))
    with pytest.raises(NonpositiveValues):
        fit_decay(t, np.zeros_like(t), (10.0, 100.0))
    with pytest.raises(InvalidArgument):
        DecayFit(-1.0, False, 0.0, (0.5, 10.0))


def test_expected_exponent_table():
    assert float(expected_exponent("semigroup", math.inf, 1.0 + 1e-12)) == pytest.approx(-1.0)
    assert float(expected_exponent("semigroup", 4.0, 2.0)) == pytest.approx(-0.25)
    r = expected_exponent("ns_diff", 2.0, 1.5)
    assert r.exponent == pytest.approx(-1.0 / 3.0) and not r.log_correction
    r43 = expected_exponent("ns_diff", 2.0, 4.0 / 3.0)
    assert r43.exponent == pytest.approx(-0.5) and r43.log_correction
    r_small_q = expected_exponent("ns_diff", 4.0, 1.1)
    assert r_small_q.exponent == pytest.approx(-0.75)
    assert float(expected_exponent("gradient", 3.0, 1.5, "long")) == pytest.approx(-2.0 / 3.0)
    assert float(expected_exponent("gradient", 1.5, 1.2, "short")) == pytest.approx(
        -0.5 + 1 / 1.5 - 1 / 1.2
    )
    assert float(expected_exponent("div_forcing", 4.0, 1.5, "long")) == pytest.approx(-0.75)
    assert float(expected_exponent("div_forcing", 4.0, 2.5)) == pytest.approx(
        -0.5 + 0.25 - 0.4
    )
    assert float(expected_exponent("ell_decay", None, 4.0)) == pytest.approx(-0.75)


def test_expected_exponent_out_of_range():
    cases = [
        ("semigroup", 1.5, 2.0, "long"),     # p < q
        ("semigroup", 2.0, 1.0, "long"),     # q at the endpoint
        ("gradient", 1.5, 3.0, "long"),      # long-time needs p >= max(2, q)
        ("gradient", math.inf, 2.0, "short"),
        ("div_forcing", math.inf, 2.0, "long"),
        ("ell_decay", None, 1.5, "long"),
        ("ns_diff", 1.5, 1.5, "long"),       # p < 2
        ("ns_diff", 2.0, 3.0, "long"),       # q > 2
    ]
    for kind, p, q, regime in cases:
        with pytest.raises(OutOfRange):
            expected_exponent(kind, p, q, regime)
    with pytest.raises(InvalidArgument):
        expected_exponent("unknown", 2.0, 2.0)


def test_profile_error_metric():
    g = build_grid(256, 20.0, 1.5)
    rng = np.random.default_rng(0)
    a = random_decomposition(g, np.random.default_rng(1), k_max=3)
    b = random_decomposition(g, np.random.default_rng(2), k_max=3)
    c = random_decomposition(g, np.random.default_rng(3), k_max=3)
    for p in (2.0, 4.0):
        assert profile_error(a, a, p) == 0.0
        dab = profile_error(a, b, p)
        dba = profile_error(b, a, p)
        assert abs(dab - dba) < 1e-12 * dab
        assert profile_error(a, c, p) <= dab + profile_error(b, c, p) + 1e-10
    # against the zero reference the metric is the fluid norm
    zero = decomp_axpy(0.0, a)
    assert abs(profile_error(a, zero, 2.0) - fluid_lp_norm(a, 2.0)) < 1e-12
    # works on a full state as well
    params = PhysicalParams(nu=1.0, m=math.pi)
    st = init_stokes(a, params)
    assert profile_error(st, zero, 2.0) == pytest.approx(profile_error(a, zero, 2.0))
    other = build_grid(128, 20.0, 1.5)
    with pytest.raises(GridMismatch):
        profile_error(a, random_decomposition(other, rng, 2), 2.0)
