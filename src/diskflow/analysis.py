"""Decay-exponent fitting and the expected long-time rate tables.

Fits are ordinary least squares in log-log coordinates; a known logarithmic
correction is divided out before fitting rather than fitted as a free
parameter (two-parameter fits on short windows are ill conditioned).  The
expected exponents collect the sharp rates of the linear theory and of the
nonlinear proximity estimates, with the log flag set exactly on the
boundary cases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    GridMismatch,
    InsufficientSamples,
    InvalidArgument,
    NonpositiveValues,
    OutOfRange,
)
from .fields import decomp_axpy, fluid_lp_norm

__all__ = [
    "DecayFit",
    "ExpectedRate",
    "fit_decay",
    "expected_exponent",
    "profile_error",
]


@dataclass(frozen=True)
class DecayFit:
    """Fitted slope of log(value) against log(t) over a window."""

    exponent: float
    log_correction: bool
    residual: float
    window: tuple

    def __post_init__(self):
        if self.window[0] < 1.0:
            raise InvalidArgument("fit windows start at t >= 1 (long-time only)")


@dataclass(frozen=True)
class ExpectedRate:
    """A closed-form decay exponent, possibly carrying a |log t| factor."""

    exponent: float
    log_correction: bool = False

    def __float__(self):
        return self.exponent


def fit_decay(times, values, window, log_correction=False):
    """Least-squares power-law fit of a positive time series.

    With log_correction the series is divided by |log t| before fitting.
    Requires at least 8 samples inside the window.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if times.shape != values.shape:
        raise InvalidArgument("times and values must have matching shapes")
    t0, t1 = window
    mask = (times >= t0 * (1 - 1e-12)) & (times <= t1 * (1 + 1e-12))
    if np.count_nonzero(mask) < 8:
        raise InsufficientSamples(
            f"only {np.count_nonzero(mask)} samples inside window {window}"
        )
    t = times[mask]
    v = values[mask]
    if np.any(v <= 0):
        raise NonpositiveValues("power-law fit requires positive values")
    y = np.log(v)
    if log_correction:
        y = y - np.log(np.abs(np.log(t)))
    x = np.log(t)
    A = np.column_stack([x, np.ones_like(x)])
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    rms = float(np.sqrt(np.mean(resid**2)))
    return DecayFit(float(coef[0]), log_correction, rms, (float(t0), float(t1)))


def expected_exponent(kind, p=None, q=None, regime="long"):
    """Closed-form decay exponent tables.

    kind selects the estimate family:
      semigroup    field norm of the linear flow:      1/p - 1/q
      gradient     fluid gradient of the linear flow:  -1/2+1/p-1/q (short),
                   -1/q (long, p >= max(2, q))
      div_forcing  flow of a projected divergence:     -1/2+1/p-1/q, and
                   -1+1/p for long time when q <= 2
      ell_decay    translation speed under divergence forcing: -(1/2+1/q)
      ns_diff      distance of the nonlinear flow to the linear one, data in
                   L^q: -(1-1/p) for q < 4/3 (log-corrected at q = 4/3),
                   -(2/q-1/2-1/p) for q in (4/3, 2]
    Out-of-range (p, q) raise; the log flag is set exactly on the boundary
    cases.
    """
    if regime not in ("short", "long"):
        raise InvalidArgument(f"unknown regime {regime!r}")
    if kind == "semigroup":
        if q is None or p is None or not 1.0 < q < math.inf:
            raise OutOfRange("semigroup rate needs q in (1, inf)")
        if p < q:
            raise OutOfRange("semigroup rate needs p >= q")
        ip = 0.0 if math.isinf(p) else 1.0 / p
        return ExpectedRate(ip - 1.0 / q)
    if kind == "gradient":
        if q is None or p is None or not 1.0 < q < math.inf or p < q:
            raise OutOfRange("gradient rate needs 1 < q <= p")
        if regime == "long":
            if p >= max(2.0, q) and not math.isinf(p):
                return ExpectedRate(-1.0 / q)
            if q <= 2.0 and p <= 2.0:
                return ExpectedRate(-0.5 + 1.0 / p - 1.0 / q)
            raise OutOfRange("long-time gradient rate needs p in [max(2,q), inf)")
        if math.isinf(p):
            raise OutOfRange("short-time gradient rate needs finite p")
        return ExpectedRate(-0.5 + 1.0 / p - 1.0 / q)
    if kind == "div_forcing":
        if q is None or p is None or not 1.0 < q <= p or math.isinf(p):
            raise OutOfRange("divergence-forcing rate needs 1 < q <= p < inf")
        if regime == "long" and q <= 2.0:
            return ExpectedRate(-1.0 + 1.0 / p)
        if q < 2.0 and regime == "short":
            return ExpectedRate(-0.5 + 1.0 / p - 1.0 / q)
        if q >= 2.0:
            return ExpectedRate(-0.5 + 1.0 / p - 1.0 / q)
        raise OutOfRange("unsupported (p, q) for div_forcing")
    if kind == "ell_decay":
        if q is None or not 2.0 <= q < math.inf:
            raise OutOfRange("ell decay rate needs q in [2, inf)")
        return ExpectedRate(-(0.5 + 1.0 / q))
    if kind == "ns_diff":
        if p is None or q is None or p < 2.0 or math.isinf(p):
            raise OutOfRange("nonlinear proximity rate needs p in [2, inf)")
        if not 1.0 < q <= 2.0:
            raise OutOfRange("nonlinear proximity rate needs q in (1, 2]")
        if q < 4.0 / 3.0:
            return ExpectedRate(-(1.0 - 1.0 / p))
        if q == 4.0 / 3.0:
            return ExpectedRate(-(1.0 - 1.0 / p), log_correction=True)
        return ExpectedRate(-(2.0 / q - 0.5 - 1.0 / p))
    raise InvalidArgument(f"unknown kind {kind!r}")


def profile_error(state, reference, p):
    """Fluid-domain L^p distance between a state and a reference field.

    Works on a StokesState or a bare decomposition; grids must match.  The
    angular integral is exact per mode for p = 2 and sampled with even-p
    exactness otherwise.
    """
    decomp = getattr(state, "decomp", state)
    if decomp.grid is not reference.grid:
        raise GridMismatch("state and reference live on different grids")
    return fluid_lp_norm(decomp_axpy(1.0, decomp, -1.0, reference), p)
