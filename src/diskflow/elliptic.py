"""First-order radial transforms that eliminate the mode-1 pressure.

The substitution z = d(psi)/dr + psi/r = (1/r) d(r psi)/dr turns the coupled
mode-1 stream system into a scalar heat equation with dynamic boundary
condition; on the ball the transform is constant with value 2*psi(1).  The
inverse is the explicit solution of the first-order ODE,

    psi(r) = ell / r + (1/r) * int_1^r s z(s) ds,

realized with the same trapezoid rule as the grid quadrature.  The forward
transform is the exact algebraic inverse of that cumulative trapezoid map,
so transform and inversion round-trip to solver roundoff rather than to
discretization error, and both agree with the naive difference-stencil
transform to second order.

The k-generalized pair (r^k psi)' = r^k z serves the higher angular modes,
where the homogeneous boundary value pins the otherwise-free seed exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument
from .grid import lp_norm_radial

__all__ = [
    "StreamPair",
    "z_transform",
    "invert_z",
    "transform_order_k",
    "invert_order_k",
    "check_drz_bound",
    "check_w_elliptic",
    "EllipticReport",
]


@dataclass(frozen=True)
class StreamPair:
    """A mode-1 stream profile with its boundary value ell = psi(1)."""

    psi: np.ndarray
    ell: float

    def __post_init__(self):
        psi = np.asarray(self.psi, dtype=float).copy()
        psi.flags.writeable = False
        object.__setattr__(self, "psi", psi)
        if abs(psi[0] - self.ell) > 1e-12 * max(1.0, abs(self.ell)):
            raise InvalidArgument("psi[0] must equal ell (trace continuity)")


def _powers(grid, k):
    """r^k at the nodes, memoized on the grid; an array of orders gives one
    row per order."""
    return grid.memo(("r**k", np.ndim(k), tuple(int(j) for j in np.ravel(k))),
                     _power_table, grid.nodes, k)


def _power_table(r, k):
    rk = r ** int(k) if np.ndim(k) == 0 else np.stack([r ** int(j) for j in k])
    rk.flags.writeable = False
    return rk


def _forward(grid, profile, k, seed=None):
    """Exact inverse of the trapezoid map: nodal z such that the trapezoid of
    s^k z over interval j reproduces the increment of r^k * profile there.

    With g_j = z_j r_j^k the trapezoid relation reads g_{j+1} = c_j - g_j,
    c_j = 2 * (increment_j) / h_j, whose closed form is the alternating
    cumulative sum g_j = (-1)^j (g_0 - S_j), S_j = sum_{i<j} (-1)^i c_i.

    The relation leaves the boundary value g_0 free (the map psi -> z gains
    one dimension).  For the higher modes the exact boundary value is pinned
    (seed = 0, the homogeneous condition); for the first mode the returned
    representative minimizes the roughness ||fourth difference of z||^2 over
    the one-parameter family, which suppresses the spurious alternating
    component without touching the trapezoid identities.  Round-tripping
    through the inverse map is then exact, and smooth inputs come back to
    solver roundoff.

    With a seed, profile may be a stack of profiles (nodes along the last
    axis, one order per profile in k), each transformed independently.
    """
    rk = _powers(grid, k)
    n = grid.n_points
    alt = np.where(np.arange(n - 1) % 2 == 0, 1.0, -1.0)
    c = np.diff(rk * profile)
    c *= 2.0
    c /= grid.spacings
    c *= alt
    signs = -alt  # (-1)^j for j = 1 .. n-1
    base = np.empty(c.shape[:-1] + (n,))
    base[..., 0] = 0.0
    np.cumsum(c, axis=-1, out=base[..., 1:])
    base[..., 1:] *= -signs
    base /= rk
    v = np.empty(n)
    v[0] = 1.0
    v[1:] = signs
    if seed is not None:
        if seed:
            base += (seed * rk[..., :1]) * (v / rk)
        return base
    v *= rk[0] / rk
    d4b = np.diff(base, 4)
    d4v = np.diff(v, 4)
    s = -float(np.dot(d4b, d4v) / np.dot(d4v, d4v))
    return base + s * v


def _backward(grid, z, k, ell):
    rk = _powers(grid, k)
    psi = grid.cumtrap_weighted(rk, z)
    psi /= rk
    if ell:
        psi += ell / rk
    return psi


def z_transform(pair, grid, flip_sign=False, boundary_value=None):
    """Transform a stream pair to its scalar heat unknown (z, ell_z).

    Returns nodal z = d(psi)/dr + psi/r and the ball value ell_z = 2*ell.
    flip_sign applies the opposite orientation used for the second mode-1
    channel: z = -(d(phi)/dr + phi/r), ell_z = -2*phi(1).

    boundary_value optionally pins z(1) (in the output orientation).  The
    discrete map determines z only up to its boundary value; passing the
    known trace (for no-slip pairs it equals ell_z) reproduces the exact
    family member, while the default selects the smoothest representative
    (the right choice for data with tangential slip such as harmonic tails).
    """
    from .dynbc import ScalarModeState

    psi = np.asarray(pair.psi, dtype=float)
    if psi.shape != (grid.n_points,):
        raise InvalidArgument("profile length must match the grid")
    sign = -1.0 if flip_sign else 1.0
    seed = None if boundary_value is None else sign * float(boundary_value)
    z = sign * _forward(grid, psi, 1, seed=seed)
    ell_z = sign * 2.0 * pair.ell
    return ScalarModeState(grid, z, ell_z, 0.0)


def invert_z(z_state, grid, flip_sign=False):
    """Reconstruct the stream pair from (z, ell_z); uses ell = ell_z / 2.

    psi(r) = ell/r + (1/r) * cumulative trapezoid of s z(s) from 1 to r.
    Deterministic: identical inputs give bit-identical outputs.
    """
    z = np.asarray(z_state.y, dtype=float)
    if z.shape != (grid.n_points,):
        raise InvalidArgument("z length must match the grid")
    sign = -1.0 if flip_sign else 1.0
    ell = sign * z_state.ell / 2.0
    psi = _backward(grid, sign * z, 1, ell)
    return StreamPair(psi, ell)


def _check_order_k(grid, values, k, name):
    values = np.asarray(values, dtype=float)
    if np.any(np.asarray(k) < 2):
        raise InvalidArgument(f"{name} serves modes k >= 2")
    if values.shape != np.shape(k) + (grid.n_points,):
        raise InvalidArgument(f"{name} takes one profile per order, nodes along the last axis")
    return values


def transform_order_k(grid, profile, k):
    """Nodal z_k = d(psi_k)/dr + k psi_k / r for a higher-mode profile with
    psi_k(1) = d(psi_k)/dr(1) = 0 (the seed z_k(1) = 0 is exact).

    profile may stack one profile per row, with k one order per row."""
    profile = _check_order_k(grid, profile, k, "transform_order_k")
    return _forward(grid, profile, k, seed=0.0)


def invert_order_k(grid, z_values, k):
    """psi_k(r) = r^-k * int_1^r s^k z_k(s) ds with psi_k(1) = 0.

    z_values may stack one profile per row, with k one order per row."""
    z_values = _check_order_k(grid, z_values, k, "invert_order_k")
    return _backward(grid, z_values, k, 0.0)


@dataclass
class EllipticReport:
    """Both sides of an elliptic inequality, for regression logging."""

    p: float
    lhs: float
    rhs: float
    ratio: float
    violation: bool
    r_max: float
    norms: dict


def check_drz_bound(z, grid, p):
    """Compare ||z/r|| against ||dz/dr|| + eps_p |z(1)| in L^p(r dr).

    eps_p = 1 for p > 2 and 0 for p < 2; p = 2 is excluded.  The constant is
    not quantified, so the report records the ratio; a violation is flagged
    only in the logically forced case lhs > 0 with rhs == 0.
    """
    if p == 2 or not 1.0 < p < np.inf:
        raise InvalidArgument("p must lie in (1, inf) excluding 2")
    z = np.asarray(z, dtype=float)
    eps_p = 1.0 if p > 2 else 0.0
    lhs = lp_norm_radial(grid, z / grid.nodes, p)
    rhs = lp_norm_radial(grid, grid.ddr(z), p) + eps_p * abs(z[0])
    ratio = lhs / rhs if rhs > 0 else np.inf
    return EllipticReport(
        p=p,
        lhs=lhs,
        rhs=rhs,
        ratio=ratio,
        violation=(lhs > 0 and rhs == 0),
        r_max=grid.r_max,
        norms={"dz_dr": rhs - eps_p * abs(z[0]), "z_at_1": abs(z[0])},
    )


def check_w_elliptic(w, grid, p):
    """Assemble the second-order elliptic residual data for a mode-0 profile.

    f = w'' + w'/r - w/r^2, a = w'(1) - w(1), b = w(1).  Returns the norms of
    w'', w'/r - w/r^2, w'/r and w/r^2 together with the right-hand sides they
    are controlled by, as ratios for regression logging.
    """
    if not 1.0 < p < np.inf:
        raise InvalidArgument("p must lie in (1, inf)")
    w = np.asarray(w, dtype=float)
    r = grid.nodes
    dw = grid.ddr(w)
    d2w = grid.d2dr2(w)
    f = d2w + dw / r - w / (r * r)
    a = float(dw[0] - w[0])
    b = float(w[0])
    eps_p = 1.0 if p > 2 else 0.0
    norms = {
        "f": lp_norm_radial(grid, f, p),
        "a": abs(a),
        "b": abs(b),
        "d2w": lp_norm_radial(grid, d2w, p),
        "dw_r_minus_w_r2": lp_norm_radial(grid, dw / r - w / (r * r), p),
        "dw_r": lp_norm_radial(grid, dw / r, p),
        "w_r2": lp_norm_radial(grid, w / (r * r), p),
    }
    rhs_main = norms["f"] + norms["a"]
    rhs_extra = rhs_main + eps_p * norms["b"]
    lhs_main = norms["d2w"] + norms["dw_r_minus_w_r2"]
    lhs_extra = norms["dw_r"] + norms["w_r2"]
    return EllipticReport(
        p=p,
        lhs=lhs_main,
        rhs=rhs_main,
        ratio=lhs_main / rhs_main if rhs_main > 0 else np.inf,
        violation=(lhs_main > 0 and rhs_main == 0),
        r_max=grid.r_max,
        norms={**norms, "lhs_extra": lhs_extra, "rhs_extra": rhs_extra},
    )
