"""The pressure-eliminating radial transform and its inversion.

The substitution z_k = r^-k d/dr(r^k psi_k) = d(psi_k)/dr + k psi_k / r
turns the stream profile of angular mode k into the unknown of a scalar heat
equation: with a dynamic boundary condition for k = 1 (where z = 2*psi(1) on
the ball), with a homogeneous Dirichlet one for k >= 2.  The inverse is the
explicit solution of the first-order ODE,

    psi_k(r) = r^-k * (psi_k(1) + int_1^r s^k z_k(s) ds),

realized with the same trapezoid rule as the grid quadrature.  The forward
transform is the exact algebraic inverse of that cumulative trapezoid map,
so transform and inversion round-trip to solver roundoff rather than to
discretization error, and both agree with the naive difference-stencil
transform to second order.

Both functions act on a stack of profiles, one row per profile with one
order k >= 1 per row, so every channel of a state goes through one call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument
from .grid import lp_norm_radial

__all__ = [
    "z_transform",
    "invert_z",
    "check_drz_bound",
    "check_w_elliptic",
    "EllipticReport",
]


def _powers(grid, orders):
    """r^k at the nodes, one row per order, memoized on the grid."""
    return grid.memo(("r**k", orders), _power_table, grid.nodes, orders)


def _power_table(r, orders):
    rk = np.stack([r ** k for k in orders])
    rk.flags.writeable = False
    return rk


def _stack(grid, values, orders, name):
    """values as a float stack of rows and orders as a tuple of ints."""
    values = np.asarray(values, dtype=float)
    orders = tuple(int(k) for k in orders)
    if min(orders, default=1) < 1:
        raise InvalidArgument(f"{name} serves modes k >= 1")
    if values.shape != (len(orders), grid.n_points):
        raise InvalidArgument(f"{name} takes one profile per order, nodes along the last axis")
    return values, orders


def z_transform(grid, profiles, orders, z1=None):
    """Nodal z_k = d(psi_k)/dr + k psi_k / r of each row of profiles, whose
    order k is the matching entry of orders.

    This is the exact inverse of the trapezoid map of invert_z: with
    g_j = z_j r_j^k the trapezoid relation over interval j reads
    g_{j+1} = c_j - g_j, c_j = 2 * (increment of r^k psi_k)_j / h_j, whose
    closed form is the alternating cumulative sum
    g_j = (-1)^j (g_0 - S_j), S_j = sum_{i<j} (-1)^i c_i.

    The relation leaves z(1) free.  z1, one value per row, pins it, which
    reproduces the exact family member when the trace is known.  Otherwise
    rows of order k >= 2 take z(1) = 0, exact under the homogeneous
    condition psi_k(1) = psi_k'(1) = 0, and rows of order 1 take the
    representative that minimizes the roughness ||fourth difference of z||^2,
    which suppresses the spurious alternating component (the right choice
    for data with tangential slip such as harmonic tails).  Each row is
    transformed independently of the others.
    """
    profiles, orders = _stack(grid, profiles, orders, "z_transform")
    rk = _powers(grid, orders)
    n = grid.n_points
    alt = np.where(np.arange(n - 1) % 2 == 0, 1.0, -1.0)
    c = np.diff(rk * profiles)
    c *= 2.0
    c /= grid.spacings
    c *= alt
    signs = -alt  # (-1)^j for j = 1 .. n-1
    z = np.empty(profiles.shape)
    z[:, 0] = 0.0
    np.cumsum(c, axis=-1, out=z[:, 1:])
    z[:, 1:] *= -signs
    z /= rk
    v = np.empty(n)  # (-1)^j, the free direction of g
    v[0] = 1.0
    v[1:] = signs
    if z1 is not None:
        z1 = np.asarray(z1, dtype=float).reshape(len(orders), 1)
        z += (z1 * rk[:, :1]) * (v / rk)
        return z
    for i, k in enumerate(orders):
        if k == 1:
            vi = v * (rk[i, 0] / rk[i])
            d4v = np.diff(vi, 4)
            s = -float(np.dot(np.diff(z[i], 4), d4v) / np.dot(d4v, d4v))
            z[i] += s * vi
    return z


def invert_z(grid, z, orders, ell=None):
    """psi_k(r) = r^-k * (ell + int_1^r s^k z_k(s) ds) of each row of z,
    whose order k is the matching entry of orders.

    ell, one value per row, is the boundary value psi_k(1) (default 0).
    Deterministic: identical inputs give bit-identical outputs.
    """
    z, orders = _stack(grid, z, orders, "invert_z")
    rk = _powers(grid, orders)
    psi = grid.cumtrap_weighted(rk, z)
    psi /= rk
    if ell is not None:
        ell = np.asarray(ell, dtype=float).reshape(len(orders), 1)
        # rows with ell = 0 add nothing, so a signed zero keeps its sign
        np.add(psi, ell / rk, out=psi, where=ell != 0.0)
    return psi


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
