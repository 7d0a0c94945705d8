"""Radial discretization of the fluid annulus r in [1, r_max].

The fluid outside the unit disk is discretized on a graded 1D mesh.  All
integrals against the plane measure r dr use the composite trapezoid rule
with weight r, which is exact for piecewise-linear integrands.  The disk
interior never carries grid nodes; ball contributions to norms are closed
form (the velocity there is rigid).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument

__all__ = [
    "RadialGrid",
    "PhysicalParams",
    "build_grid",
    "lp_norm_radial",
    "fd_weights",
]


def fd_weights(x, z, order):
    """Finite-difference weights for the `order`-th derivative at point z.

    Solves the small Vandermonde system sum_j w_j (x_j - z)^i = i! delta_{i,order},
    so the stencil is exact on polynomials of degree < len(x).
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    if order >= n:
        raise InvalidArgument(f"need more than {order} points for derivative order {order}")
    d = x - z
    A = np.vander(d, n, increasing=True).T  # A[i, j] = d_j**i
    b = np.zeros(n)
    b[order] = math.factorial(order)
    return np.linalg.solve(A, b)


class RadialGrid:
    """Graded mesh on [1, r_max] with r-weighted trapezoid quadrature.

    Nodes follow r(xi) = 1 + (r_max - 1) * (exp(s*xi) - 1) / (exp(s) - 1) on
    uniform xi in [0, 1]; s = 0 degenerates to a uniform mesh.  Grading
    concentrates nodes at the disk boundary r = 1 where the dynamic boundary
    condition lives.

    Immutable after construction (arrays are read-only).  Operators derived
    from the mesh (factorizations, power tables) are memoized in `cache`
    through `memo`, so they live exactly as long as the grid does.
    """

    def __init__(self, nodes, r_max, stretch):
        nodes = np.asarray(nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 3:
            raise InvalidArgument("need at least 3 radial nodes")
        if not np.all(np.diff(nodes) > 0):
            raise InvalidArgument("nodes must be strictly increasing")
        self.n_points = nodes.size
        self.r_max = float(r_max)
        self.stretch = float(stretch)
        self.nodes = nodes
        self.spacings = np.diff(nodes)
        # faces at interval midpoints; the stiffness coefficient r_{i+1/2}/h_i
        # is the exact P1 element integral of phi_i' phi_j' r dr.
        self.face_r = 0.5 * (nodes[:-1] + nodes[1:])
        self.quad_weights = self._trapezoid_r_weights(nodes)
        self._ddr_bands = self._first_derivative_bands()
        self.cache = {}
        for a in (self.nodes, self.spacings, self.face_r, self.quad_weights):
            a.flags.writeable = False

    @staticmethod
    def _trapezoid_r_weights(r):
        """Per-node weights with sum_i w_i f(r_i) exact for piecewise-linear f against r dr."""
        h = np.diff(r)
        w = np.zeros_like(r)
        # int over [r_j, r_{j+1}] of hat_j * r dr = h (2 r_j + r_{j+1}) / 6, and
        # of hat_{j+1} * r dr = h (r_j + 2 r_{j+1}) / 6.
        w[:-1] += h * (2.0 * r[:-1] + r[1:]) / 6.0
        w[1:] += h * (r[:-1] + 2.0 * r[1:]) / 6.0
        return w

    def _first_derivative_bands(self):
        r = self.nodes
        hm = self.spacings[:-1]
        hp = self.spacings[1:]
        lo = -hp / (hm * (hm + hp))
        mid = (hp - hm) / (hm * hp)
        hi = hm / (hp * (hm + hp))
        first = fd_weights(r[:3], r[0], 1)
        last = fd_weights(r[-3:], r[-1], 1)
        return lo, mid, hi, first, last

    def ddr(self, f):
        """Second-order first derivative along axis 0; one-sided at both ends.

        A stack of profiles passed as profiles.T (nodes contiguous in memory)
        is differentiated without copies; the result has the same layout.
        """
        g = np.moveaxis(np.asarray(f, dtype=float), 0, -1)
        lo, mid, hi, first, last = self._ddr_bands
        out = np.empty_like(g)
        inner = out[..., 1:-1]  # accumulated in place: few large temporaries
        np.multiply(lo, g[..., :-2], out=inner)
        inner += mid * g[..., 1:-1]
        inner += hi * g[..., 2:]
        out[..., 0] = g[..., :3] @ first
        out[..., -1] = g[..., -3:] @ last
        return np.moveaxis(out, -1, 0)

    def d2dr2(self, f):
        """Three-point second derivative along axis 0 (one-sided at the ends)."""
        f = np.asarray(f, dtype=float)
        r = self.nodes
        hm = self.spacings[:-1]
        hp = self.spacings[1:]
        out = np.empty_like(f)
        out[1:-1] = 2.0 * (
            f[:-2] / (hm * (hm + hp))
            - f[1:-1] / (hm * hp)
            + f[2:] / (hp * (hm + hp))
        )
        out[0] = fd_weights(r[:4], r[0], 2) @ f[:4]
        out[-1] = fd_weights(r[-4:], r[-1], 2) @ f[-4:]
        return out

    def memo(self, key, build, *args):
        """The value cached under key, made by build(*args) on first use."""
        value = self.cache.get(key)
        if value is None:
            value = self.cache[key] = build(*args)
        return value

    def ddr_t(self, f):
        """Transpose of the ddr stencil along the last axis: entry j sums
        D[m, j] f[m] over the stencil rows m in ascending order (row 0, the
        hi, mid and lo bands, row n-1)."""
        f = np.asarray(f, dtype=float)
        lo, mid, hi, first, last = self._ddr_bands
        inner = f[..., 1:-1]
        out = np.zeros_like(f)
        out[..., :3] += first * f[..., :1]
        out[..., 2:] += hi * inner
        out[..., 1:-1] += mid * inner
        out[..., :-2] += lo * inner
        out[..., -3:] += last * f[..., -1:]
        return out

    def ddr_gram(self):
        """D^T diag(w) D for the ddr stencil D and the quadrature weights w,
        in upper banded storage (ab[2 - d, j] = entry (j - d, j)); read-only
        and built once per grid."""
        return self.memo(("ddr_gram",), self._build_ddr_gram)

    def _build_ddr_gram(self):
        # each entry sums its stencil rows m in ascending order, each term
        # (D[m, i] w[m]) D[m, j] with i <= j: row 0, the interior rows (for
        # those, ascending m means a falling column offset b), row n-1
        lo, mid, hi, first, last = self._ddr_bands
        w, n = self.quad_weights, self.n_points
        ab = np.zeros((3, n))
        for c, wm, j0, count in ((first, w[0], 0, 1), ((lo, mid, hi), w[1:-1], 0, n - 2),
                                 (last, w[-1], n - 3, 1)):
            for b in (2, 1, 0):
                for a in range(b + 1):
                    ab[2 - b + a, j0 + b:j0 + b + count] += (c[a] * wm) * c[b]
        ab.flags.writeable = False
        return ab

    def boundary_derivative(self, f):
        """Second-order one-sided derivative of f at r = 1 (ddr's first row)."""
        return float(self._ddr_bands[3] @ np.asarray(f)[:3])

    def cumtrap_weighted(self, weight, values):
        """Cumulative trapezoid of weight(s)*values from r=1 to each node,
        along the last axis (a stack of profiles integrates row by row).

        Both factors are sampled at nodes; the integrand weight*values is
        treated as the product of nodal samples (trapezoid on the product).
        """
        g = np.asarray(weight) * np.asarray(values)
        seg = g[..., :-1] + g[..., 1:]
        seg *= 0.5 * self.spacings
        out = np.zeros_like(g)
        np.cumsum(seg, axis=-1, out=out[..., 1:])
        return out

    def __repr__(self):
        return (
            f"RadialGrid(n_points={self.n_points}, r_max={self.r_max}, "
            f"stretch={self.stretch})"
        )


def build_grid(n_points, r_max, stretch=0.0):
    """Build a graded radial grid on [1, r_max].

    Parameters
    ----------
    n_points : int
        Node count, >= 16.  nodes[0] = 1 and nodes[-1] = r_max exactly.
    r_max : float
        Truncation radius, > 2.  Choose r_max >= 6*sqrt(nu*T) so the
        homogeneous far-field condition stays invisible over a run of
        length T (and much larger when exact conservation is asserted).
    stretch : float
        Grading parameter s >= 0; 0 gives a uniform mesh.
    """
    if n_points < 16:
        raise InvalidArgument(f"n_points must be >= 16, got {n_points}")
    if not r_max > 2.0:
        raise InvalidArgument(f"r_max must be > 2, got {r_max}")
    if stretch < 0.0:
        raise InvalidArgument(f"stretch must be >= 0, got {stretch}")
    xi = np.linspace(0.0, 1.0, n_points)
    if stretch == 0.0:
        nodes = 1.0 + (r_max - 1.0) * xi
    else:
        nodes = 1.0 + (r_max - 1.0) * np.expm1(stretch * xi) / np.expm1(stretch)
    nodes[0] = 1.0
    nodes[-1] = r_max
    return RadialGrid(nodes, r_max, stretch)


def lp_norm_radial(grid, values, p):
    """L^p norm of a radial profile against the measure r dr on [1, r_max].

    p = inf means the max over nodes (no interpolation between nodes).
    """
    values = np.asarray(values, dtype=float)
    if values.shape[0] != grid.n_points:
        raise InvalidArgument(
            f"values has length {values.shape[0]}, grid has {grid.n_points} nodes"
        )
    if np.isinf(p):
        return float(np.max(np.abs(values)))
    if p < 1:
        raise InvalidArgument(f"p must be >= 1, got {p}")
    return float(np.sum(grid.quad_weights * np.abs(values) ** p) ** (1.0 / p))


@dataclass(frozen=True)
class PhysicalParams:
    """Viscosity and disk data.

    The disk is homogeneous: its moment of inertia is m/2, which the ball
    terms of inner_l2, the weighted norms and kinetic_energy assume.

    alpha0 is the boundary coupling of the transformed mode-1 systems,
    alpha_w the coupling of the mode-0 tangential system.
    """

    nu: float = 1.0
    m: float = math.pi

    def __post_init__(self):
        if self.nu <= 0:
            raise InvalidArgument(f"nu must be > 0, got {self.nu}")
        if self.m <= 0:
            raise InvalidArgument(f"m must be > 0, got {self.m}")

    @property
    def inertia(self):
        return self.m / 2.0

    @property
    def alpha0(self):
        return 4.0 * math.pi / (math.pi + self.m)

    @property
    def alpha_w(self):
        return 2.0 * math.pi / self.inertia
