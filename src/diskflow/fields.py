"""Divergence-free velocity fields on the plane, rigid on the unit disk.

A field is stored spectrally: the angular mean of the tangential velocity
(profile w) and one stack of stream profiles, the pair (psi_k, phi_k) of
each harmonic k = 1..k_max (psi for the cos channel, phi for the sin
channel).  In physical components,

    V_r     = sum_k [ k psi_k/r sin(kt) - k phi_k/r cos(kt) ]
    V_theta = w + sum_k [ (Dpsi_k) cos(kt) + (Dphi_k) sin(kt) ]

on the fluid annulus, while on the disk the field is the rigid motion
ell + omega x^perp.  The translation velocity appears in the mode-1 traces
(psi_1(1) = ell_y, phi_1(1) = -ell_x) and the angular velocity in the mode-0
trace (w(1) = omega); higher-mode profiles vanish at r = 1 together with
their derivative for no-slip data.

The projection onto this class (the fluid-solid Leray projector) is computed
per angular mode as an exact least-squares fit in the discrete weighted inner
product, so idempotence, self-adjointness and identity-on-range hold to
solver roundoff rather than to discretization error.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy.linalg import cho_solve_banded, cholesky_banded

from .dynbc import write_columns
from .errors import (
    GridMismatch,
    InsufficientAngularResolution,
    InvalidArgument,
    NotDivergenceFree,
    SolverFailure,
)
from .grid import RadialGrid

__all__ = [
    "RigidState",
    "ModeDecomposition",
    "PolarField",
    "zero_decomposition",
    "decomp_axpy",
    "decompose",
    "reconstruct",
    "extract_rigid",
    "project_leray",
    "kirchhoff_test_field",
    "inner_l2",
    "weighted_field_norm",
    "weighted_field_norms",
    "fluid_lp_norm",
    "fluid_lp_norms",
    "added_mass_pairing",
    "save_field_file",
    "load_field_file",
]


@dataclass(frozen=True)
class RigidState:
    """Disk data: translation velocity ell, angular velocity omega, and the
    integrated trajectory (center h, rotation angle theta)."""

    ell: np.ndarray
    omega: float = 0.0
    h: np.ndarray = dc_field(default_factory=lambda: np.zeros(2))
    theta: float = 0.0

    def __post_init__(self):
        ell = np.asarray(self.ell, dtype=float).reshape(2).copy()
        h = np.asarray(self.h, dtype=float).reshape(2).copy()
        if not (np.all(np.isfinite(ell)) and math.isfinite(self.omega)):
            raise InvalidArgument("rigid data must be finite")
        ell.flags.writeable = False
        h.flags.writeable = False
        object.__setattr__(self, "ell", ell)
        object.__setattr__(self, "h", h)


@dataclass(frozen=True)
class ModeDecomposition:
    """Spectral state of a velocity field on one radial grid.

    profiles[k-1] holds the pair (psi_k, phi_k) of harmonic k, cos channel
    first; k_max = len(profiles) >= 1 is the largest retained harmonic.
    psi and phi (mode 1) and higher (modes 2..k_max) are read-only views of
    it.  Instances are immutable snapshots, so what is derived from them is
    kept on them, out of eq and repr: the radial derivatives of the profile
    stack (_stream_profiles) and the fluid L^p norms (fluid_lp_norms).
    """

    grid: RadialGrid
    w: np.ndarray
    profiles: np.ndarray
    rigid: RigidState
    _dprof: np.ndarray | None = dc_field(default=None, init=False, compare=False, repr=False)
    _norms: dict = dc_field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        n = self.grid.n_points
        w = np.array(self.w, dtype=float)
        profiles = np.array(self.profiles, dtype=float)
        if w.shape != (n,):
            raise InvalidArgument("profile length must match the grid")
        if profiles.ndim != 3 or profiles.shape[1:] != (2, n) or not len(profiles):
            raise InvalidArgument("profiles must have shape (k_max, 2, n_points), k_max >= 1")
        for a in (w, profiles):
            a.flags.writeable = False
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "profiles", profiles)

    k_max = property(lambda self: self.profiles.shape[0])
    psi = property(lambda self: self.profiles[0, 0])
    phi = property(lambda self: self.profiles[0, 1])
    higher = property(lambda self: self.profiles[1:])


@dataclass(frozen=True)
class PolarField:
    """Physical-space samples (v_r, v_theta) on the grid x uniform angles."""

    grid: RadialGrid
    v_r: np.ndarray
    v_theta: np.ndarray

    def __post_init__(self):
        vr = np.asarray(self.v_r, dtype=float)
        vt = np.asarray(self.v_theta, dtype=float)
        if vr.shape != vt.shape or vr.ndim != 2 or vr.shape[0] != self.grid.n_points:
            raise InvalidArgument("v_r/v_theta must be (n_points, n_theta) arrays")
        object.__setattr__(self, "v_r", vr)
        object.__setattr__(self, "v_theta", vt)

    @property
    def n_theta(self):
        return self.v_r.shape[1]


def zero_decomposition(grid, k_max=1):
    n = grid.n_points
    return ModeDecomposition(grid, np.zeros(n), np.zeros((max(k_max, 1), 2, n)),
                             RigidState(np.zeros(2)))


def decomp_axpy(ca, a, cb=0.0, b=None):
    """Linear combination ca*a + cb*b of decompositions on one grid; the
    shorter profile stack counts as zero-padded."""
    if b is None:
        b = zero_decomposition(a.grid, a.k_max)
    if a.grid is not b.grid:
        raise GridMismatch("decompositions live on different grids")
    profiles = np.zeros((max(a.k_max, b.k_max), 2, a.grid.n_points))
    profiles[: a.k_max] += ca * a.profiles
    profiles[: b.k_max] += cb * b.profiles
    rigid = RigidState(
        ca * a.rigid.ell + cb * b.rigid.ell,
        ca * a.rigid.omega + cb * b.rigid.omega,
    )
    return ModeDecomposition(a.grid, ca * a.w + cb * b.w, profiles, rigid)


@functools.lru_cache(maxsize=None)
def real_dft(n_theta, k_max):
    """Real-DFT matrices between n_theta uniform angles and the coefficients
    c = [a_0 .. a_K, b_0 .. b_K] of f = sum_k a_k cos(k t) + b_k sin(k t),
    K = k_max < n_theta/2, or K = n_theta/2 with the Nyquist a_K halved.

    Returns (S, A) acting on columns: samples = S @ c with S of shape
    (n_theta, 2K+2), and c = A @ samples with A of shape (2K+2, n_theta),
    which inverts S on every retained mode (b_0 is always 0).
    """
    k = np.arange(k_max + 1)
    phase = 2.0 * math.pi * ((np.arange(n_theta)[:, None] * k) % n_theta) / n_theta
    S = np.concatenate([np.cos(phase), np.sin(phase)], axis=1)
    weight = np.full(2 * k_max + 2, 2.0 / n_theta)
    weight[0] = 1.0 / n_theta
    if 2 * k_max == n_theta:
        weight[k_max] = 1.0 / n_theta
    A = weight[:, None] * S.T
    for a in (S, A):
        a.flags.writeable = False
    return S, A


def _coeffs(samples, k_max):
    """cos/sin coefficient rows a_k, b_k (k = 0..k_max) of (n, n_theta)
    theta samples, each of shape (k_max + 1, n)."""
    c = real_dft(samples.shape[1], k_max)[1] @ samples.T
    return c[: k_max + 1], c[k_max + 1:]


def _stream_profiles(decomp):
    """The profile stack and its radial derivatives (one stacked ddr on the
    first call, kept read-only on the decomposition), both viewed as
    (channel, mode, node); channel 0 is the cos (psi) channel, channel 1
    the sin (phi) one."""
    prof = decomp.profiles
    if decomp._dprof is None:
        dprof = decomp.grid.ddr(prof.reshape(-1, prof.shape[-1]).T).T.reshape(prof.shape)
        dprof.flags.writeable = False
        object.__setattr__(decomp, "_dprof", dprof)
    return prof.transpose(1, 0, 2), decomp._dprof.transpose(1, 0, 2)


def velocity_coeffs(decomp):
    """cos/sin coefficients of v_r and v_theta straight from the profiles.

    Returns a (2, 2K+2, n_points) array, K = decomp.k_max: field 0 is v_r,
    field 1 is v_theta, each a coefficient column of real_dft per node.
    """
    K = decomp.k_max
    k = np.arange(1, K + 1)[:, None]
    r = decomp.grid.nodes
    prof, dprof = _stream_profiles(decomp)
    V = np.zeros((2, 2, K + 1, decomp.grid.n_points))  # (field, cos/sin, mode, node)
    V[0, 0, 1:] = -k * prof[1] / r
    V[0, 1, 1:] = k * prof[0] / r
    V[1, 0, 0] = decomp.w
    V[1, :, 1:] = dprof
    return V.reshape(2, 2 * K + 2, -1)


def synthesise(coeffs, n_theta):
    """Samples on n_theta angles of a (fields, 2K+2, n_points) coefficient
    stack, by one real-DFT matrix product: (fields, n_theta, n_points)."""
    return np.matmul(real_dft(n_theta, coeffs.shape[1] // 2 - 1)[0], coeffs)


# Radial nodes per synthesis block.  A block of the six convection factors
# at n_theta = 16 is 196 kB and stays in cache; 1024 nodes already fault
# pages back in on every call (see the sweep recorded in CHANGES.md).
BLOCK = 256


def _sample_blocks(coeffs, n_theta):
    """Yield (first node, samples) for consecutive blocks of BLOCK radial
    nodes, samples being synthesise() of that slice of the stack, so no
    full (fields, n_theta, n_points) plane is ever allocated."""
    for lo in range(0, coeffs.shape[-1], BLOCK):
        yield lo, synthesise(coeffs[..., lo:lo + BLOCK], n_theta)


def default_n_theta(k_max):
    """Smallest power of two giving the dealiasing headroom 4*k_max + 4."""
    n = 16
    while n < 4 * k_max + 4:
        n *= 2
    return n


def divergence_residual(field, k_max=None):
    """Max discrete divergence residual over the retained angular modes.

    Uses the grid difference stencil: mode k of div V is
    (1/r) D(r c_k) +- (k/r) * (tangential coefficient).
    """
    grid = field.grid
    r = grid.nodes
    kmax_avail = field.n_theta // 2
    K = kmax_avail if k_max is None else min(k_max, kmax_avail)
    ar, br = _coeffs(field.v_r, K)
    at, bt = _coeffs(field.v_theta, K)
    res = np.abs(grid.ddr(r * ar[0]) / r).max()
    for k in range(1, K + 1):
        rc = grid.ddr(r * ar[k]) / r + (k / r) * bt[k]
        rs = grid.ddr(r * br[k]) / r - (k / r) * at[k]
        res = max(res, np.abs(rc).max(), np.abs(rs).max())
    return res


# decompose's divergence tolerance, relative to field scale / smallest spacing
DIV_TOL = 1e-6


def _check_resolution(n_theta, k_max):
    """Reject k_max < 1, and n_theta angles too few to hold harmonics
    0..k_max (n_theta < 2 k_max + 2)."""
    if k_max < 1:
        raise InvalidArgument(f"k_max must be >= 1, got {k_max}")
    if n_theta < 2 * k_max + 2:
        raise InsufficientAngularResolution(f"n_theta = {n_theta} cannot hold k_max = {k_max}")


def decompose(field, params, k_max):
    """Split physical samples into the spectral state.

    The field must be divergence-free in the discrete sense (same difference
    stencil as the rest of the module, tolerance DIV_TOL); the profiles are
    read off the radial velocity harmonics and the tangential mean, and the
    rigid data from the boundary traces.
    """
    grid = field.grid
    _check_resolution(field.n_theta, k_max)
    scale = max(np.abs(field.v_r).max(), np.abs(field.v_theta).max(), 1e-300)
    res = divergence_residual(field, k_max)
    if res > DIV_TOL * scale * (1.0 / grid.spacings.min()):
        raise NotDivergenceFree(
            f"divergence residual {res:.3e} exceeds tolerance for scale {scale:.3e}"
        )
    r = grid.nodes
    k = np.arange(1, k_max + 1)[:, None]
    ar, br = _coeffs(field.v_r, k_max)
    at, _bt = _coeffs(field.v_theta, k_max)
    profiles = np.stack([r * br[1:] / k, -r * ar[1:] / k], axis=1)
    return ModeDecomposition(grid, at[0], profiles, _trace_rigid(profiles, at[0, 0]))


def reconstruct(decomp, n_theta=None):
    """Physical-space samples of the decomposition on a uniform angle grid.

    Radial derivatives of the stream profiles use the grid difference
    stencil, so decompose(reconstruct(d)) == d to roundoff.
    """
    grid = decomp.grid
    k_max = decomp.k_max
    if n_theta is None:
        n_theta = default_n_theta(k_max)
    _check_resolution(n_theta, k_max)
    v_r, v_theta = synthesise(velocity_coeffs(decomp), n_theta).transpose(0, 2, 1)
    return PolarField(grid, v_r, v_theta)


def _trace_rigid(profiles, omega):
    """Rigid data translating with the mode-1 traces of a profile stack,
    ell = (-phi_1(1), psi_1(1)), and rotating at omega."""
    return RigidState(np.array([-profiles[0, 1, 0], profiles[0, 0, 0]]), float(omega))


def extract_rigid(decomp):
    """Rigid data from the boundary traces of the mode-0/1 profiles."""
    return _trace_rigid(decomp.profiles, decomp.w[0])


# ---------------------------------------------------------------------------
# Leray projection
# ---------------------------------------------------------------------------

def _banded_spd_solve(ab_factor, scale, rhs):
    """Solve for the rows of rhs with a cached Cholesky of the Jacobi-scaled
    banded matrix.  The factor is finite by construction, so scipy's input
    scan is skipped and the result is checked instead."""
    x = scale * cho_solve_banded((ab_factor, False), (scale * rhs).T, check_finite=False).T
    if not np.all(np.isfinite(x)):
        raise SolverFailure("non-finite values after the Leray solve")
    return x


def _leray_operator(grid, coupling, k, drop_first):
    """Normal matrix of the per-mode least squares, memoized on the grid:
    N = k^2 diag(w/r^2) + D^T diag(w) D (+ coupling * e0 e0^T),
    optionally with the first row/column eliminated (higher modes).
    Returns (Cholesky factor of the Jacobi-scaled banded N, the scaling)."""
    return grid.memo(("leray", float(coupling), int(k), bool(drop_first)),
                     _build_leray_operator, grid, coupling, k, drop_first)


def _build_leray_operator(grid, coupling, k, drop_first):
    w = grid.quad_weights
    r = grid.nodes
    ab = grid.ddr_gram().copy()
    ab[2] += k * k * w / (r * r)
    ab[2, 0] += coupling
    if drop_first:
        ab = ab[:, 1:]
        ab[0, :2] = ab[1, 0] = 0.0  # entries of the dropped row
    scale = 1.0 / np.sqrt(ab[2])
    ab *= scale
    for d in range(3):
        ab[2 - d, d:] *= scale[:scale.size - d]
    try:
        fac = cholesky_banded(ab, lower=False)
    except np.linalg.LinAlgError as exc:
        raise SolverFailure("per-mode projection system is singular") from exc
    return fac, scale


def project_leray(field, params, k_max=None, ball_ell=(0.0, 0.0), ball_omega=0.0):
    """Orthogonal projection onto divergence-free fields rigid on the disk.

    The inner product weights the disk by m/pi.  Per angular mode the
    projection is the exact discrete least-squares fit of a stream profile to
    the (radial, tangential) harmonics, with the translation trace coupled to
    the ball for the first mode; the mode-0 tangential profile and the ball
    rotation pass through unchanged and the mode-0 radial part (a pure
    gradient) is discarded.  Each mode takes one Jacobi-scaled banded
    Cholesky solve, without refinement.  Idempotent, self-adjoint and the
    identity on already-admissible fields, all to solver roundoff.

    Both channels of a mode share its normal matrix: the psi channel fits
    the embedding (k s/r, Ds, s(1)) to (b_r, a_t, ell_y), the phi channel
    (-k s/r, Ds, -s(1)) to (a_r, b_t, ell_x), and one two-column solve
    serves both.

    ball_ell/ball_omega supply the disk data of the input field (zero for
    fields supported in the fluid, e.g. the projected convection term).
    """
    grid = field.grid
    if k_max is None:
        k_max = max(1, field.n_theta // 2 - 1)
    _check_resolution(field.n_theta, k_max)
    ball_ell = np.asarray(ball_ell, dtype=float).reshape(2)
    n = grid.n_points
    w = grid.quad_weights
    r = grid.nodes
    ar, br = _coeffs(field.v_r, k_max)
    at, bt = _coeffs(field.v_theta, k_max)
    sgn = np.array([1.0, -1.0])[:, None, None]
    k = np.arange(1, k_max + 1)[:, None]
    # right-hand sides (channel, mode, node): channels psi, phi of modes 1..K
    radial = np.stack([br[1:], ar[1:]])
    tangential = np.stack([at[1:], bt[1:]])
    rhs = sgn * k * (w / r) * radial
    rhs += grid.ddr_t(w * tangential)
    coupling = params.m / math.pi
    rhs[:, 0, 0] += coupling * np.array([ball_ell[1], -ball_ell[0]])  # traces psi(1), -phi(1)
    prof = np.zeros((k_max, 2, n))
    for j in range(k_max):
        first = 0 if j == 0 else 1  # higher modes pin s(1) = 0
        fac, scale = _leray_operator(grid, coupling if j == 0 else 0.0, j + 1, first == 1)
        prof[j, :, first:] = _banded_spd_solve(fac, scale, rhs[:, j, first:])
    return ModeDecomposition(grid, at[0], prof, _trace_rigid(prof, ball_omega))


def kirchhoff_test_field(grid, direction):
    """The potential-flow test field: gradient of cos/sin(theta)/r in the
    fluid glued to the opposite unit translation on the disk.

    Pairing any admissible field against it in the weighted inner product
    returns -(pi + m) times the matching translation component (added-mass
    identity)."""
    if direction not in (1, 2):
        raise InvalidArgument("direction must be 1 or 2")
    sign, ell = (1.0, [-1.0, 0.0]) if direction == 1 else (-1.0, [0.0, -1.0])
    profiles = np.zeros((1, 2, grid.n_points))
    profiles[0, 2 - direction] = sign / grid.nodes  # phi = 1/r or psi = -1/r
    return ModeDecomposition(grid, np.zeros(grid.n_points), profiles, RigidState(np.array(ell)))


# ---------------------------------------------------------------------------
# inner products and norms
# ---------------------------------------------------------------------------


def inner_l2(a, b, params):
    """Weighted L^2 inner product of two decompositions (disk weighted m/pi).

    Angular integrals are exact per mode; the ball integrals are closed form
    for rigid data."""
    if a.grid is not b.grid:
        raise GridMismatch("decompositions live on different grids")
    w, r = a.grid.quad_weights, a.grid.nodes
    total = 2.0 * math.pi * float(np.sum(w * a.w * b.w))
    K = min(a.k_max, b.k_max)  # modes beyond the shorter one pair with zero
    (pa, da), (pb, db) = (_stream_profiles(d) for d in (a, b))
    kk = np.arange(1, K + 1)[:, None] ** 2
    fluid = da[:, :K] * db[:, :K] + kk * pa[:, :K] * pb[:, :K] / (r * r)
    total += math.pi * float(np.sum(w * fluid))
    mball = params.m
    total += mball * float(np.dot(a.rigid.ell, b.rigid.ell))
    total += 0.5 * mball * a.rigid.omega * b.rigid.omega
    return total


@functools.lru_cache(maxsize=None)
def _disk_rule():
    """Product rule on the unit disk: 32 Gauss-Legendre radii on (0, 1)
    with their weights times rho, and cos of 128 uniform angles."""
    from numpy.polynomial.legendre import leggauss

    xg, wg = leggauss(32)
    rho = 0.5 * (xg + 1.0)
    wr = 0.5 * wg
    cos_th = np.cos(np.linspace(0.0, 2.0 * math.pi, 128, endpoint=False))
    for a in (rho, wr, cos_th):
        a.flags.writeable = False
    return rho, wr, cos_th


def _ball_lp(ell, omega, p):
    """int over the unit disk of |ell + omega x^perp|^p (unweighted)."""
    ell = np.asarray(ell, dtype=float)
    el = float(np.hypot(ell[0], ell[1]))
    if np.isinf(p):
        return el + abs(omega)
    if p == 2:
        return math.pi * el * el + 0.5 * math.pi * omega * omega
    rho, wr, cos_th = _disk_rule()
    sq = (
        el * el
        + (omega * rho[:, None]) ** 2
        + 2.0 * omega * el * rho[:, None] * cos_th[None, :]
    )
    vals = np.abs(sq) ** (p / 2.0) * rho[:, None]
    return float(np.sum(vals @ (np.full(cos_th.size, 2.0 * math.pi / cos_th.size)) * wr))


def fluid_lp_norm(decomp, p, n_theta=None):
    """L^p norm of the reconstructed field over the fluid annulus only
    (fluid_lp_norms of the one exponent p)."""
    return fluid_lp_norms(decomp, (p,), n_theta)[0]


def fluid_lp_norms(decomp, ps, n_theta=None):
    """fluid_lp_norm of the field for each exponent of ps, in order (repeats
    included); every p must be >= 1 (or inf).

    p = 2 is exact per mode and needs no angles.  Any other p samples the
    speed on n_theta angles (by default the fewest powers of two that
    resolve |V|^p, at most 512) block by block (_sample_blocks), and only
    |V|^2 is formed: |V|^p is its (p/2)-th power and the max norm the square
    root of its maximum.  The exponents of one resolution share one
    synthesis, each block's |V|^2 feeding all of them.  Norms are kept on
    the decomposition, keyed by (p, n_theta), p = 2 by p alone."""
    ps = tuple(ps)
    for p in ps:
        if not p >= 1:
            raise InvalidArgument(f"p must be >= 1, got {p}")
    if n_theta is not None and any(p != 2 for p in ps):
        _check_resolution(n_theta, decomp.k_max)
    memo = decomp._norms
    keys = [(p, None if p == 2 else n_theta or _lp_n_theta(p, decomp.k_max)) for p in ps]
    missing = {}  # n_theta -> the exponents != 2 it still needs
    for p, nt in dict.fromkeys(keys):
        if (p, nt) in memo:
            continue
        if p == 2:
            memo[p, nt] = _fluid_l2(decomp)
        else:
            missing.setdefault(nt, []).append(p)
    for nt, group in missing.items():
        memo.update(((p, nt), val) for p, val in zip(group, _fluid_lp_group(decomp, group, nt)))
    return [memo[key] for key in keys]


def _lp_n_theta(p, k_max):
    """Default angles of an L^p norm: a power of two from 16 past
    p_eff (k_max + 1) + 4 (p_eff = max(2, ceil p), 4 for inf), at most 512."""
    p_eff = 4 if np.isinf(p) else max(2, int(math.ceil(p)))
    n_theta = 16
    while n_theta < p_eff * (k_max + 1) + 4:
        n_theta *= 2
    return min(n_theta, 512)


def _fluid_l2(decomp):
    w = decomp.grid.quad_weights
    k = np.arange(1, decomp.k_max + 1)[:, None]
    prof, dprof = _stream_profiles(decomp)
    prof = prof * (k / decomp.grid.nodes)
    energy = (dprof * dprof + prof * prof) @ w
    return math.sqrt(2.0 * math.pi * float(np.sum(w * decomp.w**2))
                     + math.pi * float(np.sum(energy)))


def _fluid_lp_group(decomp, ps, n_theta):
    """The fluid L^p norms of distinct exponents ps != 2 from one blocked
    synthesis on n_theta angles, in the order of ps."""
    w = decomp.grid.quad_weights
    acc = [None if np.isinf(p) else np.zeros(n_theta) for p in ps]
    peak = 0.0
    for lo, v in _sample_blocks(velocity_coeffs(decomp), n_theta):
        np.square(v, out=v)
        sq = v[0]
        sq += v[1]
        for p, a in zip(ps, acc):
            if a is None:
                peak = np.maximum(peak, sq.max())  # keeps a NaN
            else:
                a += sq ** (p / 2.0) @ w[lo:lo + BLOCK]
    return [math.sqrt(peak) if a is None
            else float(np.sum(a) * (2.0 * math.pi / n_theta)) ** (1.0 / p)
            for p, a in zip(ps, acc)]


def weighted_field_norm(grid, decomp, p, params):
    """Field norm with the disk weighted by m/pi:
    ( int_fluid |V|^p + (m/pi) int_disk |V|^p )^(1/p), max norm for p = inf
    (weighted_field_norms of the one exponent p)."""
    return weighted_field_norms(grid, decomp, (p,), params)[0]


def weighted_field_norms(grid, decomp, ps, params):
    """weighted_field_norm for each exponent of ps, in order (repeats
    included), the fluid parts from one fluid_lp_norms call."""
    if decomp.grid is not grid:
        raise GridMismatch("decomposition does not live on this grid")
    ps = tuple(ps)
    fluids = fluid_lp_norms(decomp, ps)  # rejects p < 1 before a disk term is formed
    out = []
    for p, fluid in zip(ps, fluids):
        ball = _ball_lp(decomp.rigid.ell, decomp.rigid.omega, p)
        if np.isinf(p):
            out.append(max(fluid, ball))
        else:
            out.append((fluid ** p + (params.m / math.pi) * ball) ** (1.0 / p))
    return out


def added_mass_pairing(decomp, direction=1):
    """Pairing of the field with the gradient of cos/sin(theta)/r over the fluid.

    The radial integral is evaluated exactly for the piecewise-linear stream
    profile (the integrand is a perfect derivative of profile/r), plus the
    contribution of the harmonic continuation beyond r_max.  For any
    admissible decomposition the result is -pi times the matching
    translation trace; the identity is exact once the trace relations hold,
    so its drift measures trace consistency of a solver run.
    """
    r = decomp.grid.nodes
    if direction == 1:
        over_r = decomp.phi / r
        return math.pi * float(np.sum(over_r[:-1] - over_r[1:])) + math.pi * over_r[-1]
    over_r = decomp.psi / r
    return math.pi * float(np.sum(over_r[1:] - over_r[:-1])) - math.pi * over_r[-1]


# ---------------------------------------------------------------------------
# field file interface
# ---------------------------------------------------------------------------


def _columns(k_max):
    """Field-file column names: radius, W, then the profile stack row by
    row (Psi, Phi for mode 1, psi_k, phi_k for k >= 2)."""
    return ["r", "W", "Psi", "Phi"] + [f"{c}_{k}" for k in range(2, k_max + 1)
                                       for c in ("psi", "phi")]


def save_field_file(path, decomp):
    """Columnar text: `# ell_x ell_y omega`, header row, one row per node."""
    rig = decomp.rigid
    data = [decomp.grid.nodes, decomp.w, *decomp.profiles.reshape(-1, decomp.grid.n_points)]
    write_columns(path, _columns(decomp.k_max), zip(*data),
                  f"{rig.ell[0]:.17e} {rig.ell[1]:.17e} {rig.omega:.17e}")


def _floats(toks, where, width=None, finite=True):
    """The tokens of the columnar-file line named where as floats: width of
    them if width is given, finite ones unless finite=False."""
    if width is not None and len(toks) != width:
        raise InvalidArgument(f"{where} has {len(toks)} values for {width} columns")
    try:
        vals = [float(tok) for tok in toks]
    except ValueError as exc:
        raise InvalidArgument(f"{where}: {exc}") from exc
    if finite and not all(math.isfinite(v) for v in vals):
        raise InvalidArgument(f"{where} holds a non-finite value")
    return vals


def load_field_file(path, grid=None):
    """Inverse of save_field_file.  With grid=None the mesh is rebuilt from
    the radius column (stretch is then only a label).

    Raises InvalidArgument on a malformed file: a first line that is not
    `# ell_x ell_y omega`, a header without the r, W, Psi, Phi columns or
    with an unpaired psi_k/phi_k, a row whose width differs from the
    header's, no rows, a value that is not a finite number, or a translation
    (ell_x, ell_y) that differs from the mode-1 traces (-Phi(1), Psi(1)) by
    more than roundoff.  omega is not checked against W(1): a projected
    field carries the ball's rotation, not the fluid trace."""
    with open(path) as fh:
        first = fh.readline()
        header = [c.strip() for c in fh.readline().split(",")]
        lines = [(i, line) for i, line in enumerate(fh, start=3) if line.strip()]
    toks = first[1:].split() if first.startswith("#") else []
    if len(toks) != 3:
        raise InvalidArgument("field file must start with '# ell_x ell_y omega'")
    k_max = 1
    while f"psi_{k_max + 1}" in header or f"phi_{k_max + 1}" in header:
        k_max += 1
    required = _columns(k_max)
    missing = [name for name in required if name not in header]
    if missing:
        raise InvalidArgument(f"field file lacks the column(s) {', '.join(missing)}")
    if not lines:
        raise InvalidArgument("field file has no data rows")
    ex, ey, om = _floats(toks, "field file line 1")
    rows = [_floats(line.split(","), f"field file line {i}", len(header)) for i, line in lines]
    data = np.asarray(rows).T
    cols = {name: data[i] for i, name in enumerate(header)}
    nodes = cols["r"]
    if grid is None:
        grid = RadialGrid(nodes, nodes[-1], 0.0)
    elif grid.n_points != nodes.size or not np.allclose(grid.nodes, nodes, rtol=0, atol=1e-12):
        raise GridMismatch("field file nodes do not match the supplied grid")
    trace = (-float(cols["Phi"][0]), float(cols["Psi"][0]))
    if abs(ex - trace[0]) + abs(ey - trace[1]) > 1e-12 * max(map(abs, (ex, ey, *trace))):
        raise InvalidArgument(f"field file line 1: ell = ({ex!r}, {ey!r}) disagrees with "
                              f"the mode-1 traces (-Phi(1), Psi(1)) = {trace!r}")
    profiles = np.array([cols[name] for name in required[2:]]).reshape(k_max, 2, -1)
    return ModeDecomposition(grid, cols["W"], profiles, RigidState(np.array([ex, ey]), om))
