"""The coupled fluid-disk evolution, one scalar subsystem per angular mode.

The linear evolution of a decomposed field splits into independent radial
systems: the tangential mean w (dynamic boundary condition with angular
parameter 1, coupling 2*pi/inertia), the two transformed mode-1 unknowns
z = d(psi)/dr + psi/r (dynamic, parameter 0, coupling 4*pi/(pi+m)), and for
every harmonic k >= 2 the pair z_k = r^-k d/dr(r^k psi_k) which obeys a
homogeneous-Dirichlet heat equation with shifted parameter k-1.  The z
variables are primary: the pressure never appears, the stream profiles are
recovered by explicit inversion after each step, and the disk velocity is
read off the boundary scalars (translation = half the mode-1 boundary
values, rotation = the w boundary value).

Viscosity enters the coefficients directly; since the systems are linear and
autonomous this is the exact time rescaling t -> nu t of the unit-viscosity
solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import dynbc
from .dynbc import DynBCParams, ScalarModeState
from .elliptic import invert_z, z_transform
from .errors import InvalidArgument, NonpositiveTime
from .fields import (
    ModeDecomposition,
    RigidState,
    _trace_rigid,
    added_mass_pairing,
    decomp_axpy,
    fluid_lp_norms,
    weighted_field_norm,
    weighted_field_norms,
)
from .grid import PhysicalParams, RadialGrid

__all__ = [
    "StokesState",
    "AsymptoticMomenta",
    "init_stokes",
    "step_stokes",
    "evolve_stokes",
    "lamb_oseen_profile",
    "recover_mode1_pressure",
    "reconstruct_trajectory",
    "asymptotic_momenta",
    "state_axpy",
    "StokesRecorder",
    "subsystem_params",
    "decomp_to_sources",
]


@dataclass(frozen=True)
class StokesState:
    """Evolution state: the primary z unknowns plus the spectral field.

    z stacks the radial profile of every scalar subsystem, one row each: w,
    z_psi_1, z_phi_1, z_psi_2, z_phi_2, ..., and ell holds their boundary
    values (0 on the Dirichlet rows of the modes k >= 2); both are taken as
    given and made read-only.  w_state, z_psi, z_phi and z_higher are
    ScalarModeState views of the rows.  The decomposition is derived from
    the z variables on first read and kept, so transform/inversion
    consistency holds whenever it is read; a march that reads only the stack
    never inverts.  Its norms are kept on the decomposition."""

    grid: RadialGrid
    z: np.ndarray
    ell: np.ndarray
    t: float
    params: PhysicalParams
    _decomp: ModeDecomposition | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if len(self.ell) % 2 == 0 or self.z.shape != (len(self.ell), self.grid.n_points):
            raise InvalidArgument("z must be a (2*k_max + 1, n_points) stack, one ell per row")
        self.z.flags.writeable = self.ell.flags.writeable = False

    k_max = property(lambda self: len(self.ell) // 2)
    w_state = property(lambda self: self._row(0))
    z_psi = property(lambda self: self._row(1))
    z_phi = property(lambda self: self._row(2))

    def _row(self, i):
        return ScalarModeState._view(self.grid, self.z[i], self.ell[i], self.t)

    @property
    def z_higher(self):
        """(z_psi_k, z_phi_k) pairs of the modes k >= 2."""
        return tuple((self._row(i), self._row(i + 1)) for i in range(3, len(self.ell), 2))

    @property
    def decomp(self):
        if self._decomp is None:
            object.__setattr__(self, "_decomp", _rebuild_decomp(self.grid, self.z, self.ell))
        return self._decomp

    @property
    def l2_norm(self):
        """weighted_field_norm of the field at p = 2."""
        return weighted_field_norm(self.grid, self.decomp, 2.0, self.params)

    @property
    def rigid(self):
        return self.decomp.rigid


@dataclass(frozen=True)
class AsymptoticMomenta:
    """Conserved data selecting the long-time profile: the total momentum
    (m - pi) * ell(0) and the scalar masses of the two mode-1 z systems."""

    M_vec: np.ndarray
    M_phi: float
    M_psi: float


def subsystem_params(params, kind, k=0):
    """DynBCParams for one scalar subsystem of the coupled evolution."""
    if kind == "w":
        return DynBCParams(1, params.alpha_w, params.nu, "dynamic")
    if kind == "z1":
        return DynBCParams(0, params.alpha0, params.nu, "dynamic")
    if kind == "higher":
        return DynBCParams(k - 1, 1.0, params.nu, "dirichlet")
    raise InvalidArgument(f"unknown subsystem kind {kind!r}")


def init_stokes(decomp, params, t=0.0):
    """Build the z variables from a decomposition (decomp_to_sources).

    The boundary scalars come from the rigid data (ell_z = 2*ell, the trace
    relations), the fluid parts from the stream transforms; an initial
    no-slip mismatch shows up as a trace jump that the first step smooths,
    exactly as in the scalar solver.  The state keeps decomp itself as its
    decomposition: a rebuild from the z variables differs when the data's
    traces do not match its rigid part.
    """
    z, ell = decomp_to_sources(decomp)
    if not (np.all(np.isfinite(z)) and np.all(np.isfinite(ell))):
        raise InvalidArgument("state entries must be finite")
    return StokesState(decomp.grid, z, ell, t, params, _decomp=decomp)


def _orders(k_max):
    """Angular order of each row of the (psi_1, phi_1, psi_2, phi_2, ...)
    stack of stream profiles or z variables."""
    return tuple(j // 2 for j in range(2, 2 * k_max + 2))


def _rebuild_decomp(grid, z, ell):
    """The decomposition of a (z, ell) stack: one inversion of every z row,
    the phi rows taking the opposite orientation (z = -(phi' + k phi/r))."""
    k_max = len(ell) // 2
    psi1 = np.zeros(2 * k_max)
    psi1[:2] = ell[1:3] / 2.0
    psi = invert_z(grid, z[1:], _orders(k_max), psi1)
    psi[1::2] *= -1.0
    rigid = RigidState(psi1[[1, 0]], float(ell[0]))
    return ModeDecomposition(grid, z[0], psi.reshape(-1, 2, grid.n_points), rigid)


def _packed_system(grid, params, k_max):
    """The stepper of every row of a k_max stack and the (validated)
    parameters of the w row, which carry the common time scheme; memoized on
    the grid, so a march validates its parameters once."""
    return grid.memo(("stokes", params, k_max), _build_packed_system, grid, params, k_max)


def _build_packed_system(grid, params, k_max):
    z1 = subsystem_params(params, "z1")
    ops = [subsystem_params(params, "w"), z1, z1]
    for k in range(2, k_max + 1):
        ops += [subsystem_params(params, "higher", k=k)] * 2
    return dynbc.packed_stepper(grid, ops), ops[0]


def step_stokes(state, dt, sources=None, first_step=False):
    """Advance every scalar subsystem by dt; the decomposition of the new
    state is derived when first read.

    sources, if given, is a (fluid stack, boundary values) pair in the row
    layout of StokesState, as produced by decomp_to_sources; rows beyond the
    state's are ignored and missing ones stay unforced.  The subsystems
    remain exactly decoupled inside the one packed solve.
    """
    stepper, scheme = _packed_system(state.grid, state.params, state.k_max)
    z = stepper.step(state.z, state.ell, dt, scheme.theta, scheme.startup_steps,
                     sources, first_step)
    return StokesState(state.grid, z, z[:, 0], state.t + dt, state.params)


def evolve_stokes(state0, t_end, dt, observer=None, observe_times=None):
    """March the coupled linear system from state0.t to t_end (dynbc.march)."""
    return dynbc.march(state0, lambda s, first: step_stokes(s, dt, first_step=first),
                       t_end, dt, observer, observe_times)


def state_axpy(ca, a, cb=0.0, b=None):
    """Linear combination of Stokes states (all channels are linear); the
    shorter stack counts as zero-padded, as in decomp_axpy."""
    if b is None:
        b, cb = a, 0.0
    decomp = decomp_axpy(ca, a.decomp, cb, b.decomp)
    return StokesState(a.grid, _axpy(ca, a.z, cb, b.z), _axpy(ca, a.ell, cb, b.ell),
                       a.t, a.params, _decomp=decomp)


def _axpy(ca, x, cb, y):
    """ca*x + cb*y of two row stacks, the shorter counting as zero-padded."""
    if len(x) < len(y):
        ca, x, cb, y = cb, y, ca, x
    out = ca * x
    out[:len(y)] += cb * y
    return out


def decomp_to_sources(decomp):
    """The (z, ell) stack of a field in the row layout of StokesState: the z
    variables of initial data (init_stokes), or the per-subsystem sources of
    a forcing field such as the projected convection term (step_stokes).

    The boundary ODEs are forced by the rigid part of the projection: the
    rotation rate feeds the w system and twice the translation components
    feed the mode-1 z systems (their boundary scalars are 2*ell)."""
    grid = decomp.grid
    rig = decomp.rigid
    z = np.empty((2 * decomp.k_max + 1, grid.n_points))
    z[0] = decomp.w
    z[1:] = z_transform(grid, decomp.profiles.reshape(-1, grid.n_points), _orders(decomp.k_max))
    z[2::2] *= -1.0
    ell = np.zeros(len(z))
    ell[:3] = rig.omega, 2.0 * rig.ell[1], 2.0 * rig.ell[0]
    return z, ell


def lamb_oseen_profile(grid, t, nu, M_vec):
    """The self-similar dipole carrying momentum M_vec at time t.

    Stream profile (1 - exp(-r^2/(4 nu t))) / (2 pi r); the cos channel is
    weighted by the y-momentum and the sin channel by minus the x-momentum.
    """
    if t <= 0:
        raise NonpositiveTime(f"t must be > 0, got {t}")
    M_vec = np.asarray(M_vec, dtype=float).reshape(2)
    r = grid.nodes
    prof = (1.0 - np.exp(-(r * r) / (4.0 * nu * t))) / (2.0 * math.pi * r)
    profiles = np.array([[M_vec[1] * prof, -M_vec[0] * prof]])
    return ModeDecomposition(grid, np.zeros_like(r), profiles, _trace_rigid(profiles, 0.0))


def recover_mode1_pressure(state):
    """Boundary coefficients of the mode-1 pressures (full pressure = beta/r).

    From the boundary flux balance, beta = nu * dz/dr(1) * (pi - m)/(pi + m)
    for each channel; equivalently ell' - nu*dz/dr(1) with ell' taken from
    the boundary ODE.  Returns (beta_q, beta_p) for the (sin, cos) channels.
    """
    params = state.params
    grid = state.grid
    fac = params.nu * (math.pi - params.m) / (math.pi + params.m)
    beta_q = fac * grid.boundary_derivative(state.z[1])
    beta_p = fac * grid.boundary_derivative(state.z[2])
    return beta_q, beta_p


def reconstruct_trajectory(rigid_series, dt=None, times=None):
    """Integrate the velocity series into center positions and angles.

    The body-to-lab change of frame is bookkeeping only: the disk is
    rotation invariant, so no field rotation is applied.  Trapezoid in time
    on a uniform (dt) or explicit (times) sampling."""
    ells = np.array([rs.ell for rs in rigid_series], dtype=float)
    omegas = np.array([rs.omega for rs in rigid_series], dtype=float)
    if times is None:
        if dt is None:
            raise InvalidArgument("need dt or times")
        times = dt * np.arange(len(rigid_series))
    times = np.asarray(times, dtype=float)
    dts = np.diff(times)
    h = np.zeros_like(ells)
    th = np.zeros_like(omegas)
    h[1:] = np.cumsum(0.5 * dts[:, None] * (ells[:-1] + ells[1:]), axis=0)
    th[1:] = np.cumsum(0.5 * dts * (omegas[:-1] + omegas[1:]))
    return [
        RigidState(ells[i], omegas[i], h[i], th[i]) for i in range(len(rigid_series))
    ]


def asymptotic_momenta(state):
    """Quadrature masses of the two mode-1 z systems plus (m - pi) * ell.

    For stream profiles with decaying tails the quadrature and closed-form
    routes agree; the masses are step invariants of the evolution."""
    params = state.params
    p0 = subsystem_params(params, "z1")
    M_phi = dynbc.mass(state.z_phi, p0)
    M_psi = dynbc.mass(state.z_psi, p0)
    M_vec = (params.m - math.pi) * np.asarray(state.rigid.ell, dtype=float)
    return AsymptoticMomenta(M_vec, M_phi, M_psi)


class StokesRecorder(dynbc.Recorder):
    """Observer for coupled runs: velocities, field norms, masses, profile
    errors against the self-similar dipole, and the added-mass residual."""

    def __init__(self, params, p_values=(2.0,), M_vec=None, profile_ps=(2.0,)):
        p_values = tuple(p_values)
        profile_ps = tuple(profile_ps)
        if M_vec is not None:
            M_vec = np.asarray(M_vec, dtype=float)
        header = ["t", "ell_x", "ell_y", "omega"]
        header += [f"norm_L{dynbc.fmt_p(p)}" for p in p_values]
        header += [f"profile_err_L{dynbc.fmt_p(p)}" for p in profile_ps]
        header += ["mass_phi", "mass_psi", "added_mass_resid"]

        def row(state):
            d = state.decomp
            profile_err = [math.nan] * len(profile_ps)
            if M_vec is not None and state.t > 0:
                ref = lamb_oseen_profile(state.grid, state.t, params.nu, M_vec)
                diff = decomp_axpy(1.0, d, -1.0, ref)
                profile_err = fluid_lp_norms(diff, profile_ps)
            mom = asymptotic_momenta(state)
            resid = added_mass_pairing(d, 1) + math.pi * d.rigid.ell[0]
            return [
                state.t, *d.rigid.ell, d.rigid.omega,
                *weighted_field_norms(state.grid, d, p_values, params),
                *profile_err, mom.M_phi, mom.M_psi, resid,
            ]

        super().__init__(header, row)
