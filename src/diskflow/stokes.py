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
    added_mass_pairing,
    decomp_axpy,
    fluid_lp_norm,
    weighted_field_norm,
)
from .grid import PhysicalParams

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

    channels is PackedStepper's block layout, one block of ScalarModeStates
    per channel operator: ((w,), (z_psi, z_phi), (z_psi_2, z_phi_2), ...),
    the z pairs of each higher mode k >= 2 following mode 1.  The
    decomposition is derived from the z variables on first read and kept,
    so transform/inversion consistency holds whenever it is read; a march
    that reads only the channels never inverts.  The L2 field norm is kept
    the same way."""

    channels: tuple
    t: float
    params: PhysicalParams
    _decomp: ModeDecomposition | None = field(default=None, compare=False, repr=False)
    _l2_norm: float | None = field(default=None, compare=False, repr=False)

    @property
    def grid(self):
        return self.w_state.grid

    @property
    def w_state(self):
        return self.channels[0][0]

    @property
    def z_psi(self):
        return self.channels[1][0]

    @property
    def z_phi(self):
        return self.channels[1][1]

    @property
    def z_higher(self):
        return self.channels[2:]

    @property
    def decomp(self):
        if self._decomp is None:
            object.__setattr__(self, "_decomp", _rebuild_decomp(self.grid, self.channels))
        return self._decomp

    @property
    def l2_norm(self):
        """weighted_field_norm of the field at p = 2."""
        if self._l2_norm is None:
            n = weighted_field_norm(self.grid, self.decomp, 2.0, self.params)
            object.__setattr__(self, "_l2_norm", n)
        return self._l2_norm

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


def subsystem_params(params, kind, k=0, theta=0.5, startup_steps=2):
    """DynBCParams for one scalar subsystem of the coupled evolution."""
    if kind == "w":
        return DynBCParams(1, params.alpha_w, params.nu, "dynamic", theta, startup_steps)
    if kind == "z1":
        return DynBCParams(0, params.alpha0, params.nu, "dynamic", theta, startup_steps)
    if kind == "higher":
        return DynBCParams(k - 1, 1.0, params.nu, "dirichlet", theta, startup_steps)
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
    channels = tuple(
        tuple(ScalarModeState(decomp.grid, y, ell, t) for y, ell in block)
        for block in decomp_to_sources(decomp)
    )
    return StokesState(channels, t, params, _decomp=decomp)


def _orders(k_max):
    """Angular order of each row of the (psi_1, phi_1, psi_2, phi_2, ...)
    stack of stream profiles or z variables."""
    return tuple(j // 2 for j in range(2, 2 * k_max + 2))


def _rebuild_decomp(grid, channels):
    """The decomposition of a channel tuple: one inversion of every z row,
    the phi rows taking the opposite orientation (z = -(phi' + k phi/r))."""
    (w_state,), *pairs = channels
    z_psi, z_phi = pairs[0]
    ell = np.zeros(2 * len(pairs))
    ell[:2] = z_psi.ell / 2.0, z_phi.ell / 2.0
    z = np.stack([zk.y for pair in pairs for zk in pair])
    psi = invert_z(grid, z, _orders(len(pairs)), ell)
    psi[1::2] *= -1.0
    rigid = RigidState(ell[[1, 0]], float(w_state.ell))
    higher = psi[2:].reshape(-1, 2, grid.n_points)
    return ModeDecomposition(grid, w_state.y, psi[0], psi[1], higher, rigid)


def _packed_system(grid, params, n_high, theta):
    """Every distinct channel operator in one packed system: w, the mode-1
    operator shared by z_psi and z_phi, then one operator per higher mode
    shared by its two channels.  Returns the stepper and the (validated)
    parameters of the w channel, which carry the common time scheme; both
    are memoized on the grid, so a march validates its parameters once."""
    return grid.memo(("stokes", params, n_high, theta), _build_packed_system,
                     grid, params, n_high, theta)


def _build_packed_system(grid, params, n_high, theta):
    ops = [subsystem_params(params, "w", theta=theta), subsystem_params(params, "z1", theta=theta)]
    ops += [subsystem_params(params, "higher", k=k, theta=theta) for k in range(2, n_high + 2)]
    return dynbc.packed_stepper(grid, ops), ops[0]


def step_stokes(state, dt, sources=None, first_step=False, theta=0.5):
    """Advance every scalar subsystem by dt; the decomposition of the new
    state is derived when first read.

    sources, if given, holds (fluid profile, boundary source) pairs in the
    channel layout, as produced by decomp_to_sources; blocks beyond the
    state's are ignored and missing ones stay unforced.  The subsystems
    remain exactly decoupled inside the one packed solve.
    """
    stepper, scheme = _packed_system(state.grid, state.params, len(state.channels) - 2, theta)
    channels = stepper.step(
        state.channels, dt, scheme.theta, scheme.startup_steps, sources, first_step
    )
    return StokesState(tuple(map(tuple, channels)), state.t + dt, state.params)


def evolve_stokes(state0, t_end, dt, observer=None, observe_times=None):
    """March the coupled linear system from state0.t to t_end (dynbc.march)."""
    return dynbc.march(state0, lambda s, first: step_stokes(s, dt, first_step=first),
                       t_end, dt, observer, observe_times)


def state_axpy(ca, a, cb=0.0, b=None):
    """Linear combination of Stokes states (all channels are linear)."""
    if b is None:
        b = a
        cb = 0.0
    decomp = decomp_axpy(ca, a.decomp, cb, b.decomp)
    return StokesState(_channels_axpy(ca, a, cb, b), a.t, a.params, _decomp=decomp)


def _channels_axpy(ca, a, cb, b):
    """The channels of state_axpy(ca, a, cb, b) alone, at a.t: enough for a
    state that only step_stokes reads, with no decomposition to combine."""
    return tuple(
        tuple(
            ScalarModeState(a.grid, ca * sa.y + cb * sb.y, ca * sa.ell + cb * sb.ell, a.t)
            for sa, sb in zip(block_a, block_b)
        )
        for block_a, block_b in zip(a.channels, b.channels)
    )


def decomp_to_sources(decomp):
    """(fluid profile, boundary value) pairs of a field in the channel
    layout of StokesState: the z variables of initial data (init_stokes), or
    the per-subsystem sources of a forcing field such as the projected
    convection term (step_stokes).

    The boundary ODEs are forced by the rigid part of the projection: the
    rotation rate feeds the w system and twice the translation components
    feed the mode-1 z systems (their boundary scalars are 2*ell)."""
    grid = decomp.grid
    rig = decomp.rigid
    profiles = np.concatenate([[decomp.psi, decomp.phi], decomp.higher.reshape(-1, grid.n_points)])
    z = z_transform(grid, profiles, _orders(decomp.k_max))
    z[1::2] *= -1.0
    return (
        ((decomp.w, float(rig.omega)),),
        ((z[0], 2.0 * float(rig.ell[1])), (z[1], 2.0 * float(rig.ell[0]))),
        *(((zpk, 0.0), (zfk, 0.0)) for zpk, zfk in z[2:].reshape(-1, 2, grid.n_points)),
    )


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
    psi = M_vec[1] * prof
    phi = -M_vec[0] * prof
    rigid = RigidState(np.array([-phi[0], psi[0]]), 0.0)
    return ModeDecomposition(
        grid, np.zeros_like(r), psi, phi, np.zeros((0, 2, grid.n_points)), rigid
    )


def recover_mode1_pressure(state):
    """Boundary coefficients of the mode-1 pressures (full pressure = beta/r).

    From the boundary flux balance, beta = nu * dz/dr(1) * (pi - m)/(pi + m)
    for each channel; equivalently ell' - nu*dz/dr(1) with ell' taken from
    the boundary ODE.  Returns (beta_q, beta_p) for the (sin, cos) channels.
    """
    params = state.params
    grid = state.grid
    fac = params.nu * (math.pi - params.m) / (math.pi + params.m)
    beta_q = fac * grid.boundary_derivative(state.z_psi.y)
    beta_p = fac * grid.boundary_derivative(state.z_phi.y)
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
                profile_err = [fluid_lp_norm(diff, p) for p in profile_ps]
            mom = asymptotic_momenta(state)
            resid = added_mass_pairing(d, 1) + math.pi * d.rigid.ell[0]
            return [
                state.t, *d.rigid.ell, d.rigid.omega,
                *(weighted_field_norm(state.grid, d, p, params) for p in p_values),
                *profile_err, mom.M_phi, mom.M_psi, resid,
            ]

        super().__init__(header, row)
