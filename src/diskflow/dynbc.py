"""Radial heat equations with a dynamic boundary condition at the disk.

The scalar family solved here is

    dy/dt = nu * ( (1/r) d/dr (r dy/dr) - k^2 y / r^2 )      on (1, r_max),
    y(t, 1) = ell(t),
    d ell/dt = alpha_tilde * nu * ( dy/dr(t,1) - k y(t,1) ),
    y(t, r_max) = 0,

with k in {0, 1} (variant "dynamic"), plus the homogeneous-Dirichlet variant
(y(t,1) = 0, any k >= 1) used by the higher angular modes.

Discretization: lumped P1 elements against the measure r dr, so the stiffness
coefficients are exact element integrals r_{i+1/2}/h_i and the lumped mass
weights coincide with the grid quadrature weights.  The boundary ODE is
folded into the r = 1 row through the same one-sided flux nu * dy/dr(1) that
appears in the interior conservation sum, which makes the discrete total mass

    M = 2*pi * sum_i w_i y_i + (2*pi/alpha_tilde) * ell          (k = 0)

an exact invariant of every step, up to the far-field leak at r_max and
linear-solver roundoff.  Time stepping is the theta-method, theta in (0, 1]
(Crank-Nicolson by default), after a configurable number of damped
implicit-Euler startup steps that smooth rough initial data.  As
M - (1 - theta) nu dt K = (M - (1 - theta) F) / theta for F = M + theta nu dt K,
a step is u1 = F^{-1} (M u / theta + dt f) - ((1 - theta) / theta) u: one
solve with the cached factor of F and no product with the stiff K.

Several scalar systems advance together as one packed system
(PackedStepper): each row of a stack of profiles is its own block of one
SPD tridiagonal matrix, and every (sub)step is one solve with its L D L^T
factor (LAPACK dpttrf/dpttrs).  A row with zero data, a zero boundary value
and no forcing stays exactly zero, so only the other (live) rows are
solved.  A single system (step) is the one-row case.
"""

from __future__ import annotations

import math
import numbers
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs

from .errors import InvalidArgument, NonpositiveTime, SolverFailure, UnsupportedVariant
from .grid import RadialGrid

__all__ = [
    "DynBCParams",
    "ScalarModeState",
    "step",
    "evolve",
    "march",
    "mass",
    "gaussian_profile",
    "lp_norm",
    "lyapunov_functional",
    "Recorder",
    "TimeSeriesRecorder",
    "geometric_times",
    "write_columns",
    "fmt_p",
]


@dataclass(frozen=True)
class DynBCParams:
    """Parameters of one scalar mode system.

    k is the angular parameter appearing in the PDE potential k^2/r^2 and in
    the boundary flux (dy/dr - k y).  The dynamic variant supports k in
    {0, 1}; the Dirichlet variant (k >= 1) drops the boundary ODE and is used
    for angular mode k+1 of the velocity field.
    """

    k: int
    alpha_tilde: float = 1.0
    nu: float = 1.0
    variant: str = "dynamic"
    theta: float = 0.5
    startup_steps: int = 2

    def __post_init__(self):
        if self.variant not in ("dynamic", "dirichlet"):
            raise InvalidArgument(f"unknown variant {self.variant!r}")
        if self.variant == "dynamic" and self.k not in (0, 1):
            raise InvalidArgument("dynamic boundary condition only used with k in {0, 1}")
        if self.variant == "dirichlet" and self.k < 1:
            raise InvalidArgument("dirichlet variant expects k >= 1")
        if self.variant == "dynamic" and self.alpha_tilde <= 0:
            raise InvalidArgument("alpha_tilde must be > 0")
        if self.nu <= 0:
            raise InvalidArgument("nu must be > 0")
        if not 0.0 < self.theta <= 1.0:
            raise InvalidArgument("theta must lie in (0, 1]")
        if not isinstance(self.startup_steps, numbers.Integral) or self.startup_steps < 0:
            raise InvalidArgument("startup_steps must be an integer >= 0")


@dataclass(frozen=True)
class ScalarModeState:
    """One radial profile plus its boundary scalar.

    y holds the nodal values on the fluid grid (y[0] at r = 1); ell is the
    boundary/ball value.  After any solver step y[0] == ell exactly for the
    dynamic variant and y[0] == 0 for the Dirichlet variant.  An initial
    trace mismatch y[0] != ell is permitted; the first implicit step smooths
    it.
    """

    grid: RadialGrid
    y: np.ndarray
    ell: float = 0.0
    t: float = 0.0

    def __post_init__(self):
        y = np.asarray(self.y, dtype=float)
        if y.shape != (self.grid.n_points,):
            raise InvalidArgument("y must have one entry per grid node")
        if not np.all(np.isfinite(y)) or not math.isfinite(self.ell):
            raise InvalidArgument("state entries must be finite")
        y = y.copy()
        y.flags.writeable = False
        object.__setattr__(self, "y", y)

    @classmethod
    def _view(cls, grid, y, ell, t):
        """A state over the read-only row y of a checked stack, as is: the
        public constructor's copy and finiteness scan are skipped."""
        state = object.__new__(cls)
        state.__dict__.update(grid=grid, y=y, ell=float(ell), t=t)
        return state


# perfbench/tracer.py times the dynbc layer by wrapping these two names
def cholesky_banded(diag, off):
    """L D L^T factor (d, e) of the tridiagonal matrix with diagonal diag and
    off-diagonal off (LAPACK dpttrf, which overwrites both)."""
    d, e, info = dpttrf(diag, off, overwrite_d=True, overwrite_e=True)
    if info != 0:
        raise SolverFailure("implicit system is not positive definite")
    return d, e


def cho_solve_banded(fac, rhs):
    """Solution x of F x = rhs for the factor fac = (d, e) of F
    (LAPACK dpttrs, which overwrites rhs)."""
    return dpttrs(*fac, rhs, overwrite_b=True)[0]


class PackedStepper:
    """Theta-method system of several scalar rows, solved as one.

    Row i of a (rows, n) stack advances under operator ops[i] with the n-1
    unknowns [ell or a pinned 0, y_1 .. y_{n-2}] (y_{n-1} == 0): a dynamic
    row's first unknown is ell (y_0 == ell), a Dirichlet row's is pinned to
    zero by an identity row.  The rows sit along the diagonal of one SPD
    tridiagonal matrix whose coupling entries at each row edge and next to a
    pinned entry are zero, so they stay exactly decoupled: a (sub)step is one
    L D L^T tridiagonal solve, between a scaling and, for theta < 1,
    a subtraction (see above).  All operators share one viscosity, so the
    factor is cached under the implicit coefficient theta nu dt alone:
    the Rannacher substeps theta = 1, dt/2 of the default two-substep start
    reuse the Crank-Nicolson factor theta = 1/2, dt.
    """

    def __init__(self, grid, ops):
        if len({p.nu for p in ops}) != 1:
            raise InvalidArgument("packed operators must share one viscosity")
        self.nu = ops[0].nu
        self.w = w = grid.quad_weights
        r = grid.nodes
        stiff = grid.face_r / grid.spacings  # exact P1 element integrals r_{i+1/2}/h_i
        self.dynamic = np.array([p.variant == "dynamic" for p in ops])
        self.alpha = np.array([p.alpha_tilde for p in ops])
        # rows of one (k, alpha_tilde, variant) share one block: it is built
        # and factored once, and gathered onto each of its rows
        keys = [(p.k, p.alpha_tilde, p.variant) for p in ops]
        index = {key: i for i, key in enumerate(dict.fromkeys(keys))}
        self.block = np.array([index[key] for key in keys])  # each row's block
        mvec = np.ones((len(index), grid.n_points - 1))  # a pinned entry keeps 1
        diag = np.zeros_like(mvec)
        off = np.zeros_like(mvec)  # the last entry of a row couples to nothing
        for (k, alpha, variant), m, d, o in zip(index, mvec, diag, off):
            kk = k * k
            # nodes 1 .. n-2; the Dirichlet variant stops there
            d[1:] = stiff[:-1] + stiff[1:] + kk * w[1:-1] / r[1:-1] ** 2
            m[1:] = w[1:-1]
            o[1:-1] = -stiff[1:-1]
            if variant == "dynamic":
                # node 0 carries ell: ball mass 1/alpha and boundary flux k*y
                d[0] = stiff[0] + kk * w[0] / r[0] ** 2 + k
                m[0] = w[0] + 1.0 / alpha
                o[0] = -stiff[0]
        self._blocks = (mvec.ravel(), diag.ravel(), off.ravel()[:-1])
        self.mvec = mvec[self.block].ravel()
        self._factors = {}
        self._row_systems = {}

    def _factor(self, a):
        """L D L^T factor (d, e) of M + a K, a = theta nu dt.

        Each distinct block is factored once and its d and e are gathered
        onto the rows it serves.  The coupling entries between blocks are
        zero, so they factor to e = 0 and leave the next d unchanged: this is
        the factor of the whole stacked matrix bit for bit.
        """
        fac = self._factors.get(a)
        if fac is None:
            mvec, k_diag, k_off = self._blocks
            fac = cholesky_banded(mvec + a * k_diag, a * k_off)
            if fac[0].size < self.mvec.size:  # some rows share a block
                fac = _gather_rows(fac, self.block, self.w.size - 1)
            self._factors[a] = fac
        return fac

    def _system(self, a, rows):
        """Lumped mass and L D L^T factor of M + a K on the rows `rows`: every
        row (slice(None)), or an index array whose mass and factor are
        gathered from the whole stack's and cached per (a, rows)."""
        if isinstance(rows, slice):
            return self.mvec, self._factor(a)
        key = (a, rows.tobytes())
        system = self._row_systems.get(key)
        if system is None:
            width = self.w.size - 1
            system = self._row_systems[key] = (
                self.mvec.reshape(-1, width)[rows].ravel(),
                _gather_rows(self._factor(a), rows, width))
        return system

    def _advance(self, u, theta, dt, rows, source=None, trace_fix=None):
        # u1 = F^{-1} (M u / theta + dt f + fix) - ((1 - theta) / theta) u
        mvec, fac = self._system(theta * self.nu * dt, rows)
        rhs = mvec * u
        if theta != 1.0:
            rhs *= 1.0 / theta
        elif trace_fix is None and source is None:
            # -0.0 to +0.0, as the trace fix, the forcing or the theta < 1
            # subtraction does otherwise: a zero row solves to +0.0 always
            rhs += 0.0
        if trace_fix is not None:
            rhs += trace_fix
        if source is not None:
            rhs += dt * source
        out = cho_solve_banded(fac, rhs)  # in place of the fresh rhs
        if theta != 1.0:
            out -= ((1.0 - theta) / theta) * u
        return out

    def _live_rows(self, z, ell, sources):
        """The rows a step must solve: slice(None) for every row, else the
        sorted index array of the live ones (possibly empty).

        A row with a zero boundary value, no forcing and a zero profile
        (-0.0 counts as zero) stays exactly +0.0 under a step.  A row with a
        nonzero boundary value, or one the sources cover, is live: when every
        row is, nothing is scanned; otherwise the whole stack is scanned at
        once, which costs less than gathering the rows still in doubt.  A
        one-row stack (step) is solved as it is: only a zero state could be
        skipped, and the test would cost every scalar step.
        """
        forced = 0 if sources is None else len(sources[0])
        if len(z) == 1 or forced >= len(z) or np.count_nonzero(ell) == len(ell):
            return slice(None)
        live = ell != 0
        live[:forced] = True
        live |= z.any(axis=1)
        return slice(None) if np.count_nonzero(live) == len(live) else np.flatnonzero(live)

    def step(self, z, ell, dt, theta, startup_steps, sources=None, first_step=False):
        """Advance every row of the (rows, n) stack z, whose boundary values
        are ell, by one step of length dt.

        sources, if given, is a (fluid stack, boundary values) pair: its rows
        beyond z's are ignored and z's rows beyond it stay unforced.
        first_step=True runs startup_steps implicit-Euler substeps instead of
        one theta step.  Only the live rows (_live_rows) are solved; the
        others come back as +0.0, as a solve of every row gives them.
        Returns the new read-only stack; its first column holds the new
        boundary values.
        """
        if not 0.0 < dt < math.inf:
            raise InvalidArgument(f"dt must be finite and > 0, got {dt}")
        out = np.zeros(z.shape)
        rows = self._live_rows(z, ell, sources)
        if not isinstance(rows, slice) and not rows.size:
            out.flags.writeable = False
            return out
        w = self.w
        dynamic = self.dynamic[rows]
        u = np.array(z[rows, :-1], dtype=float)
        u[:, 0] = np.where(dynamic, ell[rows], 0.0)
        fix = None
        if first_step:
            # An initial trace mismatch y[0] != ell is allowed; the packed
            # unknown carries ell, so the first right-hand side restores the
            # true mass w_0*y[0] + ell/alpha before the implicit step smooths
            # the jump.
            fix = np.zeros_like(u)
            fix[:, 0] = np.where(dynamic, w[0] * (z[rows, 0] - ell[rows]), 0.0)
            fix = fix.ravel()
        forcing = None
        if sources is not None:
            # the forced rows 0 .. forced-1 are live, so they lead the live rows
            fluid, ell_src = sources
            forced = min(len(fluid), len(z))
            forcing = np.zeros_like(u)
            forcing[:forced] = w[:-1] * fluid[:forced, :-1]
            edge = forcing[:forced, 0] + ell_src[:forced] / self.alpha[:forced]
            forcing[:forced, 0] = np.where(self.dynamic[:forced], edge, 0.0)
            forcing = forcing.ravel()
        shape = u.shape
        u = u.ravel()
        if first_step and startup_steps > 0 and theta != 1.0:
            for i in range(startup_steps):
                u = self._advance(u, 1.0, dt / startup_steps, rows, forcing,
                                  fix if i == 0 else None)
        else:
            u = self._advance(u, theta, dt, rows, forcing, fix)
        if not np.all(np.isfinite(u)):
            raise SolverFailure("non-finite values after implicit step")
        out[rows, :-1] = u.reshape(shape)
        out.flags.writeable = False
        return out


def _gather_rows(fac, rows, width):
    """The L D L^T factor of the rows `rows` of a stack factored as
    fac = (d, e), width unknowns per row: d's rows, and e's rows with the
    zero that ends each row (a zero coupling factors to e = 0 and leaves the
    next d unchanged, so this is the factor of the gathered rows' matrix)."""
    d, e = fac
    return (d.reshape(-1, width)[rows].ravel(),
            np.append(e, 0.0).reshape(-1, width)[rows].ravel()[:-1])


def packed_stepper(grid, ops):
    """The PackedStepper of operators ops on grid, memoized on the grid."""
    key = ("dynbc", tuple((p.k, p.alpha_tilde, p.nu, p.variant) for p in ops))
    return grid.memo(key, PackedStepper, grid, ops)


def step(state, params, dt, source=None, first_step=False):
    """Advance one theta-method step of length dt.

    source, if given, is a pair (fluid_values, ell_source) holding the
    pointwise source on the grid nodes and the boundary-ODE source; the
    caller is responsible for any explicit-in-time extrapolation.
    first_step=True runs the configured implicit-Euler startup substeps
    instead of a single trapezoidal step (Rannacher smoothing of rough
    initial data).
    """
    if source is not None:
        source = (np.asarray(source[0], dtype=float)[None], np.array([float(source[1])]))
    z = packed_stepper(state.grid, (params,)).step(
        state.y[None], np.array([state.ell]), dt, params.theta, params.startup_steps,
        source, first_step)
    return ScalarModeState._view(state.grid, z[0], z[0, 0], state.t + dt)


def march(state0, step_fn, t_end, dt, observer=None, observe_times=None):
    """March state = step_fn(state, first_step) from state0.t to t_end.

    t_end - state0.t must be a whole number of steps.  first_step is True
    only on the first step from t = 0 data: startup smoothing is for fresh
    data, and march(T1) then march(T2) composes exactly to march(T1 + T2).

    observer(state) is called at state0 and after every step when
    observe_times is None.  Otherwise it is called at most once per state,
    state0 included: when the state's time reaches (to within 1e-9 dt)
    entries of observe_times not yet passed, which that one call consumes
    all of.  Targets after t_end are never reached.  Returns the final state.
    """
    if not 0 < dt < math.inf:
        raise InvalidArgument(f"dt must be finite and > 0, got {dt}")
    if t_end < state0.t:
        raise InvalidArgument("t_end must be >= the current time")
    n_steps = int(round((t_end - state0.t) / dt))
    if abs(state0.t + n_steps * dt - t_end) > 1e-9 * max(dt, 1.0):
        raise InvalidArgument("t_end - t0 must be an integer number of steps")
    targets = None if observe_times is None else sorted(map(float, observe_times))
    passed = 0  # number of targets consumed so far
    state = state0
    for j in range(n_steps + 1):
        if j > 0:
            state = step_fn(state, j == 1 and state.t == 0.0)
        if observer is None:
            continue
        if targets is not None:
            reached = bisect_right(targets, state.t + 1e-9 * dt)
            if reached == passed:
                continue
            passed = reached
        observer(state)
    return state


def evolve(state0, params, t_end, dt, observer=None, observe_times=None):
    """Repeated stepping from state0.t to t_end, observed as in march."""
    return march(state0, lambda s, first: step(s, params, dt, first_step=first),
                 t_end, dt, observer, observe_times)


def mass(state, params, grid=None):
    """Conserved total mass of the k = 0 dynamic system.

    M = 2*pi*sum_i w_i y_i + (2*pi/alpha_tilde)*ell.  This is the quantity
    whose value selects the self-similar Gaussian attractor.
    """
    if params.variant != "dynamic" or params.k != 0:
        raise UnsupportedVariant("mass is defined for the k = 0 dynamic variant")
    g = grid if grid is not None else state.grid
    return float(
        2.0 * math.pi * np.sum(g.quad_weights * state.y)
        + (2.0 * math.pi / params.alpha_tilde) * state.ell
    )


def gaussian_profile(grid, t, nu):
    """Heat kernel exp(-r^2/(4 nu t)) / (4 pi nu t) sampled at the grid nodes."""
    if t <= 0:
        raise NonpositiveTime(f"t must be > 0, got {t}")
    r = grid.nodes
    return np.exp(-(r * r) / (4.0 * nu * t)) / (4.0 * math.pi * nu * t)


def lyapunov_functional(state, params, p):
    """Discrete Lyapunov functional 2*pi*sum w|y|^p + (2*pi/alpha_tilde)|ell|^p.

    Nonincreasing along the dynamic evolution for every p >= 1; the ball term
    is dropped for the Dirichlet variant.
    """
    if not p >= 1:
        raise InvalidArgument("p must be >= 1")
    w = state.grid.quad_weights
    val = 2.0 * math.pi * float(np.sum(w * np.abs(state.y) ** p))
    if params.variant == "dynamic":
        val += (2.0 * math.pi / params.alpha_tilde) * abs(state.ell) ** p
    return val


def lp_norm(state, params, p):
    """Norm of the pair (y, ell): fluid L^p against r dr plus the weighted ball term."""
    if np.isinf(p):
        m = float(np.max(np.abs(state.y)))
        if params.variant == "dynamic":
            m = max(m, abs(state.ell))
        return m
    return lyapunov_functional(state, params, p) ** (1.0 / p)


def geometric_times(t_start, t_end, ratio):
    """Geometric output times t_start * ratio^j clipped to [t_start, t_end]."""
    if t_start <= 0 or ratio <= 1:
        raise InvalidArgument("need t_start > 0 and ratio > 1")
    out = [t_start]
    while out[-1] * ratio <= t_end * (1 + 1e-12):
        out.append(out[-1] * ratio)
    return np.asarray(out)


class Recorder:
    """Observer keeping one row per observation: row(*states) gives the
    values under the column names header.  column(name) reads one column
    back; write() emits the columnar text interface (write_columns)."""

    def __init__(self, header, row):
        self.header = list(header)
        self.row = row
        self.rows = []

    def __call__(self, *states):
        self.rows.append(self.row(*states))

    def column(self, name):
        i = self.header.index(name)
        return [row[i] for row in self.rows]

    def write(self, path, config_comment=None):
        write_columns(path, self.header, self.rows, config_comment)


class TimeSeriesRecorder(Recorder):
    """Recorder of (t, ell, requested L^p norms, optionally mass)."""

    def __init__(self, params, p_values=(2.0,), with_mass=False):
        p_values = tuple(p_values)
        with_mass = with_mass and params.variant == "dynamic" and params.k == 0
        header = ["t", "ell"] + [f"norm_p{fmt_p(p)}" for p in p_values]
        header += ["mass"] if with_mass else []

        def row(state):
            vals = [state.t, state.ell, *(lp_norm(state, params, p) for p in p_values)]
            return vals + [mass(state, params)] if with_mass else vals

        super().__init__(header, row)


def write_columns(path, header, rows, comment=None):
    """Write the columnar text interface of every output file.

    Each line of comment goes first after '# ', then the header names and
    the rows, each joined by ', '.  Strings are written verbatim, numbers as
    %.17e (full double precision, so equal data give byte-identical files).
    """
    with open(path, "w") as fh:
        if comment:
            for line in str(comment).splitlines():
                fh.write(f"# {line}\n")
        fh.write(", ".join(header) + "\n")
        for row in rows:
            fh.write(", ".join(v if isinstance(v, str) else f"{v:.17e}" for v in row) + "\n")


def fmt_p(p):
    """Exponent p as it appears in column names: 2, 4, 1.5, inf."""
    if np.isinf(p):
        return "inf"
    if float(p).is_integer():
        return str(int(p))
    return str(p)
