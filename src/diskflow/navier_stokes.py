"""Nonlinear driver in the body frame: IMEX stepping and successive
approximation.

The convection term (ell - V).grad V is evaluated pseudo-spectrally on the
polar sample grid, projected onto the divergence-free-with-rigid-disk class,
and handed to the linear solver as an explicit source (Adams-Bashforth 2
with an implicit-Euler first step).  The projection step plays the role of
the pressure: it never materializes as a separate unknown.

The successive-approximation mode rebuilds the trajectory as
Y_{n+1} = S(.)V0 + integral of S(t-s) P F(Y_n(s)) ds, with the Duhamel
integral evaluated by a left-endpoint rectangle rule on the step grid and
the propagator applied by marching an accumulator (never by kernel
evaluation).  Its contraction diagnostics mirror the smallness bookkeeping
of the underlying fixed-point argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynbc import Recorder, march
from .errors import (
    BlowUp,
    GridMismatch,
    InsufficientAngularResolution,
    InvalidArgument,
    NoContraction,
)
from .fields import (
    PolarField,
    _sample_blocks,
    decomp_axpy,
    fluid_lp_norm,
    inner_l2,
    project_leray,
    velocity_coeffs,
    weighted_field_norm,
)
from .stokes import (
    StokesState,
    _channels_axpy,
    decomp_to_sources,
    init_stokes,
    state_axpy,
    step_stokes,
)

__all__ = [
    "NonlinearConfig",
    "KatoDiagnostics",
    "nonlinear_term",
    "step_ns",
    "evolve_ns",
    "kato_solve",
    "improved_decay_experiment",
    "kinetic_energy",
]


@dataclass(frozen=True)
class NonlinearConfig:
    """Resolution and iteration settings of the nonlinear driver."""

    k_max: int = 4
    n_theta: int = 16
    dealias: bool = True
    kato_max_iters: int = 10
    kato_tol: float = 1e-10
    blowup_factor: float = 10.0

    def __post_init__(self):
        # Orszag's 2/3 rule: the product's top mode 2*k_max must alias
        # beyond k_max, i.e. n_theta - 2*k_max > k_max
        if self.dealias and self.n_theta < 3 * self.k_max + 1:
            raise InvalidArgument(
                "dealiasing needs n_theta >= 3*k_max + 1 "
                f"(got {self.n_theta} < {3 * self.k_max + 1})"
            )
        if not self.dealias and self.n_theta < 2 * self.k_max + 2:
            raise InvalidArgument(
                "n_theta cannot hold the quadratic term without aliasing; "
                "raise n_theta or enable dealias"
            )


def nonlinear_term(decomp, params, config):
    """Projected convection term of the field: P[(ell - V).grad V].

    Works from the angular coefficients: v_r, v_theta and their radial
    derivatives come from the stream profiles (one stacked ddr for the
    derivatives), angular derivatives are multiplications by k, and a
    real-DFT matrix product per block of radial nodes samples the six
    factors of

        N_r = A_r dV_r/dr + (A_t/r) (dV_r/dtheta - V_theta),
        N_t = A_r dV_t/dr + (A_t/r) (dV_t/dtheta + V_r),        A = ell - V,

    on the polar grid.  The products are projected back; the result is
    supported on modes up to the truncation (a product of modes j and k only
    populates |j - k| and j + k, so retained modes are alias-free under the
    configured headroom).  The term vanishes identically on the disk; the
    projection supplies the rigid reaction.
    """
    grid = decomp.grid
    n = grid.n_points
    K = decomp.k_max
    if config.n_theta < 2 * K + 2:
        raise InsufficientAngularResolution(
            f"n_theta = {config.n_theta} cannot hold k_max = {K}"
        )
    m = K + 1  # offset of the sin coefficients in the real_dft layout
    k = np.arange(m)[:, None]
    ell = decomp.rigid.ell
    V = velocity_coeffs(decomp)
    dV = grid.ddr(V.reshape(-1, n).T).T.reshape(V.shape)
    # the six factors in coefficient space: A_r, A_t/r, dV_r/dr, dV_t/dr,
    # dV_r/dtheta - V_theta, dV_t/dtheta + V_r (ell enters mode 1 of A)
    X = np.empty((6, 2 * m, n))
    np.negative(V, out=X[:2])
    X[0, 1] += ell[0]
    X[0, m + 1] += ell[1]
    X[1, 1] += ell[1]
    X[1, m + 1] -= ell[0]
    X[1] /= grid.nodes
    X[2:4] = dV
    # d/dtheta maps (a_k, b_k) to (k b_k, -k a_k)
    X[4, :m] = k * V[0, m:] - V[1, :m]
    X[4, m:] = -k * V[0, :m] - V[1, m:]
    X[5, :m] = k * V[1, m:] + V[0, :m]
    X[5, m:] = -k * V[1, :m] + V[0, m:]
    del V, dV  # released before the products exist: a lower peak
    # a fresh full-size sample plane per call would fault its pages back in
    # every step; blocks stay cache-sized, only the products span the grid
    N = np.empty((2, config.n_theta, n))
    for lo, P in _sample_blocks(X, config.n_theta):
        out = N[..., lo:lo + P.shape[-1]]
        np.multiply(P[2], P[0], out=out[0])
        P[4] *= P[1]
        out[0] += P[4]
        np.multiply(P[3], P[0], out=out[1])
        P[5] *= P[1]
        out[1] += P[5]
    del X
    return project_leray(PolarField(grid, N[0].T, N[1].T), params, config.k_max)


def kinetic_energy(state):
    """Half the squared weighted field norm; for a homogeneous disk the ball
    term equals (m |ell|^2 + inertia * omega^2)/2 exactly."""
    return 0.5 * inner_l2(state.decomp, state.decomp, state.params)


def _cfl_guard(state, config, dt):
    vmax = fluid_lp_norm(state.decomp, np.inf, config.n_theta)
    hmin = float(state.grid.spacings.min())
    if vmax > 0 and dt > 0.5 * hmin / vmax:
        raise InvalidArgument(
            f"dt = {dt} violates the advective guard 0.5*h_min/|V|max = "
            f"{0.5 * hmin / vmax:.3e}"
        )


def step_ns(state, config, dt, prev_nonlinear=None, first_step=False):
    """One IMEX step: explicit projected convection, implicit linear block.

    Returns (new_state, nonlinear_term_at_old_state); feeding the returned
    term back as prev_nonlinear gives second-order Adams-Bashforth
    extrapolation of the source, with implicit Euler on the first step.
    The linear sub-blocks stay decoupled inside the implicit solve.
    """
    nl = nonlinear_term(state.decomp, state.params, config)
    if prev_nonlinear is None:
        # first step: frozen source (implicit-Euler treatment of the
        # convection term); the linear block keeps its own scheme so that a
        # vanishing source reproduces the unforced step exactly
        src_decomp = nl
    else:
        src_decomp = decomp_axpy(1.5, nl, -0.5, prev_nonlinear)
    sources = decomp_to_sources(src_decomp)
    new = step_stokes(state, dt, sources=sources, first_step=first_step)
    # each state keeps its norm: n_old is the previous step's n_new
    n_old = state.l2_norm
    n_new = new.l2_norm
    if n_new > config.blowup_factor * max(n_old, 1e-300):
        raise BlowUp(
            f"norm grew {n_new / max(n_old, 1e-300):.2f}x in one step at t = {state.t}"
        )
    return new, nl


def evolve_ns(state0, config, t_end, dt, observer=None, observe_times=None,
              linear_shadow=None):
    """IMEX evolution from state0.t to t_end.

    linear_shadow, if a StokesState, is co-marched with the unforced
    evolution so observers can record the distance to the linear trajectory;
    observers are then called as observer(state, shadow_state).  The shadow
    must live on state0's grid and start at state0.t.  observe_times as in
    dynbc.march.
    """
    if linear_shadow is not None:
        if linear_shadow.grid is not state0.grid:
            raise GridMismatch("linear_shadow lives on another grid than state0")
        if linear_shadow.t != state0.t:
            raise InvalidArgument(
                f"linear_shadow starts at t = {linear_shadow.t}, state0 at t = {state0.t}"
            )
    _cfl_guard(state0, config, dt)
    shadow = linear_shadow
    prev_nl = None

    def step_fn(state, first_step):
        nonlocal shadow, prev_nl
        state, prev_nl = step_ns(state, config, dt, prev_nl, first_step=first_step)
        if shadow is not None:
            shadow = step_stokes(shadow, dt, first_step=first_step)
        return state

    notify = None if observer is None else lambda st: observer(st, shadow)
    final = march(state0, step_fn, t_end, dt, notify, observe_times)
    return final, shadow


@dataclass
class KatoDiagnostics:
    """Per-iterate smallness data of the successive approximation.

    G_n bounds sup_t of max(t^{3/8} L8-norm, L2-norm, t^{1/2} |ell|);
    contraction_ratios are successive triple-norm difference quotients;
    mu0_estimate evaluates the fixed-point bound from the empirically
    fitted quadratic-recursion constant."""

    G_n: list
    contraction_ratios: list
    mu0_estimate: float
    converged: bool
    c0_estimate: float


def _triple_norm_series(states, params):
    vals = []
    for st in states:
        if st.t <= 0:
            continue
        n2 = weighted_field_norm(st.grid, st.decomp, 2.0, params)
        n8 = weighted_field_norm(st.grid, st.decomp, 8.0, params)
        el = float(np.hypot(*st.decomp.rigid.ell))
        vals.append(max(n2, st.t**0.375 * n8, math.sqrt(st.t) * el))
    return max(vals) if vals else 0.0


def kato_solve(state0, config, t_end, dt):
    """Successive approximation Y_{n+1} = S(.)V0 + K Y_n.

    Returns (list of StokesState snapshots of the converged iterate on the
    step grid, KatoDiagnostics).  Raises NoContraction when the difference
    ratios exceed one for three consecutive iterates (data too large for the
    fixed-point regime).
    """
    params = state0.params
    base = []
    march(state0, lambda s, first: step_stokes(s, dt, first_step=first), t_end, dt,
          observer=base.append)

    current = base
    G_list = [_triple_norm_series(current, params)]
    ratios = []
    prev_diff = None
    converged = False
    zero = state_axpy(0.0, state0)

    for _ in range(config.kato_max_iters):
        acc = zero
        new = [base[0]]
        for cur, nxt in zip(current, base[1:]):
            src = nonlinear_term(cur.decomp, params, config)
            # step_stokes reads channels only: the forced state skips decomp_axpy
            forced = _channels_axpy(1.0, acc, dt, init_stokes(src, params))
            acc = step_stokes(StokesState(forced, acc.t, params), dt)
            new.append(state_axpy(1.0, nxt, 1.0, acc))
        diffs = [state_axpy(1.0, a, -1.0, b) for a, b in zip(new, current)]
        dnorm = _triple_norm_series(diffs, params)
        G_list.append(_triple_norm_series(new, params))
        if prev_diff is not None and prev_diff > 0:
            ratios.append(dnorm / prev_diff)
        prev_diff = dnorm
        current = new
        if dnorm < config.kato_tol:
            converged = True
            break
        if len(ratios) >= 3 and all(rr > 1.0 for rr in ratios[-3:]):
            raise NoContraction(
                "triple-norm ratios exceeded 1 for three consecutive iterates; "
                "initial data too large for the fixed-point regime"
            )

    G0 = G_list[0]
    c0 = 0.0
    for n in range(len(G_list) - 1):
        if G_list[n] > 0:
            c0 = max(c0, (G_list[n + 1] - G0) / (2.0 * G_list[n] ** 2))
    if c0 > 0 and 8.0 * c0 * G0 <= 1.0:
        mu0 = (1.0 - math.sqrt(1.0 - 8.0 * c0 * G0)) / (4.0 * c0)
    else:
        mu0 = G0
    diag = KatoDiagnostics(G_list, ratios, mu0, converged, c0)
    return current, diag


def improved_decay_experiment(decomp0, params, config, p, t_end, dt,
                              t_fit=(10.0, 100.0), base_tail_norm2=0.0):
    """Fit the decay of the solution and of its distance to the linear flow.

    Runs the IMEX evolution and the linear evolution from identical data and
    fits power laws to the weighted p-norm of V(t) and of V(t) - S(t)V0 over
    the window; returns (base_fit, difference_fit).

    base_tail_norm2 adds (in quadrature) the p-norm content of the initial
    data beyond the truncation radius, which the diffusion never reaches
    over the run: for slowly decaying tails the norm integral converges
    slowly at infinity, so dropping the static tail would bias the base fit
    toward faster decay.  The difference norm needs no closure (both
    trajectories share the static tail exactly).
    """
    from .analysis import fit_decay

    state0 = init_stokes(decomp0, params)
    shadow0 = init_stokes(decomp0, params)
    times = np.geomspace(t_fit[0], t_fit[1], 25)
    rec = Recorder(("t", "base", "diff"), lambda st, sh: [
        st.t,
        weighted_field_norm(st.grid, st.decomp, p, params),
        weighted_field_norm(st.grid, decomp_axpy(1.0, st.decomp, -1.0, sh.decomp), p, params),
    ])
    evolve_ns(state0, config, t_end, dt, observer=rec, observe_times=times,
              linear_shadow=shadow0)
    ts, base, diff = (np.array(rec.column(name)) for name in rec.header)
    base_fit = fit_decay(ts, np.sqrt(base ** 2 + base_tail_norm2), t_fit)
    diff_fit = fit_decay(ts, diff, t_fit)
    return base_fit, diff_fit
