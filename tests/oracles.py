"""Reference implementations the solver is checked against.

They keep earlier, independent algorithms on purpose: the convection term in
physical space (FFT sampling, FFT angular derivatives, radial derivatives of
the sampled planes) projected one mode and one channel at a time, the
scalar theta-method step as a dense solve per channel, and the marching loop
as a plain scan over the remaining observe targets.
"""

import math

import numpy as np
from scipy import sparse
from scipy.linalg import cho_solve_banded, cholesky_banded

from diskflow.fields import ModeDecomposition, PolarField, RigidState
from diskflow.grid import fd_weights


# ---------------------------------------------------------------------------
# convection in physical space
# ---------------------------------------------------------------------------


def fft_coeffs(samples):
    """cos/sin coefficient arrays a_k, b_k (k = 0..n_theta/2) of theta samples."""
    n_theta = samples.shape[1]
    F = np.fft.rfft(samples, axis=1)
    a = 2.0 * F.real / n_theta
    b = -2.0 * F.imag / n_theta
    a[:, 0] *= 0.5
    if n_theta % 2 == 0:
        a[:, -1] *= 0.5
    return a, b


def _fft_synthesis(a, b, n_theta):
    F = 0.5 * n_theta * (a - 1j * b)
    F[:, 0] = n_theta * a[:, 0]
    if F.shape[1] == n_theta // 2 + 1 and n_theta % 2 == 0:
        F[:, -1] = n_theta * a[:, -1]
    return np.fft.irfft(F, n=n_theta, axis=1)


def fft_reconstruct(decomp, n_theta):
    """Physical samples of a decomposition, one profile at a time, by FFT."""
    grid = decomp.grid
    n = grid.n_points
    r = grid.nodes
    nc = n_theta // 2 + 1
    ar, br, at, bt = (np.zeros((n, nc)) for _ in range(4))
    at[:, 0] = decomp.w
    ar[:, 1] = -decomp.phi / r
    br[:, 1] = decomp.psi / r
    at[:, 1] = grid.ddr(decomp.psi)
    bt[:, 1] = grid.ddr(decomp.phi)
    for j in range(decomp.k_max - 1):
        k = j + 2
        ar[:, k] = -k * decomp.higher[j, 1] / r
        br[:, k] = k * decomp.higher[j, 0] / r
        at[:, k] = grid.ddr(decomp.higher[j, 0])
        bt[:, k] = grid.ddr(decomp.higher[j, 1])
    return PolarField(grid, _fft_synthesis(ar, br, n_theta), _fft_synthesis(at, bt, n_theta))


def stencil_matrix(grid):
    """The three-point first-derivative stencil (one-sided at both ends) as
    a sparse matrix, each row solved for afresh by fd_weights."""
    r = grid.nodes
    n = grid.n_points
    rows, cols, vals = [], [], []
    for i in range(n):
        j = min(max(i - 1, 0), n - 3)
        rows += [i] * 3
        cols += [j, j + 1, j + 2]
        vals.extend(fd_weights(r[j:j + 3], r[i], 1))
    return sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))


def _leray_system(grid, coupling, k, drop_first):
    """Banded normal matrix of one mode, its Jacobi-scaled Cholesky factor
    and the scaling (rebuilt on every call)."""
    D = stencil_matrix(grid)
    w = grid.quad_weights
    r = grid.nodes
    N = (D.T @ sparse.diags(w) @ D + sparse.diags(k * k * w / (r * r))).tolil()
    N[0, 0] += coupling
    N = N.tocsr()
    if drop_first:
        N = N[1:, 1:]
    dense = N.toarray()
    nn = dense.shape[0]
    rows, cols = np.nonzero(dense)
    bw = int(np.max(cols - rows))
    ab = np.zeros((bw + 1, nn))
    for d in range(bw + 1):
        ab[bw - d, d:] = np.diagonal(dense, d)
    scale = 1.0 / np.sqrt(np.diagonal(dense))
    scaled = dense * scale[:, None] * scale[None, :]
    ab_scaled = np.zeros_like(ab)
    for d in range(bw + 1):
        ab_scaled[bw - d, d:] = np.diagonal(scaled, d)
    return dense, cholesky_banded(ab_scaled, lower=False), scale


def per_mode_project(field, params, k_max, ball_ell=(0.0, 0.0)):
    """Leray projection one angular mode and one channel at a time: a banded
    Cholesky solve of the Jacobi-scaled normal equations plus one refinement
    pass, per (mode, channel)."""
    grid = field.grid
    w = grid.quad_weights
    r = grid.nodes
    D = stencil_matrix(grid)
    ar, br = fft_coeffs(field.v_r)
    at, bt = fft_coeffs(field.v_theta)

    def solve(k, radial, tangential, ball, sgn):
        coupling = params.m / math.pi if k == 1 else 0.0
        dense, fac, scale = _leray_system(grid, coupling, k, k >= 2)
        rhs = sgn * k * (w / r) * radial + D.T @ (w * tangential)
        rhs[0] += coupling * sgn * ball
        if k >= 2:
            rhs = rhs[1:]
        x = scale * cho_solve_banded((fac, False), scale * rhs)
        x = x + scale * cho_solve_banded((fac, False), scale * (rhs - dense @ x))
        return np.concatenate(([0.0], x)) if k >= 2 else x

    psi = solve(1, br[:, 1], at[:, 1], ball_ell[1], 1.0)
    phi = solve(1, ar[:, 1], bt[:, 1], ball_ell[0], -1.0)
    higher = np.zeros((k_max - 1, 2, grid.n_points))
    for j in range(k_max - 1):
        k = j + 2
        higher[j, 0] = solve(k, br[:, k], at[:, k], 0.0, 1.0)
        higher[j, 1] = solve(k, ar[:, k], bt[:, k], 0.0, -1.0)
    rigid = RigidState(np.array([-phi[0], psi[0]]), 0.0)
    return ModeDecomposition(grid, at[:, 0], np.concatenate([[[psi, phi]], higher]), rigid)


def physical_space_convection(decomp, params, k_max, n_theta):
    """P[(ell - V).grad V] from FFT samples: angular derivatives by an FFT
    round trip, radial derivatives of the sampled planes, products with the
    polar curvature terms, then the per-mode projection."""
    grid = decomp.grid
    f = fft_reconstruct(decomp, n_theta)
    r = grid.nodes[:, None]
    th = 2.0 * math.pi * np.arange(n_theta) / n_theta
    ell = decomp.rigid.ell
    a_r = (ell[0] * np.cos(th) + ell[1] * np.sin(th))[None, :] - f.v_r
    a_t = (-ell[0] * np.sin(th) + ell[1] * np.cos(th))[None, :] - f.v_theta

    def dtheta(x):
        X = np.fft.rfft(x, axis=1)
        return np.fft.irfft(X * (1j * np.arange(X.shape[1]))[None, :], n=n_theta, axis=1)

    n_r = a_r * grid.ddr(f.v_r) + a_t * dtheta(f.v_r) / r - a_t * f.v_theta / r
    n_t = a_r * grid.ddr(f.v_theta) + a_t * dtheta(f.v_theta) / r + a_t * f.v_r / r
    return per_mode_project(PolarField(grid, n_r, n_t), params, k_max)


# ---------------------------------------------------------------------------
# scalar theta-method step, dense
# ---------------------------------------------------------------------------


def dense_channel_step(state, params, dt, source=None, first_step=False):
    """One theta-method step of one scalar channel (see dynbc) as dense
    linear algebra: lumped P1 mass M and stiffness K against r dr, with the
    boundary ODE folded into the r = 1 row for the dynamic variant.

    Returns (y, ell) after the step.
    """
    grid = state.grid
    w = grid.quad_weights
    r = grid.nodes
    h = grid.spacings
    fr = grid.face_r
    n = grid.n_points
    k = params.k
    dynamic = params.variant == "dynamic"
    lo = 0 if dynamic else 1
    idx = np.arange(lo, n - 1)  # unknown nodes; y[0] stands for ell when dynamic
    m = w[idx].copy()
    K = np.zeros((idx.size, idx.size))
    for a, i in enumerate(idx):
        if i > 0:
            K[a, a] += fr[i - 1] / h[i - 1]
            if a > 0:
                K[a, a - 1] -= fr[i - 1] / h[i - 1]
        K[a, a] += fr[i] / h[i] + k * k * w[i] / r[i] ** 2
        if a + 1 < idx.size:
            K[a, a + 1] -= fr[i] / h[i]
    u = state.y[idx].copy()
    fix = 0.0
    if dynamic:
        m[0] += 1.0 / params.alpha_tilde
        K[0, 0] += k
        u[0] = state.ell
        if first_step:
            fix = w[0] * (state.y[0] - state.ell)
    b = np.zeros(idx.size)
    if source is not None:
        b = w[idx] * np.asarray(source[0], dtype=float)[idx]
        if dynamic:
            b[0] += source[1] / params.alpha_tilde
    M = np.diag(m)

    def advance(u, theta, dt, fix):
        rhs = M @ u - (1.0 - theta) * params.nu * dt * (K @ u) + dt * b
        rhs[0] += fix
        return np.linalg.solve(M + theta * params.nu * dt * K, rhs)

    if first_step and params.startup_steps > 0 and params.theta != 1.0:
        nsub = params.startup_steps
        for i in range(nsub):
            u = advance(u, 1.0, dt / nsub, fix if i == 0 else 0.0)
    else:
        u = advance(u, params.theta, dt, fix)
    y = np.zeros(n)
    y[idx] = u
    return y, (float(u[0]) if dynamic else 0.0)


# ---------------------------------------------------------------------------
# marching loop, naive
# ---------------------------------------------------------------------------


def naive_march(state0, step_fn, t_end, dt, observer=None, observe_times=None):
    """dynbc.march for valid arguments, written out plainly.

    The states are state0 and one per step.  A state is observed when
    observe_times is None, or when any target still remaining lies at or
    below its time (within 1e-9 dt); it then removes every such target.
    """
    n_steps = round((t_end - state0.t) / dt)
    remaining = None if observe_times is None else [float(x) for x in observe_times]
    state = state0
    for j in range(n_steps + 1):
        if j > 0:
            state = step_fn(state, j == 1 and state.t == 0.0)
        if observer is None:
            continue
        if remaining is None:
            observer(state)
            continue
        reached = [x for x in remaining if x <= state.t + 1e-9 * dt]
        if reached:
            observer(state)
            remaining = [x for x in remaining if x not in reached]
    return state
