"""Acceptance suite: one test per criterion, each printing a verdict line.

The long benchmark evolutions are shared session fixtures (see conftest).
Tolerances are pinned here, not calibrated at run time.
"""

import math

import numpy as np
from scipy.integrate import cumulative_trapezoid

from conftest import polar_inner, random_decomposition, random_polar_field

from diskflow import dynbc, stokes
from diskflow import navier_stokes as ns
from diskflow.analysis import fit_decay
from diskflow.elliptic import invert_z, z_transform
from diskflow.fields import (
    decomp_axpy,
    inner_l2,
    project_leray,
    reconstruct,
)
from diskflow.grid import PhysicalParams, build_grid
from diskflow.presets import build_setup, get_preset


# the verdict bounds that the CLI's checks share, by check name; they are
# pinned here, and test_cli keeps diskflow.cli.CHECK_BOUNDS equal to them
VERDICT_BOUNDS = {
    "mass-conservation": 1e-10,  # criterion 1
    "self-similar-boundary": 0.1,  # criterion 3
    "disk-translation": 0.15,  # criterion 4
    "profile-convergence": 0.5,  # criterion 7
    "kato-imex-cross": 1e-3,  # criterion 14
}


def verdict(num, name, ok, detail):
    print(f"criterion {num:2d} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


def fit(ts, vals, window=(10.0, 100.0)):
    return fit_decay(np.asarray(ts), np.asarray(vals), window).exponent


def test_criterion_01_mass_conservation(unit_kick_run):
    drift = unit_kick_run["mass_drift"]
    ok = drift <= VERDICT_BOUNDS["mass-conservation"]
    verdict(1, "mass conservation", ok, f"relative drift {drift:.2e}")


def test_criterion_02_lyapunov_monotonicity(
    unit_kick_run, w_bump_run, translating_run, neutral_run, higher_modes_run
):
    # per-step increase of the scalar-subsystem functionals, p in {1,2,4,8},
    # across the linear presets (the identity holds for the unforced family)
    worst = -np.inf
    for run in (unit_kick_run, w_bump_run, translating_run, neutral_run, higher_modes_run):
        worst = max(worst, max(run["lyapunov_worst"].values()))
    verdict(2, "Lyapunov monotonicity", worst <= 1e-10, f"worst per-step increase {worst:.2e}")


def test_criterion_03_self_similar_boundary(unit_kick_run):
    ratio = unit_kick_run["final_ratio"]
    ok = abs(ratio - 1.0) <= VERDICT_BOUNDS["self-similar-boundary"]
    verdict(3, "self-similar boundary value", ok, f"4 pi nu t ell/M = {ratio:.4f}")


def test_criterion_04_disk_translation(translating_run):
    mom = translating_run["momenta"]
    t = translating_run["t"][-1]
    ellx = translating_run["ell_x"][-1]
    ratio = 8.0 * math.pi * t * ellx / mom.M_vec[0]
    ok = abs(ratio - 1.0) <= VERDICT_BOUNDS["disk-translation"]
    verdict(4, "disk translation asymptotics", ok, f"8 pi nu t ell/M = {ratio:.4f}")


def test_criterion_05_angular_velocity_decay(w_bump_run):
    expo = fit(w_bump_run["t"], w_bump_run["ell"])
    ok = abs(expo + 2.0) <= 0.2
    verdict(5, "angular velocity decay", ok, f"fitted exponent {expo:.3f} (target -2)")


def test_criterion_06_semigroup_decay_rate(translating_run):
    t = translating_run["t"]
    mask = t > 0
    expo = fit(t[mask], translating_run["norm_L2"][mask])
    ok = abs(expo + 0.5) <= 0.05
    verdict(6, "field-norm decay rate", ok, f"fitted exponent {expo:.4f} (target -1/2)")


def test_criterion_07_profile_convergence(translating_run):
    t = translating_run["t"]
    e = np.sqrt(np.where(t > 0, t, np.nan)) * translating_run["profile_err_L2"]
    i10 = int(np.argmin(np.abs(t - 10.0)))
    ratio = e[-1] / e[i10]
    ok = ratio <= VERDICT_BOUNDS["profile-convergence"]
    verdict(7, "profile convergence", ok, f"e(100)/e(10) = {ratio:.3f}")


def test_criterion_08_neutral_buoyancy(neutral_run):
    t = neutral_run["t"]
    mask = t > 0
    ell_mag = np.hypot(neutral_run["ell_x"][mask], neutral_run["ell_y"][mask])
    expo = fit(t[mask], ell_mag)
    ok = expo <= -1.15
    verdict(8, "neutral-buoyancy fast decay", ok, f"fitted exponent {expo:.3f}")


def test_criterion_09_higher_mode_decay(higher_modes_run):
    t = higher_modes_run["t"]
    mask = t > 0
    expo = fit(t[mask], higher_modes_run["norm_L2"][mask])
    ok = expo <= -1.2
    verdict(9, "higher-mode fast decay", ok, f"fitted exponent {expo:.3f}")


def test_criterion_10_elliptic_oracle_equivalence():
    grid = build_grid(2048, 20.0, 2.0)
    r = grid.nodes
    profs = np.stack([
        r**-3.0,
        np.exp(-((r - 2.0) ** 2)),
        (r - 1.0) * np.exp(-((r - 1.5) ** 2)),
        np.exp(-0.5 * (r - 3.0) ** 2) * np.sin(r - 1.0),
    ])
    ell = np.array([0.0, 1.0, -0.6, 0.25]) / 2.0  # psi(1) = half the ball value of z
    orders = (1,) * len(ell)

    def worst(err, scale):
        return float(np.max(np.max(np.abs(err), axis=1) / scale))

    psi = invert_z(grid, profs, orders, ell)
    oracle = ell[:, None] / r + cumulative_trapezoid(r * profs, r, initial=0.0) / r
    scale = np.max(np.abs(oracle), axis=1) + 1e-30
    worst_oracle = worst(psi - oracle, scale)
    z2 = z_transform(grid, psi, orders)
    back = invert_z(grid, z2, orders, ell)
    worst_round = max(worst(z2 - profs, np.max(np.abs(profs), axis=1) + 2.0 * np.abs(ell)),
                      worst(back - psi, scale))
    ok = worst_oracle <= 1e-8 and worst_round <= 1e-8
    verdict(
        10, "elliptic inversion oracle", ok,
        f"oracle gap {worst_oracle:.2e}, roundtrip gap {worst_round:.2e}",
    )


def test_criterion_11_leray_projector_properties():
    grid = build_grid(256, 20.0, 2.0)
    params = PhysicalParams(nu=1.0, m=2.0 * math.pi)
    k_max = 7
    worst_idem = worst_adj = worst_ident = 0.0
    n_fields = 0
    for seed in range(25):
        fa, (ella, oma) = random_polar_field(grid, np.random.default_rng(seed), 32)
        fb, (ellb, omb) = random_polar_field(grid, np.random.default_rng(1000 + seed), 32)
        n_fields += 2
        pa = project_leray(fa, params, k_max, ella, oma)
        pb = project_leray(fb, params, k_max, ellb, omb)
        na = math.sqrt(inner_l2(pa, pa, params))
        nb = math.sqrt(inner_l2(pb, pb, params))
        ra = reconstruct(pa, 32)
        rb = reconstruct(pb, 32)
        # idempotence
        paa = project_leray(ra, params, k_max, pa.rigid.ell, pa.rigid.omega)
        d = decomp_axpy(1.0, paa, -1.0, pa)
        worst_idem = max(worst_idem, math.sqrt(inner_l2(d, d, params)) / na)
        # self-adjointness
        lhs = polar_inner(ra, fb, params, (pa.rigid.ell, pa.rigid.omega), (ellb, omb))
        rhs = polar_inner(fa, rb, params, (ella, oma), (pb.rigid.ell, pb.rigid.omega))
        worst_adj = max(worst_adj, abs(lhs - rhs) / (na * nb))
        # identity on the divergence-free class
        dd = random_decomposition(grid, np.random.default_rng(2000 + seed), k_max=5)
        n_fields += 2
        fd = reconstruct(dd, 32)
        pd = project_leray(fd, params, 5, dd.rigid.ell, dd.rigid.omega)
        dident = decomp_axpy(1.0, pd, -1.0, dd)
        worst_ident = max(
            worst_ident,
            math.sqrt(inner_l2(dident, dident, params))
            / math.sqrt(inner_l2(dd, dd, params)),
        )
    assert n_fields == 100
    ok = worst_idem <= 1e-10 and worst_adj <= 1e-10 and worst_ident <= 1e-10
    verdict(
        11, "projector properties", ok,
        f"idempotence {worst_idem:.2e}, adjointness {worst_adj:.2e}, identity {worst_ident:.2e}",
    )


def test_criterion_12_added_mass_identity(translating_run, neutral_run, higher_modes_run):
    worst = 0.0
    for run in (translating_run, neutral_run, higher_modes_run):
        resid = np.abs(run["added_mass_resid"])
        scale = max(math.pi * np.max(np.abs(run["ell_x"])), 1e-6)
        worst = max(worst, float(np.max(resid)) / scale)
    verdict(12, "added-mass identity", worst <= 1e-8, f"worst relative residual {worst:.2e}")


def test_criterion_13_energy_inequality():
    setup = build_setup(get_preset("kato-small"))
    params = setup["params"]
    cfg = ns.NonlinearConfig(k_max=2, n_theta=16)
    energy = []  # at t = 0 and after every step
    ns.evolve_ns(stokes.init_stokes(setup["decomp0"], params), cfg, 10.0, 1.0 / 64.0,
                 observer=lambda st, _: energy.append(ns.kinetic_energy(st)))
    worst = float(np.max(np.diff(energy) / energy[0]))
    verdict(13, "discrete energy inequality", worst <= 1e-8, f"worst step increase {worst:.2e}")


def test_criterion_14_kato_contraction(kato_run):
    diag = kato_run["diag"]
    ratios = diag.contraction_ratios
    ok_contract = len(ratios) >= 1 and all(rr < 1.0 for rr in ratios)
    disc = kato_run["imex_discrepancy"]
    ok = ok_contract and diag.converged and disc <= VERDICT_BOUNDS["kato-imex-cross"]
    verdict(
        14, "successive-approximation contraction", ok,
        f"ratios {['%.1e' % rr for rr in ratios]}, imex gap {disc:.2e}",
    )


def test_criterion_15_improved_nonlinear_decay(ns_q32_run):
    base = ns_q32_run["base"]
    diff = ns_q32_run["diff"]
    ok = (abs(base.exponent + 1.0 / 6.0) <= 0.05) and (diff.exponent <= -0.25)
    verdict(
        15, "improved nonlinear decay", ok,
        f"base {base.exponent:.4f} (target -1/6 +- 0.05), diff {diff.exponent:.4f} (<= -0.25)",
    )


def test_criterion_16_grid_time_convergence(unit_kick_run, translating_run):
    # halving h (doubling n) and halving dt moves the criterion-3/4 ratios by
    # at most 25% of their distance to 1
    base3 = unit_kick_run["final_ratio"]
    setup = build_setup(
        get_preset("unit-kick-k0"),
        {"grid": {"n_points": 6144}, "time": {"dt": 0.01}},
    )
    params = setup["scalar_params"]
    st = dynbc.evolve(setup["scalar_state"], params, 100.0, 0.01)
    M0 = dynbc.mass(setup["scalar_state"], params)
    fine3 = 4.0 * math.pi * params.nu * st.t * st.ell / M0
    ok3 = abs(fine3 - base3) <= 0.25 * abs(base3 - 1.0)

    mom = translating_run["momenta"]
    t_end = translating_run["t"][-1]
    base4 = 8.0 * math.pi * t_end * translating_run["ell_x"][-1] / mom.M_vec[0]
    setup4 = build_setup(
        get_preset("translating-disk"),
        {"grid": {"n_points": 4096}, "time": {"dt": 0.01}},
    )
    st4 = stokes.evolve_stokes(setup4["state"], 100.0, 0.01)
    fine4 = 8.0 * math.pi * st4.t * st4.rigid.ell[0] / mom.M_vec[0]
    ok4 = abs(fine4 - base4) <= 0.25 * abs(base4 - 1.0)
    verdict(
        16, "grid/time convergence", ok3 and ok4,
        f"ratio3 {base3:.4f}->{fine3:.4f}, ratio4 {base4:.4f}->{fine4:.4f}",
    )
