"""Nonlinear flow vs its linearization, two ways.

For small data the full convective evolution hugs the linear one; the
distance between them is quadratic in the amplitude and decays faster than
either flow.  The same trajectory can be rebuilt by successive
approximation (a fixed point of the Duhamel map), whose contraction ratios
certify the smallness regime.

Run:  python3 demos/demo_nonlinear.py        (about a minute)
"""

from diskflow import build_setup, get_preset
from diskflow import navier_stokes as ns
from diskflow import stokes
from diskflow.fields import decomp_axpy, weighted_field_norm


def main():
    setup = build_setup(get_preset("kato-small"))
    params = setup["params"]
    cfg = setup["ns_config"]
    dt = setup["time"]["dt"]
    t_end = setup["time"]["t_end"]

    print("successive approximation:")
    states, diag = ns.kato_solve(setup["state"], cfg, t_end, dt)
    for n, g in enumerate(diag.G_n):
        ratio = diag.contraction_ratios[n - 1] if 1 <= n <= len(diag.contraction_ratios) else None
        extra = f"  ratio {ratio:.3e}" if ratio is not None else ""
        print(f"  iterate {n}: smallness G = {g:.6e}{extra}")
    print(f"  converged: {diag.converged}, fixed-point bound mu0 ~ {diag.mu0_estimate:.3e}")

    state = stokes.init_stokes(setup["decomp0"], params)
    shadow = stokes.init_stokes(setup["decomp0"], params)
    state, shadow = ns.evolve_ns(state, cfg, t_end, dt, linear_shadow=shadow)
    gap_kato = weighted_field_norm(
        state.grid, decomp_axpy(1.0, state.decomp, -1.0, states[-1].decomp), 2.0, params
    )
    gap_lin = weighted_field_norm(
        state.grid, decomp_axpy(1.0, state.decomp, -1.0, shadow.decomp), 2.0, params
    )
    nrm = weighted_field_norm(state.grid, state.decomp, 2.0, params)
    print(f"\nat t = {t_end}:")
    print(f"  field norm                      {nrm:.6e}")
    print(f"  distance to the linear flow     {gap_lin:.6e}  (quadratic in amplitude)")
    print(f"  stepper vs fixed point          {gap_kato:.6e}")
    print(f"  kinetic energy drop             {1.0 - ns.kinetic_energy(state) / ns.kinetic_energy(stokes.init_stokes(setup['decomp0'], params)):.4%}")


if __name__ == "__main__":
    main()
