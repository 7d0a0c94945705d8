"""Decay-rate zoo: fitted long-time exponents across the mode systems.

Each angular harmonic of the coupled fluid-disk system relaxes at its own
rate.  This script evolves three canonical data sets and fits the power laws
of the observables against their expected values:

    angular velocity  ~ t^-2          (mode-0 tangential channel)
    field norm        ~ t^-1/2        (mode-1, nonzero momentum)
    translation       decays faster than 1/t when the momentum vanishes
    higher harmonics  decay faster than t^-1.2

Run:  python3 demos/demo_decay_rates.py
"""

import numpy as np

from diskflow import build_setup, get_preset
from diskflow import dynbc, stokes
from diskflow.analysis import fit_decay
from diskflow.fields import weighted_field_norm


def stokes_series(name, value):
    setup = build_setup(get_preset(name))
    state = setup["state"]
    params = setup["params"]
    ts, vals = [], []

    def obs(st):
        ts.append(st.t)
        if value == "norm":
            vals.append(weighted_field_norm(st.grid, st.decomp, 2.0, params))
        else:
            vals.append(float(np.hypot(*st.rigid.ell)))

    stokes.evolve_stokes(state, 100.0, setup["time"]["dt"],
                         observer=obs, observe_times=np.geomspace(10, 100, 25))
    return np.array(ts), np.array(vals)


def main():
    rows = []
    setup = build_setup(get_preset("w-bump-k1"))
    rec = dynbc.Recorder(("t", "omega"), lambda st: [st.t, abs(st.ell)])
    # every 20th state from t = 10 on
    dynbc.evolve(setup["scalar_state"], setup["scalar_params"], 100.0, setup["time"]["dt"],
                 observer=rec, observe_times=0.02 + 0.4 * np.arange(25, 250))
    ts, om = (np.array(rec.column(name)) for name in rec.header)
    rows.append(("angular velocity", fit_decay(ts, om, (10, 100)).exponent, -2.0))

    ts, vals = stokes_series("translating-disk", "norm")
    rows.append(("field norm, M != 0", fit_decay(ts, vals, (10, 100)).exponent, -0.5))

    ts, vals = stokes_series("neutral-buoyancy", "ell")
    rows.append(("translation, M = 0", fit_decay(ts, vals, (10, 100)).exponent, "< -1.15"))

    ts, vals = stokes_series("higher-modes-only", "norm")
    rows.append(("third-harmonic norm", fit_decay(ts, vals, (10, 100)).exponent, "< -1.2"))

    print(f"{'observable':<22} {'fitted':>9} {'expected':>10}")
    for name, fitted, expected in rows:
        print(f"{name:<22} {fitted:9.3f} {str(expected):>10}")


if __name__ == "__main__":
    main()
