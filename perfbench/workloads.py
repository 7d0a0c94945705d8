"""The four benchmark workloads and the correctness gate of each.

Every workload is one preset run through the command-line harness
(``diskflow.cli.run`` on a generated config), started at t = 0 and cut to a
fixed number of steps.  The seed only scales the preset's initial-data
amplitude, so the program receives nothing but generated inputs.

This module imports nothing from diskflow at import time: the parent process
uses the table without loading numpy, scipy or the package.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass

# relative half-width of the seeded amplitude perturbation; small enough that
# the Kato iteration count and every other exact count stay seed-independent
SEED_SPREAD = 0.01


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str          # experiment kind of the config ([experiment] kind)
    preset: str
    steps: int         # fixed run length, in steps of the preset's dt
    amplitude_key: str  # the [initial_data] key the seed perturbs
    step_site: tuple   # (module, attribute) of the function one step calls
    output: str        # the columnar output file the run writes


WORKLOADS = {
    w.name: w
    for w in (
        # the IMEX hot path: convection, projection, two linear steps a step
        Workload(
            "imex-q32", "evolve-ns", "ns-small-q32", 100, "amplitude",
            ("navier_stokes", "step_ns"), "ns_series.txt",
        ),
        # linear stepping only: a solver change shows, a convection change not
        Workload(
            "stokes-k4", "evolve-stokes", "higher-modes-only", 600, "amplitude",
            ("stokes", "step_stokes"), "stokes_series.txt",
        ),
        # many small-array calls: per-call overhead and state algebra
        Workload(
            "kato-small", "kato", "kato-small", 64, "amplitude",
            ("navier_stokes", "step_stokes"), "kato_diagnostics.txt",
        ),
        # the standalone scalar dynbc marching loop
        Workload(
            "heat-k0", "mode-heat", "unit-kick-k0", 5000, "ell0",
            ("dynbc", "step"), "time_series.txt",
        ),
    )
}


def seed_factor(workload, seed):
    """Factor by which a seed scales the preset's initial-data amplitude."""
    rng = random.Random(f"{workload.name}:{seed}")
    return 1.0 + SEED_SPREAD * rng.uniform(-1.0, 1.0)


def write_config(workload, amplitude, dt, out_dir):
    """Write the experiment config of one run; returns its path.

    amplitude is the seeded initial-data amplitude and dt the preset's step.
    """
    text = (
        "[experiment]\n"
        f"kind = {workload.kind}\n"
        f"name = {workload.name}\n"
        "[initial_data]\n"
        f"preset = {workload.preset}\n"
        f"{workload.amplitude_key} = {amplitude!r}\n"
        "[time]\n"
        f"t_end = {workload.steps * dt!r}\n"
        "[output]\n"
        f"dir = {out_dir}\n"
        "[checks]\n"
        "enabled = true\n"
    )
    path = os.path.join(out_dir, "experiment.cfg")
    with open(path, "w") as fh:
        fh.write(text)
    return path


# ---------------------------------------------------------------------------
# correctness gates: evaluated on the written outputs, outside the timed run
# ---------------------------------------------------------------------------


def read_columns(path):
    """Columnar text written by the CLI: '#' comments, a header, float rows."""
    header, rows = None, []
    with open(path) as fh:
        for line in fh:
            if line.startswith("#") or not line.strip():
                continue
            toks = [tok.strip() for tok in line.split(",")]
            if header is None:
                header = toks
            else:
                rows.append([float(tok) for tok in toks])
    return {name: [row[i] for row in rows] for i, name in enumerate(header)}


def read_summary(path):
    out = {}
    with open(path) as fh:
        for line in fh:
            if " = " in line and not line.startswith("#"):
                key, val = line.split(" = ", 1)
                out[key.strip()] = val.strip()
    return out


def _all_finite(cols, skip_prefix=()):
    return all(
        math.isfinite(v)
        for name, vals in cols.items()
        if not name.startswith(tuple(skip_prefix))
        for v in vals
    )


def check_outputs(workload, out_dir):
    """List of failed gate descriptions (empty when the run is correct)."""
    cols = read_columns(os.path.join(out_dir, workload.output))
    fails = []
    if workload.name == "heat-k0":
        m = cols["mass"]
        drift = max(abs(v - m[0]) for v in m) / abs(m[0])
        if not drift <= 1e-10:
            fails.append(f"mass drift {drift:.3e} > 1e-10")
        if not _all_finite(cols):
            fails.append("non-finite time series")
    elif workload.name == "stokes-k4":
        # profile errors are NaN by design when the field carries no momentum
        if not _all_finite(cols, skip_prefix=("profile_err",)):
            fails.append("non-finite stokes series")
    elif workload.name == "imex-q32":
        if not _all_finite(cols):
            fails.append("non-finite ns series")
        bad = [t for t, d, n in zip(cols["t"], cols["diff_norm_L2"], cols["norm_L2"]) if not d < n]
        if bad:
            fails.append(f"distance to the linear shadow not below the flow norm at t = {bad[0]}")
    elif workload.name == "kato-small":
        ratios = [v for v in cols["ratio"] if not math.isnan(v)]
        if not ratios or not all(v < 1.0 for v in ratios):
            fails.append(f"contraction ratios {ratios} not all < 1")
        summary = read_summary(os.path.join(out_dir, "summary.txt"))
        if summary.get("converged") != "True":
            fails.append("successive approximation did not converge")
        gap = float(summary["imex_discrepancy_L2"])
        if not gap <= 1e-3:
            fails.append(f"IMEX gap {gap:.3e} > 1e-3")
    return fails


def kato_iterations(out_dir):
    return int(read_summary(os.path.join(out_dir, "summary.txt"))["iterations"])


class LyapunovMonitor:
    """Per-step gate for stokes-k4: the discrete Lyapunov functional
    2 pi sum_i w_i |y_i|^p (+ 2 pi |ell|^p / alpha for the dynamic-boundary
    channels) of every scalar subsystem, p in {1, 2, 4, 8}, is nonincreasing
    to a relative 1e-10.  Evaluated here rather than through the package, so
    the gate does not rely on the code it checks.

    A monitor is called with the step function's arguments and its result.
    """

    P_VALUES = (1.0, 2.0, 4.0, 8.0)

    def __init__(self):
        import numpy as np

        self._np = np
        self._last_state = None
        self._last = None
        self.worst = -math.inf

    def subsystems(self, args, state):
        """(scalar state, alpha) pairs; alpha = inf drops the ball term."""
        pp = state.params
        subs = [(state.w_state, pp.alpha_w), (state.z_psi, pp.alpha0), (state.z_phi, pp.alpha0)]
        return subs + [(z, math.inf) for pair in state.z_higher for z in pair]  # Dirichlet

    def _values(self, args, state):
        np = self._np
        subs = self.subsystems(args, state)
        y = np.abs(np.array([s.y for s, _ in subs]))
        ell = np.abs(np.array([s.ell for s, _ in subs]))
        inv_alpha = np.array([1.0 / a for _, a in subs])
        w = state.grid.quad_weights
        return np.concatenate([2.0 * math.pi * (y**p @ w + inv_alpha * ell**p) for p in self.P_VALUES])

    def __call__(self, args, after):
        before = args[0]
        prev = self._last if before is self._last_state else self._values(args, before)
        cur = self._values(args, after)
        growth = (cur - prev) / self._np.maximum(prev, 1e-300)
        self.worst = max(self.worst, float(growth.max()))
        self._last_state, self._last = after, cur

    def failed(self):
        if not self.worst <= 1e-10:
            return [f"Lyapunov functional grew by {self.worst:.3e} in one step"]
        return []


class HeatMonitor(LyapunovMonitor):
    """Per-step gate for heat-k0 (``dynbc.step(state, params, dt, ...)``).

    After every step: the Lyapunov functionals are nonincreasing, as above;
    the mass 2 pi sum_i w_i y_i + 2 pi ell / alpha stays within a relative
    1e-10 of its value before the first step; and the trace y[0] == ell
    holds.  The trace condition holds by construction of dynbc's unknown
    vector (both are read from one entry), so only a change to that layout
    can trip it; the other two are properties of the scheme.
    """

    def __init__(self):
        super().__init__()
        self.mass0 = None
        self.mass_drift = 0.0
        self.trace_failures = 0

    def subsystems(self, args, state):
        return [(state, args[1].alpha_tilde)]

    def __call__(self, args, after):
        super().__call__(args, after)
        alpha = args[1].alpha_tilde
        w = after.grid.quad_weights
        mass = [2.0 * math.pi * (float(w @ s.y) + s.ell / alpha) for s in (args[0], after)]
        if self.mass0 is None:
            self.mass0 = mass[0]
        self.mass_drift = max(self.mass_drift, abs(mass[1] - self.mass0) / abs(self.mass0))
        self.trace_failures += after.y[0] != after.ell

    def failed(self):
        fails = super().failed()
        if not self.mass_drift <= 1e-10:
            fails.append(f"mass drifted by {self.mass_drift:.3e} within the run")
        if self.trace_failures:
            fails.append(f"trace y[0] != ell after {self.trace_failures} steps")
        return fails
