"""Initial-data presets for the standard experiment suite.

Each preset fixes the physical parameters, grid, time stepping, spectral
truncation and initial data of one benchmark run.  The long-time targets are
documented per preset; the domain radius is sized so that far-field
truncation stays invisible at the advertised tolerance (the diffusive front
reaches r_max at the exp(-r_max^2/(4 nu T)) level, so exact-conservation
checks use a much larger box than fitted-rate checks).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .dynbc import DynBCParams, ScalarModeState
from .elliptic import invert_z
from .errors import UnknownPreset
from .fields import ModeDecomposition, RigidState
from .grid import PhysicalParams, build_grid
from .navier_stokes import NonlinearConfig
from .stokes import init_stokes

__all__ = ["Preset", "PRESETS", "get_preset", "preset_names", "build_setup"]


@dataclass(frozen=True)
class Preset:
    name: str
    experiment: str
    description: str
    physical: dict
    grid: dict
    time: dict
    spectral: dict = dc_field(default_factory=dict)
    data: dict = dc_field(default_factory=dict)


def _bump(r, center=1.5, width=2.0):
    return np.exp(-width * (r - center) ** 2)


def _mode1_bump_data(grid, amplitude):
    """Mode-1 data with unit translation trace and rapidly decaying stream
    profile: the transformed unknown is a compact bump scaled so that the
    profile decays faster than 1/r (total fluid weight -amplitude)."""
    r = grid.nodes
    g = _bump(r)
    scale = -amplitude / float(np.sum(grid.quad_weights * g))
    phi = -invert_z(grid, [scale * g], (1,), [amplitude])[0]
    zero = np.zeros_like(r)
    rigid = RigidState(np.array([amplitude, 0.0]), 0.0)
    return ModeDecomposition(grid, zero, zero.copy(), phi, np.zeros((0, 2, r.size)), rigid)


PRESETS = {
    "unit-kick-k0": Preset(
        name="unit-kick-k0",
        experiment="mode-heat",
        description=(
            "k = 0 dynamic-boundary heat flow started from a unit boundary "
            "value and quiescent fluid; conserves the total mass exactly and "
            "relaxes onto the self-similar Gaussian (4 pi nu t ell(t)/M -> 1)."
        ),
        physical={"nu": 1.0, "m": math.pi},
        grid={"n_points": 3072, "r_max": 150.0, "stretch": 1.5},
        time={"dt": 0.02, "t_end": 100.0, "output_ratio": 2.0 ** 0.25},
        data={"k": 0, "ell0": 1.0, "profile": "zero"},
    ),
    "w-bump-k1": Preset(
        name="w-bump-k1",
        experiment="mode-heat",
        description=(
            "k = 1 dynamic-boundary flow (the angular-velocity channel) from "
            "a compact bump; the boundary value decays like t^-2."
        ),
        physical={"nu": 1.0, "m": 2.0 * math.pi},
        grid={"n_points": 2048, "r_max": 100.0, "stretch": 1.5},
        time={"dt": 0.02, "t_end": 100.0, "output_ratio": 2.0 ** 0.25},
        data={"k": 1, "ell0": 1.0, "profile": "bump"},
    ),
    "translating-disk": Preset(
        name="translating-disk",
        experiment="evolve-stokes",
        description=(
            "Disk of mass 2 pi kicked to unit x-velocity with a compact "
            "mode-1 wake; the translation decays like M/(8 pi nu t) with "
            "momentum M = (m - pi) and the field approaches the self-similar "
            "dipole."
        ),
        physical={"nu": 1.0, "m": 2.0 * math.pi},
        grid={"n_points": 2048, "r_max": 80.0, "stretch": 1.5},
        time={"dt": 0.02, "t_end": 100.0, "output_ratio": 2.0 ** 0.25},
        spectral={"k_max": 2, "n_theta": 16},
        data={"kind": "mode1-bump", "amplitude": 1.0},
    ),
    "neutral-buoyancy": Preset(
        name="neutral-buoyancy",
        experiment="evolve-stokes",
        description=(
            "Same kick with a disk of fluid density (m = pi): the total "
            "momentum vanishes and the translation decays strictly faster "
            "than 1/t."
        ),
        physical={"nu": 1.0, "m": math.pi},
        grid={"n_points": 2048, "r_max": 80.0, "stretch": 1.5},
        time={"dt": 0.02, "t_end": 100.0, "output_ratio": 2.0 ** 0.25},
        spectral={"k_max": 2, "n_theta": 16},
        data={"kind": "mode1-bump", "amplitude": 1.0},
    ),
    "higher-modes-only": Preset(
        name="higher-modes-only",
        experiment="evolve-stokes",
        description=(
            "Field supported on the third angular harmonic only; the "
            "remainder class decays faster than the translating modes."
        ),
        physical={"nu": 1.0, "m": 2.0 * math.pi},
        grid={"n_points": 2048, "r_max": 80.0, "stretch": 1.5},
        time={"dt": 0.02, "t_end": 100.0, "output_ratio": 2.0 ** 0.25},
        spectral={"k_max": 4, "n_theta": 16},
        data={"kind": "higher-bump", "k": 3, "amplitude": 1.0},
    ),
    "ns-small-q32": Preset(
        name="ns-small-q32",
        experiment="evolve-ns",
        description=(
            "Small nonlinear run from slowly decaying data (speed ~ r^-1.34, "
            "integrability class q = 3/2): the distance to the linear flow "
            "decays faster than the flow itself.  The fit window [20, 200] "
            "and the static-tail norm closure come from a local-slope study; "
            "the Duhamel correction needs t ~ 20 before its power law sets "
            "in, and the base norm must count the untouched tail beyond "
            "r_max."
        ),
        physical={"nu": 1.0, "m": 2.0 * math.pi},
        grid={"n_points": 4096, "r_max": 300.0, "stretch": 1.0},
        time={"dt": 0.05, "t_end": 200.0, "output_ratio": 2.0 ** 0.25},
        spectral={"k_max": 4, "n_theta": 16},
        data={
            "kind": "mode1-tail",
            "amplitude": 0.05,
            "gamma": 0.34,
            "fit_window": (20.0, 200.0),
        },
    ),
    "kato-small": Preset(
        name="kato-small",
        experiment="kato",
        description=(
            "Successive-approximation run at amplitude 1e-2 over unit time; "
            "the iterates contract geometrically and match the IMEX stepper."
        ),
        physical={"nu": 1.0, "m": 2.0 * math.pi},
        grid={"n_points": 1024, "r_max": 30.0, "stretch": 1.5},
        time={"dt": 1.0 / 64.0, "t_end": 1.0, "output_ratio": 2.0 ** 0.25},
        spectral={"k_max": 2, "n_theta": 16, "kato_max_iters": 8, "kato_tol": 1e-12},
        data={"kind": "mode1-bump", "amplitude": 1e-2},
    ),
}


def preset_names():
    return sorted(PRESETS)


def get_preset(name):
    try:
        return PRESETS[name]
    except KeyError:
        raise UnknownPreset(
            f"unknown preset {name!r}; available: {', '.join(preset_names())}"
        ) from None


def build_setup(preset, overrides=None):
    """Materialize a preset: grid, physical parameters and initial state.

    Returns a dict with keys grid, params, and one of scalar_state (+
    scalar_params) for mode-heat runs or state (+ ns_config when relevant)
    for field runs.  overrides is a nested dict merged over the preset's
    sections (grid/time/physical/spectral/data).
    """
    sections = {
        "physical": dict(preset.physical),
        "grid": dict(preset.grid),
        "time": dict(preset.time),
        "spectral": dict(preset.spectral),
        "data": dict(preset.data),
    }
    for key, sub in (overrides or {}).items():
        sections.setdefault(key, {}).update(sub)
    params = PhysicalParams(
        nu=sections["physical"].get("nu", 1.0),
        m=sections["physical"].get("m", math.pi),
    )
    grid = build_grid(
        int(sections["grid"]["n_points"]),
        float(sections["grid"]["r_max"]),
        float(sections["grid"].get("stretch", 0.0)),
    )
    out = {
        "grid": grid,
        "params": params,
        "time": sections["time"],
        "spectral": sections["spectral"],
        "experiment": preset.experiment,
        "preset": preset,
    }
    data = sections["data"]
    if preset.experiment == "mode-heat":
        k = int(data.get("k", 0))
        alpha = params.alpha0 if k == 0 else params.alpha_w
        y0 = np.zeros(grid.n_points)
        if data.get("profile") == "bump":
            y0 = _bump(grid.nodes, center=1.0)
        out["scalar_params"] = DynBCParams(k, alpha, params.nu, "dynamic")
        out["scalar_state"] = ScalarModeState(grid, y0, float(data.get("ell0", 0.0)), 0.0)
        return out
    kind = data.get("kind", "mode1-bump")
    amp = float(data.get("amplitude", 1.0))
    k_max = int(sections["spectral"].get("k_max", 2))
    if kind == "mode1-bump":
        d0 = _mode1_bump_data(grid, amp)
    elif kind == "mode1-tail":
        r = grid.nodes
        gamma = float(data.get("gamma", 0.4))
        psi0 = amp * r ** (-gamma)
        d0 = ModeDecomposition(
            grid,
            np.zeros_like(r),
            psi0,
            np.zeros_like(r),
            np.zeros((0, 2, r.size)),
            RigidState(np.array([0.0, amp]), 0.0),
        )
        # squared L2 content of the (static) stream tail beyond r_max:
        # pi * amp^2 (1 + gamma^2) r_max^(-2 gamma) / (2 gamma)
        out["base_tail_norm2"] = (
            math.pi * amp**2 * (1.0 + gamma**2) * grid.r_max ** (-2.0 * gamma) / (2.0 * gamma)
        )
        out["fit_window"] = tuple(data.get("fit_window", (10.0, 100.0)))
    elif kind == "higher-bump":
        r = grid.nodes
        k = int(data.get("k", 3))
        prof = amp * (r - 1.0) ** 2 * _bump(r)
        higher = np.zeros((max(k_max - 1, k - 1), 2, r.size))
        higher[k - 2, 0] = prof
        d0 = ModeDecomposition(
            grid,
            np.zeros_like(r),
            np.zeros_like(r),
            np.zeros_like(r),
            higher,
            RigidState(np.zeros(2), 0.0),
        )
    else:
        raise UnknownPreset(f"unknown data kind {kind!r}")
    if d0.k_max < k_max:
        pad = np.zeros((k_max - 1, 2, grid.n_points))
        if d0.k_max > 1:
            pad[: d0.k_max - 1] = d0.higher
        d0 = ModeDecomposition(grid, d0.w, d0.psi, d0.phi, pad, d0.rigid)
    out["decomp0"] = d0
    out["state"] = init_stokes(d0, params)
    if preset.experiment in ("evolve-ns", "kato"):
        out["ns_config"] = NonlinearConfig(
            k_max=k_max,
            n_theta=int(sections["spectral"].get("n_theta", 16)),
            kato_max_iters=int(sections["spectral"].get("kato_max_iters", 10)),
            kato_tol=float(sections["spectral"].get("kato_tol", 1e-10)),
        )
    return out
