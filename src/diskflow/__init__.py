"""diskflow: spectral simulation of a rigid disk moving in a 2D viscous fluid.

The package decomposes divergence-free planar fields that are rigid on the
unit disk into angular harmonics, evolves each harmonic by a radial heat
equation with a dynamic boundary condition (the disk's equations of motion),
and verifies the long-time decay rates and self-similar profiles of the
coupled system, linear and nonlinear.
"""

from .analysis import DecayFit, ExpectedRate, expected_exponent, fit_decay, profile_error
from .dynbc import (
    DynBCParams,
    ScalarModeState,
    evolve,
    gaussian_profile,
    lp_norm,
    lyapunov_functional,
    mass,
    step,
)
from .elliptic import check_drz_bound, check_w_elliptic, invert_z, z_transform
from .errors import DiskflowError
from .fields import (
    ModeDecomposition,
    PolarField,
    RigidState,
    added_mass_pairing,
    decompose,
    extract_rigid,
    inner_l2,
    kirchhoff_test_field,
    load_field_file,
    project_leray,
    reconstruct,
    save_field_file,
    weighted_field_norm,
)
from .grid import PhysicalParams, RadialGrid, build_grid, lp_norm_radial
from .navier_stokes import (
    KatoDiagnostics,
    NonlinearConfig,
    evolve_ns,
    improved_decay_experiment,
    kato_solve,
    kinetic_energy,
    nonlinear_term,
    step_ns,
)
from .presets import PRESETS, build_setup, get_preset, preset_names
from .stokes import (
    AsymptoticMomenta,
    StokesState,
    asymptotic_momenta,
    evolve_stokes,
    init_stokes,
    lamb_oseen_profile,
    reconstruct_trajectory,
    recover_mode1_pressure,
    step_stokes,
)

__version__ = "0.1.0"
