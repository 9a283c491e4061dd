"""Multiexponential quadrupolar relaxation of spin-7/2 nuclei.

Library surface: operator construction (spin_algebra), physical inputs
(phys_params), per-coherence-order relaxation blocks and eigensystems
(redfield_core), density-matrix evolution and magnetization synthesis
(evolution), and decay-curve fitting / inversion diagnostics (analysis).
The batch command-line front end lives in cli.
"""

from .spin_algebra import (
    SpinSystem,
    SpinOperators,
    make_spin_operators,
    make_irreducible_tensor,
    make_quadrupole_operators,
)
from .phys_params import (
    SpectralDensities,
    QuadrupolarConstant,
    lorentzian_spectral_densities,
    quadrupolar_constant_simplified,
    densities_from_fit,
)
from .redfield_core import (
    CoherenceBlock,
    BlockEigensystem,
    DegenerateSpectrumError,
    TableValidationReport,
    assemble_block,
    coefficient_matrices,
    evaluate_block,
    numeric_eigensystem,
    analytic_eigenvalues,
    analytic_eigensystem,
    validate_against_reference_tables,
)
from .curves import DecayCurve, DataFormatError, read_curve, write_curve
from .evolution import (
    DensityState,
    MagnetizationModel,
    propagate,
    build_longitudinal_model,
    build_transverse_model,
)
from .analysis import (
    FitResult,
    TimeDistribution,
    BlochLongitudinalFit,
    BlochTransverseFit,
    AmplitudeSpectrum,
    fit_redfield_joint,
    fit_bloch_longitudinal,
    fit_bloch_transverse,
    ilt,
    residual_spectrum,
    joint_models,
    joint_model_curves,
)

__version__ = "0.1.0"
