"""Multiexponential quadrupolar relaxation of spin-7/2 nuclei.

Library surface: operator construction (spin_algebra), physical inputs
(phys_params), per-coherence-order relaxation blocks and eigensystems
(redfield_core), density-matrix evolution and magnetization synthesis
(evolution), and decay-curve fitting / inversion diagnostics (analysis).
The batch command-line front end lives in cli.

Importing the package imports none of its submodules.  Each public name, and
each submodule as an attribute (``quadrelax.analysis``), loads its submodule
on first use (PEP 562).  A name is looked up in its submodule on every access,
not copied here, so ``quadrelax.X`` is always ``quadrelax.<module>.X``.
"""

import importlib

#: each submodule's public names; the submodules are public names too
_EXPORTS = {
    "spin_algebra": ("SpinSystem", "SpinOperators", "make_spin_operators",
                     "make_irreducible_tensor", "make_quadrupole_operators"),
    "phys_params": ("SpectralDensities", "QuadrupolarConstant", "lorentzian_spectral_densities",
                    "quadrupolar_constant_simplified", "densities_from_fit"),
    "redfield_core": ("CoherenceBlock", "BlockEigensystem", "DegenerateSpectrumError",
                      "TableValidationReport", "assemble_block", "coefficient_matrices",
                      "evaluate_block", "numeric_eigensystem", "analytic_eigenvalues",
                      "analytic_eigensystem", "validate_against_reference_tables"),
    "curves": ("DecayCurve", "DataFormatError", "read_curve", "write_curve"),
    "evolution": ("DensityState", "MagnetizationModel", "propagate",
                  "build_longitudinal_model", "build_transverse_model"),
    "analysis": ("FitResult", "TimeDistribution", "BlochLongitudinalFit", "BlochTransverseFit",
                 "AmplitudeSpectrum", "fit_redfield_joint", "fit_bloch_longitudinal",
                 "fit_bloch_transverse", "ilt", "residual_spectrum", "joint_models",
                 "joint_model_curves"),
    "cli": (),
}
#: public name -> the submodule that defines it; a submodule maps to itself
_HOME = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # importing a submodule also binds it here, so this runs once per submodule name
    module = importlib.import_module(f"{__name__}.{home}")
    return module if home == name else getattr(module, name)


def __dir__():
    return sorted({*globals(), *_HOME})
