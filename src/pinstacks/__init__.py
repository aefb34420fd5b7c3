"""Flexural plate waves on stacks of pinned gratings.

Spectral evaluation of the quasi-periodic biharmonic Green's function,
trapped-mode analysis of pinned triplets, order-resolved scattering for finite
stacks, and resonance steering toward elasto-dynamically inhibited
transmission (EDIT).

Submodules
----------
greens      quasi-periodic Green's function, truncation policy
modes       3x3 mode matrix, closed-form eigensystem, dispersion residuals
scattering  plane-wave scattering on finite stacks, spectra, energy balance
steering    reflectance / separation / shift optimization pipeline, Q factors
cli         command-line interface (``pinstacks`` entry point)

``errors`` and ``greens`` load with the package; a name from ``modes``,
``scattering`` or ``steering`` imports its module on first use.
"""

import importlib

from .errors import (
    DegenerateFormula,
    DomainError,
    LightLineProximity,
    ModesDidNotMerge,
    NonFiniteValue,
    NoUnityReflectance,
    NoUnityTransmittance,
    SearchError,
    SingularSystem,
    Unresolved,
)
from .greens import (
    DEFAULT_POLICY,
    OrderQuantities,
    SpectralPoint,
    TruncationPolicy,
    greens,
    order_quantities,
    propagating_orders,
)

# The other exported names, by the module that exports them: __getattr__
# (PEP 562) imports it on a name's first access.  greens stays eager: every
# module needs it, and its binding keeps pinstacks.greens the function.
_LAZY = {name: module for module, names in {
    "modes": ("CoincidenceReport", "DispersionResidual", "EigenSystem", "ModeMatrix",
              "StackGeometry", "assemble", "coincidence_conditions", "determinant",
              "dispersion_grid", "dispersion_residual", "eigensystem",
              "even_family_vector", "lightline_matrix", "locate_crossing", "project",
              "scan_even_family"),
    "scattering": ("IncidentWave", "PinStack", "SpectrumRecord", "fabry_perot_model",
                   "plane_wave_amplitudes", "scan", "scatter", "single_grating_reflectance",
                   "solve_coefficients", "spectrum_scan", "transmittance"),
    "steering": ("ResonancePeak", "SteeringResult", "default_bracket", "feature_scan",
                 "find_beta_g", "find_eta_star", "find_xi_edit", "q_factor",
                 "resonance_beta", "slab_guess", "steer"),
}.items() for name in names}


def __getattr__(name: str):
    """The exported name from its submodule, imported now and kept in the namespace."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})


__version__ = "0.1.0"

__all__ = [
    "CoincidenceReport",
    "DEFAULT_POLICY",
    "DegenerateFormula",
    "DispersionResidual",
    "DomainError",
    "EigenSystem",
    "IncidentWave",
    "LightLineProximity",
    "ModeMatrix",
    "ModesDidNotMerge",
    "NonFiniteValue",
    "NoUnityReflectance",
    "NoUnityTransmittance",
    "OrderQuantities",
    "PinStack",
    "ResonancePeak",
    "SearchError",
    "SingularSystem",
    "SpectralPoint",
    "SpectrumRecord",
    "StackGeometry",
    "SteeringResult",
    "TruncationPolicy",
    "Unresolved",
    "__version__",
    "assemble",
    "coincidence_conditions",
    "default_bracket",
    "determinant",
    "dispersion_grid",
    "dispersion_residual",
    "eigensystem",
    "even_family_vector",
    "fabry_perot_model",
    "feature_scan",
    "find_beta_g",
    "find_eta_star",
    "find_xi_edit",
    "greens",
    "lightline_matrix",
    "locate_crossing",
    "order_quantities",
    "plane_wave_amplitudes",
    "project",
    "propagating_orders",
    "q_factor",
    "resonance_beta",
    "scan",
    "scan_even_family",
    "scatter",
    "single_grating_reflectance",
    "slab_guess",
    "spectrum_scan",
    "steer",
    "transmittance",
]
