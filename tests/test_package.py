"""The package namespace: what ``from pinstacks import X`` gives, loaded on first use."""

from __future__ import annotations

import importlib
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import pinstacks

SRC = str(Path(pinstacks.__file__).resolve().parent.parent)
README = Path(__file__).resolve().parent.parent / "README.md"

# pinstacks.__all__: every name the package binds from its modules, and
# __version__
ALL = ["CoincidenceReport", "DEFAULT_POLICY", "DegenerateFormula", "DispersionResidual",
       "DomainError", "EigenSystem", "IncidentWave", "LightLineProximity", "ModeMatrix",
       "ModesDidNotMerge", "NonFiniteValue", "NoUnityReflectance", "NoUnityTransmittance",
       "OrderQuantities", "PinStack", "ResonancePeak", "SearchError", "SingularSystem",
       "SpectralPoint", "SpectrumRecord", "StackGeometry", "SteeringResult",
       "TruncationPolicy", "Unresolved", "__version__", "assemble",
       "coincidence_conditions", "default_bracket", "determinant", "dispersion_grid",
       "dispersion_residual", "eigensystem", "even_family_vector", "fabry_perot_model",
       "feature_scan", "find_beta_g", "find_eta_star", "find_xi_edit", "greens",
       "lightline_matrix", "locate_crossing", "order_quantities", "plane_wave_amplitudes",
       "project", "propagating_orders", "q_factor", "resonance_beta", "scan",
       "scan_even_family", "scatter", "single_grating_reflectance", "slab_guess",
       "solve_coefficients", "spectrum_scan", "steer", "transmittance"]

# every exported name but __version__, by the submodule that defines it
EXPORTS = {
    "errors": ["DegenerateFormula", "DomainError", "LightLineProximity", "ModesDidNotMerge",
               "NonFiniteValue", "NoUnityReflectance", "NoUnityTransmittance",
               "SearchError", "SingularSystem", "Unresolved"],
    "greens": ["DEFAULT_POLICY", "OrderQuantities", "SpectralPoint", "TruncationPolicy",
               "greens", "order_quantities", "propagating_orders"],
    "modes": ["CoincidenceReport", "DispersionResidual", "EigenSystem", "ModeMatrix",
              "StackGeometry", "assemble", "coincidence_conditions", "determinant",
              "dispersion_grid", "dispersion_residual", "eigensystem", "even_family_vector",
              "lightline_matrix", "locate_crossing", "project", "scan_even_family"],
    "scattering": ["IncidentWave", "PinStack", "SpectrumRecord", "fabry_perot_model",
                   "plane_wave_amplitudes", "scan", "scatter", "single_grating_reflectance",
                   "solve_coefficients", "spectrum_scan", "transmittance"],
    "steering": ["ResonancePeak", "SteeringResult", "default_bracket", "feature_scan",
                 "find_beta_g", "find_eta_star", "find_xi_edit", "q_factor",
                 "resonance_beta", "slab_guess", "steer"],
}


def test_all_is_the_public_list():
    assert pinstacks.__all__ == ALL
    names = {name for names in EXPORTS.values() for name in names}
    assert names - set(ALL) == set() and set(ALL) - names == {"__version__"}


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_each_exported_name_is_its_submodules_object(module):
    owner = importlib.import_module(f"pinstacks.{module}")
    for name in EXPORTS[module]:
        assert getattr(pinstacks, name) is getattr(owner, name), name


def test_dir_and_star_import_give_every_exported_name():
    assert set(pinstacks.__all__) <= set(dir(pinstacks))
    namespace: dict = {}
    exec("from pinstacks import *", namespace)
    assert all(namespace[name] is getattr(pinstacks, name) for name in pinstacks.__all__)


def test_an_unknown_name_is_an_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'pinstacks' has no attribute 'no_such_name'"):
        pinstacks.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from pinstacks import no_such_name", {})


def test_the_readme_quickstart_import_runs():
    (line,) = re.findall(r"^from pinstacks import \(.*?\)$", README.read_text(), re.M | re.S)
    namespace: dict = {}
    exec(line, namespace)
    assert callable(namespace["greens"]) and callable(namespace["find_xi_edit"])


def test_greens_stays_the_function_in_a_fresh_process():
    # importing the submodule pinstacks.greens binds it on the package; were
    # greens resolved lazily, from pinstacks import greens would then give
    # the module
    script = (
        "import importlib, sys, types\n"
        "import pinstacks\n"
        "def check():\n"
        "    from pinstacks import greens\n"
        "    assert not isinstance(greens, types.ModuleType), greens\n"
        "    assert pinstacks.greens is greens is sys.modules['pinstacks.greens'].greens\n"
        "check()\n"
        "assert set(pinstacks.__all__) <= set(dir(pinstacks))\n"
        "assert 'pinstacks.steering' not in sys.modules\n"   # dir imports nothing
        "importlib.import_module('pinstacks.greens')\n"
        "check()\n"
        "import pinstacks.cli\n"
        "check()\n"
        "from pinstacks import steer, greens\n"
        "check()\n"
    )
    done = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert not isinstance(pinstacks.greens, types.ModuleType)
