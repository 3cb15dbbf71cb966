"""The public API, spelled out: adding or removing a public name changes
one of the lists below, so every such change shows up in review."""

import importlib
import types

import pytest

import qchain

PACKAGE = [
    "CapacityError", "ChainConfig", "CollectiveOps", "ConvergenceError", "CrossoverReport",
    "DeformationFactor", "DressedState",
    "EmptySectorError", "ExcitationSubspace", "InvalidParameterError", "NegativeRadicandError",
    "OperatorMatrix", "PoleError",
    "QChainError",
    "build_collective_ops", "build_h1_matrix",
    "coefficients_closed", "coefficients_recursive",
    "crossover_point", "deformation_factor", "deformation_profile",
    "find_stationary_points", "four_qubit_reference_coefficients", "h_curve", "hs_projection",
    "resonant_alternate_energies", "sector_spectrum",
    "solve_dressed", "stationarity_residual", "subspace", "weak_coupling_energies",
]

MODULES = {
    "algebra": [
        "DeformationFactor", "deformation_factor",
        "deformation_profile", "h_curve",
    ],
    "crossover": [
        "CrossoverReport", "crossover_point", "find_stationary_points",
        "stationarity_residual",
    ],
    "linalg": [
        "INVERSE_MAX_SWEEPS", "QL_MAX_ITERATIONS", "as_real", "tridiagonal_eigh",
        "tridiagonal_eigvalsh",
    ],
    "oracle": [
        "CollectiveOps", "MAX_QUBITS", "OperatorMatrix",
        "build_collective_ops",
        "hs_projection", "sector_spectrum",
    ],
    "spectra": [
        "DressedState", "ExcitationSubspace", "build_h1_matrix",
        "coefficients_closed", "coefficients_recursive", "four_qubit_reference_coefficients",
        "resonant_alternate_energies", "solve_dressed", "subspace", "weak_coupling_energies",
    ],
}


def test_package_public_names():
    names = [
        name
        for name, value in vars(qchain).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    ]
    assert sorted(names) == PACKAGE


@pytest.mark.parametrize("module", sorted(MODULES))
def test_module_all(module):
    assert sorted(importlib.import_module(f"qchain.{module}").__all__) == MODULES[module]
