"""The public API, spelled out: adding or removing a public name changes
one of the lists below, so every such change shows up in review."""

import importlib
import types

import pytest

import qchain

PACKAGE = [
    "CapacityError", "ChainConfig", "CollectiveOps", "ConvergenceError", "CrossoverReport",
    "DeformationFactor", "DegenerateLadderError", "DimensionMismatchError", "DressedState",
    "EmptySectorError", "ExcitationSubspace", "InvalidParameterError", "NegativeRadicandError",
    "NotHermitianError", "OperatorMatrix", "PoleError",
    "QChainError", "ResonantLevels", "ZeroDenominatorError", "bloch_metric",
    "build_collective_ops", "build_excitation_number", "build_h1_matrix", "build_hamiltonian",
    "casimir_h", "coefficients_closed", "coefficients_recursive", "commutator",
    "crossover_point", "deformation_factor", "deformation_profile", "eigvalsh",
    "find_stationary_points", "four_qubit_reference_coefficients", "h_curve", "hs_projection",
    "ladder_element", "resonant_energies", "sector_spectrum", "sigma_z_deviation_weights",
    "solve_dressed", "stationarity_residual", "subspace", "weak_coupling_energies",
]

MODULES = {
    "algebra": [
        "DeformationFactor", "bloch_metric", "casimir_h", "deformation_factor",
        "deformation_profile", "h_curve", "ladder_element", "sigma_z_deviation_weights",
    ],
    "crossover": [
        "CrossoverReport", "bracketed_roots", "crossover_point", "find_stationary_points",
        "stationarity_residual",
    ],
    "linalg": [
        "INVERSE_MAX_SWEEPS", "QL_MAX_ITERATIONS", "as_real", "tridiagonal_eigh",
        "tridiagonal_eigvalsh", "tridiagonalize",
    ],
    "oracle": [
        "CollectiveOps", "MAX_DENSE_DIM", "MAX_QUBITS", "OperatorMatrix",
        "build_collective_ops", "build_excitation_number", "build_hamiltonian", "commutator",
        "eigvalsh", "hs_projection", "sector_spectrum",
    ],
    "spectra": [
        "DressedState", "ExcitationSubspace", "ResonantLevels", "build_h1_matrix",
        "coefficients_closed", "coefficients_recursive", "four_qubit_reference_coefficients",
        "resonant_energies", "solve_dressed", "subspace", "weak_coupling_energies",
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
