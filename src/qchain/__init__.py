"""Excitation spectra of a qubit chain inhomogeneously coupled to one
photon mode, via a deformed collective-spin algebra, with an exact
dense-diagonalization oracle for every closed form."""

from .algebra import (
    DeformationFactor,
    bloch_metric,
    casimir_h,
    deformation_factor,
    deformation_profile,
    h_curve,
    ladder_element,
    sigma_z_deviation_weights,
)
from .config import ChainConfig
from .crossover import (
    CrossoverReport,
    crossover_point,
    find_stationary_points,
    stationarity_residual,
)
from .errors import (
    CapacityError,
    ConvergenceError,
    DegenerateLadderError,
    DimensionMismatchError,
    EmptySectorError,
    InvalidParameterError,
    NegativeRadicandError,
    NotHermitianError,
    PoleError,
    QChainError,
    ZeroDenominatorError,
)
from .oracle import (
    CollectiveOps,
    OperatorMatrix,
    build_collective_ops,
    build_excitation_number,
    build_hamiltonian,
    commutator,
    eigvalsh,
    hs_projection,
    sector_spectrum,
)
from .spectra import (
    DressedState,
    ExcitationSubspace,
    ResonantLevels,
    build_h1_matrix,
    coefficients_closed,
    coefficients_recursive,
    four_qubit_reference_coefficients,
    resonant_energies,
    solve_dressed,
    subspace,
    weak_coupling_energies,
)

__version__ = "0.1.0"
