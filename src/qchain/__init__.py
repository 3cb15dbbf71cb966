"""Excitation spectra of a qubit chain inhomogeneously coupled to one
photon mode, via a deformed collective-spin algebra, with an exact
dense-diagonalization oracle for every closed form."""

from .algebra import (
    DeformationFactor,
    deformation_factor,
    deformation_profile,
    h_curve,
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
    EmptySectorError,
    InvalidParameterError,
    NegativeRadicandError,
    PoleError,
    QChainError,
)
from .oracle import (
    CollectiveOps,
    OperatorMatrix,
    build_collective_ops,
    hs_projection,
    sector_spectrum,
)
from .spectra import (
    DressedState,
    ExcitationSubspace,
    build_h1_matrix,
    coefficients_closed,
    coefficients_recursive,
    four_qubit_reference_coefficients,
    resonant_alternate_energies,
    solve_dressed,
    subspace,
    weak_coupling_energies,
)

__version__ = "0.1.0"
