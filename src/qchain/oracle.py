"""Brute-force ground truth on the full qubit (x) Fock space.

Collective operators and the rotating-wave Hamiltonian are built as
explicit dense real matrices (the couplings are real cosines under the
rotating-wave approximation) on integer (photon number, occupation)
bases; one builder serves the truncated and the sector Hamiltonians.
Sector spectra come from the in-house Householder + implicit QL
eigensolver of :mod:`qchain.linalg`, so every closed-form result in the
package can be checked against something that knows nothing about the
deformed algebra.
Desk-scale verification only: dense storage, <= 12 qubits, dims <= ~4000.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ChainConfig, twice
from .errors import (
    CapacityError,
    DimensionMismatchError,
    EmptySectorError,
    InvalidParameterError,
    NotHermitianError,
    ZeroDenominatorError,
)
from .linalg import as_real, tridiagonal_eigvalsh, tridiagonalize

__all__ = [
    "MAX_QUBITS",
    "MAX_DENSE_DIM",
    "OperatorMatrix",
    "CollectiveOps",
    "build_collective_ops",
    "build_hamiltonian",
    "build_excitation_number",
    "commutator",
    "hs_projection",
    "sector_spectrum",
    "eigvalsh",
]

MAX_QUBITS = 12
MAX_DENSE_DIM = 4096

HERMITICITY_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    """Dense real operator with its product basis.

    ``basis`` is an int array of shape (dim, 2) whose rows are
    (photon number, occupation): bit j of the occupation set means qubit j
    excited.  Every basis built here is photon-major, occupations
    ascending.  When ``hermitian`` is set the entries are checked against
    the transpose at construction (tolerance 1e-12 entrywise).  Complex
    entries are accepted only with zero imaginary parts.
    """

    entries: np.ndarray
    basis: np.ndarray
    hermitian: bool = False

    def __post_init__(self):
        entries = as_real(self.entries, "entries")
        basis = np.asarray(self.basis)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "basis", basis)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise InvalidParameterError(f"entries must be square, got shape {entries.shape}")
        if basis.ndim != 2 or basis.shape[1] != 2 or not np.issubdtype(basis.dtype, np.integer):
            raise InvalidParameterError(
                f"basis must be an int array of shape (dim, 2), got {basis.dtype} {basis.shape}"
            )
        if entries.shape[0] != basis.shape[0]:
            raise DimensionMismatchError(
                f"entries dim {entries.shape[0]} != basis length {basis.shape[0]}"
            )
        if self.hermitian:
            defect = np.abs(entries - entries.T).max() if entries.size else 0.0
            if defect > HERMITICITY_TOL:
                raise NotHermitianError(f"hermitian flag set but max defect {defect:.3e}")

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class CollectiveOps:
    """The four collective qubit-space operators of one chain."""

    s_z: OperatorMatrix
    s_plus: OperatorMatrix
    s_minus: OperatorMatrix
    sigma_z: OperatorMatrix


def _check_capacity(n_qubits: int, dim: int):
    if n_qubits > MAX_QUBITS:
        raise CapacityError(f"{n_qubits} qubits exceeds the dense cap of {MAX_QUBITS}")
    if dim > MAX_DENSE_DIM:
        raise CapacityError(f"dense dimension {dim} exceeds {MAX_DENSE_DIM}")


def _grid(n_qubits: int, photons) -> np.ndarray:
    """Basis rows (photon number, occupation) for each of ``photons`` and
    every occupation 0..2^N - 1, photon-major."""
    photons = np.asarray(photons, dtype=np.int64)
    occupations = np.arange(1 << n_qubits, dtype=np.int64)
    return np.column_stack(
        (np.repeat(photons, occupations.size), np.tile(occupations, photons.size))
    )


def _popcount(occupations: np.ndarray, n_qubits: int) -> np.ndarray:
    """Number of excited qubits in each occupation."""
    return sum((occupations >> j) & 1 for j in range(n_qubits))


def build_collective_ops(config: ChainConfig) -> CollectiveOps:
    """Collective operators on the 2^N qubit space.

    S_z = sum_j sigma_{j,z} (eigenvalues +-1/2 per qubit),
    S_+- = sum_j cos(j*pi*l) sigma_{j,+-}, and Sigma_z = sum_j
    cos^2(j*pi*l) sigma_{j,z}, which satisfies [S+, S-] = 2*Sigma_z as an
    exact operator identity.
    """
    n = config.n_qubits
    dim = 1 << n
    _check_capacity(n, dim)
    basis = _grid(n, [0])
    occ = basis[:, 1]
    weights = config.coupling_profile()

    s_z = np.diag(_popcount(occ, n) - n / 2.0)

    diag = np.zeros(dim)
    for j in range(n):
        diag += weights[j] ** 2 * (((occ >> j) & 1) - 0.5)
    sig_z = np.diag(diag)

    s_plus = np.zeros((dim, dim))
    for j in range(n):
        src = occ[((occ >> j) & 1) == 0]
        s_plus[src + (1 << j), src] += weights[j]

    return CollectiveOps(
        s_z=OperatorMatrix(s_z, basis, hermitian=True),
        s_plus=OperatorMatrix(s_plus, basis),
        s_minus=OperatorMatrix(s_plus.T, basis),
        sigma_z=OperatorMatrix(sig_z, basis, hermitian=True),
    )


def commutator(a: OperatorMatrix, b: OperatorMatrix) -> OperatorMatrix:
    """AB - BA on a shared basis."""
    if not np.array_equal(a.basis, b.basis):
        raise DimensionMismatchError("operators live on different bases")
    return OperatorMatrix(a.entries @ b.entries - b.entries @ a.entries, a.basis)


def hs_projection(sigma_z: OperatorMatrix, s_z: OperatorMatrix) -> float:
    """Hilbert-Schmidt projection coefficient tr(A^T B)/tr(B^T B) of
    sigma_z onto s_z, evaluated on the full tensor space.  For the
    collective operators this reproduces the deformation factor.
    """
    if not np.array_equal(sigma_z.basis, s_z.basis):
        raise DimensionMismatchError("operators live on different bases")
    denom = np.vdot(s_z.entries, s_z.entries)
    if denom == 0.0:
        raise ZeroDenominatorError("projection target has zero Hilbert-Schmidt norm")
    return np.vdot(sigma_z.entries, s_z.entries) / denom


def _hamiltonian(config: ChainConfig, basis: np.ndarray) -> OperatorMatrix:
    """Rotating-wave Hamiltonian on a photon-major ``basis`` that holds
    (n - 1, b + 2^j) for each of its rows (n >= 1, b) with qubit j in b
    unexcited, so every hopping term stays inside it."""
    n = config.n_qubits
    photons, occupations = basis.T
    dim = len(basis)
    h = np.zeros((dim, dim))
    h[np.diag_indices(dim)] = (
        config.qubit_freq * (_popcount(occupations, n) - n / 2.0) + config.photon_freq * photons
    )
    key = (photons << n) | occupations  # ascending in a photon-major basis
    amp = config.coupling * np.sqrt(photons)
    for j, weight in enumerate(config.coupling_profile()):
        src = np.flatnonzero((photons >= 1) & (((occupations >> j) & 1) == 0))
        dst = np.searchsorted(key, key[src] - (1 << n) + (1 << j))
        h[dst, src] += amp[src] * weight
        h[src, dst] += amp[src] * weight
    return OperatorMatrix(h, basis, hermitian=True)


def _truncated_basis(config: ChainConfig, fock_cutoff: int) -> np.ndarray:
    """Every product state with at most ``fock_cutoff`` photons."""
    if not isinstance(fock_cutoff, (int, np.integer)) or fock_cutoff < 0:
        raise InvalidParameterError(f"fock_cutoff must be an integer >= 0, got {fock_cutoff!r}")
    n = config.n_qubits
    _check_capacity(n, (1 << n) * (int(fock_cutoff) + 1))
    return _grid(n, range(fock_cutoff + 1))


def build_hamiltonian(config: ChainConfig, fock_cutoff: int) -> OperatorMatrix:
    """Rotating-wave Hamiltonian truncated at photon number ``fock_cutoff``::

        H = w_q * sum_j sigma_{j,z} + w_0 * a^dag a
            + eta * sum_j cos(j*pi*l) * (sigma_{j,+} a + sigma_{j,-} a^dag)

    on the 2^N * (fock_cutoff+1) product space, photon-major ordering.
    """
    return _hamiltonian(config, _truncated_basis(config, fock_cutoff))


def build_excitation_number(config: ChainConfig, fock_cutoff: int) -> OperatorMatrix:
    """Conserved excitation number S_z + a^dag a on the same basis as
    :func:`build_hamiltonian`."""
    basis = _truncated_basis(config, fock_cutoff)
    n = config.n_qubits
    diag = _popcount(basis[:, 1], n) - n / 2.0 + basis[:, 0]
    return OperatorMatrix(np.diag(diag), basis, hermitian=True)


def sector_basis(config: ChainConfig, total_excitation) -> np.ndarray:
    """Basis rows with S_z + a^dag a = u, photon-major order.

    The photon number in the sector never exceeds u + N/2, so the basis
    is exact, not truncated.
    """
    n = config.n_qubits
    _check_capacity(n, 1 << n)
    n_max2 = twice(total_excitation) + n  # doubled value of u + N/2
    if n_max2 < 0 or n_max2 % 2 != 0:
        raise EmptySectorError(
            f"no basis states with excitation number {total_excitation!r} for {n} qubits"
        )
    n_max = n_max2 // 2
    grid = _grid(n, range(max(0, n_max - n), n_max + 1))
    return grid[_popcount(grid[:, 1], n) + grid[:, 0] == n_max]


def sector_hamiltonian(config: ChainConfig, total_excitation) -> OperatorMatrix:
    """Hamiltonian restricted to one excitation sector (exact truncation)."""
    return _hamiltonian(config, sector_basis(config, total_excitation))


def sector_spectrum(config: ChainConfig, total_excitation) -> np.ndarray:
    """Ascending eigenvalues of the Hamiltonian on one excitation sector."""
    return eigvalsh(sector_hamiltonian(config, total_excitation))


def eigvalsh(operator: OperatorMatrix) -> np.ndarray:
    """Ascending eigenvalues of an :class:`OperatorMatrix` flagged hermitian,
    by Householder reduction and implicit QL; no eigenvectors are formed."""
    if not operator.hermitian:
        raise NotHermitianError("operator is not flagged hermitian")
    return tridiagonal_eigvalsh(*tridiagonalize(operator.entries))
