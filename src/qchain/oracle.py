"""Brute-force ground truth on the full qubit (x) Fock space.

Collective operators and the rotating-wave Hamiltonian are built as
explicit dense real matrices (the couplings are real cosines under the
rotating-wave approximation).  Sector spectra come from the in-house
Householder + implicit QL eigensolver of :mod:`qchain.linalg`, so every
closed-form result in the package can be checked against something that
knows nothing about the deformed algebra.
Desk-scale verification only: dense storage, <= 12 qubits, dims <= ~4000.
"""

from __future__ import annotations

import math
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
    "BasisLabel",
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


@dataclass(frozen=True, order=True)
class BasisLabel:
    """One product state |n; bits>.

    ``qubit_bits`` is the binary rendering of the occupation integer b,
    where bit j of b set means qubit j excited (so the leftmost character
    is qubit N-1).  Labels order lexicographically: photon number major,
    occupation integer minor.
    """

    photon_number: int
    qubit_bits: str

    @property
    def occupation(self) -> int:
        return int(self.qubit_bits, 2)

    @property
    def excited_count(self) -> int:
        return self.qubit_bits.count("1")


def _qubit_basis(n_qubits: int, photon_number: int = 0) -> tuple[BasisLabel, ...]:
    return tuple(
        BasisLabel(photon_number, format(b, f"0{n_qubits}b")) for b in range(1 << n_qubits)
    )


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense real operator with its labelled basis.

    When ``hermitian`` is set the entries are checked against the
    transpose at construction (tolerance 1e-12 entrywise).  Complex
    entries are accepted only with zero imaginary parts.
    """

    entries: np.ndarray
    basis: tuple[BasisLabel, ...]
    hermitian: bool = False

    def __post_init__(self):
        entries = as_real(self.entries, "entries")
        object.__setattr__(self, "entries", entries)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise InvalidParameterError(f"entries must be square, got shape {entries.shape}")
        if entries.shape[0] != len(self.basis):
            raise DimensionMismatchError(
                f"entries dim {entries.shape[0]} != basis length {len(self.basis)}"
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


def _check_capacity(n_qubits: int, dim: int, max_qubits: int):
    if n_qubits > max_qubits:
        raise CapacityError(f"{n_qubits} qubits exceeds the dense cap of {max_qubits}")
    if dim > MAX_DENSE_DIM:
        raise CapacityError(f"dense dimension {dim} exceeds {MAX_DENSE_DIM}")


def build_collective_ops(config: ChainConfig, max_qubits: int = MAX_QUBITS) -> CollectiveOps:
    """Collective operators on the 2^N qubit space.

    S_z = sum_j sigma_{j,z} (eigenvalues +-1/2 per qubit),
    S_+- = sum_j cos(j*pi*l) sigma_{j,+-}, and Sigma_z = sum_j
    cos^2(j*pi*l) sigma_{j,z}, which satisfies [S+, S-] = 2*Sigma_z as an
    exact operator identity.
    """
    n = config.n_qubits
    dim = 1 << n
    _check_capacity(n, dim, max_qubits)
    basis = _qubit_basis(n)
    occ = np.arange(dim)
    pop = np.array([bin(b).count("1") for b in range(dim)])
    weights = config.coupling_profile()

    s_z = np.zeros((dim, dim))
    np.fill_diagonal(s_z, pop - n / 2.0)

    sig_z = np.zeros((dim, dim))
    diag = np.zeros(dim)
    for j in range(n):
        bit = (occ >> j) & 1
        diag += weights[j] ** 2 * (bit - 0.5)
    np.fill_diagonal(sig_z, diag)

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
    if a.basis != b.basis:
        raise DimensionMismatchError("operators live on different bases")
    return OperatorMatrix(a.entries @ b.entries - b.entries @ a.entries, a.basis)


def hs_projection(sigma_z: OperatorMatrix, s_z: OperatorMatrix) -> float:
    """Hilbert-Schmidt projection coefficient tr(A^T B)/tr(B^T B) of
    sigma_z onto s_z, evaluated on the full tensor space.  For the
    collective operators this reproduces the deformation factor.
    """
    if sigma_z.basis != s_z.basis:
        raise DimensionMismatchError("operators live on different bases")
    denom = np.vdot(s_z.entries, s_z.entries)
    if denom == 0.0:
        raise ZeroDenominatorError("projection target has zero Hilbert-Schmidt norm")
    return np.vdot(sigma_z.entries, s_z.entries) / denom


def _hamiltonian_basis(n_qubits: int, fock_cutoff: int) -> tuple[BasisLabel, ...]:
    return tuple(
        BasisLabel(ph, format(b, f"0{n_qubits}b"))
        for ph in range(fock_cutoff + 1)
        for b in range(1 << n_qubits)
    )


def build_hamiltonian(
    config: ChainConfig, fock_cutoff: int, max_qubits: int = MAX_QUBITS
) -> OperatorMatrix:
    """Rotating-wave Hamiltonian truncated at photon number ``fock_cutoff``::

        H = w_q * sum_j sigma_{j,z} + w_0 * a^dag a
            + eta * sum_j cos(j*pi*l) * (sigma_{j,+} a + sigma_{j,-} a^dag)

    on the 2^N * (fock_cutoff+1) product space, photon-major ordering.
    """
    if not isinstance(fock_cutoff, (int, np.integer)) or fock_cutoff < 0:
        raise InvalidParameterError(f"fock_cutoff must be an integer >= 0, got {fock_cutoff!r}")
    n = config.n_qubits
    qdim = 1 << n
    dim = qdim * (fock_cutoff + 1)
    _check_capacity(n, dim, max_qubits)
    weights = config.coupling_profile()
    occ = np.arange(qdim)
    pop = np.array([bin(b).count("1") for b in range(qdim)])

    h = np.zeros((dim, dim))
    for ph in range(fock_cutoff + 1):
        base = ph * qdim
        h[base + occ, base + occ] = config.qubit_freq * (pop - n / 2.0) + config.photon_freq * ph
        if ph >= 1:
            amp = config.coupling * math.sqrt(ph)
            for j in range(n):
                src = occ[((occ >> j) & 1) == 0]
                rows = (ph - 1) * qdim + src + (1 << j)
                cols = base + src
                h[rows, cols] += amp * weights[j]
                h[cols, rows] += amp * weights[j]
    return OperatorMatrix(h, _hamiltonian_basis(n, fock_cutoff), hermitian=True)


def build_excitation_number(
    config: ChainConfig, fock_cutoff: int, max_qubits: int = MAX_QUBITS
) -> OperatorMatrix:
    """Conserved excitation number S_z + a^dag a on the same basis as
    :func:`build_hamiltonian`."""
    if not isinstance(fock_cutoff, (int, np.integer)) or fock_cutoff < 0:
        raise InvalidParameterError(f"fock_cutoff must be an integer >= 0, got {fock_cutoff!r}")
    n = config.n_qubits
    qdim = 1 << n
    dim = qdim * (fock_cutoff + 1)
    _check_capacity(n, dim, max_qubits)
    pop = np.array([bin(b).count("1") for b in range(qdim)])
    diag = np.concatenate([pop - n / 2.0 + ph for ph in range(fock_cutoff + 1)])
    return OperatorMatrix(np.diag(diag), _hamiltonian_basis(n, fock_cutoff), hermitian=True)


def sector_basis(config: ChainConfig, total_excitation) -> tuple[BasisLabel, ...]:
    """Basis states with S_z + a^dag a = u, photon-major order.

    The photon number in the sector never exceeds u + N/2, so the list
    is exact, not truncated.
    """
    n = config.n_qubits
    u2 = twice(total_excitation)
    n_max2 = u2 + n  # doubled value of u + N/2
    if n_max2 < 0 or n_max2 % 2 != 0:
        raise EmptySectorError(
            f"no basis states with excitation number {total_excitation!r} for {n} qubits"
        )
    n_max = n_max2 // 2
    labels = []
    for ph in range(n_max + 1):
        excited = n_max - ph  # popcount + photon = u + N/2
        if 0 <= excited <= n:
            labels.extend(
                BasisLabel(ph, format(b, f"0{n}b"))
                for b in range(1 << n)
                if bin(b).count("1") == excited
            )
    if not labels:
        raise EmptySectorError(
            f"no basis states with excitation number {total_excitation!r} for {n} qubits"
        )
    return tuple(labels)


def sector_hamiltonian(
    config: ChainConfig, total_excitation, max_qubits: int = MAX_QUBITS
) -> OperatorMatrix:
    """Hamiltonian restricted to one excitation sector (exact truncation)."""
    n = config.n_qubits
    _check_capacity(n, 1 << n, max_qubits)
    labels = sector_basis(config, total_excitation)
    index = {(lab.photon_number, lab.occupation): i for i, lab in enumerate(labels)}
    weights = config.coupling_profile()
    dim = len(labels)
    h = np.zeros((dim, dim))
    for i, lab in enumerate(labels):
        ph, b = lab.photon_number, lab.occupation
        h[i, i] = config.qubit_freq * (lab.excited_count - n / 2.0) + config.photon_freq * ph
        if ph >= 1:
            amp = config.coupling * math.sqrt(ph)
            for j in range(n):
                if not (b >> j) & 1:
                    k = index[(ph - 1, b | (1 << j))]
                    h[k, i] += amp * weights[j]
                    h[i, k] += amp * weights[j]
    return OperatorMatrix(h, labels, hermitian=True)


def sector_spectrum(
    config: ChainConfig, total_excitation, max_qubits: int = MAX_QUBITS
) -> np.ndarray:
    """Ascending eigenvalues of the Hamiltonian on one excitation sector."""
    return eigvalsh(sector_hamiltonian(config, total_excitation, max_qubits))


def eigvalsh(operator: OperatorMatrix) -> np.ndarray:
    """Ascending eigenvalues of an :class:`OperatorMatrix` flagged hermitian,
    by Householder reduction and implicit QL; no eigenvectors are formed."""
    if not operator.hermitian:
        raise NotHermitianError("operator is not flagged hermitian")
    return tridiagonal_eigvalsh(*tridiagonalize(operator.entries))
