"""Brute-force ground truth: the collective operators on the qubit space
and the rotating-wave Hamiltonian on each exact excitation sector of the
qubit (x) Fock space.

Operators are real (the couplings are real cosines under the
rotating-wave approximation), live on integer (photon number,
occupation) bases and are stored as their nonzero (row, column, value)
triplets, the one form :class:`OperatorMatrix` is built from; it refuses
an entry named twice.  One private builder makes every Hamiltonian as
finite triplets that name each entry once, beside its mirror; the tests
run it on a truncated Fock space as well.  Sector spectra come from the
dense matrix of those triplets, formed for the solve only, by the
in-house Householder + implicit QL eigensolver of :mod:`qchain.linalg`,
so every closed-form result in the package can be checked against
something that knows nothing about the deformed algebra.  Desk-scale
verification only: <= 12 qubits, so no basis holds more than 4096 states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ChainConfig, check_normal_hops, twice
from .errors import CapacityError, EmptySectorError, InvalidParameterError
from .linalg import _eigenvalues, _scale_down, _tridiagonalize_in_place, as_real

__all__ = [
    "MAX_QUBITS",
    "OperatorMatrix",
    "CollectiveOps",
    "build_collective_ops",
    "hs_projection",
    "sector_spectrum",
]

MAX_QUBITS = 12


class OperatorMatrix:
    """Real operator stored as its nonzero (row, column, value) triplets.

    ``basis`` is an int array of shape (dim, 2) whose rows are
    (photon number, occupation): bit j of the occupation set means qubit j
    excited.  Every basis built here is photon-major, occupations
    ascending.  ``rows`` and ``cols`` index the basis and are stored as
    int64; a (row, column) pair named twice is refused, even with one
    value, so the triplets and :attr:`entries` agree.  ``values`` must be
    real and finite (a complex array is refused, even with zero imaginary
    parts).  It need not be symmetric: S_+ is not.
    """

    def __init__(self, basis, rows, cols, values):
        basis = np.asarray(basis)
        if basis.ndim != 2 or basis.shape[1] != 2 or not np.issubdtype(basis.dtype, np.integer):
            raise InvalidParameterError(
                f"basis must be an int array of shape (dim, 2), got {basis.dtype} {basis.shape}"
            )
        rows, cols, values = np.asarray(rows), np.asarray(cols), as_real(values, "values")
        if not (
            values.ndim == 1
            and rows.shape == cols.shape == values.shape
            and np.issubdtype(rows.dtype, np.integer)
            and np.issubdtype(cols.dtype, np.integer)
        ):
            raise InvalidParameterError(
                "rows, cols and values must be 1-d arrays of one length, rows and cols int"
            )
        if values.size and not (
            0 <= min(rows.min(), cols.min()) and max(rows.max(), cols.max()) < len(basis)
        ):
            raise InvalidParameterError(f"indices outside the basis of dim {len(basis)}")
        # in range, so the int64 copies and their keys row * dim + col are exact
        rows, cols = rows.astype(np.int64), cols.astype(np.int64)
        keys = np.sort(rows * len(basis) + cols)
        if np.count_nonzero(keys[1:] == keys[:-1]):
            raise InvalidParameterError("an operator names one (row, column) entry twice")
        self.basis, self.rows, self.cols, self.values = basis, rows, cols, values

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def entries(self) -> np.ndarray:
        """The dense float64 matrix, formed anew on each access."""
        return _dense(self.dim, self.rows, self.cols, self.values)


def _dense(dim: int, rows, cols, values) -> np.ndarray:
    """The dim x dim float64 matrix holding each triplet's value."""
    entries = np.zeros((dim, dim))
    entries[rows, cols] = values
    return entries


@dataclass(frozen=True)
class CollectiveOps:
    """The four collective qubit-space operators of one chain."""

    s_z: OperatorMatrix
    s_plus: OperatorMatrix
    s_minus: OperatorMatrix
    sigma_z: OperatorMatrix


def _check_capacity(n_qubits: int):
    if n_qubits > MAX_QUBITS:
        raise CapacityError(f"{n_qubits} qubits exceeds the dense cap of {MAX_QUBITS}")


def _grid(n_qubits: int, photons) -> np.ndarray:
    """Basis rows (photon number, occupation) for each of ``photons`` and
    every occupation 0..2^N - 1, photon-major."""
    photons = np.asarray(photons, dtype=np.int64)
    occupations = np.arange(1 << n_qubits, dtype=np.int64)
    return np.column_stack(
        (np.repeat(photons, occupations.size), np.tile(occupations, photons.size))
    )


def _bits(occupations: np.ndarray, n_qubits: int) -> np.ndarray:
    """bits[j, k] = 1 where qubit j is excited in occupations[k]."""
    return (occupations >> np.arange(n_qubits)[:, None]) & 1


def build_collective_ops(config: ChainConfig) -> CollectiveOps:
    """Collective operators on the 2^N qubit space.

    S_z = sum_j sigma_{j,z} (eigenvalues +-1/2 per qubit),
    S_+- = sum_j cos(j*pi*l) sigma_{j,+-}, and Sigma_z = sum_j
    cos^2(j*pi*l) sigma_{j,z}, which satisfies [S+, S-] = 2*Sigma_z as an
    exact operator identity.
    """
    n = config.n_qubits
    _check_capacity(n)
    basis = _grid(n, [0])
    weights = config.coupling_profile()

    bits = _bits(basis[:, 1], n)
    sig_z = np.zeros(len(basis))
    for j in range(n):
        sig_z += weights[j] ** 2 * (bits[j] - 0.5)

    # S+ has the edge (b + 2^j, b) of weight cos(j*pi*l) where qubit j is down
    qubit, src = np.nonzero(bits == 0)
    dst = src + (1 << qubit)
    weight = weights[qubit]

    return CollectiveOps(
        s_z=_diagonal(basis, bits.sum(axis=0) - n / 2.0),
        s_plus=OperatorMatrix(basis, dst, src, weight),
        s_minus=OperatorMatrix(basis, src, dst, weight),
        sigma_z=_diagonal(basis, sig_z),
    )


def _diagonal(basis: np.ndarray, values: np.ndarray) -> OperatorMatrix:
    """Diagonal operator; every diagonal entry is stored, zeros included."""
    index = np.arange(len(basis))
    return OperatorMatrix(basis, index, index, values)


def hs_projection(sigma_z: OperatorMatrix, s_z: OperatorMatrix) -> np.float64:
    """Hilbert-Schmidt projection coefficient tr(A^T B)/tr(B^T B) of
    sigma_z onto s_z on the full tensor space, from the stored triplets:
    for the collective operators, one dot product of two diagonals.  It
    reproduces the deformation factor, as a ``np.float64`` scalar, whose
    ``repr`` differs from a float's.  Each operator names each entry once,
    so the sums over its triplets are sums over its dense matrix.

    An operator whose largest entry lies outside 2**(+-SAFE_EXPONENT) is
    summed scaled by its own power of two: a copy of its values goes
    through the eigensolver's :func:`qchain.linalg._scale_down`, and the
    quotient is scaled back by the difference of the two exponents (by
    ``np.ldexp``, which leaves every bit of it at a difference of 0); so no
    sum over- or underflows, and inside that range nothing is scaled.  Raises
    :class:`InvalidParameterError` for a zero target or a coefficient
    beyond float range.
    """
    if not np.array_equal(sigma_z.basis, s_z.basis):
        raise InvalidParameterError("operators live on different bases")
    # tr(A^T B) sums A_ij * B_ij over the pairs (i, j) both operators store
    keys = [op.rows * op.dim + op.cols for op in (sigma_z, s_z)]
    _, ia, ib = np.intersect1d(*keys, assume_unique=True, return_indices=True)
    a, b = sigma_z.values.copy(), s_z.values.copy()
    shift_a, shift_b = _scale_down(a), _scale_down(b)
    # a zero target (0/0) or a coefficient beyond float range: refused below, not warned about
    with np.errstate(all="ignore"):
        projection = np.ldexp(a[ia] @ b[ib] / (b @ b), shift_a - shift_b)
    if not np.isfinite(projection):
        tops = (np.abs(op.values).max(initial=0.0) for op in (sigma_z, s_z))
        raise InvalidParameterError(
            "no finite Hilbert-Schmidt projection of an operator with largest |entry| "
            "{:.3g} onto a target with largest |entry| {:.3g}".format(*tops)
        )
    return projection


def _hamiltonian(config: ChainConfig, basis: np.ndarray) -> tuple:
    """Rotating-wave Hamiltonian on a photon-major ``basis`` that holds
    (n - 1, b + 2^j) for each of its rows (n >= 1, b) with qubit j in b
    unexcited, so every hopping term stays inside it, as (rows, cols, values)
    triplets, each hop beside its mirror; a value out of float range is refused."""
    n = config.n_qubits
    photons, occupations = basis.T
    bits = _bits(occupations, n)
    key = (photons << n) | occupations  # ascending in a photon-major basis
    hops = config.coupling * np.sqrt(photons) * config.coupling_profile()[:, None]
    # qubit j takes up a photon of state src; zero hops (eta = 0) are not stored
    qubit, src = np.nonzero((hops != 0.0) & (bits == 0))
    dst = np.searchsorted(key, key[src] - (1 << n) + (1 << qubit))
    hop = hops[qubit, src]
    # at eta > 0 the hop of qubit 0 (cos 0 = 1) stays nonzero, so a coupling
    # whose hops underflow leaves at least one stored, and subnormal
    check_normal_hops(hop, config.coupling)
    diag = config.qubit_freq * (bits.sum(axis=0) - n / 2.0) + config.photon_freq * photons
    values = np.concatenate((diag, hop, hop))
    if not np.isfinite(values).all():
        raise InvalidParameterError(f"{config!r} gives Hamiltonian entries out of float range")
    index = np.arange(len(basis))
    return np.concatenate((index, dst, src)), np.concatenate((index, src, dst)), values


def sector_basis(config: ChainConfig, total_excitation) -> np.ndarray:
    """Basis rows with S_z + a^dag a = u, photon-major order.

    The photon number in the sector never exceeds u + N/2, so the basis
    is exact, not truncated.
    """
    n = config.n_qubits
    _check_capacity(n)
    n_max2 = twice(total_excitation) + n  # doubled value of u + N/2
    if n_max2 < 0 or n_max2 % 2 != 0:
        raise EmptySectorError(
            f"no basis states with excitation number {total_excitation!r} for {n} qubits"
        )
    n_max = n_max2 // 2
    grid = _grid(n, range(max(0, n_max - n), n_max + 1))
    return grid[_bits(grid[:, 1], n).sum(axis=0) + grid[:, 0] == n_max]


def sector_hamiltonian(config: ChainConfig, total_excitation) -> OperatorMatrix:
    """Hamiltonian restricted to one excitation sector (exact truncation)."""
    basis = sector_basis(config, total_excitation)
    return OperatorMatrix(basis, *_hamiltonian(config, basis))


def sector_spectrum(config: ChainConfig, total_excitation) -> np.ndarray:
    """Ascending eigenvalues of the Hamiltonian on one excitation sector,
    from the dense matrix of its triplets, which the reduction overwrites."""
    basis = sector_basis(config, total_excitation)
    entries = _dense(len(basis), *_hamiltonian(config, basis))
    return _eigenvalues(*_tridiagonalize_in_place(entries))
