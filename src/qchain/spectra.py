"""Diagonalization of the deformed collective model in one (u, r) subspace.

The interaction part couples photon-number configurations |n; r, u-n>
only to n +- 1, through the deformed ladder elements, so each ladder is
built once as the diagonal and off-diagonal (d, e) of a real symmetric
tridiagonal matrix and diagonalized by the tridiagonal routes of
:mod:`qchain.linalg` (implicit QL for eigenvalues, inverse iteration for
eigenvectors).  Alongside the eigensolve this module carries the
coefficient recursion, its combinatorial closed form and the 4-qubit
special-case formulas, each an independent route to the same spectrum.
The matrix and the recursion take alpha and alpha^2 from one array of
the exact ladder products (r-m)*(r+m+1).  The characteristic polynomial
and the truncated weak-coupling quartic, which no command prints, live
in the tests as references.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import _ladder_product, _validate_deformation
from .config import halves, twice
from .errors import (
    CapacityError,
    DegenerateLadderError,
    EmptySectorError,
    InvalidParameterError,
    NegativeRadicandError,
    PoleError,
)
from .linalg import tridiagonal_eigh, tridiagonal_eigvalsh

__all__ = [
    "ExcitationSubspace",
    "DressedState",
    "ResonantLevels",
    "subspace",
    "build_h1_matrix",
    "solve_dressed",
    "coefficients_recursive",
    "coefficients_closed",
    "weak_coupling_energies",
    "resonant_energies",
    "four_qubit_reference_coefficients",
]

# Largest ladder a subspace admits: `spectrum` prints dim^2 coefficients, and took
# 2.4 / 4.3 / 5.2 s and 175 / 255 / 354 MB at dim 801 / 1001 / 1201 (2-core Xeon VM).
MAX_LADDER_DIM = 1001


@dataclass(frozen=True)
class ExcitationSubspace:
    """Ladder basis {|n; r, u-n>} of one excitation sector at fixed total spin.

    Photon numbers run from max(0, u-r) to u+r so that the moment
    m = u - n always satisfies -r <= m <= r.
    """

    total_excitation: float
    total_spin: float
    photon_numbers: tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.photon_numbers)


@dataclass(frozen=True, eq=False)
class DressedState:
    """One eigenpair of the subspace interaction matrix.

    ``coefficients`` is the unit-norm eigenvector: ``coefficients[k]``
    multiplies the configuration with photon number ``photon_numbers[k]``.
    ``total_energy`` = qubit_freq * u + v.
    """

    interaction_eigenvalue: float
    coefficients: np.ndarray
    total_energy: float


@dataclass(frozen=True, eq=False)
class ResonantLevels:
    """Zero-detuning interaction eigenvalues of the 4-qubit one-excitation
    ladder.

    ``canonical`` holds the eigensolver values, which coincide with
    +-sqrt((15 +- 3*sqrt(17))*R)*eta, the roots of
    v^4 - 30*R*eta^2*v^2 + 72*R^2*eta^4.  ``alternate`` holds
    +-sqrt((15 + 3*sqrt(33))*R)*eta, the real roots obtained when the
    constant term's sign is flipped to -72*R^2*eta^4; it is retained for
    comparison output only.
    """

    canonical: np.ndarray
    alternate: np.ndarray


def subspace(total_excitation, total_spin) -> ExcitationSubspace:
    """The (u, r) ladder subspace.

    Raises
    ------
    EmptySectorError
        If u < -r, or if u - r is not an integer (no photon number can
        then produce a valid moment).
    CapacityError
        If the ladder has more than :data:`MAX_LADDER_DIM` states.
    """
    u2 = twice(total_excitation)
    r2 = twice(total_spin)
    if r2 < 0:
        raise InvalidParameterError(f"total_spin must be >= 0, got {total_spin!r}")
    if u2 < -r2:
        raise EmptySectorError(f"u = {total_excitation!r} lies below -r = {halves(-r2)!r}")
    if (u2 - r2) % 2 != 0:
        raise EmptySectorError(
            f"u - r must be an integer, got u = {total_excitation!r}, r = {total_spin!r}"
        )
    n_lo = max(0, (u2 - r2) // 2)
    n_hi = (u2 + r2) // 2
    if n_hi - n_lo + 1 > MAX_LADDER_DIM:
        raise CapacityError(f"ladder of {n_hi - n_lo + 1} states exceeds {MAX_LADDER_DIM}")
    return ExcitationSubspace(
        total_excitation=halves(u2),
        total_spin=halves(r2),
        photon_numbers=tuple(range(n_lo, n_hi + 1)),
    )


def _ladder_products(sub: ExcitationSubspace) -> np.ndarray:
    """The exact integers (r-m)*(r+m+1) at m = u-n-1 for every photon
    number n of the ladder but the last, stored as floats."""
    u2, r2 = twice(sub.total_excitation), twice(sub.total_spin)
    return np.array(
        [_ladder_product(r2, u2 - 2 * n - 2) for n in sub.photon_numbers[:-1]], dtype=float
    )


def _alphas(sub: ExcitationSubspace, R: float) -> np.ndarray:
    """alpha_{u-n-1}^(r) = sqrt(R*(r-m)*(r+m+1)) along the ladder."""
    return np.sqrt(R * _ladder_products(sub))


def build_h1_matrix(
    sub: ExcitationSubspace, deformation, detuning, coupling
) -> tuple[np.ndarray, np.ndarray]:
    """Interaction matrix w~_0 * a^dag a + eta*(S+ a + S- a^dag) on the
    subspace basis as its diagonal d and off-diagonal e: d = w~_0 * n, and
    the element between n and n+1 is eta * sqrt(n+1) * alpha_{u-n-1}^(r).
    The coupling eta must be finite and >= 0.
    """
    R = _validate_deformation(deformation)
    eta = float(coupling)
    if not math.isfinite(eta) or eta < 0.0:
        raise InvalidParameterError(f"coupling must be finite and >= 0, got {coupling!r}")
    ns = np.asarray(sub.photon_numbers)
    return float(detuning) * ns.astype(float), eta * np.sqrt(ns[1:]) * _alphas(sub, R)


def solve_dressed(
    sub: ExcitationSubspace, deformation, detuning, coupling, qubit_freq: float = 0.0
) -> list[DressedState]:
    """All dressed states of the subspace, ordered by ascending interaction
    eigenvalue, each with its unit-norm eigenvector.  Pass ``qubit_freq``
    to obtain absolute total energies E = w_q * u + v.
    """
    values, vectors = tridiagonal_eigh(*build_h1_matrix(sub, deformation, detuning, coupling))
    return [
        DressedState(
            interaction_eigenvalue=float(values[k]),
            coefficients=vectors[:, k].copy(),
            total_energy=float(qubit_freq) * sub.total_excitation + float(values[k]),
        )
        for k in range(sub.dim)
    ]


def _scaled_offsets(v, detuning, coupling, count):
    """vt_n = (v - detuning*n)/coupling for n = 0..count-1."""
    eta = float(coupling)
    if eta <= 0.0:
        raise InvalidParameterError(f"coupling must be > 0, got {coupling!r}")
    return np.array([(float(v) - float(detuning) * n) / eta for n in range(count)])


def _require_c0(sub: ExcitationSubspace):
    if sub.photon_numbers[0] != 0:
        raise InvalidParameterError(
            "coefficient formulas require photon number 0 in the subspace (u <= r)"
        )


def coefficients_recursive(v, sub: ExcitationSubspace, deformation, detuning, coupling) -> np.ndarray:
    """Configuration amplitudes c_n with c_0 = 1 by the three-term
    recursion

        C_{n+1} = vt_n * C_n - n * alpha_{u-n}^2 * C_{n-1},
        c_n = C_n / (sqrt(n!) * prod_{j=1..n} alpha_{u-j}),

    where vt_n = (v - detuning*n)/coupling.  When v is an eigenvalue of
    the subspace matrix, C_{n_max+1} vanishes (the terminating condition).
    """
    R = _validate_deformation(deformation)
    _require_c0(sub)
    n_max = sub.photon_numbers[-1]
    vt = _scaled_offsets(v, detuning, coupling, n_max + 1)
    alpha_sq = R * _ladder_products(sub)  # alpha_{u-n}^2 at index n - 1
    big_c = np.empty(n_max + 1)
    big_c[0] = 1.0
    if n_max >= 1:
        big_c[1] = vt[0]
    for n, step_sq in enumerate(alpha_sq[:-1].tolist(), start=1):
        big_c[n + 1] = vt[n] * big_c[n] - n * step_sq * big_c[n - 1]
    c = np.empty(n_max + 1)
    c[0] = 1.0
    denom = 1.0
    for n, step in enumerate(np.sqrt(alpha_sq).tolist(), start=1):
        if step == 0.0:
            raise DegenerateLadderError(f"alpha_(u-{n}) vanishes; transform undefined")
        denom *= math.sqrt(n) * step
        c[n] = big_c[n] / denom
    return c


def coefficients_closed(v, sub: ExcitationSubspace, deformation, detuning, coupling) -> np.ndarray:
    """Configuration amplitudes by the combinatorial closed form

        c_n = sum_{p=0}^{floor(n/2)} (-1)^p R^{p - n/2} * K_{n,p},

    where K_{n,p} builds on the undeformed ladder elements
    abar_{u-(j+1)} through P_n = prod_j vt_j / abar_{u-(j+1)} and a sum
    over descending non-adjacent index tuples in [0, n-2], each
    contributing prod_k w_{j_k} with
    w_j = (j+1) * abar_{u-(j+1)}^2 / (vt_j * vt_{j+1}).

    The tuple sums are the coefficients of the independence polynomial of
    the path 0..n-2 weighted by w, so they follow from
    S_n(x) = S_{n-1}(x) + x * w_{n-2} * S_{n-2}(x) in O(n^2) overall,
    still grouped by powers of R.

    The expression genuinely has poles at vt_j = 0; those raise
    :class:`PoleError` instead of returning huge values.
    """
    R = _validate_deformation(deformation)
    _require_c0(sub)
    n_max = sub.photon_numbers[-1]
    vt = _scaled_offsets(v, detuning, coupling, n_max + 1)
    pole_tol = 1e-12 * max(1.0, abs(float(v)) / float(coupling))
    if n_max >= 2:
        bad = np.flatnonzero(np.abs(vt[:n_max]) < pole_tol)
        if bad.size:
            j = int(bad[0])
            raise PoleError(f"vt_{j} = {vt[j]!r} sits on a pole of the closed form")

    # squares of rounded roots, not the exact products: the table1 golden bytes rest on them
    abar = _alphas(sub, 1.0)
    weights = [(j + 1) * abar[j] ** 2 / (vt[j] * vt[j + 1]) for j in range(n_max - 1)]
    c = np.empty(n_max + 1)
    c[0] = 1.0
    prefactor = 1.0  # running P_n / sqrt(n!)
    older = tuple_sums = np.array([1.0])  # S_{n-2}, S_{n-1}: coefficients K_{n,p} by p
    for n in range(1, n_max + 1):
        if n >= 2:
            grown = np.concatenate(([0.0], weights[n - 2] * older))
            grown[: tuple_sums.size] += tuple_sums
            older, tuple_sums = tuple_sums, grown
        prefactor *= vt[n - 1] / (abar[n - 1] * math.sqrt(n))
        p = np.arange(tuple_sums.size)
        c[n] = prefactor * float(np.sum((-1.0) ** p * R ** (p - n / 2.0) * tuple_sums))
    return c


def weak_coupling_energies(deformation, detuning, coupling, qubit_freq) -> np.ndarray:
    """The four weak-coupling total energies of the 4-qubit one-excitation
    ladder, ascending::

        E = w_q + (3/2)*dw +- (1/2)*sqrt(5*dw^2 +- 4*dw*sqrt(dw^2 + 36*R*eta^2))

    These are exactly the roots of the truncated weak-coupling quartic
    v^4 - 6*dw*v^3 + 11*dw^2*v^2 - 6*dw^3*v - 36*R*eta^2*dw^2 shifted by
    w_q; they track the exact spectrum only at leading order in eta/dw.
    """
    R = _validate_deformation(deformation)
    dw = float(detuning)
    if dw == 0.0:
        raise InvalidParameterError("weak-coupling form requires nonzero detuning")
    eta = float(coupling)
    inner = math.sqrt(dw * dw + 36.0 * R * eta * eta)
    energies = []
    for outer_sign in (-1.0, 1.0):
        for inner_sign in (-1.0, 1.0):
            radicand = 5.0 * dw * dw + inner_sign * 4.0 * dw * inner
            if radicand < 0.0:
                raise NegativeRadicandError(
                    f"sign combination ({outer_sign:+.0f}, {inner_sign:+.0f}) "
                    f"gives radicand {radicand!r}"
                )
            energies.append(float(qubit_freq) + 1.5 * dw + outer_sign * 0.5 * math.sqrt(radicand))
    return np.sort(np.array(energies))


def resonant_energies(deformation, coupling) -> ResonantLevels:
    """Zero-detuning interaction eigenvalues of the (u=1, r=2) subspace.

    The canonical values come from the eigensolver and equal
    +-sqrt((15 +- 3*sqrt(17))*R)*eta; the ``alternate`` pair is the
    sign-flipped-quartic closed form kept for comparison reports.
    """
    R = _validate_deformation(deformation)
    canonical = tridiagonal_eigvalsh(*build_h1_matrix(subspace(1, 2), R, 0.0, coupling))
    mag = math.sqrt((15.0 + 3.0 * math.sqrt(33.0)) * R) * float(coupling)
    return ResonantLevels(canonical=canonical, alternate=np.array([-mag, mag]))


def four_qubit_reference_coefficients(v, deformation, detuning, coupling) -> dict:
    """Closed-form amplitudes of the (u=1, r=2) ladder at eigenvalue v,
    as explicit formulas in vt_n = (v - detuning*n)/coupling::

        c1 = vt0 / sqrt(6R)
        c2 = vt0*vt1 / (6*sqrt(2)*R) - 1/sqrt(2)
        c3 = vt0*vt1*vt2 / (12*sqrt(6)*R^(3/2))
             - sqrt(6)*(vt2 + 2*vt0) / (12*sqrt(R))

    ``c3_variant`` replaces sqrt(6)*vt2 by vt2 in the second term of c3;
    it disagrees with the recursion and the eigenvectors and is kept for
    comparison output only.
    """
    R = _validate_deformation(deformation)
    vt = _scaled_offsets(v, detuning, coupling, 3).tolist()
    c1 = vt[0] / math.sqrt(6.0 * R)
    c2 = vt[0] * vt[1] / (6.0 * math.sqrt(2.0) * R) - 1.0 / math.sqrt(2.0)
    lead = vt[0] * vt[1] * vt[2] / (12.0 * math.sqrt(6.0) * R**1.5)
    c3 = lead - math.sqrt(6.0) * (vt[2] + 2.0 * vt[0]) / (12.0 * math.sqrt(R))
    c3_variant = lead - (vt[2] + 2.0 * math.sqrt(6.0) * vt[0]) / (12.0 * math.sqrt(R))
    return {"c1": c1, "c2": c2, "c3": c3, "c3_variant": c3_variant}
