"""Closed-form scalar machinery of the deformed collective-spin algebra.

The inhomogeneous couplings cos(j*pi*l) turn the collective ladder
commutator into [S+, S-] = 2*R*S_z with a scalar deformation factor
R in [1/N, 1].  :func:`deformation_profile` is the one evaluator of R,
at O(1) per spacing; :func:`deformation_factor` is its scalar form.
Everything in this module is a pure function of plain scalars or
arrays of spacings; the dense-matrix counterparts live in
:mod:`qchain.oracle`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import twice, validate_n_qubits
from .errors import InvalidParameterError

__all__ = [
    "DeformationFactor",
    "deformation_factor",
    "deformation_profile",
    "sigma_z_deviation_weights",
    "ladder_element",
    "casimir_h",
    "bloch_metric",
    "h_curve",
]


@dataclass(frozen=True)
class DeformationFactor:
    """Deformation factor R(N, l) of one chain, with the N and l it was
    evaluated at; ``float(factor)`` gives the value.
    """

    value: float
    n_qubits: int
    spacing: float

    def __float__(self) -> float:
        return self.value


def _validate_nl(n_qubits, spacing):
    n = validate_n_qubits(n_qubits)
    spacing = float(spacing)
    if not math.isfinite(spacing) or spacing <= 0:
        raise InvalidParameterError(f"spacing must be finite and > 0, got {spacing!r}")
    return n, spacing


def deformation_factor(n_qubits: int, spacing: float) -> DeformationFactor:
    """Deformation factor R of an N-qubit chain at relative spacing l,
    evaluated by :func:`deformation_profile`.  Bounds: 1/N <= R <= 1.
    """
    n, l = _validate_nl(n_qubits, spacing)
    return DeformationFactor(value=float(deformation_profile(n, l)), n_qubits=n, spacing=l)


def deformation_profile(n_qubits: int, spacings) -> np.ndarray:
    """Deformation factor R(N, l) = 1/2 + (1/2N) * sum_{j<N} cos(2*j*pi*l)
    on an array of spacings, which must be finite and > 0.

    R has period 1 in l, so it is evaluated at d = l - round(l), which is
    exact in floating point, in the Dirichlet form
    R = 1/2 + sin(N*pi*d) * cos((N-1)*pi*d) / (2N * sin(pi*d)), with
    R = 1 exactly at d = 0.  Each spacing costs O(1) time and memory, and
    the value stays within a few ulp of R even next to integer l.
    """
    n = validate_n_qubits(n_qubits)
    ls = np.asarray(spacings, dtype=float)
    if ls.size and (not np.isfinite(ls).all() or (ls <= 0).any()):
        raise InvalidParameterError("spacings must be finite and > 0")
    d = ls - np.round(ls)
    x = np.pi * np.where(d == 0.0, 0.5, d)
    r = 0.5 + np.sin(n * x) * np.cos((n - 1) * x) / (2.0 * n * np.sin(x))
    return np.where(d == 0.0, 1.0, r)


def sigma_z_deviation_weights(n_qubits: int, spacing: float) -> np.ndarray:
    """Weights w_j = sin(j*pi*(1+l)) * sin(j*pi*(1-l)) of the extra
    single-qubit sigma_z terms in the ladder commutator:
    [S+, S-] = 2*(S_z + sum_j w_j sigma_{j,z}).

    Equivalently w_j = (cos(2*j*pi*l) - 1) / 2; all w_j vanish at
    integer l, recovering the undeformed algebra.
    """
    n, l = _validate_nl(n_qubits, spacing)
    j = np.arange(n)
    return np.sin(j * np.pi * (1.0 + l)) * np.sin(j * np.pi * (1.0 - l))


def _validate_deformation(deformation) -> float:
    r = float(deformation)
    if not math.isfinite(r) or not 0.0 < r <= 1.0:
        raise InvalidParameterError(f"deformation must lie in (0, 1], got {r!r}")
    return r


def _ladder_product(r2: int, m2: int) -> int:
    """(r - m)(r + m + 1) in exact integer arithmetic on doubled indices."""
    return (r2 - m2) * (r2 + m2 + 2) // 4


def ladder_element(total_spin, moment, deformation) -> float:
    """Deformed ladder element alpha_m^(r) = sqrt(R*(r-m)*(r+m+1)).

    Conventions: S+|r,m> = alpha_m^(r) |r,m+1> and
    S-|r,m> = alpha_{m-1}^(r) |r,m-1>, so alpha_r^(r) = 0 at the top of
    the ladder.  r and m must be half-integers with -r <= m <= r and
    r - m integral.
    """
    r2 = twice(total_spin)
    m2 = twice(moment)
    R = _validate_deformation(deformation)
    if r2 < 0:
        raise InvalidParameterError(f"total_spin must be >= 0, got {total_spin!r}")
    if not -r2 <= m2 <= r2:
        raise InvalidParameterError(f"moment {moment!r} outside [-r, r] for r = {total_spin!r}")
    if (r2 - m2) % 2 != 0:
        raise InvalidParameterError(f"r - m must be an integer, got r = {total_spin!r}, m = {moment!r}")
    return math.sqrt(R * _ladder_product(r2, m2))


def casimir_h(moment, deformation) -> float:
    """Scalar part h(m) = R*(m^2 + m) of the deformed Casimir operator
    C = S-S+ + h(S_z).  Minimum over real m is -R/4 at m = -1/2.
    """
    m2 = twice(moment)
    R = _validate_deformation(deformation)
    return R * (m2 * m2 + 2 * m2) / 4.0


def bloch_metric(deformation) -> tuple[float, float, float]:
    """Metric (1, 1, R) of the deformed Bloch ellipsoid; R = 1 gives the
    unit sphere of the homogeneous case.
    """
    R = _validate_deformation(deformation)
    return (1.0, 1.0, R)


def h_curve(deformation, m_min, m_max, steps: int) -> tuple[list[float], list[float]]:
    """Uniform samples of the parabola h(m) = R*(m^2 + m) on [m_min, m_max],
    for plotting the level structure, as the two columns ``(ms, hs)``.
    Requires steps >= 2 and a nonempty range.
    """
    R = _validate_deformation(deformation)
    m_min = float(m_min)
    m_max = float(m_max)
    if not (math.isfinite(m_min) and math.isfinite(m_max)) or m_min >= m_max:
        raise InvalidParameterError(f"empty moment range [{m_min!r}, {m_max!r}]")
    if not isinstance(steps, (int, np.integer)) or steps < 2:
        raise InvalidParameterError(f"steps must be an integer >= 2, got {steps!r}")
    ms = np.linspace(m_min, m_max, int(steps))
    hs = R * (ms * ms + ms)
    return ms.tolist(), hs.tolist()
