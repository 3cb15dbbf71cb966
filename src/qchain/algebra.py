"""Closed-form scalar machinery of the deformed collective-spin algebra.

The inhomogeneous couplings cos(j*pi*l) turn the collective ladder
commutator into [S+, S-] = 2*R*S_z with a scalar deformation factor
R in [1/N, 1].  :func:`deformation_profile` is the one evaluator of R,
at O(1) per spacing; :func:`deformation_factor`, its scalar form, only
perfbench's worker calls.
Alongside it sit the one deformation validator, the one spelling of the
ladder product (r - m)(r + m + 1) and the level parabola h(m); the
dense-matrix counterparts live in :mod:`qchain.oracle`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import validate_n_qubits, validate_steps
from .errors import InvalidParameterError

__all__ = [
    "DeformationFactor",
    "deformation_factor",
    "deformation_profile",
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


def deformation_factor(n_qubits: int, spacing: float) -> DeformationFactor:
    """Deformation factor R of an N-qubit chain at relative spacing l,
    evaluated by :func:`deformation_profile`.  Bounds: 1/N <= R <= 1.
    """
    value = float(deformation_profile(n_qubits, spacing))
    return DeformationFactor(value=value, n_qubits=int(n_qubits), spacing=float(spacing))


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
    outside = ~((ls > 0.0) & (ls < np.inf))  # nan included
    if outside.any():
        raise InvalidParameterError(
            f"spacing must be finite and > 0, got {ls[outside][0].item()!r}"
        )
    d = ls - np.round(ls)
    x = np.pi * np.where(d == 0.0, 0.5, d)
    r = 0.5 + np.sin(n * x) * np.cos((n - 1) * x) / (2.0 * n * np.sin(x))
    return np.where(d == 0.0, 1.0, r)


def _validate_deformation(deformation) -> float:
    r = float(deformation)
    if not math.isfinite(r) or not 0.0 < r <= 1.0:
        raise InvalidParameterError(f"deformation must lie in (0, 1], got {r!r}")
    return r


def _ladder_product(r2: int, m2: int) -> int:
    """(r - m)(r + m + 1) in exact integer arithmetic on doubled indices."""
    return (r2 - m2) * (r2 + m2 + 2) // 4


def h_curve(deformation, m_min, m_max, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Uniform samples of the parabola h(m) = R*(m^2 + m) on [m_min, m_max],
    for plotting the level structure, as the two float arrays ``(ms, hs)``.
    Requires 2 <= steps <= ``config.MAX_SWEEP_STEPS`` and a nonempty range.
    """
    R = _validate_deformation(deformation)
    m_min = float(m_min)
    m_max = float(m_max)
    if not (math.isfinite(m_min) and math.isfinite(m_max)) or m_min >= m_max:
        raise InvalidParameterError(f"empty moment range [{m_min!r}, {m_max!r}]")
    ms = np.linspace(m_min, m_max, validate_steps(steps))
    return ms, R * (ms * ms + ms)
