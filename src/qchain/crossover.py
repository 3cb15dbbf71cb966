"""Stationary points of the deformation factor and the exciton crossover.

R(N, l) oscillates with the Dirichlet-kernel term sin((2N-1)*pi*l)/sin(pi*l);
its stationary points solve tan((2N-1)*pi*l) = (2N-1)*tan(pi*l).  The
crossover between localized (large l) and delocalized (small l) collective
excitations sits at the global minimum of R over (0, 1/2], which for large N
is the first negative lobe of the kernel near l ~ 1.43/(2N-1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import deformation_profile
from .config import validate_n_qubits
from .errors import CapacityError, InvalidParameterError

__all__ = [
    "CrossoverReport",
    "stationarity_residual",
    "bracketed_roots",
    "find_stationary_points",
    "crossover_point",
]

BISECT_WIDTH = 1e-12
DEDUPE_TOL = 1e-10
# Largest scan grid find_stationary_points allocates: about 40 bytes per point
# at peak, ~200 MB and ~2 s at the cap.  A crossover scan needs ~20*N points,
# so chains up to N ~ 2.5*10**5 are admitted.
MAX_SCAN_POINTS = 5_000_000


@dataclass(frozen=True, eq=False)
class CrossoverReport:
    """Location and depth of the deformation minimum for one chain size."""

    n_qubits: int
    crossover_spacing: float
    deformation_at_crossover: float
    spins_per_wavelength: float
    stationary_points: np.ndarray


def _validate_n(n_qubits) -> int:
    n = validate_n_qubits(n_qubits)
    if n < 2:
        raise InvalidParameterError(
            f"n_qubits must be an integer >= 2 (R is constant for a single qubit), got {n_qubits!r}"
        )
    return n


def stationarity_residual(n_qubits: int, spacing):
    """Pole-free stationarity function

        g(l) = sin((2N-1)*pi*l)*cos(pi*l) - (2N-1)*cos((2N-1)*pi*l)*sin(pi*l)

    whose zeros away from sin(pi*l) = 0 are exactly the stationary
    points of the deformation factor (g = -(4N/pi)*sin^2(pi*l)*R'(l)).
    Accepts scalars or arrays.
    """
    n = _validate_n(n_qubits)
    theta = np.pi * np.asarray(spacing, dtype=float)
    k = 2 * n - 1
    k_theta = k * theta
    out = np.sin(k_theta) * np.cos(theta) - k * np.cos(k_theta) * np.sin(theta)
    return float(out) if np.isscalar(spacing) else out


def bracketed_roots(func, lo: float, hi: float, num_points: int) -> np.ndarray:
    """Roots of a vectorized scalar function on [lo, hi]: scan a uniform
    grid, bracket every sign change, bisect each bracket to width <=
    1e-12, polish with secant steps, and deduplicate within 1e-10.

    The secant polish matters for steep residuals (large N), where a
    1e-12 interval alone still leaves |f| far above rounding noise.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo >= hi:
        raise InvalidParameterError(f"bad scan interval [{lo!r}, {hi!r}]")
    xs = np.linspace(lo, hi, max(int(num_points), 2))
    fs = np.asarray(func(xs), dtype=float)
    roots = xs[fs == 0.0].tolist()
    sign = np.sign(fs)
    idx = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    if idx.size:
        a = xs[idx].copy()
        b = xs[idx + 1].copy()
        fa = fs[idx].copy()
        fb = fs[idx + 1].copy()
        while np.max(b - a) > BISECT_WIDTH:
            mid = 0.5 * (a + b)
            fm = np.asarray(func(mid), dtype=float)
            take_left = fa * fm <= 0.0
            b = np.where(take_left, mid, b)
            fb = np.where(take_left, fm, fb)
            a = np.where(take_left, a, mid)
            fa = np.where(take_left, fa, fm)
        x = 0.5 * (a + b)
        for _ in range(4):
            df = fb - fa
            safe = df != 0.0
            x = np.where(safe, b - fb * (b - a) / np.where(safe, df, 1.0), x)
            x = np.clip(x, np.minimum(a, b), np.maximum(a, b))
            fx = np.asarray(func(x), dtype=float)
            root_on_left = fa * fx <= 0.0
            b = np.where(root_on_left, x, b)
            fb = np.where(root_on_left, fx, fb)
            a = np.where(root_on_left, a, x)
            fa = np.where(root_on_left, fa, fx)
        fa_abs = np.abs(np.asarray(func(a), dtype=float))
        fb_abs = np.abs(np.asarray(func(b), dtype=float))
        roots.extend(np.where(fa_abs <= fb_abs, a, b).tolist())
    roots.sort()
    deduped = []
    for root in roots:
        if not deduped or root - deduped[-1] > DEDUPE_TOL:
            deduped.append(root)
    return np.array(deduped)


def find_stationary_points(n_qubits: int, l_min: float, l_max: float) -> np.ndarray:
    """Sorted stationary points of R(N, l) on [l_min, l_max], found as
    sign changes of :func:`stationarity_residual` on a grid of step
    <= 1/(20*(2N-1)) (at least ~20 samples per oscillation of the fastest
    term) refined by bisection.  A grid longer than
    :data:`MAX_SCAN_POINTS` raises :class:`CapacityError` before anything
    is allocated.
    """
    n = _validate_n(n_qubits)
    l_min = float(l_min)
    l_max = float(l_max)
    if not (0.0 < l_min < l_max) or not math.isfinite(l_max):
        raise InvalidParameterError(f"need 0 < l_min < l_max, got [{l_min!r}, {l_max!r}]")
    span = (l_max - l_min) * 20 * (2 * n - 1)  # grid steps; inf if it overflows
    if span + 1 > MAX_SCAN_POINTS:
        raise CapacityError(
            f"scanning [{l_min!r}, {l_max!r}] for N = {n} needs {span + 1:.3g} grid points, "
            f"over the cap of {MAX_SCAN_POINTS}"
        )
    num = int(math.ceil(span)) + 1
    return bracketed_roots(lambda l: stationarity_residual(n, l), l_min, l_max, max(num, 50))


def crossover_point(n_qubits: int) -> CrossoverReport:
    """The crossover spacing l* of an N-qubit chain: the global minimizer
    of R over the stationary points in (0, 1/2].

    The scan starts below the first stationary point (~1.43/(2N-1)) and
    overshoots 1/2 by two grid steps so a boundary extremum at exactly
    l = 1/2 is still bracketed.  Time and memory are O(N); a chain whose
    scan grid exceeds :data:`MAX_SCAN_POINTS` raises :class:`CapacityError`.
    """
    n = _validate_n(n_qubits)
    step = 1.0 / (20 * (2 * n - 1))
    lo = 0.1 / (2 * n - 1)
    hi = 0.5 + 2.0 * step
    points = find_stationary_points(n, lo, hi)
    points = points[points <= 0.5 + 1e-9]
    if points.size == 0:
        raise InvalidParameterError(f"no stationary points found in (0, 1/2] for N = {n}")
    values = deformation_profile(n, points)
    best = int(np.argmin(values))
    l_star = float(points[best])
    return CrossoverReport(
        n_qubits=n,
        crossover_spacing=l_star,
        deformation_at_crossover=float(values[best]),
        spins_per_wavelength=2.0 / l_star,
        stationary_points=points,
    )
