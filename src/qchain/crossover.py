"""Stationary points of the deformation factor and the exciton crossover.

R(N, l) oscillates with the Dirichlet-kernel term sin((2N-1)*pi*l)/sin(pi*l);
its stationary points solve tan((2N-1)*pi*l) = (2N-1)*tan(pi*l).  The
crossover between localized (large l) and delocalized (small l) collective
excitations sits at the global minimum of R over (0, 1/2], which for large N
is the first negative lobe of the kernel near l ~ 1.43/(2N-1).

Branch structure: with k = 2N - 1, the residual g of
:func:`stationarity_residual` is odd with period 1 in l, and its zeros are
the half-integers and j +- r_m, where r_m is the one root of
tan(k*pi*l) = k*tan(pi*l) with k*pi*l in (m*pi, m*pi + pi/2), m = 1 ... N-2.
So (0, 1/2] holds N - 1 stationary points: one per branch, plus l = 1/2.

The points are defined by a uniform grid: the roots refined from the grid
cells where g changes sign, plus the grid points where g is exactly 0.
Away from a zero of g its computed sign is exact, so only the cells around
the zeros can hold such a cell or point.  The closed-form branch estimates
name those cells, whose ends are formed exactly as ``np.linspace`` forms
its points, and g is evaluated there only.  The bisection of each cell
takes the half its estimate names wherever the midpoint lies outside a
margin around it, and evaluates g only inside; the integers' cubic zeros,
whose rounding noise is far wider, and a grid at its floor have no
estimate.  The brackets are therefore those of a scan of the whole grid
that evaluates every midpoint, and the secant polish and dedupe give the
same bits, at about ten evaluations per root instead of thirty.
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
    "find_stationary_points",
    "crossover_point",
]

BISECT_WIDTH = 1e-12
DEDUPE_TOL = 1e-10
# Fewest grid points.  A grid at this floor can be finer than the rounding
# noise of the residual around a zero, so it is evaluated whole.
MIN_SCAN_POINTS = 50
# Fixed-point steps of each branch estimate.  Each shrinks the error at least
# 9-fold (about (1 + pi**2)-fold at large N): six leave it below 2.3e-8 of a
# grid cell, eight reach the rounding of l (6.7e-10 of a cell at N = 10**5,
# over every third N up to 1199 and N = 1500 ... 10**5), and ten keep two
# steps in hand.
ESTIMATE_STEPS = 10
# The bisection trusts an estimate's side of a midpoint farther from it than
# this share of its bracket: 150 times the estimate's error up to
# N = 10**5, and 56 times the widest offset from an estimate at which the
# computed residual had the wrong sign, at any N up to the cap of
# crossover_point ...
ESTIMATE_MARGIN = 1e-7
# ... and farther than this times |l|.  Rounding moves the residual's zeros
# and their estimates by up to about 2*eps*|l|, which grids finer than the
# crossover's (N above ~10**6) make wider than a share of a cell.
ROUNDING_MARGIN = 64.0 * float(np.finfo(float).eps)
# Largest grid find_stationary_points indexes.  It evaluates the residual at
# about 10 points per root, 1 grid point in 2; at the cap
# (crossover_point(250000), or N = 1000 over a span of 125) a call took
# 0.36-0.39 s and peaked 52 MB above the interpreter with numpy (2-core
# Xeon VM).  A crossover indexes ~20*N points, so chains up to
# N = 2.5*10**5 are admitted.
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
    Accepts scalars or arrays.  g has period 1, so it is evaluated at the
    fractional part of l, which is exact and leaves |l| < 1 as it is: the
    rounding of pi*l would otherwise swamp its zeros at large l.
    """
    n = _validate_n(n_qubits)
    theta = np.pi * np.fmod(np.asarray(spacing, dtype=float), 1.0)
    k = 2 * n - 1
    k_theta = k * theta
    out = np.sin(k_theta) * np.cos(theta) - k * np.cos(k_theta) * np.sin(theta)
    return float(out) if np.isscalar(spacing) else out


def _refine_brackets(func, a, b, fa, estimates, zeros) -> np.ndarray:
    """Roots of a vectorized scalar function, ascending: bisect each
    sign-change bracket [a, b] (``fa`` the function at a) to width
    <= 1e-12, or until the widest one stops shrinking at one ulp, polish
    with secant steps, add the exact ``zeros`` and deduplicate within
    1e-10, comparing each root with the last one kept.

    ``estimates`` holds each bracket's zero to well within a margin, or
    NaN: :data:`ESTIMATE_MARGIN` of the bracket's width, and at least
    :data:`ROUNDING_MARGIN` times the estimate.  A midpoint farther than the
    margin from the estimate has the sign of its side of the zero, so the
    estimate picks its half; ``func`` is evaluated only at the midpoints
    inside the margin, and at every midpoint of a bracket with a NaN
    estimate.  The midpoints, and so the brackets, are those of a bisection
    that evaluates every midpoint.

    The secant polish matters for steep residuals (large N), where a
    1e-12 interval alone still leaves |f| far above rounding noise.
    """
    if a.size:
        margin = np.maximum(ESTIMATE_MARGIN * (b - a), ROUNDING_MARGIN * np.abs(estimates))
        width = np.max(b - a)
        # the sign of f at the left end never changes: a moves only to a
        # midpoint where f has that sign
        while width > BISECT_WIDTH:
            mid = 0.5 * (a + b)
            take_left = mid > estimates
            doubt = np.flatnonzero(~(np.abs(mid - estimates) > margin))
            if doubt.size:
                fm = np.asarray(func(mid[doubt]), dtype=float)
                take_left[doubt] = fa[doubt] * fm <= 0.0
            b = np.where(take_left, mid, b)
            a = np.where(take_left, a, mid)
            last, width = width, np.max(b - a)
            if width == last:
                # the widest bracket is one ulp of l wide (l above ~4096):
                # no midpoint lies strictly inside it, so it cannot shrink
                break
        fa = np.asarray(func(a), dtype=float)
        fb = np.asarray(func(b), dtype=float)
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
        zeros = np.concatenate((zeros, np.where(np.abs(fa) <= np.abs(fb), a, b)))
    deduped = []
    for root in np.sort(zeros).tolist():
        if not deduped or root - deduped[-1] > DEDUPE_TOL:
            deduped.append(root)
    return np.array(deduped)


def _zero_estimates(n: int, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Every zero of :func:`stationarity_residual` on [lo, hi], ascending,
    to within the rounding of l, and the same zeros with NaN at the
    integers, whose cubic zeros the residual's rounding blurs far wider.

    With k = 2N - 1 and t = k*l, each unit [p, p + 1) of t holds one zero,
    except p = k - 1 (mod k).  With j, q = divmod(p, k): q = 0 is l = j;
    q = N - 1 is l = j + 1/2; 1 <= q <= N - 2 is j + r_q; N <= q <= 2N - 3
    is j + 1 - r_m with m = 2N - 2 - q.  On branch m, x = k*pi*r_m - m*pi is
    the fixed point in (0, pi/2) of x -> arctan(k*tan((m*pi + x)/k)).
    """
    k = 2 * n - 1
    j, q = np.divmod(np.arange(math.floor(k * lo), math.floor(k * hi) + 1), k)
    j, q = j[q != k - 1], q[q != k - 1]
    mirrored = q >= n
    m_pi = np.pi * np.where(mirrored, k - 1 - q, q)
    x = np.full(q.shape, 0.5 * np.pi)
    for _ in range(ESTIMATE_STEPS):
        x = np.arctan(k * np.tan((m_pi + x) / k))
    r = np.where(q == 0, 0.0, np.where(q == n - 1, 0.5, (m_pi + x) / (k * np.pi)))
    zeros = j + np.where(mirrored, 1.0 - r, r)
    inside = (zeros >= lo) & (zeros <= hi)
    return zeros[inside], np.where(q == 0, np.nan, zeros)[inside]


def find_stationary_points(n_qubits: int, l_min: float, l_max: float) -> np.ndarray:
    """Sorted stationary points of R(N, l) on [l_min, l_max]: the roots of
    :func:`stationarity_residual` in the cells of the grid
    ``np.linspace(l_min, l_max, num)``, of step <= 1/(20*(2N-1)), where it
    changes sign, refined by bisection, plus the grid points where it is
    exactly 0.

    Only the cells holding a zero of the residual, named by its branch
    structure, are evaluated, and their two neighbours where a cell's ends
    show neither a sign change nor a 0; a grid of 50 points, the fewest, is
    evaluated whole.  Each cell is bisected on the estimate of its zero,
    which the neighbours share, and the residual is evaluated only at the
    midpoints near it.  The result is bit-identical to a scan of the whole
    grid that evaluates every midpoint: about 10 points per root instead of
    31.  A grid longer than :data:`MAX_SCAN_POINTS` raises
    :class:`CapacityError` before anything is allocated.
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
    num = max(int(math.ceil(span)) + 1, MIN_SCAN_POINTS)
    step = (l_max - l_min) / (num - 1)

    def residual(l):
        return stationarity_residual(n, l)

    def cells(c):
        # both ends of grid cells c, formed as np.linspace forms its points
        i = np.concatenate((c, c + 1))
        x = np.where(i == num - 1, l_max, i * step + l_min)
        f = residual(x)
        return x[: c.size], x[c.size :], f[: c.size], f[c.size :]

    if num == MIN_SCAN_POINTS:
        a, b, fa, fb = cells(np.arange(num - 1))
        estimates = np.full(a.size, np.nan)
    else:
        # a zero just outside the grid can still set the sign at its end
        zeros, estimates = _zero_estimates(n, l_min - step, l_max + step)
        c = np.clip(np.floor((zeros - l_min) / step).astype(np.int64), 0, num - 2)
        a, b, fa, fb = cells(c)
        missed = (np.sign(fa) == np.sign(fb)) & (fa != 0.0)
        if missed.any():
            near = np.clip(c[missed, None] + np.array([-1, 1]), 0, num - 2).ravel()
            a, b, fa, fb = (np.concatenate(ends) for ends in zip((a, b, fa, fb), cells(near)))
            estimates = np.concatenate((estimates, np.repeat(estimates[missed], 2)))
    flips = np.sign(fa) * np.sign(fb) < 0
    zeros = np.concatenate((a[fa == 0.0], b[fb == 0.0]))
    return _refine_brackets(residual, a[flips], b[flips], fa[flips], estimates[flips], zeros)


def crossover_point(n_qubits: int) -> CrossoverReport:
    """The crossover spacing l* of an N-qubit chain: the global minimizer
    of R over the stationary points in (0, 1/2].

    The scan starts below the first stationary point (~1.43/(2N-1)) and
    overshoots 1/2 by two grid steps so a boundary extremum at exactly
    l = 1/2 is still bracketed.  Time and memory are O(N): about 0.1-0.16 s
    and 22 MB at N = 10**5 (2-core Xeon VM); a chain whose grid exceeds
    :data:`MAX_SCAN_POINTS` raises :class:`CapacityError`.
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
