"""Stationary points of the deformation factor and the exciton crossover.

R(N, l) oscillates with the Dirichlet-kernel term sin((2N-1)*pi*l)/sin(pi*l);
its stationary points solve tan((2N-1)*pi*l) = (2N-1)*tan(pi*l).  The
crossover between localized (large l) and delocalized (small l) collective
excitations sits at the global minimum of R over (0, 1/2], which for large N
is the first negative lobe of the kernel near l ~ 1.43/(2N-1).

Branch structure: with k = 2N - 1, the residual g of
:func:`stationarity_residual` is odd with period 1 in l, so every
stationary point is j +- p with j an integer and p in (0, 1/2].  The zeros
in (0, 1/2] are r_m, the one root of tan(k*pi*l) = k*tan(pi*l) with
k*pi*l in (m*pi, m*pi + pi/2), m = 1 ... N-2, and l = 1/2: N - 1
stationary points, one per branch plus l = 1/2.

The points are defined by a uniform grid on the crossover's span: the
roots refined from the grid cells where g changes sign, plus the grid
points where g is exactly 0.  Away from a zero of g its computed sign is
exact, so only the cells around the zeros can hold such a cell or point.
The closed-form branch estimates name those cells, whose ends are formed
exactly as ``np.linspace`` forms its points, and g is evaluated there
only.  The bisection of each cell takes the half its estimate names
wherever the midpoint lies outside a margin around it, and evaluates g
only inside.  The brackets are therefore those of a scan of the whole grid
that evaluates every midpoint, and the secant polish gives the same bits,
at about ten evaluations per root instead of thirty.  Each branch yields
one root: its estimate names one cell, or that cell's two neighbours when
its ends show neither a sign change nor a 0, and the zeros lie about 20
cells apart, so no two searched cells of a branch both hold one and no
root is deduplicated.
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
# Fixed-point steps of each branch estimate.  Each shrinks the error at least
# 9-fold (about (1 + pi**2)-fold at large N): six leave it below 2.3e-8 of a
# grid cell, eight reach the rounding of l (6.7e-10 of a cell at N = 10**5,
# over every third N up to 1199 and N = 1500 ... 10**5), and ten keep two
# steps in hand.
ESTIMATE_STEPS = 10
# The bisection trusts an estimate's side of a midpoint farther from it than
# this share of its bracket: 150 times the estimate's error up to
# N = 10**5, and 56 times the widest offset from an estimate at which the
# computed residual had the wrong sign, at any N up to the cap.  At the cap
# it is still above the rounding of l: 1.0e-14 against 64*eps*(1/2).
ESTIMATE_MARGIN = 1e-7
# Largest grid find_stationary_points indexes.  Its grid has about
# 10*(2N-1) points, so chains up to N = 2.5*10**5 are admitted.  It
# evaluates the residual at about 10 points per root; at the cap
# (N = 250000) a call took 0.36-0.39 s and peaked 52 MB above the
# interpreter with numpy (2-core Xeon VM).
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


def _refine_brackets(n, a, b, fa, estimates) -> np.ndarray:
    """The zero of :func:`stationarity_residual` of an ``n``-qubit chain
    in each sign-change bracket [a, b] (``fa`` the residual at a), in the
    brackets' order: bisect to width <= 1e-12, then polish with secant
    steps.

    ``estimates`` holds each bracket's zero to well within
    :data:`ESTIMATE_MARGIN` of the bracket's width.  A midpoint farther than
    that from the estimate has the sign of its side of the zero, so the
    estimate picks its half; the residual is evaluated only at the midpoints
    inside the margin.  The midpoints, and so the brackets, are those of a
    bisection that evaluates every midpoint.

    The secant polish matters for steep residuals (large N), where a
    1e-12 interval alone still leaves |f| far above rounding noise.
    """
    if not a.size:
        return a
    margin = ESTIMATE_MARGIN * (b - a)
    # the sign of f at the left end never changes: a moves only to a
    # midpoint where f has that sign
    while np.max(b - a) > BISECT_WIDTH:
        mid = 0.5 * (a + b)
        take_left = mid > estimates
        doubt = np.flatnonzero(np.abs(mid - estimates) <= margin)
        if doubt.size:
            fm = stationarity_residual(n, mid[doubt])
            take_left[doubt] = fa[doubt] * fm <= 0.0
        b = np.where(take_left, mid, b)
        a = np.where(take_left, a, mid)
    fa = stationarity_residual(n, a)
    fb = stationarity_residual(n, b)
    x = 0.5 * (a + b)
    for _ in range(4):
        df = fb - fa
        safe = df != 0.0
        x = np.where(safe, b - fb * (b - a) / np.where(safe, df, 1.0), x)
        x = np.clip(x, np.minimum(a, b), np.maximum(a, b))
        fx = stationarity_residual(n, x)
        root_on_left = fa * fx <= 0.0
        b = np.where(root_on_left, x, b)
        fb = np.where(root_on_left, fx, fb)
        a = np.where(root_on_left, a, x)
        fa = np.where(root_on_left, fa, fx)
    return np.where(np.abs(fa) <= np.abs(fb), a, b)


def _zero_estimates(n: int) -> np.ndarray:
    """The N - 1 zeros of :func:`stationarity_residual` in (0, 1/2],
    ascending, to within the rounding of l: r_1 ... r_{N-2}, then 1/2.
    With k = 2N - 1, x = k*pi*r_m - m*pi is the fixed point in (0, pi/2) of
    x -> arctan(k*tan((m*pi + x)/k)).
    """
    k = 2 * n - 1
    m_pi = np.pi * np.arange(1, n - 1)
    x = np.full(m_pi.shape, 0.5 * np.pi)
    for _ in range(ESTIMATE_STEPS):
        x = np.arctan(k * np.tan((m_pi + x) / k))
    return np.append((m_pi + x) / (k * np.pi), 0.5)


def find_stationary_points(n_qubits: int) -> np.ndarray:
    """The N - 1 stationary points of R(N, l) in (0, 1/2], ascending: the
    roots of :func:`stationarity_residual` in the cells of the grid
    ``np.linspace(l_min, l_max, num)`` where it changes sign, refined by
    bisection, plus the grid points where it is exactly 0.  The grid has
    step <= 1/(20*(2N-1)); it starts at l_min = 0.1/(2N-1), below the first
    point (~1.43/(2N-1)), and overshoots 1/2 by two steps so that l = 1/2
    is still bracketed.  No point beyond 1/2 is found: the zero after 1/2,
    1 - r_{N-2} (1 at N = 2), lies more than 1/(2N-1), or 20 steps, above
    it, and only cells within one cell of a zero estimate are searched.

    Only the cells holding a zero of the residual, named by its branch
    structure, are evaluated, and their two neighbours where a cell's ends
    show neither a sign change nor a 0.  Each cell is bisected on the
    estimate of its zero, which the neighbours share, and the residual is
    evaluated only at the midpoints near it.  The result is bit-identical to
    a scan of the whole grid that evaluates every midpoint: about 10 points
    per root instead of 31.  A grid longer than :data:`MAX_SCAN_POINTS`
    raises :class:`CapacityError` before anything is allocated.
    """
    n = _validate_n(n_qubits)
    l_min = 0.1 / (2 * n - 1)
    l_max = 0.5 + 2.0 / (20 * (2 * n - 1))
    span = (l_max - l_min) * 20 * (2 * n - 1)  # grid steps
    if span + 1 > MAX_SCAN_POINTS:
        raise CapacityError(
            f"the crossover of N = {n} scans {span + 1:.3g} grid points, "
            f"over the cap of {MAX_SCAN_POINTS}"
        )
    num = int(math.ceil(span)) + 1
    step = (l_max - l_min) / (num - 1)

    def cells(c):
        # both ends of grid cells c, formed as np.linspace forms its points
        i = np.concatenate((c, c + 1))
        x = np.where(i == num - 1, l_max, i * step + l_min)
        f = stationarity_residual(n, x)
        return x[: c.size], x[c.size :], f[: c.size], f[c.size :]

    # every zero lies at least a cell inside the grid, so every cell and its
    # neighbours are on it
    estimates = _zero_estimates(n)
    c = np.floor((estimates - l_min) / step).astype(np.int64)
    a, b, fa, fb = cells(c)
    missed = (np.sign(fa) == np.sign(fb)) & (fa != 0.0)
    if missed.any():
        near = (c[missed, None] + np.array([-1, 1])).ravel()
        a, b, fa, fb = (np.concatenate(ends) for ends in zip((a, b, fa, fb), cells(near)))
        estimates = np.concatenate((estimates, np.repeat(estimates[missed], 2)))
    flips = np.sign(fa) * np.sign(fb) < 0
    roots = _refine_brackets(n, a[flips], b[flips], fa[flips], estimates[flips])
    return np.sort(np.concatenate((a[fa == 0.0], b[fb == 0.0], roots)))


def crossover_point(n_qubits: int) -> CrossoverReport:
    """The crossover spacing l* of an N-qubit chain: the global minimizer
    of R over the stationary points in (0, 1/2].

    Time and memory are O(N): at N = 10**5 this call takes about 0.09 s and
    allocates 18 MB at its peak (median of 11 calls in process, by
    tracemalloc; 2-core Xeon VM, one BLAS thread), and a ``qchain crossover
    --n 100000`` child, which also starts Python and prints the points,
    0.27-0.31 s and 51-52 MB of peak RSS.  A chain whose grid exceeds
    :data:`MAX_SCAN_POINTS` raises :class:`CapacityError`.
    """
    n = _validate_n(n_qubits)
    # never empty: l = 1/2 is a simple zero of the residual for every N >= 2
    points = find_stationary_points(n)
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
