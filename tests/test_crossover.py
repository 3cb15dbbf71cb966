"""Stationarity residuals, root finding, and the crossover report."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as P

from qchain import (
    CapacityError,
    InvalidParameterError,
    crossover_point,
    deformation_profile,
    find_stationary_points,
    stationarity_residual,
)
import qchain.crossover as crossover
from qchain.crossover import ESTIMATE_MARGIN, MAX_SCAN_POINTS
from reference_forms import (
    bracketed_roots,
    chebyshev_residual,
    scanned_crossover,
)


def test_stationarity_residual_point_values():
    # sin(3pi/2)cos(pi/2) - 3 cos(3pi/2) sin(pi/2) = 0
    assert abs(stationarity_residual(2, 0.5)) <= 1e-12
    with pytest.raises(InvalidParameterError):
        stationarity_residual(1, 0.3)


def test_stationarity_residual_is_cubic_near_zero():
    # both sides of the tan form linearize to (2N-1)*pi*l, so g = O(l^3)
    for n in (2, 4, 8):
        bound = 1.5 * (4.0 / 3.0) * np.pi**3 * n * (n - 1) * (2 * n - 1)
        for l in (1e-3, 1e-4):
            assert abs(stationarity_residual(n, l)) <= bound * l**3


def test_stationarity_residual_brackets_extrema_of_r():
    # sign changes of g bracket each interior extremum found by central
    # finite differences of the deformation factor
    for n in (2, 4):
        grid = np.linspace(0.01, 0.99, 10 * (2 * n - 1))
        g = stationarity_residual(n, grid)
        h = 1e-7
        deriv = (deformation_profile(n, grid + h) - deformation_profile(n, grid - h)) / (2 * h)
        sign_changes_g = np.nonzero(np.sign(g[:-1]) * np.sign(g[1:]) < 0)[0]
        sign_changes_d = np.nonzero(np.sign(deriv[:-1]) * np.sign(deriv[1:]) < 0)[0]
        assert np.array_equal(sign_changes_g, sign_changes_d)


def test_chebyshev_residual_point_values():
    assert abs(chebyshev_residual(2, 0.5)) <= 1e-12
    with pytest.raises(InvalidParameterError):
        chebyshev_residual(1, 0.3)


def test_chebyshev_recurrence_matches_trig_identities():
    # U_{2N-1}(cos t) = sin(2Nt)/sin(t), T_{2N-1}(cos t) = cos((2N-1)t)
    for n in (2, 3, 6):
        ls = np.linspace(0.05, 0.95, 41)
        t = np.pi * ls
        expected = np.sin(2 * n * t) / np.sin(t) - 2 * n * np.cos((2 * n - 1) * t)
        assert np.abs(chebyshev_residual(n, ls) - expected).max() <= 1e-10 * 2 * n


def test_chebyshev_residual_polynomial_degree():
    # coefficient extraction at N=4: the residual is a degree-7 polynomial in x
    n = 4
    t_prev, t_cur = np.array([1.0]), np.array([0.0, 1.0])
    u_prev, u_cur = np.array([1.0]), np.array([0.0, 2.0])
    x = np.array([0.0, 2.0])  # the polynomial 2x
    for _ in range(2 * n - 2):
        t_prev, t_cur = t_cur, P.polysub(P.polymul(x, t_cur), t_prev)
        u_prev, u_cur = u_cur, P.polysub(P.polymul(x, u_cur), u_prev)
    residual = P.polysub(u_cur, 2 * n * t_cur)
    residual = P.polytrim(residual, tol=1e-12)
    assert len(residual) - 1 == 2 * n - 1
    assert residual[-1] != 0.0


def test_find_stationary_points_basics():
    roots = find_stationary_points(2)
    assert roots == pytest.approx([0.5], abs=1e-10)
    with pytest.raises(InvalidParameterError):
        find_stationary_points(1)
    with pytest.raises(InvalidParameterError):
        bracketed_roots(np.sin, 2.0, 1.0, 10)


def test_crossover_point_is_the_full_scan_bit_for_bit():
    # N = 7, 9, 11, 13 and 25, with 15 and 28 of the stride, are the
    # smallest chains where an estimate names a cell whose ends show
    # neither a sign change nor a 0, so that its two neighbours are
    # searched: the one place where two cells of a branch are searched
    for n in [7, 9, 11, 13, 25, *range(2, 1201, 13), 1500, 4000, 10**4]:
        report = crossover_point(n)
        points, l_star = scanned_crossover(n)
        assert np.array_equal(report.stationary_points, points), n
        assert report.crossover_spacing == l_star, n


def test_large_spacings_keep_their_cubic_zeros():
    """g has period 1, so it is evaluated at the fractional part of l; were
    pi*l formed before l is reduced, its rounding would move the cubic zero
    at l = 8201 by ~1e-5."""
    fractions = np.arange(1, 64) / 64.0
    for n in (2, 5, 40):
        reduced = stationarity_residual(n, fractions)
        for j in (1, 17, 8200):
            # j + f is exact, and so is its fractional part
            assert np.array_equal(stationarity_residual(n, j + fractions), reduced), (n, j)
    assert stationarity_residual(2, 8201.0) == 0.0


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 3000))
def test_stationary_points_follow_the_branch_structure(n):
    # (0, 1/2] holds one point on each branch m*pi < k*pi*l < m*pi + pi/2,
    # m = 1 ... N-2, then l = 1/2: the points of the full scan
    k = 2 * n - 1
    points = find_stationary_points(n)
    assert points.size == n - 1
    branch = k * np.pi * points[:-1]
    m_pi = np.pi * np.arange(1, n - 1)
    assert np.all((m_pi < branch) & (branch < m_pi + np.pi / 2))
    assert points[-1] == pytest.approx(0.5, abs=1e-12)
    assert np.array_equal(points, scanned_crossover(n)[0])


def test_crossover_evaluates_the_residual_near_its_zeros_only(monkeypatch):
    """The closed-form estimates decide every bisection midpoint farther
    than the margin from them; evaluating all of them takes ~31 N points."""
    n = 4000
    sizes = []
    residual = crossover.stationarity_residual

    def counted(n_qubits, spacing):
        sizes.append(np.size(spacing))
        return residual(n_qubits, spacing)

    monkeypatch.setattr(crossover, "stationarity_residual", counted)
    report = crossover_point(n)
    assert report.stationary_points.size == n - 1
    assert sum(sizes) <= 12 * n


def test_root_count_matches_finite_difference_oracle():
    n = 4
    # R is even with period 1: the points on (0, 1) are p and 1 - p
    points = find_stationary_points(n)
    roots = np.union1d(points, 1.0 - points)
    grid = np.linspace(0.001, 0.999, 100000)
    h = 1e-7
    deriv = (deformation_profile(n, grid + h) - deformation_profile(n, grid - h)) / (2 * h)
    # a symmetric extremum can land on a grid node with fd exactly 0; an
    # exact zero is itself an extremum crossing, so drop zeros before
    # counting flips
    signs = np.sign(deriv)
    zeros = int((signs == 0).sum())
    signs = signs[signs != 0]
    changes = int((signs[:-1] * signs[1:] < 0).sum()) + zeros
    assert roots.size == changes


def test_residual_invariants_at_reported_roots():
    for n in (2, 4, 8, 30):
        roots = find_stationary_points(n)
        g = np.abs(stationarity_residual(n, roots))
        assert g.max() <= 1e-10
        cheb = np.abs(chebyshev_residual(n, roots))
        assert np.all(np.isfinite(cheb))
        assert cheb.max() <= 1e-8 * 2.0 ** (2 * n - 1)
        h = 1e-7
        deriv = (deformation_profile(n, roots + h) - deformation_profile(n, roots - h)) / (2 * h)
        assert np.abs(deriv).max() <= 1e-5 * 2 * n


def test_crossover_point_n2():
    report = crossover_point(2)
    assert report.crossover_spacing == pytest.approx(0.5, abs=1e-9)
    assert report.deformation_at_crossover == pytest.approx(0.5, abs=1e-12)
    assert report.spins_per_wavelength == pytest.approx(4.0, abs=1e-8)
    assert report.n_qubits == 2
    with pytest.raises(InvalidParameterError):
        crossover_point(1)


def test_crossover_is_a_local_and_global_minimum():
    for n in (2, 8, 30):
        report = crossover_point(n)
        l_star = report.crossover_spacing
        r_star = report.deformation_at_crossover
        delta = 1e-3 * l_star
        assert float(deformation_profile(n, [l_star - delta])[0]) > r_star
        assert float(deformation_profile(n, [l_star + delta])[0]) > r_star
        assert abs(stationarity_residual(n, l_star)) <= 1e-10
        grid = np.linspace(1e-4, 0.5, 20001)
        assert r_star <= deformation_profile(n, grid).min() + 1e-9


def test_crossover_n_100000_stays_linear():
    # R costs O(1) per stationary point and only the cells around them are
    # evaluated, so this takes about 0.1 s and ~20 MB
    n = 100_000
    report = crossover_point(n)
    assert report.stationary_points.size == n - 1
    assert report.crossover_spacing * (2 * n - 1) == pytest.approx(1.43, abs=0.01)
    assert report.deformation_at_crossover == pytest.approx(0.3914, abs=1e-3)


def test_oversized_scans_are_refused_before_allocating():
    with pytest.raises(CapacityError):
        crossover_point(10**9)


def test_the_estimate_margin_covers_the_rounding_of_l_up_to_the_cap(monkeypatch):
    """N = 250000 is the largest chain the cap admits.  Its grid cells are
    the finest, and the margin around each estimate is still wider than the
    rounding of l, up to 64 ulps at 1/2."""

    class Admitted(Exception):
        pass

    def admitted(n):
        raise Admitted

    n = MAX_SCAN_POINTS // 20
    monkeypatch.setattr(crossover, "_zero_estimates", admitted)
    with pytest.raises(Admitted):
        find_stationary_points(n)
    with pytest.raises(CapacityError):
        find_stationary_points(n + 1)
    cell = 1.0 / (20 * (2 * n - 1))
    assert ESTIMATE_MARGIN * cell >= 64 * np.finfo(float).eps * 0.5
