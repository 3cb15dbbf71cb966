"""Scalar deformed-algebra machinery against independent oracles."""

import math

import mpmath
import numpy as np
import pytest

from qchain import (
    ChainConfig,
    InvalidParameterError,
    bloch_metric,
    casimir_h,
    crossover_point,
    deformation_factor,
    deformation_profile,
    h_curve,
    ladder_element,
    sigma_z_deviation_weights,
)
from reference_forms import cosine_sum, dirichlet_ratio


def test_deformation_point_values():
    assert deformation_factor(4, 2 / 3).value == pytest.approx(0.625, abs=1e-12)
    assert deformation_factor(1, 0.37).value == pytest.approx(1.0, abs=1e-12)
    # by hand: cos(0) + cos(pi) = 0, so R = 1/2
    assert deformation_factor(2, 0.5).value == pytest.approx(0.5, abs=1e-12)
    # integer spacing is the removable singularity of the closed form
    assert deformation_factor(4, 1.0).value == pytest.approx(1.0, abs=1e-12)


def test_deformation_float_protocol():
    r = deformation_factor(4, 2 / 3)
    assert float(r) == r.value
    assert (r.n_qubits, r.spacing) == (4, 2 / 3)
    assert r.value == pytest.approx(dirichlet_ratio(4, 2 / 3), abs=1e-12)


def test_closed_form_matches_sum_form_away_from_integers():
    for n in range(1, 13):
        grid = np.linspace(0.006, 3.0, 500)
        away = grid[np.abs(grid - np.round(grid)) >= 1e-6]
        sums = cosine_sum(n, away)
        ratios = [dirichlet_ratio(n, l) for l in away]
        profile = deformation_profile(n, away)
        assert ratios == pytest.approx(sums, abs=1e-10)
        assert profile == pytest.approx(sums, abs=1e-10)
        assert profile == pytest.approx(ratios, abs=1e-10)


def _mp_cosine_sum(n, l):
    """R(N, l) as a 40-digit cosine sum at the exact binary value of l."""
    with mpmath.workdps(40):
        l = mpmath.mpf(l)
        total = mpmath.fsum(mpmath.cos(2 * j * mpmath.pi * l) for j in range(n))
        return 0.5 + total / (2 * n)


def test_deformation_matches_40_digit_sums():
    rng = np.random.default_rng(11)
    special = [2 / 3, 0.5, 1.0 - 1e-9, 1.0 + 1e-9, 1.0 + 1e-12]
    worst = 0.0
    for n in (2, 4, 7, 30, 300, 1000):
        ls = np.concatenate([3.0 - 3.0 * rng.random(12), special])  # (0, 3]
        for l, value in zip(ls, deformation_profile(n, ls).tolist()):
            worst = max(worst, float(abs(value - _mp_cosine_sum(n, l))))
    assert worst <= 1e-15


def test_profile_cost_does_not_grow_with_n():
    # an O(N) route cannot reach N = 10**12; the Dirichlet envelope
    # |R - 1/2| <= 1/(2N |sin(pi*l)|) pins the value there
    n = 10**12
    ls = np.array([0.3, 1.5, 2.25])
    r = deformation_profile(n, ls)
    assert np.all(np.abs(r - 0.5) <= 1.0 / (2 * n * np.abs(np.sin(np.pi * ls))) + 1e-15)
    assert deformation_profile(n, [2.0])[0] == 1.0


def test_sum_form_is_exactly_one_at_integer_spacing():
    for n in range(1, 13):
        for l in (1.0, 2.0, 3.0):
            assert abs(deformation_factor(n, l).value - 1.0) <= 1e-12


def test_periodicity_and_bounds():
    rng = np.random.default_rng(7)
    for n in range(1, 13):
        ls = rng.uniform(0.01, 2.0, size=40)
        r = deformation_profile(n, ls)
        r_shift = deformation_profile(n, ls + 1.0)
        assert np.abs(r - r_shift).max() <= 1e-12
        assert np.all(r >= 1.0 / n - 1e-12)
        assert np.all(r <= 1.0 + 1e-12)


@pytest.mark.parametrize(
    "n,l",
    [(0, 0.5), (-1, 0.5), (2, 0.0), (2, -0.3), (2, float("inf")), (2, float("nan"))],
)
def test_deformation_rejects_bad_parameters(n, l):
    with pytest.raises(InvalidParameterError):
        deformation_factor(n, l)


# every entry point that takes N, with the N it reports back
N_ENTRY_POINTS = {
    "ChainConfig": lambda n: ChainConfig(n_qubits=n, spacing=0.3).n_qubits,
    "deformation_factor": lambda n: deformation_factor(n, 0.3).n_qubits,
    "crossover_point": lambda n: crossover_point(n).n_qubits,
}


@pytest.mark.parametrize("entry", sorted(N_ENTRY_POINTS))
def test_one_n_qubits_validator(entry):
    call = N_ENTRY_POINTS[entry]
    for n in (4, np.int64(4), np.int32(4), np.uint8(4)):
        result = call(n)
        assert result == 4 and type(result) is int
    for bad in (True, False, np.bool_(True), 0, -3, 4.0, np.float64(4.0), "4", None):
        with pytest.raises(InvalidParameterError):
            call(bad)
    # only the crossover needs a second qubit: R is constant for one
    if entry == "crossover_point":
        with pytest.raises(InvalidParameterError):
            call(1)
    else:
        assert call(1) == 1


def test_deviation_weights_examples():
    assert sigma_z_deviation_weights(4, 2 / 3) == pytest.approx(
        [0.0, -0.75, -0.75, 0.0], abs=1e-12
    )
    assert sigma_z_deviation_weights(3, 2.0) == pytest.approx([0.0, 0.0, 0.0], abs=1e-12)
    assert sigma_z_deviation_weights(1, 0.9182) == pytest.approx([0.0], abs=1e-15)


def test_deviation_weights_product_to_sum_identity():
    rng = np.random.default_rng(3)
    for n in (2, 5, 9):
        for l in rng.uniform(0.05, 3.0, size=10):
            w = sigma_z_deviation_weights(n, l)
            alt = (np.cos(2 * np.arange(n) * np.pi * l) - 1.0) / 2.0
            assert w == pytest.approx(alt, abs=1e-12)


def _ladder_squares_by_difference_equation(r, R):
    """Independent oracle: solve (a_m)^2 - (a_{m-1})^2 = -2mR iteratively
    upward from a_{-r-1} = 0, keeping the squares exact."""
    squares = {}
    prev_sq = 0.0  # alpha_{-r-1}^2
    m = -r - 1
    while m < r:
        m += 1
        prev_sq = prev_sq - 2.0 * m * R
        squares[m] = prev_sq
    return squares


def test_ladder_point_values():
    assert ladder_element(2, 1, 1.0) == pytest.approx(2.0, abs=1e-15)
    assert ladder_element(2, 2, 0.625) == 0.0
    assert ladder_element(2, 1, 0.625) == pytest.approx(math.sqrt(2.5), abs=1e-15)


def test_ladder_difference_equation_and_casimir_constancy():
    for r2 in range(0, 13):  # r = 0, 1/2, ..., 6
        r = r2 / 2.0
        for R in np.arange(0.1, 1.0001, 0.1):
            oracle = _ladder_squares_by_difference_equation(r, R)
            for m2 in range(-r2, r2 + 1, 2):
                m = m2 / 2.0
                a_m = ladder_element(r, m, R)
                assert a_m**2 == pytest.approx(oracle[m], abs=1e-12)
                if m > -r:
                    a_prev = ladder_element(r, m - 1, R)
                    assert a_m**2 - a_prev**2 == pytest.approx(-2.0 * m * R, abs=1e-12)
                # Casimir eigenvalue is independent of m
                assert a_m**2 + R * m * (m + 1) == pytest.approx(
                    R * r * (r + 1), abs=1e-12
                )


def test_ladder_undeformed_limit_is_textbook_su2():
    for r in (0.5, 1.0, 2.5, 4.0):
        m = -r
        while m <= r:
            expected = math.sqrt((r - m) * (r + m + 1))
            assert ladder_element(r, m, 1.0) == pytest.approx(expected, abs=1e-13)
            m += 1.0


@pytest.mark.parametrize(
    "r,m,R",
    [
        (2, 3, 1.0), (2, -3, 1.0), (2, 0.5, 1.0), (-1, 0, 1.0), (2, 1, 0.0), (2, 1, 1.5),
        (0.3, 0, 1.0), (float("inf"), 0, 1.0), (2, float("nan"), 1.0),
    ],
)
def test_ladder_rejects_bad_parameters(r, m, R):
    with pytest.raises(InvalidParameterError):
        ladder_element(r, m, R)


def test_casimir_h_values():
    assert casimir_h(0, 0.625) == 0.0
    assert casimir_h(-0.5, 0.4) == pytest.approx(-0.1, abs=1e-15)
    assert casimir_h(2, 0.625) == pytest.approx(3.75, abs=1e-15)
    # -R/4 at m = -1/2 is the minimum over the half-integer grid
    for R in (0.3, 1.0):
        values = [casimir_h(m2 / 2.0, R) for m2 in range(-8, 9)]
        assert min(values) == pytest.approx(-R / 4.0, abs=1e-15)


def test_bloch_metric():
    assert bloch_metric(1.0) == (1.0, 1.0, 1.0)
    assert bloch_metric(0.5) == (1.0, 1.0, 0.5)
    assert bloch_metric(0.625) == (1.0, 1.0, 0.625)
    with pytest.raises(InvalidParameterError):
        bloch_metric(0.0)


def test_h_curve_samples():
    ms, hs = h_curve(1.0, -1, 1, 3)
    assert ms == pytest.approx([-1, 0, 1])
    assert hs == pytest.approx([0, 0, 2])
    assert type(ms) is list and type(hs) is list
    assert {type(x) for x in ms + hs} == {float}
    _, hs = h_curve(0.4, -1, 1, 5)  # grid includes m = -1/2
    assert min(hs) == pytest.approx(-0.1, abs=1e-15)
    for R in (0.2, 0.7, 1.0):
        curve = dict(zip(*h_curve(R, -1, 0, 2)))
        assert curve[-1.0] == pytest.approx(0.0, abs=1e-15)
        assert curve[0.0] == pytest.approx(0.0, abs=1e-15)


def test_h_curve_rejects_empty_range():
    with pytest.raises(InvalidParameterError):
        h_curve(0.5, 1.0, 1.0, 3)
    with pytest.raises(InvalidParameterError):
        h_curve(0.5, 2.0, 1.0, 3)
    with pytest.raises(InvalidParameterError):
        h_curve(0.5, -1.0, 1.0, 1)
