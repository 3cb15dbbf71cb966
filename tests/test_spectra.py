"""Subspace solver: dressed states, coefficient routes, special-case formulas."""

import math
from itertools import combinations

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as P

from qchain import (
    CapacityError,
    ChainConfig,
    EmptySectorError,
    InvalidParameterError,
    NegativeRadicandError,
    PoleError,
    build_h1_matrix,
    coefficients_closed,
    coefficients_recursive,
    deformation_factor,
    four_qubit_reference_coefficients,
    resonant_alternate_energies,
    solve_dressed,
    subspace,
    weak_coupling_energies,
)
from qchain.algebra import _ladder_product
from qchain.spectra import MAX_LADDER_DIM, ExcitationSubspace
from reference_forms import (
    characteristic_polynomial,
    h1_matrix_dense,
    ladder_element,
)


def test_subspace_examples():
    assert subspace(1, 2).photon_numbers == (0, 1, 2, 3)
    assert subspace(0.5, 0.5).photon_numbers == (0, 1)
    for r in (0.5, 1.0, 2.5):
        assert subspace(-r, r).photon_numbers == (0,)
    # u > r starts above the vacuum photon number
    assert subspace(3, 1).photon_numbers == (2, 3, 4)
    assert subspace(1, 2).dim == 4


def test_subspace_errors():
    with pytest.raises(EmptySectorError):
        subspace(-3, 2)
    with pytest.raises(EmptySectorError):
        subspace(1, 1.5)  # u - r not an integer
    with pytest.raises(InvalidParameterError):
        subspace(1, -1)
    # built directly, a subspace runs the same checks: no hand-set photon range
    with pytest.raises(EmptySectorError):
        ExcitationSubspace(1.0, 1.5)
    with pytest.raises(TypeError):
        ExcitationSubspace(1.0, 1.0, (0, 1, 2, 3))
    assert ExcitationSubspace(1, 2) == subspace(1.0, 2.0)
    assert subspace(500, 500).dim == MAX_LADDER_DIM
    for u, r in ((500.5, 500.5), (1, 5e8)):
        with pytest.raises(CapacityError):
            subspace(u, r)


def test_h1_matrix_examples():
    d, e = build_h1_matrix(subspace(1, 2), 0.625, 0.0, 1.0)
    assert e == pytest.approx([math.sqrt(3.75), math.sqrt(7.5), math.sqrt(7.5)], abs=1e-14)
    assert np.array_equal(d, np.zeros(4))

    d0, e0 = build_h1_matrix(subspace(1, 2), 0.625, -0.7, 0.0)
    assert np.abs(d0 - np.array([-0.7 * n for n in range(4)])).max() <= 1e-15
    assert np.array_equal(e0, np.zeros(3))

    d, e = build_h1_matrix(subspace(0.5, 0.5), 1.0, 0.0, 0.3)
    values = np.linalg.eigvalsh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
    assert values == pytest.approx([-0.3, 0.3], abs=1e-14)


def test_h1_matrix_equals_dense_reference_byte_for_byte():
    ladders = [(u2 / 2, r2 / 2) for r2 in range(25) for u2 in range(-r2, r2 + 11, 2)]
    ladders.append((3.0 - 2.0**52, 2.0**52))
    for u, r in ladders:
        sub = subspace(u, r)
        for R in (1.0, 0.625, 1 / 3, 1e-3):
            for eta in (0.0, 0.17, 2.5):
                for dw in (0.0, -0.31):
                    h = h1_matrix_dense(sub, R, dw, eta)
                    d, e = build_h1_matrix(sub, R, dw, eta)
                    assert d.tobytes() == np.diag(h).tobytes(), (u, r, R, eta, dw)
                    assert e.tobytes() == np.diag(h, 1).tobytes(), (u, r, R, eta, dw)
    for R in (1.0, 0.625, 1 / 3, 1e-3):
        resonant = [s.interaction_eigenvalue for s in solve_dressed(subspace(1, 2), R, 0.0, 0.0)]
        assert np.array(resonant).tobytes() == np.zeros(4).tobytes()


def test_solve_dressed_dim_one():
    states = solve_dressed(subspace(-1, 1), 0.8, 0.45, 0.2)
    assert len(states) == 1
    assert states[0].interaction_eigenvalue == pytest.approx(0.0, abs=1e-15)
    assert states[0].coefficients == pytest.approx([1.0])
    assert 1.3 * -1 + states[0].interaction_eigenvalue == pytest.approx(1.3 * -1, abs=1e-15)
    # u > r: the single configuration carries a nonzero photon number
    high = solve_dressed(subspace(3, 0), 0.8, 0.45, 0.2)
    assert high[0].interaction_eigenvalue == pytest.approx(3 * 0.45, abs=1e-15)


def test_solve_dressed_resonant_symmetry_and_norm():
    states = solve_dressed(subspace(1, 2), 0.625, 0.0, 0.9)
    vs = [s.interaction_eigenvalue for s in states]
    assert vs == sorted(vs)
    assert np.abs(np.array(vs) + np.array(vs)[::-1]).max() <= 1e-10
    for s in states:
        assert np.sum(s.coefficients**2) == pytest.approx(1.0, abs=1e-12)


def test_recursion_matches_eigenvectors():
    rng = np.random.default_rng(5)
    for _ in range(20):
        r = rng.choice([1.0, 1.5, 2.0, 2.5, 3.0])
        u = r - float(rng.integers(0, int(2 * r) + 1))
        sub = subspace(u, r)
        if sub.photon_numbers[0] != 0:
            continue
        R = float(rng.uniform(0.1, 1.0))
        dw = float(rng.uniform(-1.5, 1.5))
        eta = float(rng.uniform(0.2, 1.5))
        states = solve_dressed(sub, R, dw, eta)
        for s in states:
            if abs(s.coefficients[0]) <= 1e-8:
                continue
            expected = s.coefficients / s.coefficients[0]
            got = coefficients_recursive(s.interaction_eigenvalue, sub, R, dw, eta)
            assert np.abs(got - expected).max() <= 1e-8 * max(1.0, np.abs(expected).max())


def _recursion_to_40_digits(v, sub, R, dw, eta):
    """The three-term recursion in 40-digit arithmetic on the exact values
    of the float inputs, rounded to floats at the end."""
    with mpmath.workdps(40):
        u, r = mpmath.mpf(sub.total_excitation), mpmath.mpf(sub.total_spin)
        v, R, dw, eta = map(mpmath.mpf, (v, R, dw, eta))
        n_max = sub.photon_numbers[-1]
        vt = [(v - dw * n) / eta for n in range(n_max + 1)]
        # alpha_{u-n}^2 at index n - 1
        alpha_sq = [R * (r - (u - n)) * (r + (u - n) + 1) for n in range(1, n_max + 1)]
        big_c = [mpmath.mpf(1), vt[0]]
        for n in range(1, n_max):
            big_c.append(vt[n] * big_c[n] - n * alpha_sq[n - 1] * big_c[n - 1])
        c = [mpmath.mpf(1)]
        denom = mpmath.mpf(1)
        for n in range(1, n_max + 1):
            denom *= mpmath.sqrt(n * alpha_sq[n - 1])
            c.append(big_c[n] / denom)
        return np.array([float(x) for x in c])


def test_recursion_matches_40_digit_reference():
    """Ladders of dim 9-17 with photon number 0, as the benchmark's
    amplitude requests draw them, at the eigenvalue farthest from a pole
    vt_n = 0 of the closed form: the float recursion stays at the
    rounding level."""
    rng = np.random.default_rng(11)
    for _ in range(300):
        dim = int(rng.integers(9, 18))
        n = int(rng.integers(dim - 1, 2 * (dim - 1) + 1))
        sub = subspace(dim - 1 - n / 2, n / 2)
        R = deformation_factor(n, float(rng.uniform(0.05, 1.95))).value
        dw, eta = float(rng.uniform(-0.5, 0.5)), float(rng.uniform(0.05, 1.0))
        values = [s.interaction_eigenvalue for s in solve_dressed(sub, R, dw, eta)]
        v = max(values, key=lambda x: min(abs(x - dw * k) / eta for k in sub.photon_numbers))
        want = _recursion_to_40_digits(v, sub, R, dw, eta)
        got = coefficients_recursive(v, sub, R, dw, eta)
        assert np.abs(got - want).max() <= 1e-11 * np.abs(want).max(), (dim, n, R, dw, eta)


def test_recursion_terminates_at_eigenvalues():
    sub = subspace(1, 2)
    R, dw, eta = 0.625, -0.31, 0.17
    poly = characteristic_polynomial(sub, R, dw, eta)
    for s in solve_dressed(sub, R, dw, eta):
        # C_{n_max+1}(v) = eta^dim * char poly; both vanish at eigenvalues
        residual = P.polyval(s.interaction_eigenvalue, poly)
        scale = max(abs(s.interaction_eigenvalue), abs(dw), eta) ** sub.dim
        assert abs(residual) <= 1e-8 * scale


def test_table_one_formulas():
    R = deformation_factor(4, 2 / 3).value
    assert R == pytest.approx(5 / 8, abs=1e-15)
    sub = subspace(1, 2)
    dw, eta = -0.31, 0.17
    for s in solve_dressed(sub, R, dw, eta):
        v = s.interaction_eigenvalue
        vt = [(v - dw * n) / eta for n in range(3)]
        c = coefficients_recursive(v, sub, R, dw, eta)
        assert c[0] == 1.0
        assert c[1] == pytest.approx(vt[0] / math.sqrt(6 * R), abs=1e-10)
        assert c[2] == pytest.approx(
            vt[0] * vt[1] / (6 * math.sqrt(2) * R) - 1 / math.sqrt(2), abs=1e-10
        )
        ref = four_qubit_reference_coefficients(v, R, dw, eta)
        assert {type(value) for value in ref.values()} == {float}
        assert ref["c1"] == pytest.approx(c[1], abs=1e-10)
        assert ref["c2"] == pytest.approx(c[2], abs=1e-10)
        assert ref["c3"] == pytest.approx(c[3], abs=1e-10)
        # the variant with the bare vt_2 term disagrees with the recursion
        assert abs(ref["c3_variant"] - c[3]) > 1e-3


def _closed_form_by_enumeration(v, sub, R, dw, eta):
    """The closed form summed tuple by tuple over every descending
    non-adjacent index set: exponential, kept as the reference."""
    u, r = sub.total_excitation, sub.total_spin
    n_max = sub.photon_numbers[-1]
    vt = [(v - dw * n) / eta for n in range(n_max + 1)]
    abar = [ladder_element(r, u - j - 1, 1.0) for j in range(n_max)]
    c = [1.0]
    prefactor = 1.0
    for n in range(1, n_max + 1):
        prefactor *= vt[n - 1] / (abar[n - 1] * math.sqrt(n))
        total = 0.0
        for p in range(n // 2 + 1):
            tuple_sum = 0.0
            for combo in combinations(range(n - 1), p):
                if all(b - a >= 2 for a, b in zip(combo, combo[1:])):
                    term = 1.0
                    for j in combo:
                        term *= (j + 1) * abar[j] ** 2 / (vt[j] * vt[j + 1])
                    tuple_sum += term
            total += (-1.0) ** p * R ** (p - n / 2.0) * tuple_sum
        c.append(prefactor * total)
    return np.array(c)


def test_closed_form_recurrence_matches_tuple_enumeration():
    rng = np.random.default_rng(31)
    for r in (1.0, 2.5, 4.0, 6.0):
        sub = subspace(r, r)  # photon numbers 0..2r
        for _ in range(5):
            R, dw, eta = rng.uniform(0.05, 1.0), rng.uniform(-2.0, 2.0), rng.uniform(0.1, 2.0)
            v = rng.uniform(-5.0, 5.0)
            ref = _closed_form_by_enumeration(v, sub, R, dw, eta)
            got = coefficients_closed(v, sub, R, dw, eta)
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_closed_form_reports_poles():
    sub = subspace(1, 2)
    with pytest.raises(PoleError):
        coefficients_closed(2.0, sub, 0.5, 1.0, 1.0)  # vt_2 = 0


def test_coefficients_require_vacuum_in_range():
    sub = subspace(3, 1)
    with pytest.raises(InvalidParameterError):
        coefficients_recursive(0.3, sub, 0.5, 0.1, 1.0)
    with pytest.raises(InvalidParameterError):
        coefficients_closed(0.3, sub, 0.5, 0.1, 1.0)


def test_characteristic_polynomial_quartic_and_roots():
    for R in (0.3, 0.625, 1.0):
        poly = characteristic_polynomial(subspace(1, 2), R, 0.0, 1.0)
        assert poly == pytest.approx([72 * R**2, 0.0, -30 * R, 0.0, 1.0], abs=1e-12)
    single = characteristic_polynomial(subspace(-1, 1), 0.7, 0.45, 0.2)
    assert single == pytest.approx([0.0, 1.0], abs=1e-15)


def test_weak_coupling_decoupled_limit():
    energies = weak_coupling_energies(0.625, -0.4, 0.0, 1.0)
    assert energies == pytest.approx(sorted(1.0 + n * -0.4 for n in range(4)), abs=1e-12)


def test_weak_coupling_errors():
    with pytest.raises(InvalidParameterError):
        weak_coupling_energies(0.5, 0.0, 0.1, 1.0)
    with pytest.raises(NegativeRadicandError):
        weak_coupling_energies(1.0, 1.0, 1.0, 0.0)  # far outside the weak regime


def test_resonant_energies_closed_forms():
    for R in (0.3, 0.625, 1.0):
        for eta in (0.4, 1.0):
            canonical = np.array(
                [s.interaction_eigenvalue for s in solve_dressed(subspace(1, 2), R, 0.0, eta)]
            )
            expected = sorted(
                s * math.sqrt((15 + e * 3 * math.sqrt(17)) * R) * eta
                for s in (1, -1)
                for e in (1, -1)
            )
            assert canonical == pytest.approx(expected, abs=1e-9)
            alternate = resonant_alternate_energies(R, eta)
            mag = math.sqrt((15 + 3 * math.sqrt(33)) * R) * eta
            assert alternate == pytest.approx([-mag, mag], abs=1e-12)
            # the alternate pair is NOT part of the spectrum
            assert np.abs(canonical - alternate[1]).min() > 0.1 * eta
    with pytest.raises(InvalidParameterError):
        resonant_alternate_energies(0.0, 0.5)
    for eta in (-0.1, math.inf, math.nan):
        with pytest.raises(InvalidParameterError):
            resonant_alternate_energies(0.625, eta)


def test_resonant_alternate_energies_refuse_a_pair_beyond_float_range():
    """At R = 0.625 and eta = 4.1e307 the ladder's eigenvalues, up to
    1.70e308, are floats, but the alternate pair, +-1.84e308, is not: it
    is refused, not returned as +-inf; just below the overflow it holds."""
    with pytest.raises(InvalidParameterError, match="resonant alternate energies overflow floats"):
        resonant_alternate_energies(0.625, 4.1e307)
    top = np.finfo(float).max / math.sqrt((15 + 3 * math.sqrt(33)) * 0.625) * (1 - 1e-12)
    assert np.isfinite(resonant_alternate_energies(0.625, top)).all()


# every caller of config.validate_coupling, as a function of the coupling alone
COUPLING_CALLERS = {
    "ChainConfig": lambda eta: ChainConfig(n_qubits=4, spacing=0.3, coupling=eta),
    "build_h1_matrix": lambda eta: build_h1_matrix(subspace(1, 2), 0.625, 0.3, eta),
    "solve_dressed": lambda eta: solve_dressed(subspace(1, 2), 0.625, 0.3, eta),
    "weak_coupling_energies": lambda eta: weak_coupling_energies(0.625, 0.3, eta, 1.0),
    "resonant_alternate_energies": lambda eta: resonant_alternate_energies(0.625, eta),
    "coefficients_recursive": lambda eta: coefficients_recursive(
        0.25, subspace(1, 2), 0.625, 0.1, eta
    ),
    "coefficients_closed": lambda eta: coefficients_closed(0.25, subspace(1, 2), 0.625, 0.1, eta),
    "four_qubit_reference_coefficients": lambda eta: four_qubit_reference_coefficients(
        0.25, 0.625, 0.1, eta
    ),
}
# the routes that divide by the coupling through vt_n = (v - detuning*n)/coupling
VT_ROUTES = {"coefficients_recursive", "coefficients_closed", "four_qubit_reference_coefficients"}


@pytest.mark.parametrize("caller", sorted(COUPLING_CALLERS))
def test_one_coupling_validator(caller):
    call = COUPLING_CALLERS[caller]
    call(0.02)
    for bad in (math.nan, math.inf, -0.1):
        with pytest.raises(InvalidParameterError, match="coupling must be finite and >= 0"):
            call(bad)
    if caller in VT_ROUTES:
        with pytest.raises(InvalidParameterError, match="coupling must be > 0"):
            call(0.0)
    else:
        call(0.0)


# every route that takes a detuning or an eigenvalue v, as a function of both
FINITE_CALLERS = {
    "build_h1_matrix": lambda v, dw: build_h1_matrix(subspace(1, 2), 0.625, dw, 0.1),
    "coefficients_recursive": lambda v, dw: coefficients_recursive(
        v, subspace(1, 2), 0.625, dw, 0.1
    ),
    "coefficients_closed": lambda v, dw: coefficients_closed(v, subspace(1, 2), 0.625, dw, 0.1),
    "four_qubit_reference_coefficients": lambda v, dw: four_qubit_reference_coefficients(
        v, 0.625, dw, 0.1
    ),
    "weak_coupling_energies": lambda v, dw: weak_coupling_energies(0.625, dw, 0.1, 1.0),
}


@pytest.mark.parametrize("caller", sorted(FINITE_CALLERS))
def test_non_finite_detuning_or_eigenvalue_is_refused(caller):
    # without the check, inf * 0 and nan give nan amplitudes and energies
    call = FINITE_CALLERS[caller]
    call(0.25, 2.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidParameterError, match="detuning must be finite"):
            call(0.25, bad)
        if caller in VT_ROUTES:
            with pytest.raises(InvalidParameterError, match="eigenvalue v must be finite"):
                call(bad, 2.0)


def test_weak_coupling_energies_refuses_a_non_finite_qubit_freq():
    # without the check, w_q is added to each energy: four nan or inf
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidParameterError, match="qubit_freq must be finite"):
            weak_coupling_energies(0.5, 2.0, 0.1, bad)


@settings(max_examples=300, deadline=None)
@given(u2=st.integers(-120, 220), r2=st.integers(0, 100))
def test_every_ladder_product_of_a_subspace_is_at_least_one(u2, r2):
    # so the ladder elements the coefficient routes divide by never vanish
    try:
        sub = subspace(u2 / 2.0, r2 / 2.0)
    except (EmptySectorError, CapacityError):
        return
    assert sub.total_excitation == u2 / 2.0 and sub.total_spin == r2 / 2.0
    for n in sub.photon_numbers[:-1]:
        assert _ladder_product(r2, u2 - 2 * n - 2) >= 1  # alpha_{u-n-1}^2 / R
