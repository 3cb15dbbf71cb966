"""Subspace solver: dressed states, coefficient routes, special-case formulas."""

import math
from itertools import combinations

import mpmath
import numpy as np
import pytest
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
    ladder_element,
    resonant_energies,
    sector_spectrum,
    solve_dressed,
    subspace,
    weak_coupling_energies,
)
from qchain.spectra import MAX_LADDER_DIM
from reference_forms import (
    characteristic_polynomial,
    h1_matrix_dense,
    truncated_quartic_coefficients,
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
        assert resonant_energies(R, 0.0).canonical.tobytes() == np.zeros(4).tobytes()


def test_solve_dressed_dim_one():
    states = solve_dressed(subspace(-1, 1), 0.8, 0.45, 0.2, qubit_freq=1.3)
    assert len(states) == 1
    assert states[0].interaction_eigenvalue == pytest.approx(0.0, abs=1e-15)
    assert states[0].coefficients == pytest.approx([1.0])
    assert states[0].total_energy == pytest.approx(1.3 * -1, abs=1e-15)
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


def test_solve_dressed_matches_oracle_at_homogeneous_coupling():
    for n in (2, 4):
        cfg = ChainConfig(n_qubits=n, spacing=0.0, qubit_freq=1.0, photon_freq=1.15, coupling=0.2)
        states = solve_dressed(subspace(1, n / 2), 1.0, cfg.detuning, 0.2, qubit_freq=1.0)
        oracle = sector_spectrum(cfg, 1)
        for s in states:
            assert np.abs(oracle - s.total_energy).min() <= 1e-8


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


def _random_draw(rng):
    while True:
        r = float(rng.integers(1, 9)) / 2.0
        max_u2 = int(2 * r)
        u = r - float(rng.integers(0, max_u2 + 1))
        if u + r > 8:
            continue
        sub = subspace(u, r)
        R = float(rng.uniform(0.05, 1.0))
        dw = float(rng.uniform(-2.0, 2.0))
        eta = float(rng.uniform(0.1, 2.0))
        v = float(rng.uniform(-5.0, 5.0))
        vt = [(v - dw * n) / eta for n in sub.photon_numbers]
        if min(abs(x) for x in vt) < 1e-3:
            continue
        return v, sub, R, dw, eta


def test_closed_form_equals_recursion_over_random_draws():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        v, sub, R, dw, eta = _random_draw(rng)
        rec = coefficients_recursive(v, sub, R, dw, eta)
        clo = coefficients_closed(v, sub, R, dw, eta)
        assert np.abs(clo - rec).max() <= 1e-9 * max(1.0, np.abs(rec).max())


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

    rng = np.random.default_rng(77)
    for _ in range(25):
        _, sub, R, dw, eta = _random_draw(rng)
        poly = characteristic_polynomial(sub, R, dw, eta)
        roots = P.polyroots(poly)
        assert np.abs(roots.imag).max(initial=0.0) <= 1e-10
        vs = np.array([s.interaction_eigenvalue for s in solve_dressed(sub, R, dw, eta)])
        assert np.abs(np.sort(roots.real) - vs).max() <= 1e-9 * max(1.0, np.abs(vs).max())


def test_weak_coupling_decoupled_limit():
    energies = weak_coupling_energies(0.625, -0.4, 0.0, 1.0)
    assert energies == pytest.approx(sorted(1.0 + n * -0.4 for n in range(4)), abs=1e-12)


def test_weak_coupling_solves_truncated_quartic():
    R, dw, eta, wq = 5 / 8, 2.0, 0.02, 1.0
    quartic = truncated_quartic_coefficients(R, dw, eta)
    for energy in weak_coupling_energies(R, dw, eta, wq):
        residual = P.polyval(energy - wq, quartic)
        assert abs(residual) <= 1e-9 * abs(dw) ** 4


def test_weak_coupling_tracks_exact_spectrum():
    R, eta, wq = 5 / 8, 0.02, 1.0
    dw = 100 * eta
    approx = weak_coupling_energies(R, dw, eta, wq)
    exact = np.array(
        [s.total_energy for s in solve_dressed(subspace(1, 2), R, dw, eta, qubit_freq=wq)]
    )
    assert np.abs(approx - exact).max() <= 40 * R * eta**2 / abs(dw)


def test_weak_coupling_errors():
    with pytest.raises(InvalidParameterError):
        weak_coupling_energies(0.5, 0.0, 0.1, 1.0)
    with pytest.raises(NegativeRadicandError):
        weak_coupling_energies(1.0, 1.0, 1.0, 0.0)  # far outside the weak regime


def test_resonant_energies_closed_forms():
    for R in (0.3, 0.625, 1.0):
        for eta in (0.4, 1.0):
            levels = resonant_energies(R, eta)
            expected = sorted(
                s * math.sqrt((15 + e * 3 * math.sqrt(17)) * R) * eta
                for s in (1, -1)
                for e in (1, -1)
            )
            assert levels.canonical == pytest.approx(expected, abs=1e-9)
            mag = math.sqrt((15 + 3 * math.sqrt(33)) * R) * eta
            assert levels.alternate == pytest.approx([-mag, mag], abs=1e-12)
            # the alternate pair is NOT part of the spectrum
            assert np.abs(levels.canonical - levels.alternate[1]).min() > 0.1 * eta
    with pytest.raises(InvalidParameterError):
        resonant_energies(0.0, 0.5)
    for eta in (-0.1, math.inf, math.nan):
        with pytest.raises(InvalidParameterError):
            resonant_energies(0.625, eta)
