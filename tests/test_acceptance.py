"""Acceptance gate: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.
"""

import functools
import math

import numpy as np
from numpy.polynomial import polynomial as P

from qchain import (
    ChainConfig,
    build_collective_ops,
    coefficients_closed,
    coefficients_recursive,
    crossover_point,
    deformation_factor,
    deformation_profile,
    find_stationary_points,
    four_qubit_reference_coefficients,
    hs_projection,
    resonant_alternate_energies,
    sector_spectrum,
    solve_dressed,
    stationarity_residual,
    subspace,
    weak_coupling_energies,
)
from reference_forms import (
    bracketed_roots,
    build_excitation_number,
    build_hamiltonian,
    characteristic_polynomial,
    chebyshev_residual,
    commutator,
    cosine_sum,
    dirichlet_ratio,
    ladder_element,
    truncated_quartic_coefficients,
)


def criterion(num, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] criterion {num:02d}: {description}")
                raise
            print(f"[PASS] criterion {num:02d}: {description}")

        return wrapper

    return decorate


@criterion(1, "deformation factor point value R(4, 2/3) = 0.625 within 1e-12")
def test_criterion_01():
    assert abs(deformation_factor(4, 2 / 3).value - 0.625) <= 1e-12


@criterion(2, "closed form == sum form within 1e-10 on (0,3], exact 1 at integers, period 1")
def test_criterion_02():
    for n in range(1, 13):
        grid = np.linspace(0.006, 3.0, 500)
        away = grid[np.abs(grid - np.round(grid)) >= 1e-6]
        sums = cosine_sum(n, away)
        closed = np.array([dirichlet_ratio(n, l) for l in away])
        assert np.abs(closed - sums).max() <= 1e-10
        profile = deformation_profile(n, away)
        assert np.abs(profile - sums).max() <= 1e-10
        assert np.abs(profile - closed).max() <= 1e-10
        for l in (1.0, 2.0, 3.0):
            assert abs(deformation_factor(n, l).value - 1.0) <= 1e-12
        assert np.abs(profile - deformation_profile(n, away + 1.0)).max() <= 1e-12


@criterion(3, "Hilbert-Schmidt projection equals the deformation factor within 1e-10, N <= 8")
def test_criterion_03():
    for n in range(1, 9):
        for l in np.linspace(0.08, 2.0, 25):
            ops = build_collective_ops(ChainConfig(n_qubits=n, spacing=l))
            projected = hs_projection(ops.sigma_z, ops.s_z)
            assert abs(projected - deformation_factor(n, l).value) <= 1e-10


@criterion(4, "exact operator identities entrywise <= 1e-12 for N <= 8")
def test_criterion_04():
    for n in range(1, 9):
        for l in np.linspace(0.08, 2.0, 25):
            ops = build_collective_ops(ChainConfig(n_qubits=n, spacing=l))
            assert np.abs(
                commutator(ops.s_plus, ops.s_minus).entries - 2.0 * ops.sigma_z.entries
            ).max() <= 1e-12
            assert np.abs(
                commutator(ops.s_z, ops.s_plus).entries - ops.s_plus.entries
            ).max() <= 1e-12
            assert np.abs(
                commutator(ops.s_z, ops.s_minus).entries + ops.s_minus.entries
            ).max() <= 1e-12
        for l in (0.3, 2 / 3, 1.7):
            cfg = ChainConfig(n_qubits=n, spacing=l, qubit_freq=1.1, photon_freq=0.8, coupling=0.3)
            h = build_hamiltonian(cfg, 2)
            n_exc = build_excitation_number(cfg, 2)
            assert np.abs(commutator(h, n_exc).entries).max() <= 1e-12


@criterion(5, "ladder difference equation and Casimir constancy within 1e-12, r <= 6")
def test_criterion_05():
    for r2 in range(0, 13):
        r = r2 / 2.0
        for R in np.arange(0.1, 1.0001, 0.1):
            for m2 in range(-r2, r2 + 1, 2):
                m = m2 / 2.0
                a_m = ladder_element(r, m, R)
                if m > -r:
                    a_prev = ladder_element(r, m - 1, R)
                    assert abs(a_m**2 - a_prev**2 + 2.0 * m * R) <= 1e-12
                assert abs(a_m**2 + R * m * (m + 1) - R * r * (r + 1)) <= 1e-12


def _random_draw(rng):
    while True:
        r = float(rng.integers(1, 9)) / 2.0
        u = r - float(rng.integers(0, int(2 * r) + 1))
        if u + r > 8:
            continue
        sub = subspace(u, r)
        R = float(rng.uniform(0.05, 1.0))
        dw = float(rng.uniform(-2.0, 2.0))
        eta = float(rng.uniform(0.1, 2.0))
        v = float(rng.uniform(-5.0, 5.0))
        if min(abs((v - dw * n) / eta) for n in sub.photon_numbers) < 1e-3:
            continue
        return v, sub, R, dw, eta


@criterion(6, "closed form == recursion over 100 seeded draws; 4-qubit amplitude formulas")
def test_criterion_06():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        v, sub, R, dw, eta = _random_draw(rng)
        rec = coefficients_recursive(v, sub, R, dw, eta)
        clo = coefficients_closed(v, sub, R, dw, eta)
        assert np.abs(clo - rec).max() <= 1e-9 * max(1.0, np.abs(rec).max())

    R = deformation_factor(4, 2 / 3).value
    assert abs(R - 5 / 8) <= 1e-15
    sub = subspace(1, 2)
    dw, eta = -0.31, 0.17
    variant_gap = 0.0
    for state in solve_dressed(sub, R, dw, eta):
        v = state.interaction_eigenvalue
        vt = [(v - dw * n) / eta for n in range(3)]
        c = coefficients_recursive(v, sub, R, dw, eta)
        assert abs(c[1] - vt[0] / math.sqrt(6 * R)) <= 1e-10
        assert abs(
            c[2] - (vt[0] * vt[1] / (6 * math.sqrt(2) * R) - 1 / math.sqrt(2))
        ) <= 1e-10
        ref = four_qubit_reference_coefficients(v, R, dw, eta)
        assert abs(ref["c3"] - c[3]) <= 1e-10
        variant_gap = max(variant_gap, abs(ref["c3_variant"] - c[3]))
    print(
        f"  note: the bare-vt2 variant of c3 deviates from the recursion by up to "
        f"{variant_gap:.3f} (reported, not asserted)"
    )


@criterion(7, "characteristic polynomial roots == tridiagonal eigenvalues within 1e-9")
def test_criterion_07():
    rng = np.random.default_rng(99)
    for _ in range(60):
        _, sub, R, dw, eta = _random_draw(rng)
        poly = characteristic_polynomial(sub, R, dw, eta)
        roots = P.polyroots(poly)
        assert np.abs(roots.imag).max(initial=0.0) <= 1e-10
        vs = np.array([s.interaction_eigenvalue for s in solve_dressed(sub, R, dw, eta)])
        assert np.abs(np.sort(roots.real) - vs).max() <= 1e-9 * max(1.0, np.abs(vs).max())


@criterion(8, "homogeneous exactness at l = 0 within 1e-8 and monotone deviation toward l -> 0")
def test_criterion_08():
    wq, w0, eta = 1.0, 1.1, 0.1
    for n in (2, 3, 4, 6):
        u = 1.0 if n % 2 == 0 else 1.5  # odd chains carry half-integer sectors
        states = solve_dressed(subspace(u, n / 2), 1.0, w0 - wq, eta)
        oracle = sector_spectrum(
            ChainConfig(n_qubits=n, spacing=0.0, qubit_freq=wq, photon_freq=w0, coupling=eta), u
        )
        energies = [wq * u + s.interaction_eigenvalue for s in states]
        assert max(np.abs(oracle - energy).min() for energy in energies) <= 1e-8

        deviations = []
        for l in (0.1, 0.01, 0.001):
            R = deformation_factor(n, l).value
            model = solve_dressed(subspace(u, n / 2), R, w0 - wq, eta)
            sector = sector_spectrum(
                ChainConfig(n_qubits=n, spacing=l, qubit_freq=wq, photon_freq=w0, coupling=eta),
                u,
            )
            energies = [wq * u + s.interaction_eigenvalue for s in model]
            deviations.append(max(np.abs(sector - energy).min() for energy in energies))
        assert deviations[0] > deviations[1] > deviations[2]


@criterion(9, "4-qubit resonant spectrum matches +-sqrt((15 +- 3*sqrt(17))R)*eta within 1e-9")
def test_criterion_09():
    R, eta = 0.625, 0.7
    canonical = np.array(
        [s.interaction_eigenvalue for s in solve_dressed(subspace(1, 2), R, 0.0, eta)]
    )
    expected = sorted(
        s * math.sqrt((15 + e * 3 * math.sqrt(17)) * R) * eta for s in (1, -1) for e in (1, -1)
    )
    assert np.abs(canonical - np.array(expected)).max() <= 1e-9
    print(
        f"  note: sign-flipped-quartic closed form gives +-"
        f"{resonant_alternate_energies(R, eta)[1]:.6f} "
        f"(emitted for comparison, not asserted)"
    )


@criterion(10, "weak-coupling energies solve the truncated quartic and track the exact spectrum")
def test_criterion_10():
    R, eta, wq = 5 / 8, 0.02, 1.0
    dw = 100 * eta
    energies = weak_coupling_energies(R, dw, eta, wq)
    quartic = truncated_quartic_coefficients(R, dw, eta)
    for energy in energies:
        assert abs(P.polyval(energy - wq, quartic)) <= 1e-9 * abs(dw) ** 4
    exact = np.array(
        [wq * 1 + s.interaction_eigenvalue for s in solve_dressed(subspace(1, 2), R, dw, eta)]
    )
    assert np.abs(energies - exact).max() <= 40 * R * eta**2 / abs(dw)


@criterion(11, "crossover for N = 1000 at l = 7.16e-4 +- 5e-6, ~2794 spins per wavelength")
def test_criterion_11():
    report = crossover_point(1000)
    assert abs(report.crossover_spacing - 7.16e-4) <= 5e-6
    assert abs(report.spins_per_wavelength - 2794.0) <= 10.0


@criterion(12, "N = 30 deformation minimum over (0, 1) equals 0.4 +- 0.02")
def test_criterion_12():
    grid = np.linspace(1e-4, 1.0 - 1e-4, 200001)
    assert abs(deformation_profile(30, grid).min() - 0.4) <= 0.02
    assert abs(crossover_point(30).deformation_at_crossover - 0.4) <= 0.02


@criterion(13, "trig residual, Chebyshev residual, and finite-difference extrema coincide")
def test_criterion_13():
    h = 1e-7
    for n in (2, 4, 8):
        num = int(math.ceil(0.98 * 20 * (2 * n - 1))) + 1
        # R is even with period 1: its stationary points on (0, 1) are p and 1 - p
        points = find_stationary_points(n)
        trig = np.union1d(points, 1.0 - points)
        cheb = bracketed_roots(lambda l: chebyshev_residual(n, l), 0.01, 0.99, num)

        def fd_derivative(l, n=n):
            l = np.asarray(l, dtype=float)
            return (deformation_profile(n, l + h) - deformation_profile(n, l - h)) / (2 * h)

        fd = bracketed_roots(fd_derivative, 0.01, 0.99, num)
        assert trig.size == cheb.size == fd.size
        assert np.abs(trig - cheb).max() <= 1e-9
        assert np.abs(trig - fd).max() <= 1e-9
        # every root satisfies both residual forms
        assert np.abs(stationarity_residual(n, trig)).max() <= 1e-10
        assert np.abs(chebyshev_residual(n, trig)).max() <= 1e-8 * 2.0 ** (2 * n - 1)
