"""Exact-diagonalization oracle: operator identities, sectors, eigensolver.

The in-house eigensolver is checked against numpy's LAPACK ``eigvalsh``,
which the library itself never calls.  Every sector of N <= 7 qubits is
held bit for bit to the reference forms by one check,
:func:`check_oracle_sectors`, which runs once a process: a test here
calls it, and the second-kernel test of ``test_kernels`` calls it in
process while a subprocess calls it under another OpenBLAS kernel.
"""

import sys
import tracemalloc

import numpy as np
import pytest

import qchain.cli
import qchain.linalg
from qchain import (
    CapacityError,
    ChainConfig,
    ConvergenceError,
    EmptySectorError,
    InvalidParameterError,
    OperatorMatrix,
    build_collective_ops,
    deformation_factor,
    hs_projection,
    sector_spectrum,
)
from qchain.linalg import tridiagonal_eigh, tridiagonal_eigvalsh
from qchain.oracle import sector_basis, sector_hamiltonian
from qchain.spectra import build_h1_matrix, solve_dressed, subspace
from reference_forms import (
    SECTOR_PHOTON_FREQS,
    SECTOR_SPACINGS,
    SYMMETRY_TOL,
    build_excitation_number,
    build_hamiltonian,
    check_oracle_sectors,
    collective_ops_dense,
    commutator,
    dense_operator,
    dense_symmetry_refused,
    eigvalsh,
    sector_hamiltonian_loop,
    tridiagonalize,
    tridiagonalize_stack,
)


def _config(n, l, wq=1.0, w0=1.0, eta=0.0):
    return ChainConfig(n_qubits=n, spacing=l, qubit_freq=wq, photon_freq=w0, coupling=eta)


def _basis(dim):
    """(photon number, occupation) rows of the zero-photon states 0..dim-1."""
    return np.column_stack((np.zeros(dim, dtype=int), np.arange(dim)))


def _excited(occupation):
    return bin(int(occupation)).count("1")


def test_basis_rows_are_photon_major():
    cfg = _config(2, 0.3)
    rows = [(0, 0), (0, 1), (0, 2), (0, 3), (1, 0), (1, 1), (1, 2), (1, 3)]
    assert build_hamiltonian(cfg, 1).basis.tolist() == [list(r) for r in rows]
    assert build_collective_ops(cfg).s_z.basis.tolist() == [list(r) for r in rows[:4]]
    # u = 1: popcount + photon number = u + N/2 = 2
    assert sector_basis(cfg, 1).tolist() == [[0, 3], [1, 1], [1, 2], [2, 0]]
    assert sector_basis(cfg, 1).dtype.kind == "i"


def test_single_qubit_raising_operator():
    ops = build_collective_ops(_config(1, 0.37))
    expected = np.array([[0.0, 0.0], [1.0, 0.0]])
    assert np.abs(ops.s_plus.entries - expected).max() <= 1e-15


def test_two_qubit_half_spacing_couples_only_qubit_zero():
    # cos(pi/2) kills qubit 1; hand-built 4x4 comparison
    ops = build_collective_ops(_config(2, 0.5))
    expected = np.zeros((4, 4))
    expected[1, 0] = 1.0  # |00> -> |01>
    expected[3, 2] = 1.0  # |10> -> |11>
    assert np.abs(ops.s_plus.entries - expected).max() <= 1e-12


def test_collective_operators_match_dense_reference_bit_for_bit():
    for n in range(1, 9):
        for l in (0.37, 2 / 3, 1.4, 0.0):
            ops = build_collective_ops(_config(n, l))
            for name, dense in collective_ops_dense(_config(n, l)).items():
                entries = getattr(ops, name).entries
                assert entries.dtype == np.float64 and entries.shape == dense.shape
                assert entries.tobytes() == dense.tobytes(), (n, l, name)


def test_collective_projection_forms_no_dense_matrix():
    # one dense 4096 x 4096 float64 matrix alone would take 134 MB
    tracemalloc.start()
    try:
        ops = build_collective_ops(_config(12, 0.37))
        value = hs_projection(ops.sigma_z, ops.s_z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6
    assert value == pytest.approx(deformation_factor(12, 0.37).value, abs=1e-10)


def test_deformed_commutator_is_only_an_approximation_with_vanishing_limit():
    # ||[S+,S-] - 2 R S_z||_F -> 0 toward both the small-l and integer-l limits
    for seq in ([0.1, 0.01, 0.001], [1.1, 1.01, 1.001]):
        norms = []
        for l in seq:
            ops = build_collective_ops(_config(5, l))
            r = deformation_factor(5, l).value
            defect = commutator(ops.s_plus, ops.s_minus).entries - 2.0 * r * ops.s_z.entries
            norms.append(np.linalg.norm(defect))
        assert norms[0] > norms[1] > norms[2]
        assert norms[2] < 1e-3


def test_commutator_of_identity_vanishes_and_dims_must_match():
    ops = build_collective_ops(_config(2, 0.3))
    ident = dense_operator(np.eye(4), ops.s_z.basis)
    assert np.abs(commutator(ident, ops.s_plus).entries).max() == 0.0
    other = build_collective_ops(_config(3, 0.3))
    with pytest.raises(InvalidParameterError):
        commutator(ops.s_z, other.s_z)


def test_hs_projection_reproduces_deformation_factor():
    ops = build_collective_ops(_config(4, 2 / 3))
    assert hs_projection(ops.s_z, ops.s_z) == pytest.approx(1.0, abs=1e-15)
    assert hs_projection(ops.sigma_z, ops.s_z) == pytest.approx(0.625, abs=1e-12)
    ops3 = build_collective_ops(_config(3, 2.0))
    assert hs_projection(ops3.sigma_z, ops3.s_z) == pytest.approx(1.0, abs=1e-12)
    for n in range(1, 13):
        for l in np.linspace(0.08, 2.0, 6):
            ops = build_collective_ops(_config(n, l))
            assert hs_projection(ops.sigma_z, ops.s_z) == pytest.approx(
                deformation_factor(n, l).value, abs=1e-10
            )


def test_hs_projection_zero_denominator():
    ops = build_collective_ops(_config(2, 0.3))
    zero = dense_operator(np.zeros((4, 4)), ops.s_z.basis)
    with pytest.raises(InvalidParameterError):
        hs_projection(ops.sigma_z, zero)


EPS = np.finfo(float).eps


@pytest.mark.parametrize(
    "sigma, target, expected",
    [
        # tr(A^T B) = 0, but 1e200**2 overflows; a fused ddot leaves ~1.5e-17
        ([1e200, -1e200], [1e200, 1e200], 0.0),
        # the coefficient is 0.6, but tr(B^T B) underflows to 0: not a zero target
        ([0.6e-200, 1.2e-200], [1e-200, 2e-200], 0.6),
        # tr(B^T B) is subnormal: a division that would keep a few bits
        ([0.6e-160, 0.0], [1e-160, 0.0], 0.6),
        # tr(A^T B) overflows over a finite tr(B^T B)
        ([1e308, 1e308], [10.0, 10.0], 1e307),
        # the coefficient itself, 1e600, is beyond float range: refused
        ([1e300, 1e300], [1e-300, 1e-300], None),
    ],
    ids=["overflow", "underflow", "subnormal", "overflowing-numerator", "overflowing-quotient"],
)
def test_hs_projection_refuses_sums_out_of_float_range(sigma, target, expected):
    """Sums that over- or underflow floats are summed scaled by each
    operator's power of two, so a representable coefficient comes back
    within 4 eps, as a np.float64, and one beyond float range is refused,
    naming the target's largest entry, without a warning (which the test
    configuration turns into an error)."""
    a, b = (OperatorMatrix(_basis(2), [0, 1], [0, 1], v) for v in (sigma, target))
    if expected is None:
        with pytest.raises(InvalidParameterError, match="largest \\|entry\\| 1e-300$"):
            hs_projection(a, b)
        return
    value = hs_projection(a, b)
    assert type(value) is np.float64
    assert abs(value - expected) <= 4.0 * EPS * (abs(expected) or 1.0)  # absolute at 0


def test_hs_projection_refuses_an_entry_named_twice():
    """With (0, 0) given as 1.0 and 2.0 the dense matrix would hold one
    value while a sum over the triplets would count both: no such operator
    is built, so none reaches the projection."""
    with pytest.raises(InvalidParameterError, match="names one .row, column. entry twice"):
        OperatorMatrix(_basis(2), [0, 0, 1], [0, 0, 1], [1.0, 2.0, 1.0])


def test_dense_matrix_refuses_two_values_for_one_entry():
    """numpy keeps one of two values scattered to one entry, and does not
    say which: construction refuses any repeated (row, column) pair, one
    value named twice included, so .entries and the solve never see one."""
    for rows, cols, values in (
        ([0, 0, 1], [0, 0, 1], [1.0, 2.0, 1.0]),
        ([0, 0, 1], [0, 0, 1], [2.0, 2.0, 1.0]),
        ([0, 1, 0], [1, 0, 1], [0.5, 0.5, 0.5]),
        ([1, 1], [1, 1], [0.0, 0.0]),
    ):
        with pytest.raises(InvalidParameterError, match="names one .row, column. entry twice"):
            OperatorMatrix(_basis(2), rows, cols, values)


@pytest.mark.parametrize("dtype", [np.int16, np.uint8])
def test_narrow_index_dtypes_keep_their_entries(dtype):
    """Indices are stored as int64, so keys row * dim + col wrap in no
    caller's integer dtype: an int64 entry at (199, 199) projects onto a
    narrow-dtype identity, and (0, 0) and (163, 336), whose key
    163 * 400 + 336 = 2**16 is 0 in 16 bits, stay two entries."""
    index = np.arange(200, dtype=dtype)
    identity = OperatorMatrix(_basis(200), index, index, np.ones(200))
    corner = OperatorMatrix(_basis(200), np.array([199]), np.array([199]), [1.0])
    assert hs_projection(corner, identity) == 1.0 / 200.0
    assert corner.rows.dtype == identity.rows.dtype == np.int64
    index = np.arange(400, dtype=np.int16)
    identity = OperatorMatrix(_basis(400), index, index, np.ones(400))
    pair = OperatorMatrix(_basis(400), np.array([0, 163], np.int16), np.array([0, 336], np.int16), [3.0, 2.0])
    assert hs_projection(pair, identity) == 3.0 / 400.0
    assert pair.entries[[0, 163], [0, 336]].tolist() == [3.0, 2.0]


def test_decoupled_hamiltonian_is_diagonal():
    cfg = _config(3, 0.4, wq=0.9, w0=1.7, eta=0.0)
    h = build_hamiltonian(cfg, 2)
    off = h.entries - np.diag(np.diagonal(h.entries))
    assert np.abs(off).max() == 0.0
    assert not np.signbit(off).any()  # no -0.0 from a zero hop of negative weight
    for i, (photons, occupation) in enumerate(h.basis):
        expected = 0.9 * (_excited(occupation) - 1.5) + 1.7 * photons
        assert h.entries[i, i].real == pytest.approx(expected, abs=1e-13)
    assert abs(np.trace(h.entries).imag) == 0.0


def test_single_qubit_vacuum_doublet():
    # resonant 2x2 block of the u = 1/2 sector splits by +-eta
    cfg = _config(1, 0.9, wq=1.0, w0=1.0, eta=0.25)
    values = sector_spectrum(cfg, 0.5)
    assert values == pytest.approx([0.5 - 0.25, 0.5 + 0.25], abs=1e-12)


def test_sector_decomposition_is_complete():
    cfg = _config(3, 0.6, eta=0.2)
    cutoff = 2
    h = build_hamiltonian(cfg, cutoff)
    by_sector = {}
    for photons, occupation in h.basis:
        u = _excited(occupation) - cfg.n_qubits / 2.0 + photons
        by_sector[u] = by_sector.get(u, 0) + 1
    assert sum(by_sector.values()) == (2**cfg.n_qubits) * (cutoff + 1)
    # each full sector whose photon range fits under the cutoff matches the
    # standalone sector build
    for u, count in by_sector.items():
        if u + cfg.n_qubits / 2.0 <= cutoff:
            assert len(sector_basis(cfg, u)) == count


def test_sector_hamiltonian_is_a_decoupled_block_of_the_truncated_hamiltonian():
    for n in range(1, 7):
        cfg = _config(n, 0.437, wq=1.1, w0=0.8, eta=0.3)
        cutoff = n + 1
        h = build_hamiltonian(cfg, cutoff)
        n_max = np.array([_excited(b) + photons for photons, b in h.basis])  # u + N/2
        for u2 in range(-n, 2 * cutoff - n + 1, 2):  # every u with u + N/2 <= cutoff
            rows = n_max == (u2 + n) // 2
            sector = sector_hamiltonian(cfg, u2 / 2.0)
            assert np.array_equal(sector.basis, h.basis[rows])
            assert np.array_equal(sector.entries, h.entries[np.ix_(rows, rows)])
            assert not h.entries[np.ix_(rows, ~rows)].any()
            assert not h.entries[np.ix_(~rows, rows)].any()


def test_sector_hamiltonian_matches_state_by_state_loop():
    # same arithmetic per entry, so the vectorized builder must agree exactly
    for n in range(1, 7):
        for l in (0.37, 2 / 3, 1.4, 0.0):
            cfg = _config(n, l, wq=1.1, w0=0.8, eta=0.3)
            for n_max in range(n + 2):
                sector = sector_hamiltonian(cfg, n_max - n / 2.0)
                states, h = sector_hamiltonian_loop(cfg, n_max - n / 2.0)
                assert sector.basis.tolist() == [list(state) for state in states]
                assert np.array_equal(sector.entries, h)


def test_sector_spectrum_decoupled_values():
    cfg = _config(4, 0.4, wq=0.7, w0=1.9, eta=0.0)
    values = sector_spectrum(cfg, 1)
    expected = sorted(
        0.7 * 1 + (1.9 - 0.7) * n for n in range(4) for _ in range(_count_4q(n))
    )
    assert values == pytest.approx(expected, abs=1e-12)
    assert values.size == 15


def _count_4q(n):
    # states of the u=1 sector of 4 qubits with n photons: popcount = 3 - n + ...
    from math import comb

    return comb(4, 3 - n)


def test_sector_spectrum_gauge_invariance():
    for n, u in ((3, 0.5), (4, 1)):
        cfg = _config(n, 0.437, wq=1.0, w0=1.2, eta=0.15)
        base = sector_spectrum(cfg, u)
        shifted = sector_spectrum(_config(n, 1.437, wq=1.0, w0=1.2, eta=0.15), u)
        mirrored = sector_spectrum(_config(n, -0.437, wq=1.0, w0=1.2, eta=0.15), u)
        assert np.abs(base - shifted).max() <= 1e-10
        assert np.abs(base - mirrored).max() <= 1e-10


def test_sector_errors():
    cfg = _config(4, 0.3)
    with pytest.raises(EmptySectorError):
        sector_spectrum(cfg, -3)  # below -N/2
    with pytest.raises(EmptySectorError):
        sector_spectrum(cfg, 0.5)  # wrong parity for even N


def test_subnormal_couplings_are_refused():
    """A hop eta * sqrt(n) * cos(j*pi*l) below the smallest normal double has
    rounded to fewer bits; zero hops (eta = 0) stay allowed."""
    for eta in (5e-324, 1e-310):
        with pytest.raises(InvalidParameterError, match="subnormal"):
            sector_hamiltonian(_config(4, 0.3, eta=eta), 1)
    assert sector_hamiltonian(_config(4, 0.3), 1).dim > 0


def test_capacity_limits():
    with pytest.raises(CapacityError):
        build_collective_ops(_config(13, 0.3))
    with pytest.raises(CapacityError):
        build_hamiltonian(_config(12, 0.3), 3)  # dim 32768 > dense cap
    with pytest.raises(CapacityError):
        build_excitation_number(_config(12, 0.3), 1)  # dim 8192
    with pytest.raises(CapacityError):
        sector_spectrum(_config(13, 0.3), 0.5)
    with pytest.raises(InvalidParameterError):
        build_hamiltonian(_config(2, 0.3), -1)


def test_operator_matrix_validates_basis():
    with pytest.raises(InvalidParameterError):
        dense_operator(np.eye(3), _basis(2))  # an index beyond the basis
    with pytest.raises(InvalidParameterError):
        OperatorMatrix(_basis(2), [0, -1], [0, 1], [1.0, 1.0])
    with pytest.raises(InvalidParameterError):
        OperatorMatrix(_basis(2), [0], [0, 1], [1.0])
    with pytest.raises(InvalidParameterError):
        OperatorMatrix(_basis(2), [0.0], [0.0], [1.0])
    with pytest.raises(InvalidParameterError):
        dense_operator(np.eye(2), np.arange(2))
    with pytest.raises(InvalidParameterError):
        dense_operator(np.eye(2), _basis(2).astype(float))
    ops = build_collective_ops(_config(1, 0.3))
    shifted = dense_operator(np.eye(2), _basis(2) + [1, 0])
    with pytest.raises(InvalidParameterError):
        commutator(ops.s_z, shifted)
    with pytest.raises(InvalidParameterError):
        hs_projection(shifted, ops.s_z)


def test_eigh_diagonal_and_swap():
    diag = dense_operator(np.diag([3.0, -1.0, 2.0, 0.5]), _basis(4))
    assert eigvalsh(diag) == pytest.approx([-1.0, 0.5, 2.0, 3.0])
    values, vectors = tridiagonal_eigh([3.0, -1.0, 2.0, 0.5], [0.0, 0.0, 0.0])
    assert values == pytest.approx([-1.0, 0.5, 2.0, 3.0])
    assert np.array_equal(np.abs(vectors).sum(axis=0), np.ones(4))

    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert tridiagonal_eigvalsh(*tridiagonalize(swap)) == pytest.approx([-1.0, 1.0], abs=1e-15)


def test_non_finite_input_is_refused():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(InvalidParameterError, match="matrix must be finite"):
            qchain.linalg.as_real([[1.0, bad], [bad, 1.0]])
        with pytest.raises(InvalidParameterError, match="diagonal must be finite"):
            tridiagonal_eigvalsh([1.0, bad], [0.5])
        with pytest.raises(InvalidParameterError, match="values must be finite"):
            OperatorMatrix(_basis(2), [0, 1], [0, 1], [1.0, bad])


@pytest.mark.parametrize("name", ["spacing", "qubit_freq", "photon_freq"])
def test_chain_config_refuses_non_finite_parameters(name):
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(InvalidParameterError, match=f"{name} must be finite"):
            ChainConfig(**{"n_qubits": 2, "spacing": 0.3, name: bad})


def test_eigvalsh_rejects_non_symmetric_operator():
    op = dense_operator(np.array([[0.0, 1.0], [0.0, 0.0]]), _basis(2))
    with pytest.raises(InvalidParameterError, match="requires a symmetric matrix"):
        eigvalsh(op)


def _mirror_at_tolerance(x, bound, away):
    """The last float y from x towards ``away`` (+-inf) with
    |y - x| <= bound, and the float after it."""
    y = x + np.copysign(bound, away)
    while abs(y - x) > bound:
        y = np.nextafter(y, x)
    while abs(np.nextafter(y, away) - x) <= bound:
        y = np.nextafter(y, away)
    return y, np.nextafter(y, away)


def test_triplet_symmetry_check_decides_as_the_dense_one():
    """eigvalsh refuses an operator exactly when the dense test of
    |A - A^T| does, on seeded operators whose largest |entry| runs from
    1e-3 to 1e6: symmetric ones with stored zeros, one-sided triplets, a
    stored zero mirroring a nonzero, and mirrors the last float within
    the tolerance and the first beyond it."""
    rng = np.random.default_rng(2026)
    expected = {"symmetric": False, "one-sided": True, "stored zero": True, "below": False, "above": True}
    for top in (1e-3, 0.7, 1.0, 3.0, 1e3, 1e6):
        bound = SYMMETRY_TOL * max(1.0, top)
        for trial in range(12):
            dim = int(rng.integers(3, 7))
            upper = np.triu(rng.uniform(-top / 2, top / 2, (dim, dim)))
            a = upper + np.triu(upper, 1).T
            stored = np.triu(rng.random((dim, dim)) < 0.7)
            stored |= stored.T
            a[~stored] = 0.0
            zeros = np.triu(rng.random((dim, dim)) < 0.2, 1)
            a[zeros | zeros.T] = 0.0  # stored zeros, both sides
            stored[0, 0] = True
            a[0, 0] = top if trial % 2 else -top  # the largest |entry|, never perturbed
            i, j = sorted(rng.choice(np.arange(1, dim), 2, replace=False).tolist())
            stored[i, j] = stored[j, i] = True
            a[i, j] = a[j, i] = rng.uniform(top / 8, top / 2) * rng.choice([-1.0, 1.0])
            away = rng.choice([-np.inf, np.inf])
            for kind, want in expected.items():
                b, keep = a.copy(), stored.copy()
                if kind == "one-sided":
                    b[j, i], keep[j, i] = 0.0, False
                elif kind == "stored zero":
                    b[j, i] = 0.0
                elif kind in ("below", "above"):
                    b[j, i] = _mirror_at_tolerance(b[i, j], bound, away)[kind == "above"]
                rows, cols = np.nonzero(keep)
                op = OperatorMatrix(_basis(dim), rows, cols, b[rows, cols])
                try:
                    eigvalsh(op)
                    refused = False
                except InvalidParameterError:
                    refused = True
                assert refused == dense_symmetry_refused(op.entries) == want, (top, trial, kind)


@pytest.mark.parametrize("name", ["qubit_freq", "coupling"])
def test_sector_spectrum_refuses_entries_out_of_float_range(name):
    # finite parameters whose products overflow in the sector N = 4, u = 2:
    # 2 * 1e308 on the diagonal, and 1e308 * sqrt(4) on a hop
    cfg = ChainConfig(**{"n_qubits": 4, "spacing": 0.3, name: 1e308})
    with np.errstate(over="ignore"), pytest.raises(InvalidParameterError):
        sector_spectrum(cfg, 2)


def test_eigenvalues_beyond_float_range_are_refused():
    """Finite entries whose eigenvalues overflow when scaled back: the
    sector N = 4, u = 1 at eta = 1e308 (hops up to 1.73e308), and a 2 x 2
    whose eigenvalues are 2e308 and 0; the same 2 x 2 with d = (1e308,
    -1e308) has eigenvalues +-1.41e308, which are solved."""
    with np.errstate(over="ignore"):
        with pytest.raises(InvalidParameterError, match="eigenvalues overflow floats"):
            sector_spectrum(_config(4, 0.3, eta=1e308), 1)
        for solve in (tridiagonal_eigvalsh, tridiagonal_eigh):
            with pytest.raises(InvalidParameterError, match="eigenvalues overflow floats"):
                solve([1e308, 1e308], [1e308])
            with pytest.raises(InvalidParameterError, match="eigenvalues overflow floats"):
                solve([-1e308, -1e308], [1e308])
        assert np.isfinite(tridiagonal_eigh([1e308, -1e308], [1e308])[0]).all()


def test_oracle_sectors_keep_the_bits_of_their_reference_forms():
    """Every sector of N <= 7, up to one photon past a full chain, at four
    spacings, resonant and detuned: the in-place reduction keeps the bits of
    the ``np.stack`` form, QL those of the ``while`` form, and the library's
    unchecked sector solve those of the checked route and of QL on the
    reduction, with no second scaling and no zeroing of negligible
    off-diagonals.  The check runs once a process: on x86-64 the
    second-kernel test of ``test_kernels`` runs it while its subprocess runs
    the same check under another BLAS kernel."""
    assert check_oracle_sectors(SECTOR_SPACINGS, SECTOR_PHOTON_FREQS) == 336


def _random_symmetric(rng):
    for n in range(2, 151):
        a = rng.normal(size=(n, n))
        yield a + a.T


def _same_bits(first, second):
    return all(x.tobytes() == y.tobytes() for x, y in zip(first, second, strict=True))


def test_tridiagonalize_matches_stack_reference_bit_for_bit():
    # the rank-2 update's operands are built without np.stack: same BLAS
    # product, same shapes, so the same bits, on random symmetric matrices
    # here and on the oracle's sectors above
    for a in _random_symmetric(np.random.default_rng(17)):
        kept = a.copy()
        assert _same_bits(tridiagonalize(a), tridiagonalize_stack(a)), a.shape
        assert np.array_equal(a, kept)  # the public reduction leaves its input alone


def _ladders():
    """Ladders of dims 1..101 (r = 50), then a sweep of deformation,
    detuning (negative too) and coupling at a few dims: eta = 0 and
    rounding-level couplings split the ladder into blocks."""
    for u in range(-50, 51):
        yield build_h1_matrix(subspace(u, 50), 0.625, 0.35, 0.2)
    for u in (-50, -49, -48, -44, -30, 0, 50):
        for R in (1.0, 0.31):
            for detuning in (0.45, 0.0, -0.8):
                for eta in (0.0, 3e-17, 1e-15, 1.7):
                    yield build_h1_matrix(subspace(u, 50), R, detuning, eta)


def test_tridiagonal_eigvalsh_is_eigh_values_bit_for_bit():
    partly_split = 0
    for d, e in _ladders():
        values, _ = tridiagonal_eigh(d, e)
        assert values.tobytes() == tridiagonal_eigvalsh(d, e).tobytes(), (d.size, e[:1])
        negligible = np.abs(e) <= np.finfo(float).eps * qchain.linalg._norm(d, e)
        partly_split += bool(negligible.any() and not negligible.all())
    assert partly_split > 0


def test_ql_never_reads_a_negligible_off_diagonal():
    """QL gives the same bits whether the off-diagonals at or below its
    threshold eps * ||T|| are zeroed first or not, so no solve zeroes them:
    on every ladder, partly split ones included, and on random graded
    tridiagonals, some of whose off-diagonals are scaled to rounding level."""
    rng = np.random.default_rng(22)
    graded = []
    for d, e in _random_tridiagonals(rng):
        e = e.copy()
        e[rng.random(e.size) < 0.3] *= qchain.linalg.EPS * rng.uniform(0.1, 4.0)
        graded.append((d, e))
    for corpus in (list(_ladders()), graded):
        zeroed = 0
        for d, e in corpus:
            d, e, _ = qchain.linalg._tridiagonal(d, e)
            tiny = qchain.linalg.EPS * qchain.linalg._norm(d, e)
            negligible = np.abs(e) <= tiny
            cut = np.where(negligible, 0.0, e)
            kept = np.array(qchain.linalg._ql(d.tolist(), e.tolist(), tiny))
            assert kept.tobytes() == np.array(qchain.linalg._ql(d.tolist(), cut.tolist(), tiny)).tobytes()
            zeroed += bool(np.any(negligible & (e != 0.0)))
        assert zeroed > 0


def test_tridiagonal_eigh_of_an_empty_matrix():
    values, vectors = tridiagonal_eigh([], [])
    assert values.shape == (0,) and vectors.shape == (0, 0)
    assert values.dtype == vectors.dtype == np.float64
    assert tridiagonal_eigvalsh([], []).shape == (0,)


def _dense(d, e):
    return np.diag(d) + np.diag(e, 1) + np.diag(e, -1)


def _random_tridiagonals(rng):
    """Random, graded and ladder-like tridiagonal matrices of dims 1..60."""
    for trial in range(60):
        n = int(rng.integers(1, 61))
        kind = trial % 3
        if kind == 0:
            d, e = rng.normal(size=n), rng.normal(size=n - 1)
        elif kind == 1:
            d = rng.normal(size=n) * 10.0 ** rng.integers(-6, 6)
            e = rng.normal(size=n - 1) * 10.0 ** rng.integers(-10, 3)
        else:
            ns = np.arange(n)
            d = rng.uniform(-0.5, 0.5) * ns
            e = rng.uniform(0.05, 1.0) * np.sqrt(ns[1:]) * rng.uniform(0.5, 2.0, n - 1)
        yield d, e


def _assert_eigenpairs(d, e, values, vectors):
    t = _dense(d, e)
    n = len(d)
    scale = max(float(np.abs(np.linalg.eigvalsh(t)).max()), np.finfo(float).tiny)
    assert np.abs(values - np.linalg.eigvalsh(t)).max() <= 1e-12 * scale * n
    residual = np.linalg.norm(t @ vectors - vectors * values, axis=0).max()
    assert residual <= 1e-12 * scale * n
    assert np.abs(vectors.T @ vectors - np.eye(n)).max() <= 1e-12 * n


def test_tridiagonal_eigh_residual_and_orthonormality():
    for d, e in _random_tridiagonals(np.random.default_rng(42)):
        values, vectors = tridiagonal_eigh(d, e)
        _assert_eigenpairs(d, e, values, vectors)
        assert np.array_equal(values, tridiagonal_eigvalsh(d, e))


def test_tridiagonal_eigh_is_deterministic():
    d, e = next(_random_tridiagonals(np.random.default_rng(11)))
    first = tridiagonal_eigh(d, e)
    second = tridiagonal_eigh(d.copy(), e.copy())
    assert first[0].tobytes() == second[0].tobytes()
    assert first[1].tobytes() == second[1].tobytes()
    a = np.random.default_rng(12).normal(size=(32, 32))
    op = dense_operator(a + a.T, _basis(32))
    assert eigvalsh(op).tobytes() == eigvalsh(op).tobytes()


@pytest.mark.parametrize("power", [-1000, -600, 600, 1000])
def test_far_matrices_solve_to_scaled_bits(power):
    """A matrix far outside norm 1 is solved scaled by a power of two, which
    commutes with rounding, so 2**power * T gives 2**power times T's output."""
    rng = np.random.default_rng(13)
    for _ in range(20):
        n = int(rng.integers(1, 30))
        d, e = rng.normal(size=n), rng.normal(size=n - 1)
        values, vectors = tridiagonal_eigh(d, e)
        far_values, far_vectors = tridiagonal_eigh(np.ldexp(d, power), np.ldexp(e, power))
        assert far_values.tobytes() == np.ldexp(values, power).tobytes()
        assert far_vectors.tobytes() == vectors.tobytes()
        assert tridiagonal_eigvalsh(np.ldexp(d, power), np.ldexp(e, power)).tobytes() == (
            np.ldexp(tridiagonal_eigvalsh(d, e), power).tobytes()
        )
        a = rng.normal(size=(n, n))
        reduced = tridiagonalize(a + a.T)
        far_reduced = tridiagonalize(np.ldexp(a + a.T, power))
        for far, near in zip(far_reduced, reduced, strict=True):
            assert far.tobytes() == np.ldexp(near, power).tobytes()
        op = dense_operator(a + a.T, _basis(n))
        far_op = OperatorMatrix(op.basis, op.rows, op.cols, np.ldexp(op.values, power))
        assert eigvalsh(far_op).tobytes() == np.ldexp(eigvalsh(op), power).tobytes()
    for n in range(1, 6):
        for n_max in range(n + 1):
            op = sector_hamiltonian(_config(n, 0.37, wq=1.0, w0=1.15, eta=0.3), n_max - n / 2.0)
            far_op = OperatorMatrix(op.basis, op.rows, op.cols, np.ldexp(op.values, power))
            assert eigvalsh(far_op).tobytes() == np.ldexp(eigvalsh(op), power).tobytes(), op.dim


def test_columns_whose_squares_underflow_reduce_to_scaled_values():
    """A Householder column whose squares underflow is reflected scaled by
    2**511 and its off-diagonal scaled straight back: with the largest
    entry 1 nothing else is scaled, and [[1, t x^T], [t x, t C]] at
    t = 2**-520 (squares near 2**-1040: subnormal, not 0) reduces to t
    times the reduction of [[0, x^T], [x, C]] below its first diagonal
    entry.  Not bit for bit: the scaled column is a contiguous copy, whose
    dot product BLAS sums in another order than the strided column's."""
    rng = np.random.default_rng(25)
    for n in range(3, 12):
        a = rng.normal(size=(n, n))
        a += a.T
        a[0, 0] = 0.0
        far = np.ldexp(a, -520)
        far[0, 0] = 1.0
        tol = 1e-13 * n * np.abs(a).max()
        far_d, far_e = tridiagonalize(far)
        assert far_d[0] == 1.0
        d, e = tridiagonalize(a)
        assert np.abs(np.ldexp(far_d[1:], 520) - d[1:]).max() <= tol, n
        assert np.abs(np.ldexp(far_e, 520) - e).max() <= tol, n


def test_ascending_order_and_sign_rule():
    for d, e in _random_tridiagonals(np.random.default_rng(7)):
        values, vectors = tridiagonal_eigh(d, e)
        assert np.all(np.diff(values) >= 0.0)
        for k in range(len(d)):
            lead = vectors[np.argmax(np.abs(vectors[:, k]) > 1e-8), k]
            assert lead > 0.0


def test_split_blocks_give_identity_vectors():
    values, vectors = tridiagonal_eigh(np.ones(3), np.zeros(2))
    assert np.array_equal(values, np.ones(3))
    assert np.array_equal(vectors, np.eye(3))
    # eta = 0 ladder: every off-diagonal vanishes, so each block is 1 x 1
    values, vectors = tridiagonal_eigh(*build_h1_matrix(subspace(2, 3), 0.625, 0.35, 0.0))
    assert np.array_equal(values, 0.35 * np.arange(6))
    assert np.array_equal(vectors, np.eye(6))
    # a zero in the middle splits the matrix into two blocks
    d = np.array([2.0, 0.0, 1.0, 3.0, -1.0])
    e = np.array([0.5, 0.0, 0.7, 0.2])
    values, vectors = tridiagonal_eigh(d, e)
    _assert_eigenpairs(d, e, values, vectors)
    on_first = np.all(vectors[2:] == 0.0, axis=0)
    on_second = np.all(vectors[:2] == 0.0, axis=0)
    assert np.array_equal(on_first, ~on_second) and on_first.sum() == 2


def test_wilkinson_w21_close_pairs_stay_orthogonal():
    # W21+ has pairs of eigenvalues that agree to ~14 digits: the vectors of
    # each pair come from one cluster and need re-orthogonalization
    d = np.abs(np.arange(21) - 10.0)
    e = np.ones(20)
    values, vectors = tridiagonal_eigh(d, e)
    assert np.diff(values)[-1] < 1e-12
    _assert_eigenpairs(d, e, values, vectors)


def test_wilkinson_w31_coincident_pair_gets_distinct_shifts():
    # the top pair of W31+ is closer than dstein's PERTOL, 10*eps*||T||, so
    # inverse iteration must shift the second value off the first
    d = np.abs(np.arange(31) - 15.0)
    e = np.ones(30)
    values, vectors = tridiagonal_eigh(d, e)
    assert np.diff(values)[-1] < 10.0 * qchain.linalg.EPS * qchain.linalg._norm(d, e)
    assert values.tobytes() == tridiagonal_eigvalsh(d, e).tobytes()
    assert np.abs(vectors.T @ vectors - np.eye(31)).max() <= 1e-12 * 31
    _assert_eigenpairs(d, e, values, vectors)


def test_tridiagonal_lengths_must_match():
    for solve in (tridiagonal_eigvalsh, tridiagonal_eigh):
        with pytest.raises(InvalidParameterError, match="off-diagonal of length n-1"):
            solve([1.0, 2.0, 3.0], [0.5])
        with pytest.raises(InvalidParameterError, match="off-diagonal of length n-1"):
            solve([1.0, 2.0], [0.5, 0.5])


def test_highly_degenerate_eigenvalue_converges():
    # a 30-fold zero eigenvalue leaves a block of rounding-level entries
    # after Householder; QL must deflate it against ||T||, not against its
    # own rounding-level diagonal
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.normal(size=(40, 40)))
    a = (q * np.concatenate((np.zeros(30), rng.uniform(-1.0, 1.0, 10)))) @ q.T
    a = (a + a.T) / 2.0
    values = tridiagonal_eigvalsh(*tridiagonalize(a))
    assert np.abs(values - np.linalg.eigvalsh(a)).max() <= 1e-12 * 40


@pytest.mark.parametrize("n_qubits, u", [(8, 1), (10, 1)])
def test_sector_eigenvalues_match_lapack(n_qubits, u):
    cfg = _config(n_qubits, 0.437, wq=1.0, w0=1.15, eta=0.3)
    h = sector_hamiltonian(cfg, u).entries
    ref = np.linalg.eigvalsh(h)
    values = sector_spectrum(cfg, u)
    assert np.abs(values - ref).max() <= 1e-12 * np.abs(ref).max()


def test_eigvalsh_holds_no_dense_copy():
    # N = 8, u = 1: dim 219, a 0.38 MB dense matrix; the library's sector
    # solve builds the triplets, scatters them into the one matrix it
    # reduces in place, and the first Householder column's rank-2 product
    # is one more (dim - 1)^2 array
    cfg = _config(8, 0.437, wq=1.0, w0=1.15, eta=0.3)
    matrix_bytes = len(sector_basis(cfg, 1)) ** 2 * 8
    tracemalloc.start()
    try:
        sector_spectrum(cfg, 1)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * matrix_bytes
    assert held < 0.05e6


def test_complex_input_is_rejected_not_truncated():
    hermitian = np.array([[1.0, 1j], [-1j, 1.0]])
    with pytest.raises(InvalidParameterError):
        tridiagonalize(hermitian)
    with pytest.raises(InvalidParameterError):
        tridiagonal_eigh([1.0, 2.0], [0.5 + 1e-3j])
    with pytest.raises(InvalidParameterError):
        dense_operator(hermitian, _basis(2))
    # the model is real: a complex dtype is refused even with zero imaginary parts
    with pytest.raises(InvalidParameterError, match="complex"):
        tridiagonalize(np.eye(2, dtype=complex))
    with pytest.raises(InvalidParameterError, match="complex"):
        tridiagonal_eigvalsh([1.0 + 0j, 2.0], [0.0])
    with pytest.raises(InvalidParameterError, match="complex"):
        OperatorMatrix(_basis(2), [0, 1], [0, 1], np.array([1.0, 2.0], dtype=complex))


def test_ql_iteration_cap_raises(monkeypatch):
    monkeypatch.setattr(qchain.linalg, "QL_MAX_ITERATIONS", 0)
    assert tridiagonal_eigvalsh([1.0, 2.0], [0.0]) == pytest.approx([1.0, 2.0])
    with pytest.raises(ConvergenceError):
        tridiagonal_eigvalsh([1.0, 2.0], [0.5])
    with pytest.raises(ConvergenceError):
        sector_spectrum(_config(2, 0.3, eta=0.2), 0)


def test_library_never_calls_numpy_linalg(monkeypatch, capsys):
    public = {
        name: obj
        for name, obj in vars(np.linalg).items()
        if not name.startswith("_") and callable(obj) and not isinstance(obj, type)
    }
    # no qchain module keeps a reference of its own that the patch would miss
    ids = {id(obj) for obj in public.values()}
    for name, module in list(sys.modules.items()):
        if name == "qchain" or name.startswith("qchain."):
            assert not [attr for attr, value in vars(module).items() if id(value) in ids], name

    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg was called")

    for name in public:
        monkeypatch.setattr(np.linalg, name, refuse)
    assert sector_spectrum(_config(6, 0.437, eta=0.3), 1).size == 57
    assert len(solve_dressed(subspace(1, 2), 0.625, 0.1, 0.2)) == 4
    for argv in (
        ["oracle-compare", "--n", "6", "--l", "0.437", "--u", "1", "--eta", "0.3"],
        ["spectrum", "--n", "4", "--l", "2/3", "--u", "1", "--eta", "0.2"],
        ["table1", "--eta", "0.15"],
    ):
        assert qchain.cli.main(argv) == 0, argv
    capsys.readouterr()
