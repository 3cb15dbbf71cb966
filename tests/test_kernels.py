"""The tridiagonal kernels keep the bits of their array forms.

:func:`qchain.linalg._ql`, ``_lu`` and ``_lu_solve`` carry their rows in
Python lists; ``reference_forms`` keeps the array forms they replaced
(:func:`ql_while`, :func:`lu_arrays`, :func:`lu_solve_arrays`).  Every
comparison is by ``tobytes``: on random tridiagonals, on the ladders
``spectrum`` builds and on the oracle's sectors.
"""

import numpy as np
import pytest

import qchain.linalg as linalg
from qchain import ChainConfig
from qchain.oracle import sector_hamiltonian
from qchain.spectra import build_h1_matrix, subspace
from reference_forms import lu_arrays, lu_solve_arrays, ql_while


def _same(new, old) -> bool:
    new, old = np.asarray(new), np.asarray(old)
    return new.dtype == old.dtype and new.shape == old.shape and new.tobytes() == old.tobytes()


def _check_ql(d, e):
    d, e, tiny, _ = linalg._tridiagonal(d, e)
    assert _same(linalg._ql(d.tolist(), e.tolist(), tiny), ql_while(d.tolist(), e.tolist(), tiny))
    return d, e, tiny


def _check_kernels(d, e, rng):
    """QL on the whole matrix, then the LU factors and a solve on each
    unreduced block, shifted by the block's eigenvalues."""
    d, e, tiny = _check_ql(d, e)
    cuts = np.concatenate(([0], np.flatnonzero(e == 0.0) + 1, [d.size]))
    for lo, hi in zip(cuts[:-1].tolist(), cuts[1:].tolist()):
        m = hi - lo
        if m < 2:
            continue
        block_d, block_e = d[lo:hi], e[lo : hi - 1]
        shifts = np.array(ql_while(block_d.tolist(), block_e.tolist(), tiny))
        small = linalg.EPS * linalg._norm(block_d, block_e)
        new = linalg._lu(block_d, block_e, shifts, small)
        old = lu_arrays(block_d, block_e, shifts, small)
        # u0 has m rows; u1, u2, the multipliers and the swaps m - 1 written ones
        for new_rows, old_rows, written in zip(new, old, (m, m - 1, m - 1, m - 1, m - 1)):
            assert _same(np.array(new_rows).reshape(written, m), old_rows[:written])
        b = rng.standard_normal((m, m))
        assert _same(linalg._lu_solve(new, b), lu_solve_arrays(old, b))


def _use_array_kernels(monkeypatch):
    monkeypatch.setattr(linalg, "_ql", ql_while)
    monkeypatch.setattr(linalg, "_lu", lu_arrays)
    monkeypatch.setattr(linalg, "_lu_solve", lu_solve_arrays)


def test_kernels_on_random_tridiagonals():
    """Norms from 1e-30 to 1e30, split blocks and rounding-level
    off-diagonals, which the QL deflates and the split cuts."""
    rng = np.random.default_rng(20)
    for _ in range(100):
        n = int(rng.integers(1, 25))
        scale = 10.0 ** rng.uniform(-30, 30)
        d = rng.standard_normal(n) * scale
        e = rng.standard_normal(n - 1) * scale
        kind = rng.integers(4)
        if kind == 1:
            e[rng.random(n - 1) < 0.3] = 0.0
        elif kind == 2:
            e[rng.random(n - 1) < 0.3] *= linalg.EPS * rng.uniform(0.1, 4.0)
        elif kind == 3:
            d[:] = rng.integers(-2, 3, n) * scale  # repeated diagonal entries
        _check_kernels(d, e, rng)


# (u, r) of each kind of ladder spectrum builds: the full irrep of a
# 100-qubit chain, a lower irrep with photon number 0, and one without it
LADDERS = [(dim - 51, 50.0) for dim in (1, 2, 5, 21, 101)]
LADDERS += [((dim - 1) / 2, (dim - 1) / 2) for dim in (3, 10, 41)]
LADDERS += [((dim - 1) / 2 + 3, (dim - 1) / 2) for dim in (4, 31, 101)]


@pytest.mark.parametrize("detuning, eta", [(0.03, 0.2), (-0.4, 1.3), (0.0, 0.2), (0.03, 0.0)])
def test_ladders_solve_to_the_same_bytes(monkeypatch, detuning, eta):
    """tridiagonal_eigh with the list kernels and with the array kernels
    patched in, as spectrum runs it: eta = 0 splits every ladder into
    1 x 1 blocks, and zero detuning leaves a zero diagonal."""
    ladders = [build_h1_matrix(subspace(u, r), 0.7, detuning, eta) for u, r in LADDERS]
    solved = [linalg.tridiagonal_eigh(d, e) for d, e in ladders]
    _use_array_kernels(monkeypatch)
    for (d, e), (values, vectors) in zip(ladders, solved):
        old_values, old_vectors = linalg.tridiagonal_eigh(d, e)
        assert _same(values, old_values) and _same(vectors, old_vectors)


def test_oracle_sectors_reduce_to_the_same_eigenvalues():
    # the oracle takes eigenvalues alone: QL without the LU kernels
    for n in range(1, 8):
        config = ChainConfig(n_qubits=n, spacing=0.37, qubit_freq=1.0, photon_freq=1.1, coupling=0.3)
        for u in np.arange(-n / 2, n / 2 + 1.5):
            d, e = linalg.tridiagonalize(sector_hamiltonian(config, u).entries)
            _check_ql(d, e)
