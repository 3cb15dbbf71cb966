"""The tridiagonal kernels keep the bits of their array forms.

:func:`qchain.linalg._ql` carries its state in Python lists.  Inverse
iteration has two LU kernel pairs with one signature, and the block's
dimension m alone picks one: ``_lu_floats`` and ``_lu_solve_floats`` run
one shift at a time on Python floats up to ``FLOAT_LU_MAX_DIM``, and
``_lu`` and ``_lu_solve`` one numpy row per matrix row above it.
``reference_forms`` keeps the array forms they replaced (:func:`ql_while`,
:func:`lu_arrays`, :func:`lu_solve_arrays`).  Every comparison is by
``tobytes``, with both kernel pairs called on the same arguments: on
random tridiagonals and Wilkinson matrices, whose coincident shifts,
clusters and vanishing last pivots run every branch of inverse iteration,
on 2 x 2 blocks, the smallest that reach the solves, on the ladders
``spectrum`` builds, with blocks on both sides of ``FLOAT_LU_MAX_DIM``.
A line tracer shows that each way ``_ql`` takes a block end from a sweep
runs.  The oracle's sectors have one check, :func:`check_oracle_sectors`,
which holds their reduction, QL and sector solve to the reference forms
and runs once a process: ``test_oracle`` calls it, and a test here calls
it in process while a subprocess calls it under another OpenBLAS kernel.
"""

import inspect
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qchain.linalg as linalg
from qchain import ChainConfig
from qchain.oracle import sector_hamiltonian
from qchain.spectra import build_h1_matrix, subspace
from reference_forms import (
    SECTOR_PHOTON_FREQS,
    SECTOR_SPACINGS,
    check_oracle_sectors,
    lu_arrays,
    lu_solve_arrays,
    ql_while,
    tridiagonalize,
)


def _same(new, old) -> bool:
    new, old = np.asarray(new), np.asarray(old)
    return new.dtype == old.dtype and new.shape == old.shape and new.tobytes() == old.tobytes()


def _check_ql(d, e):
    d, e, _ = linalg._tridiagonal(d, e)
    tiny = linalg.EPS * linalg._norm(d, e)
    assert _same(linalg._ql(d.tolist(), e.tolist(), tiny), ql_while(d.tolist(), e.tolist(), tiny))
    return d, e, tiny


def _check_kernels(d, e, rng):
    """QL on the whole matrix, then the LU factors and a solve on each
    unreduced block, shifted by the block's eigenvalues, by both kernel
    pairs on the same arguments and by the array forms.  Returns the number
    of last pivots moved off 0."""
    d, e, tiny = _check_ql(d, e)
    cuts = np.concatenate(([0], np.flatnonzero(np.abs(e) <= tiny) + 1, [d.size]))
    moved = 0
    for lo, hi in zip(cuts[:-1].tolist(), cuts[1:].tolist()):
        m = hi - lo
        if m < 2:
            continue
        block_d, block_e = d[lo:hi], e[lo : hi - 1]
        shifts = ql_while(block_d.tolist(), block_e.tolist(), tiny)
        small = linalg.EPS * linalg._norm(block_d, block_e)
        new = linalg._lu(block_d, block_e, shifts, small)
        floats = linalg._lu_floats(block_d, block_e, shifts, small)
        old = lu_arrays(block_d, block_e, shifts, small)
        # u0 has m rows; u1, u2, the multipliers and the swaps m - 1 written ones
        for new_rows, per_shift, old_rows, written in zip(
            new, zip(*floats), old, (m, m - 1, m - 1, m - 1, m - 1)
        ):
            assert _same(np.array(new_rows).reshape(written, m), old_rows[:written])
            assert _same(np.array(per_shift).T, old_rows[:written])
        moved += int(np.count_nonzero(np.abs(old[0][m - 1]) == small))
        b = rng.standard_normal((m, m))
        expected = lu_solve_arrays(old, b)
        for factors, solve in ((new, linalg._lu_solve), (floats, linalg._lu_solve_floats)):
            solved = solve(factors, b)
            assert _same(solved, expected) and solved.flags.c_contiguous
    return moved


def _wilkinson(m):
    """Wilkinson's W+ matrix of odd dimension m: d = |k - (m - 1)/2|, e = 1.
    Its eigenvalues come in pairs that agree to within rounding, whose
    shifts inverse iteration perturbs apart, in clusters that it
    re-orthogonalizes, and integer entries make some last pivots 0."""
    return np.abs(np.arange(m) - (m - 1) / 2), np.ones(m - 1)


# one Wilkinson block on each side of FLOAT_LU_MAX_DIM
WILKINSON_DIMS = (23, 41)


def _use_array_kernels(monkeypatch):
    """Every block through the numpy route, patched with the array forms."""
    monkeypatch.setattr(linalg, "FLOAT_LU_MAX_DIM", 0)
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
    moved = sum(_check_kernels(*_wilkinson(m), rng) for m in WILKINSON_DIMS)
    assert moved > 0


# (u, r) of each kind of ladder spectrum builds: the full irrep of a
# 100-qubit chain, a lower irrep with photon number 0, and one without it
LADDERS = [(dim - 51, 50.0) for dim in (1, 2, 5, 21, 101)]
LADDERS += [((dim - 1) / 2, (dim - 1) / 2) for dim in (3, 10, 41)]
LADDERS += [((dim - 1) / 2 + 3, (dim - 1) / 2) for dim in (4, 31, 101)]


@pytest.mark.parametrize("detuning, eta", [(0.03, 0.2), (-0.4, 1.3), (0.0, 0.2), (0.03, 0.0)])
def test_ladders_solve_to_the_same_bytes(monkeypatch, detuning, eta):
    """tridiagonal_eigh with the list and float kernels and with the array
    kernels patched in, as spectrum runs it: eta = 0 splits every ladder
    into 1 x 1 blocks, and zero detuning leaves a zero diagonal.  At
    eta > 0 each ladder is one unreduced block, and they lie on both sides
    of FLOAT_LU_MAX_DIM."""
    ladders = [build_h1_matrix(subspace(u, r), 0.7, detuning, eta) for u, r in LADDERS]
    if eta > 0.0:
        assert all(np.all(e != 0.0) for _, e in ladders)
        sizes = [d.size for d, _ in ladders]
        assert min(sizes) <= linalg.FLOAT_LU_MAX_DIM < max(sizes)
    solved = [linalg.tridiagonal_eigh(d, e) for d, e in ladders]
    _use_array_kernels(monkeypatch)
    for (d, e), (values, vectors) in zip(ladders, solved):
        old_values, old_vectors = linalg.tridiagonal_eigh(d, e)
        assert _same(values, old_values) and _same(vectors, old_vectors)


@pytest.mark.parametrize("m", WILKINSON_DIMS)
def test_inverse_iteration_branches_solve_to_the_same_bytes(monkeypatch, m):
    """A Wilkinson block on each route runs the shift perturbation of
    coincident eigenvalues and the cluster Gram-Schmidt, and keeps the
    bits of the array kernels."""
    d, e = _wilkinson(m)
    values = np.array(ql_while(d.tolist(), e.tolist(), linalg.EPS * linalg._norm(d, e)))
    assert WILKINSON_DIMS[0] <= linalg.FLOAT_LU_MAX_DIM < WILKINSON_DIMS[1]
    lines = _lines_run(linalg._block_vectors, d, e, values)
    for text in ("shifts[j] = shifts[j - 1] + pertol", "x[:, j] -= prev @ (prev.T @ x[:, j])"):
        assert _line(linalg._block_vectors, text) in lines, text
    solved = linalg.tridiagonal_eigh(d, e)
    _use_array_kernels(monkeypatch)
    for new, old in zip(solved, linalg.tridiagonal_eigh(d, e)):
        assert _same(new, old)


@pytest.mark.parametrize("d, e", [([0.3, -1.2], [0.7]), ([2.0, 2.0], [1.0])], ids=["plain", "swap-tie"])
def test_two_by_two_blocks_solve_to_the_same_bytes(monkeypatch, d, e):
    """m = 2, the smallest block that reaches the solves: their back
    substitution runs its last two rows alone, with no loop step.  The
    float kernels, the numpy kernels and the array forms give the same
    bytes; the second block ties in the swap test at its eigenvalue 3."""
    d, e = np.array(d), np.array(e)
    _check_kernels(d, e, np.random.default_rng(2))
    on_floats = linalg.tridiagonal_eigh(d, e)
    monkeypatch.setattr(linalg, "FLOAT_LU_MAX_DIM", 0)
    on_rows = linalg.tridiagonal_eigh(d, e)
    _use_array_kernels(monkeypatch)
    for floats, rows, old in zip(on_floats, on_rows, linalg.tridiagonal_eigh(d, e)):
        assert _same(floats, old) and _same(rows, old)


def _lines_run(function, *args):
    """The line numbers of ``function``'s own frame that run on ``args``,
    recorded by a line tracer that this test installs and removes."""
    code = function.__code__
    seen = set()

    def on_line(frame, event, arg):
        if event == "line":
            seen.add(frame.f_lineno)
        return on_line

    def on_call(frame, event, arg):
        return on_line if frame.f_code is code else None

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        function(*args)
    finally:
        sys.settrace(previous)
    return seen


def _line(function, text):
    """The line number of the one line of ``function`` that reads ``text``."""
    lines, first = inspect.getsourcelines(function)
    found = [first + k for k, line in enumerate(lines) if line.strip() == text]
    assert len(found) == 1, text
    return found[0]


# 2**-1064 times small integers: the rotations underflow to exactly 0
UNDERFLOWING = ([-6.0 * 2.0**-1064, 0.0, -5.0 * 2.0**-1064], [-8.0 * 2.0**-1064, -7.0 * 2.0**-1064])
# the Householder (d, e) of the dim-8 sector N = 7, u = -2.5 at l = 0.37,
# w_q = 1, w_0 = 1.1 and eta = 0.3, as an AVX-512 (SkylakeX) OpenBLAS kernel
# rounds it; stored as bits, because other kernels round its rounding-level
# off-diagonals otherwise, and then no sweep ends a block mid-sweep
SPLITTING = tuple(
    [float.fromhex(x) for x in bits.split()]
    for bits in (
        "-0x1.4000000000000p+1 -0x1.3333333333332p+1 -0x1.4000000000003p+1 -0x1.4000000000004p+1"
        " -0x1.4000000000000p+1 -0x1.4000000000000p+1 -0x1.4000000000000p+1 -0x1.4000000000003p+1",
        "0x1.3333333333333p-2 0x1.05b6360913249p-1 0x1.18618683d914ep-50 0x1.fd2052168c389p-52"
        " 0x1.0a2098ee20dd9p-50 0x1.0b384bb40533fp-49 -0x1.da073b12d3e9dp-50",
    )
)


@pytest.mark.parametrize(
    "case, branch",
    [
        ("split", "end = above"),  # a rewritten off-diagonal ends the block mid-sweep
        ("converged", "break  # converged, and m ends the block of eigenvalue l + 1"),
        ("restart", "m = above"),  # a rotation underflowed to 0
    ],
)
def test_ql_takes_each_block_end_from_the_sweep(case, branch):
    """Each way a sweep ends a block runs, and keeps the bits of the
    reference that scans for the block end before every sweep."""
    if case == "restart":
        # reached by a direct call on subnormal entries with tiny = 0; no
        # input found through _tridiagonal, which scales every matrix into
        # 2**(+-400) and whose QL runs at tiny = eps * ||T||, reaches it
        d, e = UNDERFLOWING
        tiny = 0.0
    else:
        config = ChainConfig(n_qubits=7, spacing=0.37, qubit_freq=1.0, photon_freq=1.1, coupling=0.3)
        reduced = tridiagonalize(sector_hamiltonian(config, -2.5).entries)
        assert all(np.allclose(x, y, rtol=0.0, atol=1e-13) for x, y in zip(reduced, SPLITTING))
        d, e, _ = linalg._tridiagonal(*SPLITTING)
        tiny = linalg.EPS * linalg._norm(d, e)
        d, e = d.tolist(), e.tolist()
    assert _line(linalg._ql, branch) in _lines_run(linalg._ql, d, e, tiny)
    assert _same(linalg._ql(d, e, tiny), ql_while(d, e, tiny))


# the oracle sector check at two of its spacings, with the kernel set
# OpenBLAS names
OTHER_KERNEL_SCRIPT = """
from reference_forms import check_oracle_sectors, openblas_core
print(openblas_core(), check_oracle_sectors((0.37, 2.0 / 3.0), (1.0, 1.1)))
"""


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"), reason="x86-64 BLAS kernels")
def test_oracle_kernels_keep_their_bits_under_another_blas_kernel():
    """The oracle's reduction, QL and sector solve against their reference
    forms in a process whose OpenBLAS runs its Prescott kernels: the column
    step adds no dependence on the kernel that the BLAS products do not
    have.  While the subprocess runs, this process runs the in-process
    check of every sector, which ``test_oracle`` then finds done."""
    tests = Path(__file__).resolve().parent
    env = dict(
        os.environ,
        OPENBLAS_CORETYPE="Prescott",
        PYTHONPATH=os.pathsep.join((str(tests.parent / "src"), str(tests))),
    )
    other_kernel = subprocess.Popen(
        [sys.executable, "-c", OTHER_KERNEL_SCRIPT],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        assert check_oracle_sectors(SECTOR_SPACINGS, SECTOR_PHOTON_FREQS) == 336
    finally:
        stdout, stderr = other_kernel.communicate(timeout=120)
    assert other_kernel.returncode == 0, stderr
    core, sectors = stdout.split()
    # OpenBLAS names the kernel set that OPENBLAS_CORETYPE=Prescott selects
    # Katmai; "unknown" where the library does not name its kernels
    assert core in ("Prescott", "Katmai", "unknown"), core
    assert int(sectors) == sum(n + 2 for n in range(1, 8)) * 4
