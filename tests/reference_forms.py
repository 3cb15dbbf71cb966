"""Independent routes and test-only helpers kept on the test side.

References for the library's one route each: the deformation factor
R(N, l) for :func:`qchain.deformation_profile`, a state-by-state sector
Hamiltonian for the oracle's vectorized builder, dense collective
operators for the oracle's triplet storage, the dense ladder matrix for
the tridiagonal (d, e) of :func:`qchain.build_h1_matrix`, and the
Householder reduction with ``np.stack`` operands for the oracle's
in-place one, which :func:`tridiagonalize` runs on a copy of a test's
dense matrix, and the array forms of the tridiagonal kernels
(:func:`ql_while`, :func:`lu_arrays`, :func:`lu_solve_arrays`), whose
bits the library's list forms and its float forms of small blocks keep.

References for the stationary points, which the library finds from
their branch structure: the full grid scan :func:`bracketed_roots`, whose
bisection :func:`refine_brackets` evaluates every midpoint, and
:func:`scanned_crossover`, which scans the grid of
:func:`qchain.find_stationary_points` whole.

The CLI's float text by ``float.__repr__`` per value,
:func:`float_repr_join`, for its one float renderer,
``_floattext.repr_join``.

Forms that no command prints and only the tests check: the Chebyshev
stationarity residual, the ladder's characteristic polynomial, the
truncated weak-coupling quartic, the deformed ladder elements, the
sigma_z deviation weights, the Casimir scalar h(m) and the Bloch metric.

Operator helpers for the oracle tests: :func:`eigvalsh` solves any
:class:`qchain.OperatorMatrix` after checking its symmetry on the
triplets, the checked route beside the library's
:func:`qchain.sector_spectrum`, which solves the builder's triplets
unchecked; :func:`dense_operator` stores a dense matrix as an operator,
:func:`commutator` forms AB - BA, :func:`dense_symmetry_refused` is the
dense symmetry test for the triplet one, and :func:`build_hamiltonian`
and :func:`build_excitation_number` build on a truncated Fock space
through the oracle's own private builders, so one Hamiltonian builder
remains.

The oracle's one sector check, :func:`check_oracle_sectors`, holds every
sector of N <= 7 to these reference forms with plain asserts, once a
process, in the test process or in one under another BLAS kernel; :func:`openblas_core` names
the kernel set that numpy's OpenBLAS runs.
"""

import ctypes
import functools
import glob
import itertools
import math
import os

import numpy as np

from qchain import (
    CapacityError,
    ChainConfig,
    ConvergenceError,
    InvalidParameterError,
    OperatorMatrix,
    build_h1_matrix,
    deformation_profile,
    oracle,
    sector_spectrum,
    stationarity_residual,
)
from qchain.algebra import _ladder_product, _validate_deformation
from qchain.config import twice, validate_n_qubits
from qchain.crossover import BISECT_WIDTH, _validate_n
from qchain.linalg import (
    EPS,
    QL_MAX_ITERATIONS,
    _eigenvalues,
    _norm,
    _tridiagonal,
    _tridiagonalize_in_place,
    as_real,
    tridiagonal_eigvalsh,
)
from qchain.oracle import sector_hamiltonian


def cosine_sum(n, spacings):
    """R = 1/2 + (1/2N) * sum_{j=0}^{N-1} cos(2*j*pi*l), summed term by
    term over an array of spacings: O(N) per spacing."""
    ls = np.asarray(spacings, dtype=float)
    j = np.arange(n)
    return 0.5 + np.cos(2.0 * np.pi * np.multiply.outer(ls, j)).sum(axis=-1) / (2.0 * n)


def dirichlet_ratio(n, spacing):
    """Unreduced ratio R = [2N + 1 + sin((2N-1)*pi*l) / sin(pi*l)] / (4N);
    0/0 at integer l, so callers stay away from integers."""
    ratio = math.sin((2 * n - 1) * math.pi * spacing) / math.sin(math.pi * spacing)
    return (2 * n + 1 + ratio) / (4.0 * n)


def sector_hamiltonian_loop(config, total_excitation):
    """Sector Hamiltonian built one product state at a time with Python
    integers: the states (photon number, occupation) with popcount +
    photon number = u + N/2, photon-major, and the dense matrix on them."""
    n = config.n_qubits
    n_max = round(total_excitation + n / 2.0)
    states = [
        (ph, b)
        for ph in range(n_max + 1)
        for b in range(1 << n)
        if bin(b).count("1") + ph == n_max
    ]
    index = {state: i for i, state in enumerate(states)}
    weights = config.coupling_profile()
    h = np.zeros((len(states), len(states)))
    for i, (ph, b) in enumerate(states):
        h[i, i] = config.qubit_freq * (bin(b).count("1") - n / 2.0) + config.photon_freq * ph
        if ph >= 1:
            amp = config.coupling * math.sqrt(ph)
            for j in range(n):
                if not (b >> j) & 1:
                    k = index[(ph - 1, b | (1 << j))]
                    h[k, i] += amp * weights[j]
                    h[i, k] += amp * weights[j]
    return states, h


def collective_ops_dense(config):
    """S_z, S_+, S_- and Sigma_z as dense 2^N x 2^N matrices, diagonals
    set whole and each raising term added into zeros one qubit at a time."""
    n = config.n_qubits
    dim = 1 << n
    occ = np.arange(dim)
    weights = config.coupling_profile()
    s_z = np.diag(np.array([bin(b).count("1") for b in range(dim)]) - n / 2.0)
    diag = np.zeros(dim)
    for j in range(n):
        diag += weights[j] ** 2 * (((occ >> j) & 1) - 0.5)
    s_plus = np.zeros((dim, dim))
    for j in range(n):
        src = occ[((occ >> j) & 1) == 0]
        s_plus[src + (1 << j), src] += weights[j]
    return {"s_z": s_z, "s_plus": s_plus, "s_minus": s_plus.T.copy(), "sigma_z": np.diag(diag)}


def h1_matrix_dense(sub, deformation, detuning, coupling):
    """The ladder interaction matrix as a dense dim x dim array, its
    off-diagonal filled one validated ladder element at a time."""
    R = _validate_deformation(deformation)
    u = sub.total_excitation
    r = sub.total_spin
    ns = np.asarray(sub.photon_numbers)
    h = np.diag(float(detuning) * ns.astype(float))
    for k, n in enumerate(ns[:-1]):
        amp = float(coupling) * math.sqrt(n + 1) * ladder_element(r, u - n - 1, R)
        h[k, k + 1] = amp
        h[k + 1, k] = amp
    return h


def tridiagonalize(matrix):
    """Householder reduction of a real symmetric matrix to its tridiagonal
    (d, e), as the oracle runs it, on the copy :func:`as_real` makes, so
    ``matrix`` is left as it is; (d, e) are scaled back to ``matrix``'s
    own scale.  Like the library's reduction it checks neither shape nor
    symmetry."""
    d, e, scale = _tridiagonalize_in_place(as_real(matrix))
    return np.ldexp(d, scale), np.ldexp(e, scale)


def tridiagonalize_stack(matrix):
    """Householder reduction as :func:`tridiagonalize`, with
    the rank-2 update's [v q] and [q; v] operands built by ``np.stack``
    each column."""
    a = as_real(matrix)
    n = a.shape[0]
    e = np.zeros(max(n - 1, 0))
    for k in range(n - 2):
        x = a[k + 1 :, k]
        alpha = math.sqrt(float(x @ x))
        if alpha == 0.0:
            continue
        if x[0] > 0.0:
            alpha = -alpha
        v = x.copy()
        v[0] -= alpha
        h = alpha * alpha - alpha * float(x[0])
        e[k] = alpha
        rest = a[k + 1 :, k + 1 :]
        p = (rest @ v) / h
        q = p - (float(v @ p) / (2.0 * h)) * v
        rest -= np.stack((v, q), axis=1) @ np.stack((q, v))
    if n >= 2:
        e[n - 2] = a[n - 1, n - 2]
    return a.diagonal().copy(), e


def ql_while(d: list, e: list, tiny: float) -> list:
    """:func:`qchain.linalg._ql` as a bounded deflation scan and a
    ``while`` sweep that reads ``d[i + 1]`` from the list each step."""
    n = len(d)
    d = list(d)
    e = list(e) + [0.0]
    for l in range(n):
        iterations = 0
        while True:
            m = l
            while m < n - 1 and abs(e[m]) > tiny:
                m += 1
            if m == l:
                break
            if iterations >= QL_MAX_ITERATIONS:
                raise ConvergenceError(f"eigenvalue {l} not converged")
            iterations += 1
            g = (d[l + 1] - d[l]) / (2.0 * e[l])
            r = math.hypot(g, 1.0)
            g = d[m] - d[l] + e[l] / (g + math.copysign(r, g))
            s = c = 1.0
            p = 0.0
            i = m - 1
            while i >= l:
                f = s * e[i]
                b = c * e[i]
                r = math.hypot(f, g)
                e[i + 1] = r
                if r == 0.0:
                    d[i + 1] -= p
                    e[m] = 0.0
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
                i -= 1
            else:
                d[l] -= p
                e[l] = g
                e[m] = 0.0
    return sorted(d)


def lu_arrays(d, e, shifts, tiny):
    """:func:`qchain.linalg._lu` on the list ``shifts``, storing each
    factor row into a preallocated (m, k) array.  The last rows of ``u1``
    and ``u2`` are never written: compare only their first m - 1 rows."""
    m = d.size
    k = len(shifts)
    shifts = np.array(shifts)
    u0 = np.empty((m, k))
    u1 = np.empty((m, k))
    u2 = np.empty((m, k))
    mult = np.empty((m - 1, k))
    swap = np.empty((m - 1, k), dtype=bool)
    w0 = d[0] - shifts
    w1 = np.full(k, e[0])
    for i in range(m - 1):
        a_next = d[i + 1] - shifts
        c_next = e[i + 1] if i + 1 < m - 1 else 0.0
        s = np.abs(w0) < abs(e[i])
        swap[i] = s
        u0[i] = np.where(s, e[i], w0)
        u1[i] = np.where(s, a_next, w1)
        u2[i] = np.where(s, c_next, 0.0)
        mult[i] = mu = np.where(s, w0, e[i]) / u0[i]
        w0 = np.where(s, w1, a_next) - mu * u1[i]
        w1 = np.where(s, 0.0, c_next) - mu * u2[i]
    u0[m - 1] = np.where(np.abs(w0) < tiny, np.where(w0 < 0.0, -tiny, tiny), w0)
    return u0, u1, u2, mult, swap


def lu_solve_arrays(factors, b: np.ndarray) -> np.ndarray:
    """:func:`qchain.linalg._lu_solve` on the factor arrays of
    :func:`lu_arrays`, storing each solve row into an array."""
    u0, u1, u2, mult, swap = factors
    m = b.shape[0]
    y = np.empty_like(b)
    carry = b[0]
    for i in range(m - 1):
        s = swap[i]
        y[i] = np.where(s, b[i + 1], carry)
        carry = np.where(s, carry, b[i + 1]) - mult[i] * y[i]
    y[m - 1] = carry
    x = np.empty_like(b)
    x[m - 1] = y[m - 1] / u0[m - 1]
    if m >= 2:
        x[m - 2] = (y[m - 2] - u1[m - 2] * x[m - 1]) / u0[m - 2]
    for i in range(m - 3, -1, -1):
        x[i] = (y[i] - u1[i] * x[i + 1] - u2[i] * x[i + 2]) / u0[i]
    return x


def float_repr_join(rows: np.ndarray, seps) -> str:
    """The text of ``_floattext.repr_join(rows, seps)`` by ``float.__repr__``
    per value, in one C-level map: each value of the float64 array ``rows``,
    read row by row, then its column's separator."""
    cells = [part for sep in seps for part in (None, sep)] * (rows.size // len(seps))
    cells[::2] = map(float.__repr__, rows.ravel().tolist())
    return "".join(cells)


def chebyshev_residual(n_qubits: int, spacing):
    """Chebyshev form U_{2N-1}(x) - 2N*T_{2N-1}(x) at x = cos(pi*l),
    evaluated by the stable three-term recurrence
    T_{k+1} = 2x*T_k - T_{k-1} (same for U, seeded U_1 = 2x).  Shares its
    zeros on (0, 1) with :func:`qchain.crossover.stationarity_residual`.
    """
    n = _validate_n(n_qubits)
    x = np.cos(np.pi * np.asarray(spacing, dtype=float))
    t_prev = np.ones_like(x)
    t_cur = x.copy()
    u_prev = np.ones_like(x)
    u_cur = 2.0 * x
    for _ in range(2 * n - 2):
        t_prev, t_cur = t_cur, 2.0 * x * t_cur - t_prev
        u_prev, u_cur = u_cur, 2.0 * x * u_cur - u_prev
    out = u_cur - 2.0 * n * t_cur
    return float(out) if np.isscalar(spacing) else out


# roots closer than this to the last one kept are dropped: a full scan of a
# grid finer than the rounding noise around a zero can bracket it twice
DEDUPE_TOL = 1e-10


def refine_brackets(func, a, b, fa, fb, zeros) -> np.ndarray:
    """Roots of a vectorized scalar function, ascending: bisect each
    sign-change bracket [a, b] (``fa``, ``fb`` the function at its ends),
    evaluating every midpoint, to width <= 1e-12, polish with secant steps,
    add the exact ``zeros`` and deduplicate within 1e-10, one root at a
    time.  The reference for :func:`qchain.crossover._refine_brackets`,
    which trusts the branch estimates of the zeros away from them.
    """
    roots = zeros.tolist()
    if a.size:
        while np.max(b - a) > BISECT_WIDTH:
            mid = 0.5 * (a + b)
            fm = np.asarray(func(mid), dtype=float)
            take_left = fa * fm <= 0.0
            b = np.where(take_left, mid, b)
            fb = np.where(take_left, fm, fb)
            a = np.where(take_left, a, mid)
            fa = np.where(take_left, fa, fm)
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
        fa_abs = np.abs(np.asarray(func(a), dtype=float))
        fb_abs = np.abs(np.asarray(func(b), dtype=float))
        roots.extend(np.where(fa_abs <= fb_abs, a, b).tolist())
    roots.sort()
    deduped = []
    for root in roots:
        if not deduped or root - deduped[-1] > DEDUPE_TOL:
            deduped.append(root)
    return np.array(deduped)


def bracketed_roots(func, lo: float, hi: float, num_points: int) -> np.ndarray:
    """Roots of a vectorized scalar function on [lo, hi] by a full grid
    scan: every sign change of ``func`` on ``np.linspace(lo, hi,
    num_points)`` is a bracket and every grid point where it is exactly 0 a
    root; :func:`refine_brackets` then bisects, polishes and deduplicates.
    The reference for :func:`qchain.crossover.find_stationary_points`,
    which evaluates only the cells its branch structure names.
    """
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo >= hi:
        raise InvalidParameterError(f"bad scan interval [{lo!r}, {hi!r}]")
    xs = np.linspace(lo, hi, max(int(num_points), 2))
    fs = np.asarray(func(xs), dtype=float)
    sign = np.sign(fs)
    idx = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    return refine_brackets(func, xs[idx], xs[idx + 1], fs[idx], fs[idx + 1], xs[fs == 0.0])


def scanned_crossover(n_qubits) -> tuple[np.ndarray, float]:
    """The stationary points in (0, 1/2] and l* of
    :func:`qchain.crossover_point` by the full scan of its grid, 20*(2N-1)
    points per unit of l from 0.1/(2N-1) to two steps past 1/2."""
    k = 2 * n_qubits - 1
    l_min, l_max = 0.1 / k, 0.5 + 2.0 / (20 * k)
    num = int(math.ceil((l_max - l_min) * 20 * k)) + 1
    points = bracketed_roots(lambda l: stationarity_residual(n_qubits, l), l_min, l_max, num)
    points = points[points <= 0.5 + 1e-9]
    return points, float(points[np.argmin(deformation_profile(n_qubits, points))])


def characteristic_polynomial(sub, deformation, detuning, coupling) -> np.ndarray:
    """Monic characteristic polynomial of the subspace interaction matrix,
    ascending coefficient order (numpy polynomial convention), obtained by
    running the three-term recursion with symbolic v.  Its roots are the
    interaction eigenvalues.
    """
    d, e = build_h1_matrix(sub, deformation, detuning, coupling)
    prev = np.array([1.0])  # p_0
    cur = np.array([-d[0], 1.0])  # v - d_0
    for k in range(1, d.size):
        shifted = np.concatenate(([0.0], cur)) - d[k] * np.concatenate((cur, [0.0]))
        nxt = shifted - e[k - 1] * e[k - 1] * np.concatenate((prev, [0.0, 0.0]))
        prev, cur = cur, nxt
    return cur


def truncated_quartic_coefficients(deformation, detuning, coupling) -> np.ndarray:
    """Weak-coupling quartic v^4 - 6*dw*v^3 + 11*dw^2*v^2 - 6*dw^3*v
    - 36*R*eta^2*dw^2, ascending order.  Its exact roots are the
    energies of :func:`qchain.weak_coupling_energies` minus qubit_freq.
    """
    R = _validate_deformation(deformation)
    dw = float(detuning)
    eta = float(coupling)
    return np.array([-36.0 * R * eta**2 * dw**2, -6.0 * dw**3, 11.0 * dw**2, -6.0 * dw, 1.0])


def ladder_element(total_spin, moment, deformation) -> float:
    """Deformed ladder element alpha_m^(r) = sqrt(R*(r-m)*(r+m+1)).

    Conventions: S+|r,m> = alpha_m^(r) |r,m+1> and
    S-|r,m> = alpha_{m-1}^(r) |r,m-1>, so alpha_r^(r) = 0 at the top of
    the ladder.  r and m must be half-integers with -r <= m <= r and
    r - m integral.
    """
    r2 = twice(total_spin)
    m2 = twice(moment)
    R = _validate_deformation(deformation)
    if r2 < 0:
        raise InvalidParameterError(f"total_spin must be >= 0, got {total_spin!r}")
    if not -r2 <= m2 <= r2:
        raise InvalidParameterError(f"moment {moment!r} outside [-r, r] for r = {total_spin!r}")
    if (r2 - m2) % 2 != 0:
        raise InvalidParameterError(f"r - m must be an integer, got r = {total_spin!r}, m = {moment!r}")
    return math.sqrt(R * _ladder_product(r2, m2))


def sigma_z_deviation_weights(n_qubits, spacing) -> np.ndarray:
    """Weights w_j = sin(j*pi*(1+l)) * sin(j*pi*(1-l)) of the extra
    single-qubit sigma_z terms in the ladder commutator:
    [S+, S-] = 2*(S_z + sum_j w_j sigma_{j,z}).

    Equivalently w_j = (cos(2*j*pi*l) - 1) / 2; all w_j vanish at
    integer l, recovering the undeformed algebra.
    """
    j = np.arange(validate_n_qubits(n_qubits))
    return np.sin(j * np.pi * (1.0 + spacing)) * np.sin(j * np.pi * (1.0 - spacing))


def casimir_h(moment, deformation) -> float:
    """Scalar part h(m) = R*(m^2 + m) of the deformed Casimir operator
    C = S-S+ + h(S_z).  Minimum over real m is -R/4 at m = -1/2.
    """
    m2 = twice(moment)
    R = _validate_deformation(deformation)
    return R * (m2 * m2 + 2 * m2) / 4.0


def bloch_metric(deformation) -> tuple[float, float, float]:
    """Metric (1, 1, R) of the deformed Bloch ellipsoid; R = 1 gives the
    unit sphere of the homogeneous case.
    """
    R = _validate_deformation(deformation)
    return (1.0, 1.0, R)


SYMMETRY_TOL = 1e-12


def eigvalsh(operator: OperatorMatrix) -> np.ndarray:
    """Ascending eigenvalues of a symmetric :class:`qchain.OperatorMatrix`,
    by Householder reduction and implicit QL; no eigenvectors are formed.
    Raises :class:`InvalidParameterError` if an entry and its mirror
    differ by more than ``SYMMETRY_TOL`` times max(1, largest |entry|).

    Symmetry is checked on the triplets: every nonzero of the dense matrix
    is a triplet, so the largest |a[c, r] - v| over the triplets (r, c, v)
    is the largest entry of |A - A^T|, and no second dim^2 array is formed.
    """
    # the dense matrix is formed anew for this solve, so it is reduced in place
    a, values = operator.entries, operator.values
    defect = np.abs(a[operator.cols, operator.rows] - values).max(initial=0.0)
    if defect > SYMMETRY_TOL * max(1.0, np.abs(values).max(initial=0.0)):
        raise InvalidParameterError("the eigensolver requires a symmetric matrix")
    return _eigenvalues(*_tridiagonalize_in_place(a))


def _bits(*arrays) -> tuple:
    return tuple(np.asarray(a, dtype=float).tobytes() for a in arrays)


# the spacings and photon frequencies of the in-process oracle sector check
SECTOR_SPACINGS = (0.37, 2.0 / 3.0, 1.4, 0.0)
SECTOR_PHOTON_FREQS = (1.0, 1.1)


@functools.cache
def check_oracle_sectors(spacings, photon_freqs) -> int:
    """Check every oracle sector of N = 1..7 qubits, u = -N/2 .. N/2 + 1
    (one photon past a full chain), at w_q = 1 and eta = 0.3, at each of
    ``spacings`` and ``photon_freqs``, and return how many were checked.

    On each sector, byte for byte: the in-place reduction of a copy of the
    Hamiltonian, unscaled, is :func:`tridiagonalize_stack`'s; and
    :func:`ql_while` on it, ``tridiagonal_eigvalsh`` of it (``_ql`` at
    scale 0), :func:`qchain.sector_spectrum`, which solves the builder's
    triplets, and :func:`eigvalsh` of the Hamiltonian agree.  Plain
    asserts, so that a process under another BLAS kernel runs the same
    check.  A check that passed is not run again in the same process with
    the same arguments; one that failed raises again on its next call.
    """
    sectors = 0
    for n, spacing, photon_freq in itertools.product(range(1, 8), spacings, photon_freqs):
        config = ChainConfig(n, spacing, qubit_freq=1.0, photon_freq=photon_freq, coupling=0.3)
        for u in np.arange(-n / 2, n / 2 + 1.5):
            operator = sector_hamiltonian(config, u)
            h = operator.entries
            *reduced, scale = _tridiagonalize_in_place(h.copy())
            assert scale == 0 and _bits(*reduced) == _bits(*tridiagonalize_stack(h)), (n, u)
            d, e, _ = _tridiagonal(*reduced)
            reference = _bits(ql_while(d.tolist(), e.tolist(), EPS * _norm(d, e)))
            # eigvalsh reduces h in place, so it runs after every other use of h
            solved = (tridiagonal_eigvalsh(*reduced), sector_spectrum(config, u), eigvalsh(operator))
            assert _bits(*solved) == reference * 3, (n, u)
            sectors += 1
    return sectors


def openblas_core() -> str:
    """The name of the kernel set that numpy's bundled OpenBLAS runs on
    this host, or ``"unknown"`` where no bundled OpenBLAS is found or it
    does not name its kernels."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    corename = getattr(ctypes.CDLL(libs[0]), "scipy_openblas_get_corename64_", None) if libs else None
    if corename is None:
        return "unknown"
    corename.argtypes = []
    corename.restype = ctypes.c_char_p
    return corename().decode()


def dense_operator(entries, basis) -> OperatorMatrix:
    """The operator of a dense matrix on ``basis``, its nonzeros as triplets."""
    entries = np.asarray(entries)
    rows, cols = np.nonzero(entries)
    return OperatorMatrix(basis, rows, cols, entries[rows, cols])


def dense_symmetry_refused(matrix) -> bool:
    """Whether any entry of |A - A^T| exceeds ``SYMMETRY_TOL`` times
    max(1, largest |entry|), tested on the dense matrix with its dim^2
    temporary: the decision :func:`eigvalsh` takes on the triplets."""
    a = np.asarray(matrix, dtype=float)
    top = np.abs(a).max(initial=0.0)
    return bool(np.abs(a - a.T).max(initial=0.0) > SYMMETRY_TOL * max(1.0, top))


def commutator(a, b) -> OperatorMatrix:
    """AB - BA on a shared basis, by dense matrix products."""
    if not np.array_equal(a.basis, b.basis):
        raise InvalidParameterError("operators live on different bases")
    return dense_operator(a.entries @ b.entries - b.entries @ a.entries, a.basis)


# the oracle's qubit cap bounds each basis it builds: a sector or the
# collective qubit space holds at most 2^N states
MAX_DENSE_DIM = 1 << oracle.MAX_QUBITS


def _truncated_basis(config, fock_cutoff):
    """Every product state with at most ``fock_cutoff`` photons, within the
    oracle's qubit cap and a dense dimension of ``MAX_DENSE_DIM``."""
    if not isinstance(fock_cutoff, (int, np.integer)) or fock_cutoff < 0:
        raise InvalidParameterError(f"fock_cutoff must be an integer >= 0, got {fock_cutoff!r}")
    n = config.n_qubits
    oracle._check_capacity(n)
    dim = (1 << n) * (int(fock_cutoff) + 1)
    if dim > MAX_DENSE_DIM:
        raise CapacityError(f"dense dimension {dim} exceeds {MAX_DENSE_DIM}")
    return oracle._grid(n, range(fock_cutoff + 1))


def build_hamiltonian(config, fock_cutoff) -> OperatorMatrix:
    """Rotating-wave Hamiltonian truncated at photon number ``fock_cutoff``::

        H = w_q * sum_j sigma_{j,z} + w_0 * a^dag a
            + eta * sum_j cos(j*pi*l) * (sigma_{j,+} a + sigma_{j,-} a^dag)

    on the 2^N * (fock_cutoff+1) product space, photon-major ordering, by
    the oracle's sector builder.
    """
    basis = _truncated_basis(config, fock_cutoff)
    return OperatorMatrix(basis, *oracle._hamiltonian(config, basis))


def build_excitation_number(config, fock_cutoff) -> OperatorMatrix:
    """Conserved excitation number S_z + a^dag a on the same basis as
    :func:`build_hamiltonian`."""
    basis = _truncated_basis(config, fock_cutoff)
    n = config.n_qubits
    excited = oracle._bits(basis[:, 1], n).sum(axis=0)
    return oracle._diagonal(basis, excited - n / 2.0 + basis[:, 0])
