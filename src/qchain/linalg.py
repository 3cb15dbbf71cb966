"""Real symmetric eigensolver: Householder reduction, implicit QL and
inverse iteration.

A dense symmetric matrix is first reduced to tridiagonal form (d, e) by
Householder reflections (Wilkinson, *The Algebraic Eigenvalue Problem*,
1965, ch. 5).  Eigenvalues of a tridiagonal matrix come from the implicit
QL algorithm with Wilkinson shifts (EISPACK ``tql1``; Bowdler, Martin,
Reinsch & Wilkinson, *Numer. Math.* 11, 1968).  Eigenvectors come from
inverse iteration on each unreduced block, run for all of the block's
eigenvalues at once, with the vectors of close eigenvalues re-orthogonalized
as in LAPACK ``dstein``.

The sequential kernels keep their state in Python objects.  QL works on
lists of floats.  The LU factorization and solves of inverse iteration
(LAPACK ``dlagtf``/``dlagts``) have two kernel pairs with one signature:
each factors the block's (d, e) at a list of shifts, and each solves an
(m, k) array to a C-ordered (m, k) array.  The block's dimension m alone
picks one, as LAPACK picks its blocked routes by NX: up to
``FLOAT_LU_MAX_DIM``, :func:`_lu_floats` and :func:`_lu_solve_floats` run
one shift at a time on Python floats; above it, :func:`_lu` and
:func:`_lu_solve` hold one numpy row per matrix row, with one value per
shift, in Python lists.  Both pairs do the same IEEE operations in the
same order, so they give the same bits.  QL scans the off-diagonals for
the end of an unreduced block only where no sweep has told it, as each
sweep yields the block end that a scan after it would find; a Householder
column reads its scalars once as Python floats and forms q with one
temporary.  Neither moves a bit: each BLAS product keeps its operands,
shapes, layouts and order.

A matrix whose largest entry lies outside 2**-SAFE_EXPONENT to
2**SAFE_EXPONENT is solved scaled by 2**-scale, where scale is the binary
exponent of that entry, and its output is scaled back, as LAPACK
``dsterf`` and ``dsyev`` scale through ``dlascl`` outside their safe
range.  :func:`_scale_down` alone decides and applies that scaling, for a
dense matrix, a (d, e) and copies of the two operators that
``oracle.hs_projection`` sums over; :func:`_eigenvalues` runs QL and
scales back for ``tridiagonal_eigvalsh`` and ``oracle.sector_spectrum``;
``tridiagonal_eigh`` cuts its blocks at QL's threshold and scales back
itself, both through :func:`_scale_back`.
So no square of an entry overflows, and none underflows unless the
entries span more than 2**111 (2**511 once scaled); inside the safe range
nothing is scaled, and outside it, as a power of two commutes with
rounding in the normal range, no bit moves either.  ``np.ldexp`` scales
without forming 2**-scale, which overflows for scale below -1023
(``dlascl`` takes such a factor in two steps).  A Householder column
whose squares still underflow is reflected scaled by 2**511, which gives
the same reflection, and its off-diagonal is scaled back at once.  A
matrix of finite entries can still have eigenvalues beyond float range:
:func:`_scale_back` refuses them with :class:`InvalidParameterError`.

Every routine is deterministic: the same input gives the same output bits.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConvergenceError, InvalidParameterError

__all__ = [
    "QL_MAX_ITERATIONS",
    "INVERSE_MAX_SWEEPS",
    "as_real",
    "tridiagonal_eigvalsh",
    "tridiagonal_eigh",
]

EPS = float(np.finfo(float).eps)
QL_MAX_ITERATIONS = 30  # per eigenvalue, as in EISPACK tql1
INVERSE_MAX_SWEEPS = 5  # solves per vector, as LAPACK dstein's MAXITS
CLUSTER_GAP = 1e-3  # eigenvalues closer than this times ||T|| are re-orthogonalized
RESIDUAL_TOL = 16.0 * EPS  # converged: ||T x - lambda x|| <= RESIDUAL_TOL * dim * ||T||
SIGNIFICANT_COMPONENT = 1e-8
SMALLEST_NORMAL = float(np.finfo(float).tiny)
UNDERFLOW_SHIFT = 511  # 2**-511 is about the square root of SMALLEST_NORMAL
# no scaling while the largest entry is within 2**(+-SAFE_EXPONENT): the
# squares of such entries, and their sums over any dimension below 2**200,
# are normal and finite
SAFE_EXPONENT = 400
# inverse iteration starts from the Weyl sequence frac(k * golden ratio):
# deterministic, without the symmetries of the matrices, and it spares
# the memory of loading numpy.random
START_STEP = (math.sqrt(5.0) - 1.0) / 2.0
# inverse iteration factors and solves a block of dimension m up to this on
# Python floats, one shift at a time (m^2 scalar steps), and a larger one on
# numpy rows of m values (m steps of ~22 numpy calls each).  The float route
# took 0.34 / 0.54 / 0.77 / 0.88 of the numpy route's time for an LU and two
# solves at m = 5 / 13 / 21 / 29, and 1.10 / 1.29 / 1.92 of it at m = 31 / 41
# / 61 (spectrum's ladders; medians of 21 interleaved timings on a 2-core
# Xeon VM, Python 3.11, numpy 2.4), so the switch sits where they cross, as
# LAPACK's NX does for its blocked routes
FLOAT_LU_MAX_DIM = 29


def as_real(array, what: str = "matrix") -> np.ndarray:
    """``array`` as a new finite float64 array.

    The model is real, so a complex array, even one whose imaginary parts
    are all zero, raises :class:`InvalidParameterError` rather than being
    truncated.
    """
    a = np.array(array)
    if np.iscomplexobj(a):
        raise InvalidParameterError(f"{what} must be real, got a complex array")
    a = np.ascontiguousarray(a, dtype=float)
    if not np.all(np.isfinite(a)):
        raise InvalidParameterError(f"{what} must be finite")
    return a


def _scale_down(*arrays: np.ndarray) -> int:
    """Scale ``arrays`` in place by 2**-scale and return scale: 0 while
    their largest absolute entry lies within 2**(+-SAFE_EXPONENT), else the
    binary exponent of that entry."""
    top = max(max(x.max(initial=0.0), -x.min(initial=0.0)) for x in arrays)
    scale = math.frexp(top)[1]
    if abs(scale) <= SAFE_EXPONENT:
        return 0
    for x in arrays:
        np.ldexp(x, -scale, out=x)
    return scale


def _tridiagonalize_in_place(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Householder reduction of ``a`` to tridiagonal form, overwriting
    ``a``: for callers that form the matrix for the reduction alone.
    ``a`` must be a square, symmetric, finite float64 array, which is not
    checked here: the oracle's one Hamiltonian builder makes each so.

    Returns the diagonal d and the off-diagonal e of Q^T A Q, which has
    the eigenvalues of A, scaled by 2**-scale (see :func:`_scale_down`),
    and scale, which :func:`_eigenvalues` takes as they are.  Q is not
    formed.  Each column costs one matrix-vector product and one rank-2
    update, a single BLAS product.
    """
    scale = _scale_down(a)
    n = a.shape[0]
    e = np.zeros(max(n - 1, 0))
    smallest_normal = SMALLEST_NORMAL  # a local: it is read at every column
    # ndarray.dot and matmul pass the same operands to the same BLAS call
    # (ddot, dgemm); dot dispatches in about half the time, except on the
    # strided ``rest``, where matmul is the faster of the two
    for k in range(n - 2):
        x = a[k + 1 :, k]
        squares = float(x.dot(x))
        shift = 0  # the binary exponent the column is reflected at
        if squares < smallest_normal:
            if squares == 0.0:
                continue
            # the squares of the column underflow: reflect 2**511 * x,
            # which gives the same H, as it depends on v v^T / h alone
            shift = UNDERFLOW_SHIFT
            x = np.ldexp(x, shift)
            squares = float(x.dot(x))
        alpha = math.sqrt(squares)
        x0 = float(x[0])
        if x0 > 0.0:
            alpha = -alpha
        # H = I - v v^T / h maps x to alpha * e_1
        v = x.copy()
        v[0] = x0 - alpha
        h = alpha * alpha - alpha * x0
        e[k] = math.ldexp(alpha, -shift)  # C ldexp, as np.ldexp rounds
        rest = a[k + 1 :, k + 1 :]
        p = rest @ v
        p /= h
        # q = p - (v.p / 2h) v, as p + (-(v.p / 2h) v): the same bits
        q = v * -(float(v.dot(p)) / (2.0 * h))
        q += p
        # H A H = A - v q^T - q v^T, one BLAS product of the C-contiguous
        # (m, 2) [v q] and (2, m) [q; v] for the rank-2 update
        qv = np.empty((2, v.size))
        qv[0] = q
        qv[1] = v
        rest -= qv[::-1].T.copy().dot(qv)
    if n >= 2:
        e[n - 2] = a[n - 1, n - 2]
    return a.diagonal().copy(), e, scale


def _norm(d: np.ndarray, e: np.ndarray) -> float:
    """Largest absolute row sum of the tridiagonal (d, e)."""
    mag_e = np.abs(e)
    rows = np.abs(d)
    rows[:-1] += mag_e
    rows[1:] += mag_e
    return float(rows.max(initial=0.0))


def _ql(d: list, e: list, tiny: float) -> list:
    """Eigenvalues of the tridiagonal (d, e) by implicit QL with Wilkinson
    shifts (EISPACK tql1), ascending.  Works on plain floats.

    An off-diagonal deflates once it is at most ``tiny`` (eps * ||T||):
    a test relative to the neighbouring diagonal alone never passes on a
    block of rounding-level entries, such as the one Householder leaves
    behind for a highly degenerate eigenvalue.

    The block of eigenvalue l ends at the first negligible off-diagonal
    from l on.  A sweep rewrites every off-diagonal of the block and none
    beyond it, so it yields the next block end itself: l if the new e[l]
    is negligible (l has converged), else the lowest rewritten e[i + 1]
    that is, else the old end.  That end is also the block end of
    eigenvalue l + 1 once l has converged.  A rotation that underflows to
    0 ends the block where it stops.  So the off-diagonals are scanned
    only for an eigenvalue that no sweep has reached, the first one and
    each one after a 1 x 1 block, and every sweep runs on the block that
    a scan would find.
    """
    n = len(d)
    d = list(d)
    e = list(e) + [0.0]  # the sentinel that ends every deflation scan
    hypot = math.hypot
    copysign = math.copysign
    max_iterations = QL_MAX_ITERATIONS
    m = -1  # the end of the block of eigenvalue l, once known
    for l in range(n):
        if m < l:
            m = l
            while abs(e[m]) > tiny:
                m += 1
        iterations = 0
        while m != l:
            if iterations >= max_iterations:
                raise ConvergenceError(
                    f"implicit QL: eigenvalue {l} not converged after {iterations} iterations"
                )
            iterations += 1
            e_l = e[l]
            g = (d[l + 1] - d[l]) / (2.0 * e_l)
            r = hypot(g, 1.0)
            d_next = d[m]  # d[i + 1] of the step below
            g = d_next - d[l] + e_l / (g + copysign(r, g))
            s = c = 1.0
            p = 0.0
            end = m  # the lowest rewritten off-diagonal that is negligible
            above = m  # i + 1
            for i in range(m - 1, l - 1, -1):
                e_i = e[i]
                f = s * e_i
                b = c * e_i
                r = hypot(f, g)
                e[above] = r
                if r <= tiny:
                    if r == 0.0:
                        # the rotation underflowed: deflate and restart this sweep
                        d[above] = d_next - p
                        e[m] = 0.0
                        m = above
                        break
                    end = above
                s = f / r
                c = g / r
                g = d_next - p
                d_next = d[i]
                r = (d_next - g) * s + 2.0 * c * b
                p = s * r
                d[above] = g + p
                g = c * r - b
                above = i
            else:
                d[l] = d_next - p
                e[l] = g
                e[m] = 0.0
                m = end
                if abs(g) <= tiny:
                    break  # converged, and m ends the block of eigenvalue l + 1
    return sorted(d)


def _eigenvalues(d: np.ndarray, e: np.ndarray, scale: int) -> np.ndarray:
    """Ascending eigenvalues of 2**scale times the tridiagonal (d, e): QL
    at eps * ||T|| on the scaled (d, e), whose eigenvalues alone are scaled
    back, so none is rounded to a subnormal and 2**p * T solves to 2**p
    times the eigenvalues of T bit for bit.  QL never computes with an
    off-diagonal at or below its threshold, so none needs zeroing."""
    return _scale_back(_ql(d.tolist(), e.tolist(), EPS * _norm(d, e)), scale)


def _scale_back(values, scale: int) -> np.ndarray:
    """2**scale times the ascending eigenvalues ``values``.  A matrix of
    finite entries can have eigenvalues beyond float range (||T|| reaches
    3 times its largest entry): they raise :class:`InvalidParameterError`,
    found from the binary exponent of the largest, before any overflows."""
    top = float(max(-values[0], values[-1])) if len(values) else 0.0
    if math.frexp(top)[1] + scale > 1024:
        raise InvalidParameterError(
            f"eigenvalues overflow floats: the largest |value| is {top!r} * 2**{scale}"
        )
    return np.ldexp(values, scale)


def _tridiagonal(d, e) -> tuple[np.ndarray, np.ndarray, int]:
    """Validated new (d, e), scaled by 2**-scale (see :func:`_scale_down`), and scale."""
    d, e = as_real(d, "diagonal"), as_real(e, "off-diagonal")
    if d.ndim != 1 or e.shape != (max(d.size - 1, 0),):
        raise InvalidParameterError(
            f"need a diagonal of length n and an off-diagonal of length n-1, "
            f"got shapes {d.shape} and {e.shape}"
        )
    return d, e, _scale_down(d, e)


def tridiagonal_eigvalsh(d, e) -> np.ndarray:
    """Ascending eigenvalues of the symmetric tridiagonal matrix with
    diagonal ``d`` and off-diagonal ``e``.

    Raises :class:`ConvergenceError` if an eigenvalue needs more than
    ``QL_MAX_ITERATIONS`` QL sweeps.
    """
    return _eigenvalues(*_tridiagonal(d, e))


def _lu(d, e, shifts, tiny):
    """Row-pivoted LU factors of T - shift*I for every shift of the list
    ``shifts`` at once (LAPACK dlagtf), on the block's arrays (d, e): the
    numpy kernel, for blocks above ``FLOAT_LU_MAX_DIM``.  Each factor is a
    list of rows, one numpy array per row with one value per shift: the
    pivots u0, the two superdiagonals u1 and u2 of the upper factor, the
    multipliers and the row swaps."""
    e = e.tolist()
    rows = d[:, None] - np.array(shifts)  # row i of T - shift: d[i] - shift
    u0, u1, u2, mult, swap = [], [], [], [], []
    # the row still to be eliminated: columns i, i+1 (column i+2 is zero)
    w0 = rows[0]
    w1 = np.full(len(shifts), e[0])
    # e_i couples rows i and i+1; a and c are the next row's columns i+1, i+2
    for e_i, a, c in zip(e, rows[1:], e[1:] + [0.0]):
        s = np.abs(w0) < abs(e_i)
        p0 = np.where(s, e_i, w0)
        p1 = np.where(s, a, w1)
        p2 = np.where(s, c, 0.0)
        mu = np.where(s, w0, e_i) / p0
        w0 = np.where(s, w1, a) - mu * p1
        w1 = np.where(s, 0.0, c) - mu * p2
        u0.append(p0)
        u1.append(p1)
        u2.append(p2)
        mult.append(mu)
        swap.append(s)
    # only the last pivot can vanish in an unreduced block: perturb it
    u0.append(np.where(np.abs(w0) < tiny, np.where(w0 < 0.0, -tiny, tiny), w0))
    return u0, u1, u2, mult, swap


def _lu_solve(factors, b: np.ndarray) -> np.ndarray:
    """Solve (T - shift_j I) x_j = b_j for every column j of the (m, k)
    array ``b`` (LAPACK dlagts), from the factors of :func:`_lu`, as a
    C-ordered (m, k) array.  m >= 2: a 1 x 1 block is solved without an LU."""
    u0, u1, u2, mult, swap = factors
    b = list(b)
    # forward: apply the row swaps and multipliers
    y = []
    carry = b[0]
    for s, mu, b_next in zip(swap, mult, b[1:]):
        y_i = np.where(s, b_next, carry)
        carry = np.where(s, carry, b_next) - mu * y_i
        y.append(y_i)
    y.append(carry)
    # back substitution through the upper factor, last row first
    m = len(y)
    x = [y[m - 1] / u0[m - 1]]
    x.append((y[m - 2] - u1[m - 2] * x[-1]) / u0[m - 2])
    for i in range(m - 3, -1, -1):
        x.append((y[i] - u1[i] * x[-1] - u2[i] * x[-2]) / u0[i])
    return np.array(x[::-1])


def _lu_floats(d, e, shifts, tiny) -> list:
    """:func:`_lu` on Python floats, one shift at a time, with the same
    arguments and the same operations in the same order, so the same bits:
    the float kernel, for blocks up to ``FLOAT_LU_MAX_DIM``.  Returns each
    shift's factors, as lists of floats and the swaps as bools.

    Python raises ZeroDivisionError where numpy would warn, but no pivot
    is 0 in an unreduced block: every |e_i| exceeds eps * ||T|| > 0, a
    pivot that is not e_i is at least |e_i|, and the last pivot is moved
    off 0 to at least ``tiny`` (eps times the block's norm, also > 0).
    """
    d, e = d.tolist(), e.tolist()
    steps = list(zip(e, d[1:], e[1:] + [0.0]))
    factors = []
    for shift in shifts:
        u0, u1, u2, mult, swap = [], [], [], [], []
        w0 = d[0] - shift
        w1 = e[0]
        for e_i, d_next, c in steps:
            a = d_next - shift
            s = abs(w0) < abs(e_i)
            if s:
                mu = w0 / e_i
                u0.append(e_i)
                u1.append(a)
                u2.append(c)
                w0 = w1 - mu * a
                w1 = 0.0 - mu * c
            else:
                mu = e_i / w0
                u0.append(w0)
                u1.append(w1)
                u2.append(0.0)
                w0 = a - mu * w1
                w1 = c - mu * 0.0
            mult.append(mu)
            swap.append(s)
        u0.append((-tiny if w0 < 0.0 else tiny) if abs(w0) < tiny else w0)
        factors.append((u0, u1, u2, mult, swap))
    return factors


def _lu_solve_floats(factors: list, b: np.ndarray) -> np.ndarray:
    """:func:`_lu_solve` on Python floats, column j of ``b`` with the
    factors of shift j from :func:`_lu_floats`: the same operations in the
    same order, returned as the same C-ordered (m, k) array, since
    ``_column_norms`` sums a C-ordered array row by row but an F-ordered
    one pairwise, which rounds differently."""
    columns = []
    for (u0, u1, u2, mult, swap), column in zip(factors, b.T.tolist()):
        y = []
        carry = column[0]
        for s, mu, b_next in zip(swap, mult, column[1:]):
            if s:
                y.append(b_next)
                carry = carry - mu * b_next
            else:
                y.append(carry)
                carry = b_next - mu * carry
        y.append(carry)
        m = len(y)
        x2 = y[m - 1] / u0[m - 1]
        x1 = (y[m - 2] - u1[m - 2] * x2) / u0[m - 2]
        x = [x2, x1]
        for i in range(m - 3, -1, -1):
            x2, x1 = x1, (y[i] - u1[i] * x1 - u2[i] * x2) / u0[i]
            x.append(x1)
        columns.append(x[::-1])
    return np.array(columns).T.copy()


def _column_norms(x: np.ndarray) -> np.ndarray:
    # the sums numpy.linalg.norm(x, axis=0) forms, without numpy.linalg
    return np.sqrt(np.add.reduce(x * x, axis=0))


def _block_vectors(d: np.ndarray, e: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Orthonormal eigenvectors (columns) of one unreduced tridiagonal block
    by inverse iteration, all eigenvalues at once."""
    m = d.size
    if m == 1:
        return np.ones((1, 1))
    norm = _norm(d, e)
    # coincident eigenvalues get distinct shifts (dstein's PERTOL)
    shifts = values.tolist()
    pertol = 10.0 * EPS * norm
    for j in range(1, m):
        if shifts[j] - shifts[j - 1] < pertol:
            shifts[j] = shifts[j - 1] + pertol
    starts = np.flatnonzero(np.diff(values) > CLUSTER_GAP * norm) + 1
    clusters = [
        (lo, hi)
        for lo, hi in zip(np.concatenate(([0], starts)), np.concatenate((starts, [m])))
        if hi - lo > 1
    ]
    # the kernel pair for the block's size: one signature, the same bits
    lu, solve = (_lu_floats, _lu_solve_floats) if m <= FLOAT_LU_MAX_DIM else (_lu, _lu_solve)
    factors = lu(d, e, shifts, EPS * norm)
    x = 2.0 * ((np.arange(1, m * m + 1) * START_STEP) % 1.0).reshape(m, m) - 1.0
    tol = RESIDUAL_TOL * m * norm
    for sweep in range(INVERSE_MAX_SWEEPS):
        x = solve(factors, x / np.abs(x).max(axis=0))
        x /= _column_norms(x)
        for lo, hi in clusters:
            for j in range(lo + 1, hi):
                prev = x[:, lo:j]
                for _ in range(2):  # classical Gram-Schmidt, twice
                    x[:, j] -= prev @ (prev.T @ x[:, j])
                column = x[:, j].ravel(order="K")  # summed as numpy.linalg.norm sums it
                x[:, j] /= np.sqrt(column.dot(column))
        if sweep == 0:
            continue  # a vector is accepted from its second solve on
        tx = d[:, None] * x
        tx[:-1] += e[:, None] * x[1:]
        tx[1:] += e[:, None] * x[:-1]
        residual = float(_column_norms(tx - x * values).max())
        if residual <= tol:
            return x
    raise ConvergenceError(
        f"inverse iteration: residual {residual:.3e} above {tol:.3e} "
        f"after {INVERSE_MAX_SWEEPS} sweeps"
    )


def tridiagonal_eigh(d, e) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of the symmetric tridiagonal matrix (d, e).

    Returns ascending eigenvalues and orthonormal eigenvectors as columns.
    The matrix is split where an off-diagonal is at most eps * ||T||; each
    vector lives on one block, and equal eigenvalues of different blocks
    keep the block order.  Each vector's first component with magnitude
    above 1e-8 is positive.
    """
    d, e, scale = _tridiagonal(d, e)
    n = d.size
    if n == 0:
        return d, np.zeros((0, 0))
    tiny = EPS * _norm(d, e)
    cuts = np.concatenate(([0], np.flatnonzero(np.abs(e) <= tiny) + 1, [n]))
    values = np.empty(n)
    vectors = np.zeros((n, n))
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        block_values = np.array(_ql(d[lo:hi].tolist(), e[lo : hi - 1].tolist(), tiny))
        values[lo:hi] = block_values
        vectors[lo:hi, lo:hi] = _block_vectors(d[lo:hi], e[lo : hi - 1], block_values)
    order = np.argsort(values, kind="stable")
    values = values[order]
    vectors = vectors[:, order]
    lead = vectors[np.argmax(np.abs(vectors) > SIGNIFICANT_COMPONENT, axis=0), np.arange(n)]
    vectors *= np.where(lead < 0.0, -1.0, 1.0)
    return _scale_back(values, scale), vectors
