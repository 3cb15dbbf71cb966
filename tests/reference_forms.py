"""Independent routes kept on the test side as references: the
deformation factor R(N, l) for the library's one evaluator,
:func:`qchain.deformation_profile`, a state-by-state sector Hamiltonian
for the oracle's vectorized builder, dense collective operators for
the oracle's triplet storage, the dense ladder matrix for the
tridiagonal (d, e) of :func:`qchain.build_h1_matrix`, the Householder
reduction with ``np.stack`` operands for :func:`qchain.linalg.tridiagonalize`,
and the cross-checks no command prints: the Chebyshev stationarity
residual, the ladder's characteristic polynomial and the truncated
weak-coupling quartic."""

import math

import numpy as np

from qchain import build_h1_matrix, ladder_element
from qchain.algebra import _validate_deformation
from qchain.crossover import _validate_n
from qchain.linalg import as_real


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


def tridiagonalize_stack(matrix):
    """Householder reduction as :func:`qchain.linalg.tridiagonalize`, with
    the rank-2 update's [v q] and [q; v] operands built by ``np.stack``
    each column; the symmetry check is left to the library."""
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
