"""Independent routes kept on the test side as references: the
deformation factor R(N, l) for the library's one evaluator,
:func:`qchain.deformation_profile`, a state-by-state sector Hamiltonian
for the oracle's vectorized builder, dense collective operators for
the oracle's triplet storage, and the dense ladder matrix for the
tridiagonal (d, e) of :func:`qchain.build_h1_matrix`."""

import math

import numpy as np

from qchain import ladder_element
from qchain.algebra import _validate_deformation


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
