"""Independent routes to the deformation factor R(N, l), kept on the test
side as references for the library's one evaluator,
:func:`qchain.deformation_profile`."""

import math

import numpy as np


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
