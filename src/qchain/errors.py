"""Exception types shared across the package."""


class QChainError(Exception):
    """Base class for all package-specific errors."""


class InvalidParameterError(QChainError, ValueError):
    """An argument is out of its documented domain: a scalar off its range,
    a half-integer beyond 2^52, operators on different bases or indexing
    outside their basis, a non-symmetric eigensolver input, or a
    Hilbert-Schmidt projection out of float range."""


class CapacityError(QChainError):
    """A request exceeds a documented cap: oracle size, ladder size or crossover scan grid."""


class EmptySectorError(QChainError):
    """No basis states satisfy the excitation constraint: an empty oracle
    sector or an empty (u, r) ladder."""


class PoleError(QChainError):
    """A scaled eigenvalue offset in a closed-form denominator vanishes."""


class NegativeRadicandError(QChainError):
    """A closed-form square root turned complex outside its regime."""


class ConvergenceError(QChainError):
    """An iterative eigensolver hit its iteration cap without converging."""
