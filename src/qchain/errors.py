"""Exception types shared across the package."""


class QChainError(Exception):
    """Base class for all package-specific errors."""


class InvalidParameterError(QChainError, ValueError):
    """A scalar argument is out of its documented domain."""


class CapacityError(QChainError):
    """A request exceeds a documented cap: oracle size, ladder size or crossover scan grid."""


class DimensionMismatchError(QChainError, ValueError):
    """Two operators live on different bases."""


class NotHermitianError(QChainError, ValueError):
    """Eigensolver input is not symmetric."""


class ZeroDenominatorError(QChainError, ZeroDivisionError):
    """Projection denominator trace vanishes."""


class EmptySectorError(QChainError):
    """No basis states satisfy the excitation constraint: an empty oracle
    sector or an empty (u, r) ladder."""


class DegenerateLadderError(QChainError):
    """A ladder matrix element in a coefficient denominator vanishes."""


class PoleError(QChainError):
    """A scaled eigenvalue offset in a closed-form denominator vanishes."""


class NegativeRadicandError(QChainError):
    """A closed-form square root turned complex outside its regime."""


class ConvergenceError(QChainError):
    """An iterative eigensolver hit its iteration cap without converging."""
