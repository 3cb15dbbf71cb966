"""Exception types shared across the package."""


class QChainError(Exception):
    """Base class for all package-specific errors."""


class InvalidParameterError(QChainError, ValueError):
    """An argument is out of its documented domain: a scalar off its range
    (among them a non-finite spacing, frequency, coupling, detuning or
    eigenvalue v), a half-integer beyond 2^52, a coupling that makes matrix
    elements subnormal, a complex, non-finite or misshapen eigensolver
    input, operators on different bases, indexing outside their basis or
    naming one entry twice, or a result out of float range: a Hamiltonian
    entry, an eigenvalue, the resonant alternate pair or a Hilbert-Schmidt
    projection."""


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
