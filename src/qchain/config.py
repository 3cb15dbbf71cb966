"""Physical parameters of one qubit-chain instance and half-integer helpers."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, InvalidParameterError
from .linalg import SMALLEST_NORMAL

# Most points a sweep samples: 10^5 / 10^6 steps took 0.18-0.26 /
# 0.45-0.48 s and 40 / 78 MB peak RSS in `deform-sweep` as CSV, 0.17-0.21 /
# 0.48-0.49 s and 39-40 / 78 MB as JSON, written in chunks by the CLI's bulk
# float route (medians of 3 runs of a `python -m qchain` child in each of two
# sets, stdout to /dev/null; 2-core Xeon VM, one BLAS thread).
MAX_SWEEP_STEPS = 1_000_000


def twice(x) -> int:
    """Return 2*x as an exact integer, rejecting anything that is not a
    half-integer.  Spin labels (r, m, u) are carried around as doubled
    integers so ladder arithmetic never touches floating-point indexing.
    The test is exact: every half-integer is exact in binary, so a value
    off by any amount (``2.0000000001``) is refused, not rounded.  Beyond
    |x| = 2^52 every double is an even integer, so no half-integer there
    can be told from its neighbours, and such values are refused too.
    """
    d = 2.0 * float(x)
    if not abs(d) <= 2.0**53 or d != round(d):
        raise InvalidParameterError(f"{x!r} is not a half-integer of magnitude <= 2^52")
    return round(d)


def validate_n_qubits(n_qubits) -> int:
    """Return a qubit count N >= 1 as a plain int.  Python and numpy
    integers are accepted; ``bool`` is not, although it subclasses int."""
    if isinstance(n_qubits, bool) or not isinstance(n_qubits, (int, np.integer)) or n_qubits < 1:
        raise InvalidParameterError(f"n_qubits must be a positive integer, got {n_qubits!r}")
    return int(n_qubits)


def validate_coupling(coupling) -> float:
    """Return a coupling amplitude eta as a float that is finite and >= 0."""
    eta = float(coupling)
    if not math.isfinite(eta) or eta < 0.0:
        raise InvalidParameterError(f"coupling must be finite and >= 0, got {coupling!r}")
    return eta


def check_finite(value, name: str) -> None:
    """Refuse a real number that is inf or nan."""
    if not math.isfinite(value):
        raise InvalidParameterError(f"{name} must be finite, got {value!r}")


def check_normal_hops(hops: np.ndarray, coupling) -> None:
    """Refuse coupling matrix elements eta * (factors) of a Hamiltonian,
    each nonzero in exact arithmetic, if one is below the smallest normal
    double: it has rounded there to fewer bits, or to zero, and the matrix
    solved would no longer be the model's."""
    if np.abs(hops).min(initial=np.inf) < SMALLEST_NORMAL:
        raise InvalidParameterError(
            f"coupling {coupling!r} makes matrix elements subnormal (below "
            f"{SMALLEST_NORMAL!r}), where they lose precision"
        )


def validate_steps(steps) -> int:
    """Return a sweep's point count, 2 to MAX_SWEEP_STEPS, as a plain int."""
    if not isinstance(steps, (int, np.integer)) or steps < 2:
        raise InvalidParameterError(f"steps must be an integer >= 2, got {steps!r}")
    if steps > MAX_SWEEP_STEPS:
        raise CapacityError(f"{steps} sweep steps exceed {MAX_SWEEP_STEPS}")
    return int(steps)


def halves(twice_x: int) -> float:
    """Inverse of :func:`twice`; exact for integers and half-integers."""
    return twice_x / 2.0


@dataclass(frozen=True)
class ChainConfig:
    """Parameters of a chain of two-level qubits coupled to one photon mode.

    Attributes
    ----------
    n_qubits : int
        Number of qubits N, at least 1.
    spacing : float
        Relative spacing l = 2*L_q/L_p of qubit interspacing to photon
        wavelength.  Qubit j couples with strength
        ``coupling * cos(j*pi*spacing)``; l = 0 is the homogeneous
        reference case and negative l mirrors the chain (identical
        operators), so any finite value is accepted here even though the
        scalar deformation ops demand l > 0.
    qubit_freq : float
        Level splitting of each qubit (hbar = c = 1).
    photon_freq : float
        Frequency of the photon mode.
    coupling : float
        Dipole coupling amplitude, >= 0.
    """

    n_qubits: int
    spacing: float
    qubit_freq: float = 1.0
    photon_freq: float = 1.0
    coupling: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "n_qubits", validate_n_qubits(self.n_qubits))
        for name in ("spacing", "qubit_freq", "photon_freq"):
            check_finite(getattr(self, name), name)
        object.__setattr__(self, "coupling", validate_coupling(self.coupling))

    def coupling_profile(self) -> np.ndarray:
        """Per-qubit coupling factors cos(j*pi*l), j = 0..N-1."""
        j = np.arange(self.n_qubits)
        return np.cos(j * np.pi * self.spacing)
