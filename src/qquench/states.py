"""Finite-dimensional complex states on a uniform time-bin grid.

Everything downstream (quench scans, reconstruction, fidelities) works with
unit-norm amplitude vectors over an ordered basis of N bins. This module owns
construction, normalization and the post-selection states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError,
    IndexOutOfRangeError,
    NonFiniteInputError,
    UnknownWaveformError,
    ZeroVectorError,
)

NORM_TOL = 1e-12

# Experiment-style defaults: 0.1 us bins over a 2 us window (20 bins).
DEFAULT_BIN_WIDTH = 0.1e-6
DEFAULT_BINS = 20


@dataclass(frozen=True)
class BasisGrid:
    """Uniform discretization of the measurement axis into ``size`` bins."""

    size: int
    bin_width: float = DEFAULT_BIN_WIDTH
    origin: float = 0.0

    def __post_init__(self):
        if not isinstance(self.size, (int, np.integer)) or isinstance(self.size, bool):
            raise TypeError(f"grid size must be an integer, got {self.size!r}")
        if self.size < 2:
            raise ValueError(f"grid needs at least 2 bins, got {self.size}")
        if not (math.isfinite(self.bin_width) and self.bin_width > 0):
            raise ValueError(f"bin_width must be positive and finite, got {self.bin_width}")
        if not math.isfinite(self.origin):
            raise ValueError(f"origin must be finite, got {self.origin}")

    @property
    def span(self) -> float:
        return self.size * self.bin_width

    def times(self) -> np.ndarray:
        """Bin-center sample times."""
        return self.origin + (np.arange(self.size) + 0.5) * self.bin_width


def _as_complex_vector(values, n: int) -> np.ndarray:
    arr = np.asarray(values, dtype=np.complex128)
    if arr.shape != (n,):
        raise DimensionMismatchError(f"expected {n} amplitudes, got shape {arr.shape}")
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise NonFiniteInputError("amplitudes contain NaN or Inf")
    return arr


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=np.complex128, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class WavefunctionState:
    """Unit-norm complex amplitudes over a basis grid.

    Construct through :func:`make_state` / :func:`sample_envelope` /
    :func:`builtin_waveform`, which normalize; the constructor itself only
    validates, so an off-norm vector is rejected rather than silently fixed.
    """

    grid: BasisGrid
    amplitudes: np.ndarray

    def __post_init__(self):
        arr = _as_complex_vector(self.amplitudes, self.grid.size)
        norm_sq = float(np.sum(np.abs(arr) ** 2))
        if abs(norm_sq - 1.0) > NORM_TOL:
            raise ValueError(f"state norm^2 deviates from 1 by {abs(norm_sq - 1.0):.3e}")
        object.__setattr__(self, "amplitudes", _freeze(arr))


@dataclass(frozen=True, eq=False)
class PostSelector:
    """The fixed post-selection state, stored as its known overlaps with the bin basis.

    ``overlaps[u]`` is the bra-side overlap of the selector with basis
    element ``u``; the attached label records how it was built (``uniform``
    or ``dft:k``). Every overlap must be nonzero, otherwise the protocol
    cannot see the corresponding bin at all. ``flat``: every |overlap|^2 is
    1/N to rounding (``uniform``, ``dft:k``), so the sum rule gives P0.
    """

    grid: BasisGrid
    overlaps: np.ndarray
    label: str = "uniform"
    flat: bool = field(init=False, repr=False)

    def __post_init__(self):
        arr = _as_complex_vector(self.overlaps, self.grid.size)
        mod_sq = np.abs(arr) ** 2
        norm_sq = float(np.sum(mod_sq))
        if abs(norm_sq - 1.0) > NORM_TOL:
            raise ValueError(f"selector norm^2 deviates from 1 by {abs(norm_sq - 1.0):.3e}")
        if np.any(np.abs(arr) == 0.0):
            raise ValueError("post-selection state must overlap every basis element")
        object.__setattr__(self, "overlaps", _freeze(arr))
        object.__setattr__(self, "flat", bool(np.all(np.abs(mod_sq * self.grid.size - 1.0)
                                                     <= NORM_TOL)))

    @property
    def amplitudes(self) -> np.ndarray:
        """Ket-side components in the bin basis (conjugate of the overlaps)."""
        return np.conj(self.overlaps)


def make_state(grid: BasisGrid, raw) -> WavefunctionState:
    """Normalize a raw complex vector into a state on ``grid``."""
    arr = _as_complex_vector(raw, grid.size)
    norm = float(np.linalg.norm(arr))
    if norm == 0.0:
        raise ZeroVectorError("cannot normalize the zero vector")
    return WavefunctionState(grid, arr / norm)


def uniform_post_selector(grid: BasisGrid) -> PostSelector:
    """Selector overlapping every bin equally (the zero-frequency DFT vector).

    This is the carrier-frequency filter of the temporal protocol: all
    overlaps equal 1/sqrt(N), real and positive.
    """
    b0 = 1.0 / math.sqrt(grid.size)
    return PostSelector(grid, np.full(grid.size, b0, dtype=np.complex128), label="uniform")


def dft_post_selector(grid: BasisGrid, k: int) -> PostSelector:
    """Selector from the discrete-Fourier basis, frequency index ``k``.

    Every overlap has modulus 1/sqrt(N), so the DFT basis is mutually
    unbiased with the bin basis by construction. ``k = 0`` is exactly the
    uniform selector.
    """
    n = grid.size
    if not 0 <= k < n:
        raise IndexOutOfRangeError(f"frequency index {k} outside [0, {n})")
    if k == 0:
        return uniform_post_selector(grid)
    u = np.arange(n)
    overlaps = np.exp(-2j * np.pi * k * u / n) / math.sqrt(n)
    return PostSelector(grid, overlaps, label=f"dft:{k}")


def _eval_on_grid(fn, t: np.ndarray) -> np.ndarray:
    if not callable(fn):
        vals = np.asarray(fn, dtype=np.float64)
        if vals.shape != t.shape:
            raise DimensionMismatchError(
                f"expected {t.shape[0]} samples, got shape {vals.shape}")
        return vals
    try:
        vals = np.asarray(fn(t), dtype=np.float64)
        if vals.shape == t.shape:
            return vals
        if vals.shape == ():
            return np.full_like(t, float(vals))
    except (TypeError, ValueError):
        pass
    return np.array([float(fn(ti)) for ti in t])


def sample_envelope(grid: BasisGrid, amplitude, phase) -> WavefunctionState:
    """Build a state by sampling amplitude/phase functions at bin centers.

    ``amplitude`` (nonnegative) and ``phase`` (radians) are functions of
    time in seconds, vectorized or scalar, or precomputed per-bin arrays.
    """
    t = grid.times()
    amp = _eval_on_grid(amplitude, t)
    phi = _eval_on_grid(phase, t)
    if not (np.all(np.isfinite(amp)) and np.all(np.isfinite(phi))):
        raise NonFiniteInputError("amplitude/phase samples contain NaN or Inf")
    if np.any(amp < 0):
        raise ValueError("amplitude must be nonnegative on the grid")
    return make_state(grid, amp * np.exp(1j * phi))


# Builtin test envelopes, parameterized over the normalized coordinate
# tau = (t - origin)/span so the shapes are grid-size independent. The set
# covers smooth phase, a phase discontinuity and amplitude near-nodes.
_GAUSS_SIGMA = 0.15

def _gauss(tau):
    return np.exp(-0.5 * ((tau - 0.5) / _GAUSS_SIGMA) ** 2)


_WAVEFORMS = {
    "gaussian_flat_phase": (
        _gauss,
        lambda tau: np.zeros_like(tau),
    ),
    "gaussian_linear_chirp": (
        _gauss,
        lambda tau: 3.0 * (tau - 0.5),
    ),
    "square_step_phase": (
        lambda tau: np.ones_like(tau),
        lambda tau: np.where(tau < 0.5, 0.0, np.pi / 2),
    ),
    "double_hump_quadratic_phase": (
        lambda tau: np.exp(-0.5 * ((tau - 0.3) / 0.1) ** 2)
        + np.exp(-0.5 * ((tau - 0.7) / 0.1) ** 2),
        lambda tau: 6.0 * (tau - 0.5) ** 2,
    ),
}

WAVEFORM_NAMES = tuple(_WAVEFORMS)


def builtin_waveform(name: str, grid: BasisGrid) -> WavefunctionState:
    """One of the named test states evaluated on ``grid``."""
    try:
        amp_fn, phase_fn = _WAVEFORMS[name]
    except KeyError:
        raise UnknownWaveformError(
            f"unknown waveform {name!r}; choose from {', '.join(WAVEFORM_NAMES)}"
        ) from None
    span = grid.span

    def to_tau(fn):
        return lambda t: fn((t - grid.origin) / span)

    return sample_envelope(grid, to_tau(amp_fn), to_tau(phase_fn))
