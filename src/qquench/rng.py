"""Counter-based random number streams.

All measurement noise in this package flows through one small generator: a
SplitMix64-style bit mixer evaluated at explicit (key, counter) positions.
A draw depends only on (seed, bin, depth, trial), never on call order, which
makes scans reproducible and trivially parallelizable.

Key blocks (``derive_keys``, ``key_matrix``, for one seed or an array of
them) and all draws (``normals``) run on one vectorized mixer over numpy
uint64 arrays. The pure-Python ``mix64`` derives single keys
(``derive_key``, ``stream_key``) and, with ``normal``, is the reference the
tests hold the vectorized path to: the integer outputs are bit-identical,
and the float normals agree to the last ulp or so because numpy's
vectorized log/cos may differ from libm by one rounding.
"""

from __future__ import annotations

import math

import numpy as np

MASK64 = (1 << 64) - 1

# SplitMix64 increment / finalizer multipliers.
GOLD = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB

# Salts separating the counter word and the Box-Muller pair word.
CTR_SALT = 0x5851F42D4C957F2D
PAIR_SALT = 0x14057B7EF767814F

_TWO_NEG53 = 2.0 ** -53
_TWO_PI = 2.0 * math.pi

# Fixed default used when no seed is supplied anywhere (flag or environment);
# a constant rather than entropy keeps unconfigured runs reproducible.
DEFAULT_SEED = 0xC0FFEE

# Lane tag reserved for the no-quench baseline measurement.
BASELINE_BIN = -1


def mix64(z: int) -> int:
    """SplitMix64 finalizer on a 64-bit integer."""
    z = (z + GOLD) & MASK64
    z = ((z ^ (z >> 30)) * MIX1) & MASK64
    z = ((z ^ (z >> 27)) * MIX2) & MASK64
    return z ^ (z >> 31)


def float_tag(x: float) -> int:
    """Bit pattern of a float64, for keying streams by a real parameter."""
    return int(np.float64(x).view(np.uint64))


def derive_key(seed: int, *tags: int) -> int:
    """Fold integer tags into a seed, producing an independent stream key."""
    k = mix64(seed & MASK64)
    for t in tags:
        k = mix64(k ^ (t & MASK64))
    return k


def stream_key(seed: int, bin_index: int, theta: float) -> int:
    """Key of the noise stream attached to one (bin, quench depth) slot.

    ``bin_index = BASELINE_BIN`` addresses the shared baseline measurement.
    Keying by the depth value (not its position in a list) keeps draws stable
    when the depth list is reordered or extended.
    """
    return derive_key(seed, bin_index + 1, float_tag(theta))


def _u64(x) -> np.ndarray:
    """``x`` as a uint64 array with integers masked to 64 bits."""
    # never a numpy scalar: scalar uint64 arithmetic warns on the wrap-around
    # the mixer relies on
    if not isinstance(x, np.ndarray):
        x = np.asarray(x, dtype=object) & MASK64
    return np.atleast_1d(np.asarray(x, dtype=np.uint64))


def derive_keys(seed, *tags) -> np.ndarray:
    """:func:`derive_key` over arrays: the seed and tags broadcast like numpy operands."""
    k = _mix64_np(_u64(seed))
    for t in tags:
        k = _mix64_np(k ^ _u64(t))
    return k


def key_matrix(seed, n_bins: int, thetas) -> np.ndarray:
    """uint64 stream keys of shape ``np.shape(seed) + (n_bins, len(thetas))``.

    ``seed`` is one seed or an array of them; entry ``[..., n, d]`` equals
    ``stream_key(seed, n, thetas[d])`` for the matching seed.
    """
    seeds = _u64(seed).reshape(np.shape(seed) + (1, 1))
    bins = np.arange(1, n_bins + 1, dtype=np.uint64)[:, None]
    tags = np.asarray(thetas, dtype=np.float64).view(np.uint64)
    return derive_keys(seeds, bins, tags)


def normal(key: int, counter: int) -> float:
    """One standard normal draw at an absolute stream position."""
    a = mix64((key ^ mix64((counter ^ CTR_SALT) & MASK64)) & MASK64)
    b = mix64(a ^ PAIR_SALT)
    u1 = ((a >> 11) + 0.5) * _TWO_NEG53
    u2 = ((b >> 11) + 0.5) * _TWO_NEG53
    return math.sqrt(-2.0 * math.log(u1)) * math.cos(_TWO_PI * u2)


def _mix64_np(z: np.ndarray) -> np.ndarray:
    z = z + np.uint64(GOLD)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(MIX2)
    return z ^ (z >> np.uint64(31))


def normals(key, counters) -> np.ndarray:
    """Vectorized standard normals at (key, counter) stream positions.

    ``key`` is one stream key or an array of them; it broadcasts against
    ``counters`` like any pair of numpy operands.
    """
    key = np.asarray(key, dtype=np.uint64)
    counters = np.asarray(counters, dtype=np.uint64)
    a = _mix64_np(key ^ _mix64_np(counters ^ np.uint64(CTR_SALT)))
    b = _mix64_np(a ^ np.uint64(PAIR_SALT))
    u1 = ((a >> np.uint64(11)).astype(np.float64) + 0.5) * _TWO_NEG53
    u2 = ((b >> np.uint64(11)).astype(np.float64) + 0.5) * _TWO_NEG53
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(_TWO_PI * u2)
