"""Counter-based random number streams.

All measurement noise in this package flows through one small generator: a
SplitMix64-style bit mixer evaluated at explicit (key, counter) positions.
A draw depends only on (seed, bin, depth, trial), never on call order, which
makes scans reproducible and lets the trial-averaging kernel draw any subset
of cells, in blocks of any size, with the same output bits.

Key blocks (``derive_keys``, ``key_matrix``, for one seed or an array of
them) and all draws (``normals``, or ``normals_into`` a reused workspace)
run on one vectorized mixer over numpy uint64 arrays. The pure-Python ``mix64`` derives single keys
(``derive_key``, ``stream_key``) and, with ``normal``, is the reference the
tests hold the vectorized path to: the integer outputs are bit-identical,
and the float normals agree to the last ulp or so because numpy's
vectorized log may differ from libm by one rounding.

A normal is the Box-Muller draw sqrt(-2 ln u1) * cos(2*pi*u2). The cos
factor is an exact range reduction and a fixed odd polynomial in float64
``-``, ``min``, ``*`` and ``+`` (:func:`_mul_cos_two_pi`), not a libm call:
cheaper than numpy's cos, and with half its error. Moving to it changed
every noisy output once, by a few ulp. Only the log still depends on the
numpy build and its CPU dispatch (its AVX512 kernel and its baseline kernel
differ by one ulp on about 0.3% of inputs), so output bits repeat for one
numpy build on one CPU dispatch target.
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

# The same constants as numpy scalars, built once: a small scan draws its
# noise in blocks of tens of microseconds, where building them on every
# call was a measurable share.
_GOLD_U64, _MIX1_U64, _MIX2_U64 = np.uint64(GOLD), np.uint64(MIX1), np.uint64(MIX2)
_CTR_SALT_U64, _PAIR_SALT_U64 = np.uint64(CTR_SALT), np.uint64(PAIR_SALT)
_SHIFTS = {n: np.uint64(n) for n in (11, 27, 30, 31)}

_TWO_NEG53 = 2.0 ** -53
_TWO_PI = 2.0 * math.pi
# Taylor coefficients (-1)**j / (2j + 1)! of sin(x)/x in powers of x**2,
# j = 10 down to 0: Horner's rule order.
_SIN_TAYLOR = tuple((-1) ** j / math.factorial(2 * j + 1) for j in range(10, -1, -1))

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
    """uint64 stream keys of shape ``np.shape(seed) + (n_bins, n_depths)``.

    ``seed`` is one seed or an array of them; ``thetas`` is one list of
    depths, or one row of them per seed. Entry ``[..., n, d]`` equals
    ``stream_key(seed, n, theta)`` for the matching seed and its depth ``d``.
    """
    seeds = _u64(seed).reshape(np.shape(seed) + (1, 1))
    bins = np.arange(1, n_bins + 1, dtype=np.uint64)[:, None]
    tags = np.asarray(thetas, dtype=np.float64).view(np.uint64)[..., None, :]
    return derive_keys(seeds, bins, tags)


def normal(key: int, counter: int) -> float:
    """One standard normal draw at an absolute stream position.

    The scalar twin of :func:`normals`: the same uniforms, ``math.log`` for
    the radius, and the same cos factor bit for bit (:func:`_mul_cos_two_pi`
    on 0-d arrays), so the two differ only where ``math.log`` and
    ``np.log`` do.
    """
    a = mix64((key ^ mix64((counter ^ CTR_SALT) & MASK64)) & MASK64)
    b = mix64(a ^ PAIR_SALT)
    u1 = ((a >> 11) + 0.5) * _TWO_NEG53
    u2 = ((b >> 11) + 0.5) * _TWO_NEG53
    r = np.array(math.sqrt(-2.0 * math.log(u1)))
    return float(_mul_cos_two_pi(r, np.array(u2), np.empty(())))


def _mul_cos_two_pi(r: np.ndarray, u: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """Multiply ``r`` in place by cos(2*pi*u) and return it; ``u`` and ``x2`` are scratch.

    ``r``, ``u`` and ``x2`` are float64 arrays of one shape, and every ``u``
    is a multiple of 2**-54 in (0, 1], as both Box-Muller uniforms are. With
    v = min(u, 1 - u) and s = 1/4 - v, cos(2*pi*u) = sin(x) for x = 2*pi*s,
    |x| <= pi/2. v and s are exact: 1 - u is exact whenever it is the
    smaller (Sterbenz), and s is a multiple of 2**-54 of magnitude at most 1/4.
    sin(x) = x * P(x**2), with P the Taylor series of sin(x)/x through x**20
    (the first term left out is below 1.3e-18), by Horner's rule. Only
    correctly rounded -, min, * and + run, so the bits depend on no libm
    and on no SIMD dispatch; r becomes (r * x) * P(x**2).
    """
    np.subtract(1.0, u, out=x2)
    np.minimum(u, x2, out=u)
    np.subtract(0.25, u, out=u)
    u *= _TWO_PI
    r *= u
    np.multiply(u, u, out=x2)
    np.multiply(x2, _SIN_TAYLOR[0], out=u)
    for c in _SIN_TAYLOR[1:-1]:
        u += c
        u *= x2
    u += _SIN_TAYLOR[-1]
    r *= u
    return r


def _mix64_np(z: np.ndarray) -> np.ndarray:
    """:func:`mix64` over a uint64 array, into a new array."""
    z = np.array(z, dtype=np.uint64)
    return _mix64_inplace(z, np.empty_like(z))


def _mix64_inplace(z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """:func:`mix64` over ``z`` in place, with ``tmp`` (same shape) as scratch."""
    np.add(z, _GOLD_U64, out=z)
    for shift, mult in ((30, _MIX1_U64), (27, _MIX2_U64)):
        np.right_shift(z, _SHIFTS[shift], out=tmp)
        np.bitwise_xor(z, tmp, out=z)
        np.multiply(z, mult, out=z)
    np.right_shift(z, _SHIFTS[31], out=tmp)
    np.bitwise_xor(z, tmp, out=z)
    return z


def normals(key, counters) -> np.ndarray:
    """Vectorized standard normals at (key, counter) stream positions.

    ``key`` is one stream key or an array of them; it broadcasts against
    ``counters`` like any pair of numpy operands.
    """
    key = np.asarray(key, dtype=np.uint64)
    counters = np.asarray(counters, dtype=np.uint64)
    shape = np.broadcast_shapes(key.shape, counters.shape)
    return normals_into(key, counter_words(counters),
                        np.empty((3,) + shape, dtype=np.uint64)).copy()


def counter_words(counters) -> np.ndarray:
    """The half of a draw's mix that depends on the counter alone."""
    words = np.asarray(counters, dtype=np.uint64) ^ _CTR_SALT_U64
    return _mix64_inplace(words, np.empty_like(words))


def normals_into(key, words, work: np.ndarray) -> np.ndarray:
    """:func:`normals` at the counters behind ``words = counter_words(counters)``.

    Every step runs in place in ``work``, a uint64 array of shape
    ``(3,) + broadcast(key, words).shape``, so a caller that reuses one
    workspace allocates nothing per call. Returns a float64 view of
    ``work``; the bits equal those of :func:`normals`. The radius is
    sqrt(-2 ln u1) in one plane and the cos factor of u2 is evaluated in
    the other two (:func:`_mul_cos_two_pi`), so no fourth plane is needed.
    """
    a, b, tmp = work[0, ...], work[1, ...], work[2, ...]  # views, also when 0-d
    np.bitwise_xor(key, words, out=a)
    _mix64_inplace(a, tmp)
    np.bitwise_xor(a, _PAIR_SALT_U64, out=b)
    _mix64_inplace(b, tmp)
    u1, u2 = tmp.view(np.float64), a.view(np.float64)
    np.right_shift(a, _SHIFTS[11], out=a)
    np.copyto(u1, a, casting="unsafe")  # exact: a < 2**53
    np.right_shift(b, _SHIFTS[11], out=b)
    np.copyto(u2, b, casting="unsafe")  # a is spent, its memory now holds u2
    for u in (u1, u2):
        u += 0.5
        u *= _TWO_NEG53
    np.log(u1, out=u1)
    u1 *= -2.0
    np.sqrt(u1, out=u1)
    return _mul_cos_two_pi(u1, u2, b.view(np.float64))  # b is spent too
