"""Invert measured response factors back into the complex wavefunction.

One closed-form inversion, valid for any +/- theta pair, recovers per bin
the scaled quantity w = psi_n * <b0|a_n> / <b0|psi> (times 4); the overall
normalization and global phase are unobservable and fixed by convention
afterwards.

The inversion is two-valued: it returns 4*Re[w] only while Re[w] <= 1/2
and silently folds to 4*(1 - Re[w]) beyond. That violation cannot be seen
from a single bin's data, but the bin contributions must sum to one
(sum_u w_u = 1 identically), so a fold leaves a detectable deficit in the
summed reconstruction. ``branch_ok`` flags carry both the local radicand
check and this global consistency check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IncompleteDepthsError, SingularDepthError
from .quench import ResponseMap, _per_depth
from .states import BasisGrid

# Local radicand tolerance: values this far below zero are attributed to
# rounding, anything more negative means noise pushed the data off-manifold.
RADICAND_TOL = 1e-10

# Amplitude below this (on the unit-norm vector) counts as a node; the phase
# there is undefined and reported as 0.
NODE_TOL = 1e-9

# 1 - cos(theta) below this makes the general inversion singular.
SINGULAR_TOL = 1e-9

# Global sum-rule trigger and single-fold attribution window.
FOLD_SUM_TOL = 0.25
FOLD_ATTR_ABS = 0.5
FOLD_ATTR_REL = 0.2


@dataclass(frozen=True, eq=False)
class ReconstructionResult:
    """Raw per-bin inversion output plus the normalized state derived from it.

    ``raw_re``/``raw_im`` are the direct, unnormalized inversion values
    (4*w per bin up to the omitted constant); ``psi`` is their unit-norm
    version with the global phase fixed so the largest-amplitude bin is real
    positive. ``branch_ok[u]`` is False where the inversion's validity
    conditions failed; ``nodes[u]`` marks amplitude nodes where the phase is
    meaningless. A block of scans holds (..., N) arrays, one row per scan.
    """

    grid: BasisGrid
    raw_re: np.ndarray
    raw_im: np.ndarray
    psi: np.ndarray
    amplitude_env: np.ndarray
    phase_env: np.ndarray
    branch_ok: np.ndarray
    nodes: np.ndarray


def _one_minus_cos(theta: float) -> float:
    """``1 - cos(theta)`` of a depth the inversion can use; raise for any other.

    A depth must be finite and positive, and ``1 - cos(theta)`` must be at
    least SINGULAR_TOL: nearer the identity quench (0 mod 2pi) the inversion
    is singular.
    """
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")
    if theta <= 0:
        raise ValueError(f"theta must be positive, got {theta}")
    one_minus_cos = 1.0 - math.cos(theta)
    if one_minus_cos < SINGULAR_TOL:
        raise SingularDepthError(
            f"theta={theta!r} is within {SINGULAR_TOL:.0e} of the identity quench"
        )
    return one_minus_cos


def invert_general(p_plus, p_minus, theta):
    """Inversion of an arbitrary (+theta, -theta) response pair.

    Derivation: with w the per-bin scaled amplitude,
    ``p(+-theta) = -2 Re[(e^{+-i theta}-1) w] - |e^{+-i theta}-1|^2 |w|^2``,
    so the difference isolates ``4 sin(theta) Im[w]`` and the sum gives
    ``4 (1-cos(theta)) (Re[w] - |w|^2)``; the quadratic in Re[w] takes the
    branch with Re[w] <= 1/2. At theta = pi the antisymmetric channel
    vanishes identically (sin(pi) = 0) and the imaginary part is reported
    as 0. Depths with 1 - cos(theta) below SINGULAR_TOL are rejected.
    ``theta`` may also be an array that broadcasts against the responses.
    """
    one_minus_cos, sin_t = _per_depth(theta, _one_minus_cos, math.sin)
    pp = np.asarray(p_plus, dtype=np.float64)
    pm = np.asarray(p_minus, dtype=np.float64)
    im_w = np.where(np.abs(sin_t) < SINGULAR_TOL, 0.0, (pp - pm) / (4.0 * sin_t))
    s = (pp + pm) / (4.0 * one_minus_cos)
    radicand = 1.0 - 4.0 * (s + im_w**2)
    re_w = 0.5 * (1.0 - np.sqrt(np.maximum(radicand, 0.0)))
    ok = radicand >= -RADICAND_TOL
    re = 4.0 * re_w
    im = 4.0 * im_w
    if np.isscalar(p_plus) and np.isscalar(p_minus):
        return float(re), float(im), bool(ok)
    return re, im, ok


def amplitude_nodes(psi, tol: float = NODE_TOL) -> np.ndarray:
    """Boolean mask of bins whose amplitude is below the node threshold."""
    return np.abs(np.asarray(psi)) < tol


def phase_envelope(psi) -> np.ndarray:
    """Quadrant-aware phase per bin, in (-pi, pi]; nodes get phase 0.

    The quadrant-aware two-argument arctangent is used instead of a plain
    arctan of the ratio, which cannot leave (-pi/2, pi/2).
    """
    arr = np.asarray(psi, dtype=np.complex128)
    phases = np.arctan2(arr.imag, arr.real)
    phases[phases == -np.pi] = np.pi
    phases[amplitude_nodes(arr)] = 0.0
    return phases


def invert_pair(depths, p):
    """Invert the response factors ``p[..., d]`` of a +/-theta ``depths`` pair.

    ``depths`` is one pair for every row of ``p``, or one pair per row
    (shape ``p.shape[:-2] + (2,)``). Returns ``(re, im, branch_ok)`` over the
    leading axes of ``p``, from :func:`invert_general` at each row's
    theta = |depth|. Every operation is elementwise, so a block of scans
    inverts to the same bits as each scan on its own.
    """
    depths = np.asarray(depths, dtype=np.float64)
    if depths.shape[-1:] != (2,):
        raise IncompleteDepthsError(
            f"reconstruction needs exactly a +/-theta depth pair, got {depths.tolist()}")
    a, b = depths[..., 0], depths[..., 1]
    if ((np.abs(a + b) > 1e-12) | (a == b)).any():
        raise IncompleteDepthsError(f"depths {depths.tolist()} are not a +/-theta pair")
    p = np.asarray(p, dtype=np.float64)
    pp, pm = p[..., 0], p[..., 1]
    if not (a > 0).all():  # a row that lists -theta first
        plus = (a > 0)[..., None]
        pp, pm = np.where(plus, pp, pm), np.where(plus, pm, pp)
    return invert_general(pp, pm, np.abs(a)[..., None])


def _detect_folds(raw: np.ndarray, ok: np.ndarray) -> None:
    """Flag bins that may have violated the Re[w] <= 1/2 branch condition.

    The bin quantities w_u sum to exactly 1, so sum(raw)/4 should be 1. A
    fold at bin u replaces re_u by 4 - re_u (always a reduction), leaving a
    real deficit D = 4 - Re[sum(raw)] = 4*(1 - Re[sum(raw)/4]). When the sum
    rule breaks, any bin whose folded interpretation would explain the
    deficit is flagged; if no single bin explains it, the whole
    reconstruction is untrustworthy and every bin is flagged. Each row of
    the last axis is checked on its own.
    """
    total = np.sum(raw, axis=-1) / 4.0
    broken = ~(np.abs(total - 1.0) <= FOLD_SUM_TOL)
    deficit = 4.0 * (1.0 - total.real)
    explained = 4.0 - 2.0 * raw.real
    window = np.maximum(FOLD_ATTR_ABS, FOLD_ATTR_REL * deficit)
    candidates = np.abs(explained - deficit[..., None]) <= window[..., None]
    flag_all = (deficit <= 0) | ~np.any(candidates, axis=-1)
    ok &= ~(broken[..., None] & (flag_all[..., None] | candidates))


def reconstruct_inverted(grid: BasisGrid, re, im, branch_ok,
                         overlaps=None) -> ReconstructionResult:
    """Finish :func:`invert_pair` output into a reconstruction.

    Runs the sum-rule fold check, divides out ``overlaps`` when given,
    normalizes the raw values to a unit vector and fixes the global phase
    (see :func:`reconstruct_wavefunction`). ``re``, ``im`` and ``branch_ok``
    are one scan's (N,) arrays or an (..., N) block of scans; every step
    works along the bin axis alone, so a block gives the same bits as each
    of its rows on its own.
    """
    # a row sum runs pairwise only along the innermost axis
    re, im = np.ascontiguousarray(re), np.ascontiguousarray(im)
    raw = re + 1j * im
    ok = np.array(branch_ok, dtype=bool, copy=True, order="C")
    _detect_folds(raw, ok)

    scaled = raw if overlaps is None else raw / np.asarray(overlaps, dtype=np.complex128)
    norm = np.sqrt(_sum_squares(scaled))[..., None]
    # a zero row has nothing to normalize: it stays zero, every bin a flagged node
    ok &= norm != 0.0
    psi = gauge_fix(np.divide(scaled, norm, out=np.zeros_like(scaled), where=norm != 0.0))

    return ReconstructionResult(
        grid=grid,
        raw_re=re,
        raw_im=im,
        psi=psi,
        amplitude_env=np.abs(psi),
        phase_env=phase_envelope(psi),
        branch_ok=ok,
        nodes=amplitude_nodes(psi),
    )


def reconstruct_wavefunction(rmap: ResponseMap, overlaps=None) -> ReconstructionResult:
    """Recover the complex wavefunction from a +/-theta response map.

    Inverts the pair with :func:`invert_general`. The raw values are
    normalized to a unit vector (absorbing the omitted constant factor) and
    the unobservable global phase is fixed by rotating the largest-amplitude
    bin to be real positive.

    ``overlaps`` corrects for a non-constant post-selector: the inversion
    recovers psi_u times the selector overlap, so for a selector whose
    overlaps vary in phase across bins, pass its overlap vector to divide
    them back out. With the default uniform selector no correction is
    needed.
    """
    re, im, ok = invert_pair(rmap.depths, rmap.p)
    return reconstruct_inverted(rmap.grid, re, im, ok, overlaps)


def _sum_squares(z) -> np.ndarray:
    """|z|^2 summed along the last axis, as numpy pairwise sums (no BLAS)."""
    return np.sum(z.real * z.real, axis=-1) + np.sum(z.imag * z.imag, axis=-1)


def _rotate_to_real(arr: np.ndarray, ref) -> np.ndarray:
    """``arr * conj(ref) / |ref|`` per row; a row whose ``ref`` is 0 stays as it is.

    ``ref`` holds one complex value per row of ``arr`` (the leading axes).
    """
    ref = np.asarray(ref, dtype=np.complex128)[..., None]
    mag = np.abs(ref)
    turn = np.divide(ref.conjugate(), mag, out=np.ones_like(ref), where=mag != 0.0)
    return np.where(mag != 0.0, arr * turn, arr)


def gauge_fix(psi) -> np.ndarray:
    """Rotate a complex vector so its largest-amplitude bin is real positive.

    The same convention reconstruction uses; apply it to a prepared state
    before comparing phase envelopes bin by bin. Works on each row of an
    (..., N) block; an all-zero row is returned unchanged.
    """
    arr = np.asarray(psi, dtype=np.complex128)
    peak = np.argmax(np.abs(arr), axis=-1)[..., None]
    return _rotate_to_real(arr, np.take_along_axis(arr, peak, axis=-1)[..., 0])
