"""Fidelity metrics between reconstructed and prepared states, plus the
depth sweep that maps fidelity against quench depth.

Three scores are reported. The overall fidelity is the usual state overlap
magnitude and needs no masking. The phase and amplitude fidelities are
normalized correlations of the respective envelopes; they are only
meaningful on bins where the reconstruction resolved a value, so branch
failures, amplitude nodes, and bins whose raw magnitude sits below the
noise floor are excluded from those two sums.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import rng
from .quench import NoiseModel, _true_response, measure_seeds
from .reconstruct import (
    NODE_TOL,
    _one_minus_cos,
    _rotate_to_real,
    _sum_squares,
    invert_pair,
    phase_envelope,
    reconstruct_inverted,
)
from .states import BasisGrid, PostSelector, WavefunctionState

# A raw inversion magnitude is treated as resolved when it exceeds this
# multiple of the per-bin noise scale (2 * sigma_rel / sqrt(trials); the
# factor 2 because a response factor combines two measured probabilities).
RESOLVE_SNR_FACTOR = 10.0

# A sweep's (depth, seed) rows run in blocks of at most this many bins, so its
# memory stays bounded; at N=2000, 2**16 ran slower and 2**18 peaked higher.
_SWEEP_CELLS = 2**15


@dataclass(frozen=True)
class FidelityScores:
    """The three reconstruction scores and the bin mask they used.

    ``f_w`` (overall) compares the full complex vectors and ignores the
    mask; ``f_p`` (phase) and ``f_a`` (amplitude) are computed on
    ``valid_bins`` only. A scored block holds one score per row, as arrays.
    """

    f_w: float
    f_p: float
    f_a: float
    valid_bins: np.ndarray


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Fidelity statistics per quench depth plus the noiseless response map.

    Mean and sample standard deviation are taken over ``seed_count``
    independent noise realizations for each depth. ``response_magnitudes``
    holds |p(bin, depth)| of the noiseless +theta response, the heat-map
    companion to the fidelity curve.
    """

    grid: BasisGrid
    depths: np.ndarray
    seed_count: int
    fw_mean: np.ndarray
    fw_std: np.ndarray
    fp_mean: np.ndarray
    fp_std: np.ndarray
    fa_mean: np.ndarray
    fa_std: np.ndarray
    response_magnitudes: np.ndarray


def _scalar_or_array(x):
    """A 0-d result as a float, a per-row result as an array."""
    return float(x) if np.ndim(x) == 0 else x


def _inner(a, b):
    """<a|b> per row: sum(conj(a) * b) along the last axis."""
    return np.sum(a.conjugate() * b, axis=-1)


def fidelity_overall(psi_rec, psi_in):
    """|<psi_rec|psi_in>| / (|psi_rec| |psi_in|); 0 if either vector is zero.

    Works on each row of (..., N) blocks; one pair of vectors gives a float.
    """
    a = np.asarray(psi_rec, dtype=np.complex128)
    b = np.asarray(psi_in, dtype=np.complex128)
    scale = np.sqrt(_sum_squares(a)) * np.sqrt(_sum_squares(b))
    ratio = np.divide(np.abs(_inner(a, b)), scale,
                      out=np.zeros(np.shape(scale)), where=scale != 0.0)
    return _scalar_or_array(ratio)


def _envelope_correlation(rec, ref, degenerate_by_cosine: bool, valid):
    """Normalized correlation of two envelopes over the ``valid`` bins of each row.

    An empty row scores 1. When either masked envelope is identically zero
    the correlation is 0/0: it scores the mean cosine of the difference if
    ``degenerate_by_cosine`` (1 for two flat-phase envelopes), else 0.
    """
    x = np.where(valid, np.asarray(rec, dtype=np.float64), 0.0)
    y = np.where(valid, np.asarray(ref, dtype=np.float64), 0.0)
    count = np.sum(valid, axis=-1)
    sx = np.sum(x * x, axis=-1)
    sy = np.sum(y * y, axis=-1)
    degenerate = (sx == 0.0) | (sy == 0.0)
    out = np.divide(np.sum(x * y, axis=-1), np.sqrt(sx * sy),
                    out=np.zeros(np.shape(sx)), where=~degenerate)
    if degenerate_by_cosine:
        cosines = np.sum(np.where(valid, np.cos(x - y), 0.0), axis=-1)
        np.divide(cosines, count, out=out, where=degenerate & (count > 0))
    return _scalar_or_array(np.where(count == 0, 1.0, out))


def resolution_floor(noise: NoiseModel | None) -> float:
    """Raw-magnitude threshold below which a bin counts as unresolved."""
    if noise is None or noise.noiseless:
        return 0.0
    return RESOLVE_SNR_FACTOR * 2.0 * noise.relative_sigma / math.sqrt(noise.trials)


def score_reconstruction(result, state: WavefunctionState,
                         noise: NoiseModel | None = None) -> FidelityScores:
    """Score a reconstruction against the state that was prepared.

    Phase comparison is gauge sensitive and the reconstruction's stored
    phase convention (largest-amplitude bin real positive) is unstable when
    the prepared envelope has near-tied peaks. The reconstruction is
    therefore rotated so its overlap with the prepared state is real
    positive, the unique gauge that matches the two vectors, before the
    envelopes are compared.

    A block reconstruction (fields of shape (..., N)) is scored row by row
    in one call: the scores are then arrays over the leading axes, equal
    bit for bit to scoring each row on its own, whatever the memory layout
    of its fields.
    """
    # a row sum runs pairwise only along the innermost axis
    psi, amp_rec, ok, nodes, raw_re, raw_im = (
        np.ascontiguousarray(getattr(result, name))
        for name in ("psi", "amplitude_env", "branch_ok", "nodes", "raw_re", "raw_im"))
    psi_in = np.asarray(state.amplitudes, dtype=np.complex128)
    overall = fidelity_overall(psi, psi_in)
    psi_rec = _rotate_to_real(psi, _inner(psi_in, psi))

    amp_in = np.abs(psi_in)
    valid = ok & ~nodes & (amp_in >= NODE_TOL)
    floor = resolution_floor(noise)
    if floor > 0.0:
        valid &= np.hypot(raw_re, raw_im) >= floor

    phase = _envelope_correlation(phase_envelope(psi_rec), phase_envelope(psi_in),
                                  degenerate_by_cosine=True, valid=valid)
    amplitude = _envelope_correlation(amp_rec, amp_in,
                                      degenerate_by_cosine=False, valid=valid)
    return FidelityScores(f_w=overall, f_p=phase, f_a=amplitude, valid_bins=valid)


def depth_sweep(state: WavefunctionState, selector: PostSelector, depths,
                noise: NoiseModel, n_seeds: int = 32) -> SweepResult:
    """Repeat the quench/reconstruct pipeline over seeds for each depth.

    Each (depth, seed) combination runs on an independent noise stream
    derived from the base seed, so the statistics are over genuinely
    separate realizations. Reconstructions divide out the selector's
    overlaps unless it is the uniform one. With noise enabled at least 2
    seeds are required for the sample standard deviation to exist; noiseless
    sweeps are deterministic and computed once per depth with zero spread.
    A row is one (depth, seed) scan of the +/-theta pair; rows run in depth order,
    in blocks of at most ``_SWEEP_CELLS`` bins measured and scored as one.
    """
    depth_arr = np.asarray(depths, dtype=np.float64)
    if depth_arr.ndim != 1 or depth_arr.size == 0:
        raise ValueError("depths must be a non-empty 1-d sequence")
    for theta in depth_arr.tolist():
        _one_minus_cos(theta)  # the inversion's depth check, before any measuring
    if isinstance(n_seeds, bool) or not isinstance(n_seeds, numbers.Integral):
        raise ValueError(f"n_seeds must be an integer, got {n_seeds!r}")
    if n_seeds < 1:
        raise ValueError(f"n_seeds must be >= 1, got {n_seeds}")
    if not noise.noiseless and n_seeds < 2:
        raise ValueError("noisy sweeps need n_seeds >= 2 for a spread estimate")

    n_depths, n_bins = depth_arr.size, state.grid.size
    pairs = np.stack([depth_arr, -depth_arr], axis=-1)
    # one call for all depths, as a column depends on its own depth alone
    _, p0_true, pr_true = _true_response(state, selector, pairs.ravel())
    magnitudes = np.abs(1.0 - pr_true[:, 0::2] / p0_true)  # the noiseless +theta map
    # C order per depth: numpy adds a row pairwise only along the innermost axis
    pr_pairs = np.ascontiguousarray(pr_true.reshape(n_bins, n_depths, 2).transpose(1, 0, 2))

    # row (d, s) scans with seed derive_keys(seed, float_tag(theta_d), s); a
    # noiseless scan does not depend on its seed, so it runs one row per depth
    per_depth = 1 if noise.noiseless else n_seeds
    row_depth = np.repeat(np.arange(n_depths), per_depth)
    seeds = rng.derive_keys(noise.seed, depth_arr.view(np.uint64)[:, None],
                            np.arange(per_depth)).ravel()
    overlaps = None if selector.label == "uniform" else selector.overlaps
    fw, fp, fa = (np.empty(row_depth.size) for _ in range(3))
    step = max(1, _SWEEP_CELLS // n_bins)
    for a in range(0, row_depth.size, step):
        rows = row_depth[a:a + step]
        _, _, p, _ = measure_seeds(selector, p0_true, pr_pairs[rows], pairs[rows], noise,
                                   seeds[a:a + step])
        re, im, ok = invert_pair(pairs[rows], p)
        scores = score_reconstruction(
            reconstruct_inverted(state.grid, re, im, ok, overlaps), state, noise)
        fw[a:a + step], fp[a:a + step], fa[a:a + step] = scores.f_w, scores.f_p, scores.f_a
    fw, fp, fa = (np.repeat(x.reshape(n_depths, per_depth), n_seeds // per_depth, axis=1)
                  for x in (fw, fp, fa))
    std = [np.zeros(n_depths) if noise.noiseless else x.std(axis=1, ddof=1) for x in (fw, fp, fa)]
    return SweepResult(
        grid=state.grid,
        depths=depth_arr.copy(),
        seed_count=n_seeds,
        fw_mean=fw.mean(axis=1), fw_std=std[0],
        fp_mean=fp.mean(axis=1), fp_std=std[1],
        fa_mean=fa.mean(axis=1), fa_std=std[2],
        response_magnitudes=magnitudes,
    )
