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
from .quench import NoiseModel, measure_seeds, scan
from .reconstruct import (
    NODE_TOL,
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


def _envelope_correlation(rec, ref, degenerate_by_cosine: bool, valid=None):
    """Normalized correlation of two envelopes over the ``valid`` bins of each row.

    Without ``valid`` the envelopes must have one shape and every bin
    counts. An empty row scores 1. When either masked envelope is
    identically zero the correlation is 0/0: it scores the mean cosine of
    the difference if ``degenerate_by_cosine`` (1 for two flat-phase
    envelopes), else 0.
    """
    x = np.asarray(rec, dtype=np.float64)
    y = np.asarray(ref, dtype=np.float64)
    if valid is None:
        if x.shape != y.shape:
            raise ValueError(f"envelope shapes differ: {x.shape} vs {y.shape}")
        valid = np.ones(x.shape, dtype=bool)
    x = np.where(valid, x, 0.0)
    y = np.where(valid, y, 0.0)
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


def fidelity_phase(phase_rec, phase_in) -> float:
    """Normalized correlation of two phase envelopes.

    When either envelope is identically zero the correlation degenerates;
    the mean cosine of the pointwise phase difference is reported instead,
    so two flat-phase envelopes score 1.
    """
    return _envelope_correlation(phase_rec, phase_in, degenerate_by_cosine=True)


def fidelity_amplitude(amp_rec, amp_in) -> float:
    """Normalized correlation of two amplitude envelopes."""
    return _envelope_correlation(amp_rec, amp_in, degenerate_by_cosine=False)


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
    bit for bit to scoring each row on its own.
    """
    psi_in = np.asarray(state.amplitudes, dtype=np.complex128)
    overall = fidelity_overall(result.psi, psi_in)
    psi_rec = _rotate_to_real(result.psi, _inner(psi_in, result.psi))

    amp_in = np.abs(psi_in)
    valid = result.branch_ok & ~result.nodes & (amp_in >= NODE_TOL)
    floor = resolution_floor(noise)
    if floor > 0.0:
        valid &= np.hypot(result.raw_re, result.raw_im) >= floor

    phase = _envelope_correlation(phase_envelope(psi_rec), phase_envelope(psi_in),
                                  degenerate_by_cosine=True, valid=valid)
    amplitude = _envelope_correlation(result.amplitude_env, amp_in,
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
    """
    depth_arr = np.asarray(depths, dtype=np.float64)
    if depth_arr.ndim != 1 or depth_arr.size == 0:
        raise ValueError("depths must be a non-empty 1-d sequence")
    if not np.all(np.isfinite(depth_arr)):
        raise ValueError("depths must be finite")
    if np.any(depth_arr <= 0) or np.any(1.0 - np.cos(depth_arr) < 1e-9):
        raise ValueError("each depth must be positive and away from 0 mod 2pi")
    if isinstance(n_seeds, bool) or not isinstance(n_seeds, numbers.Integral):
        raise ValueError(f"n_seeds must be an integer, got {n_seeds!r}")
    if n_seeds < 1:
        raise ValueError(f"n_seeds must be >= 1, got {n_seeds}")
    if not noise.noiseless and n_seeds < 2:
        raise ValueError("noisy sweeps need n_seeds >= 2 for a spread estimate")

    n_depths = depth_arr.size
    fw = np.empty((n_depths, n_seeds))
    fp = np.empty((n_depths, n_seeds))
    fa = np.empty((n_depths, n_seeds))
    overlaps = None if selector.label == "uniform" else selector.overlaps

    for d, theta in enumerate(depth_arr.tolist()):
        # Seed s scans with seed derive_key(seed, float_tag(theta), s). All
        # seeds are measured, inverted, finished and scored as one block.
        if noise.noiseless:
            seeds = [noise.seed]
        else:
            seeds = rng.derive_keys(noise.seed, rng.float_tag(theta), np.arange(n_seeds))
        pair = (theta, -theta)
        _, _, p = measure_seeds(state, selector, pair, noise, seeds)
        re, im, ok = invert_pair(pair, p)
        scores = score_reconstruction(
            reconstruct_inverted(state.grid, re, im, ok, overlaps), state, noise)
        fw[d], fp[d], fa[d] = scores.f_w, scores.f_p, scores.f_a

    # Each column of a noiseless scan depends only on its own depth, so one
    # all-depth scan gives the same map as one scan per depth.
    quiet = NoiseModel(relative_sigma=0.0, seed=noise.seed, trials=1)
    magnitudes = np.abs(scan(state, selector, depth_arr, quiet).response_matrix())

    if noise.noiseless:
        zeros = np.zeros(n_depths)
        std = (zeros, zeros.copy(), zeros.copy())
    else:
        std = (fw.std(axis=1, ddof=1), fp.std(axis=1, ddof=1),
               fa.std(axis=1, ddof=1))
    return SweepResult(
        grid=state.grid,
        depths=depth_arr.copy(),
        seed_count=n_seeds,
        fw_mean=fw.mean(axis=1), fw_std=std[0],
        fp_mean=fp.mean(axis=1), fp_std=std[1],
        fa_mean=fa.mean(axis=1), fa_std=std[2],
        response_magnitudes=magnitudes,
    )
