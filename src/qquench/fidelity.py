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
    ``valid_bins`` only.
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


def fidelity_overall(psi_rec, psi_in) -> float:
    """|<psi_rec|psi_in>| / (|psi_rec| |psi_in|); 0 if either vector is zero."""
    a = np.asarray(psi_rec, dtype=np.complex128)
    b = np.asarray(psi_in, dtype=np.complex128)
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(abs(np.vdot(a, b)) / (na * nb))


def _envelope_correlation(rec, ref, degenerate_by_cosine: bool) -> float:
    x = np.asarray(rec, dtype=np.float64)
    y = np.asarray(ref, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"envelope shapes differ: {x.shape} vs {y.shape}")
    if x.size == 0:
        return 1.0
    sx = float(np.sum(x * x))
    sy = float(np.sum(y * y))
    if sx == 0.0 or sy == 0.0:
        if degenerate_by_cosine:
            # Flat-phase envelopes make the correlation 0/0; fall back to
            # the mean cosine of the phase difference, which is 1 when both
            # envelopes are identically zero.
            return float(np.mean(np.cos(x - y)))
        return 0.0
    return float(np.sum(x * y) / math.sqrt(sx * sy))


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
    """
    psi_in = np.asarray(state.amplitudes, dtype=np.complex128)
    overall = fidelity_overall(result.psi, psi_in)
    z = np.vdot(psi_in, result.psi)
    psi_rec = result.psi * (z.conjugate() / abs(z)) if abs(z) > 0 else result.psi

    raw_mag = np.hypot(result.raw_re, result.raw_im)
    valid = result.branch_ok & ~result.nodes
    valid &= np.abs(psi_in) >= NODE_TOL
    floor = resolution_floor(noise)
    if floor > 0.0:
        valid &= raw_mag >= floor

    amp_in = np.abs(psi_in)
    phase_in = phase_envelope(psi_in)
    phase_rec = phase_envelope(psi_rec)
    phase = fidelity_phase(phase_rec[valid], phase_in[valid])
    amplitude = fidelity_amplitude(result.amplitude_env[valid], amp_in[valid])
    return FidelityScores(f_w=overall, f_p=phase, f_a=amplitude,
                          valid_bins=valid)


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
        # seeds are measured and inverted as one block, then scored one by one.
        if noise.noiseless:
            seeds = [noise.seed]
        else:
            seeds = rng.derive_keys(noise.seed, rng.float_tag(theta), np.arange(n_seeds))
        pair = (theta, -theta)
        _, _, p = measure_seeds(state, selector, pair, noise, seeds)
        re, im, ok = invert_pair(pair, p)
        scores = [
            score_reconstruction(
                reconstruct_inverted(state.grid, re[s], im[s], ok[s], overlaps),
                state, noise)
            for s in range(len(seeds))
        ]
        fw[d] = [sc.f_w for sc in scores]
        fp[d] = [sc.f_p for sc in scores]
        fa[d] = [sc.f_a for sc in scores]

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
