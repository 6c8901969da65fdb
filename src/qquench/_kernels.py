"""Hot numeric kernels, vectorized over numpy arrays.

The inner loops that dominate runtime: per-bin response probabilities and
trial-averaged noisy measurements. Noise comes from the counter-keyed
streams in :mod:`rng`, so the output bits depend only on the inputs, never
on call order.
"""

from __future__ import annotations

import math

import numpy as np

from . import rng

# Draws run in blocks of at most _BLOCK_DRAWS in one reused 768 KB
# workspace, so the working set is fixed whatever (N, depths, trials) is.
# Per-trial reads are summed in chunks of _TRIAL_CHUNK: a cell sums the same
# chunks pairwise in the same order for any block size, so no bit depends on it.
_TRIAL_CHUNK = 4096
_BLOCK_DRAWS = 2**15

# A bound on |z| for every draw of rng.normals_into: u1 >= 2**-54, so the
# Box-Muller radius sqrt(-2 ln u1) is at most sqrt(108 ln 2) = 8.6522, and
# the polynomial cos factor exceeds 1 by a few ulp at most. A cell whose
# noiseless value exceeds Z_MAX noise scales can never clamp at zero.
Z_MAX = 8.66

# counter word of trial 0, a one-draw cell's draw; built once, as it costs
# about a tenth of a small sweep's whole kernel call
_TRIAL0_WORD = rng.counter_words(np.zeros(1, dtype=np.uint64))


def true_probabilities(psi, overlaps, thetas):
    """Noiseless baseline and quenched projection probabilities.

    Returns ``(p0, pr)`` with ``pr[n, d]`` the probability after quenching
    bin ``n`` by depth ``thetas[d]``.
    """
    a0 = np.sum(overlaps * psi)
    shift = np.exp(1j * thetas) - 1.0
    amp = a0 + np.outer(overlaps * psi, shift)
    return float(abs(a0) ** 2), np.abs(amp) ** 2


def noisy_mean_matrix(pr_true, sigma_abs, trials, keys):
    """Trial-averaged noisy reads of every (bin, depth) probability.

    Read ``t`` of cell ``[n, d]`` adds ``sigma_abs`` times the normal at
    counter ``t`` of stream ``keys[n, d]`` and clamps at zero; a cell is the
    mean of its ``trials`` reads. A cell with ``pr_true > Z_MAX * sigma_abs``
    never clamps, so its mean is ``pr_true`` plus a normal of std
    ``sigma_abs / sqrt(trials)``, drawn as one normal: with z0 the normal at
    counter 0 of the cell's key, ``z0 * (sigma_abs / sqrt(trials)) + pr_true``,
    which at one trial is the per-trial read bit for bit. Every other cell
    sums its reads.
    """
    if sigma_abs == 0.0:
        # zero noise: trial averaging would only add rounding error
        return np.array(pr_true, dtype=np.float64, copy=True)
    base = pr_true.reshape(-1)
    flat_keys = keys.reshape(-1)
    out = _one_draw_means(base, sigma_abs / math.sqrt(trials), flat_keys)
    if trials > 1:
        low = np.flatnonzero(base <= Z_MAX * sigma_abs)
        if low.size:
            out[low] = _per_trial_means(base[low], sigma_abs, trials, flat_keys[low])
    return out.reshape(pr_true.shape)


def _one_draw_means(base, scale, keys):
    """``max(z0 * scale + base, 0)`` per cell, z0 the normal at counter 0 of
    its key, in blocks of cells.

    The clamp fires only under the bound at one trial, where one read is the
    whole mean. One workspace serves every block: fresh temporaries would
    let the allocator return their pages and fault them in again per block.
    """
    out = np.empty(base.size)
    work = np.empty((3, min(base.size, _BLOCK_DRAWS)), dtype=np.uint64)
    for a in range(0, base.size, _BLOCK_DRAWS):
        b = min(a + _BLOCK_DRAWS, base.size)
        cells = out[a:b]
        np.multiply(rng.normals_into(keys[a:b], _TRIAL0_WORD, work[:, :b - a]), scale,
                    out=cells)
        cells += base[a:b]
        np.maximum(cells, 0.0, out=cells)
    return out


def _per_trial_means(base, sigma_abs, trials, keys):
    """The mean of ``trials`` clamped reads per cell, in blocks of cells per trial chunk."""
    base, key_col = base[:, None], keys[:, None]
    acc = np.zeros(base.shape[0])
    for start in range(0, trials, _TRIAL_CHUNK):
        ctrs = np.arange(start, min(start + _TRIAL_CHUNK, trials), dtype=np.uint64)
        words = rng.counter_words(ctrs)
        rows = max(1, min(acc.size, _BLOCK_DRAWS // ctrs.size))
        work = np.empty((3, rows, words.size), dtype=np.uint64)
        for a in range(0, acc.size, rows):
            b = min(a + rows, acc.size)
            draws = rng.normals_into(key_col[a:b], words, work[:, :b - a])
            draws *= sigma_abs
            draws += base[a:b]
            np.maximum(draws, 0.0, out=draws)
            acc[a:b] += draws.sum(axis=1)
    return acc / trials

