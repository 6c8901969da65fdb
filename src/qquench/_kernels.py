"""Hot numeric kernels, vectorized over numpy arrays.

The inner loops that dominate runtime: per-bin response probabilities and
trial-averaged noisy measurements. Noise comes from the counter-keyed
streams in :mod:`rng`, so the output bits depend only on the inputs, never
on call order.
"""

from __future__ import annotations

import numpy as np

from . import rng

# Trials are summed in chunks of _TRIAL_CHUNK and each chunk over blocks of
# about _BLOCK_DRAWS draws (a 3 x 256 KB workspace per chunk), so the working
# set stays fixed whatever (N, depths, trials) is. Both are constants: a cell
# sums the same contiguous trial chunk pairwise and adds its chunks in the
# same order for any block size, so the output bits never depend on memory.
_TRIAL_CHUNK = 4096
_BLOCK_DRAWS = 2**15


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
    counter ``t`` of stream ``keys[n, d]`` and clamps at zero.
    """
    if sigma_abs == 0.0:
        # zero noise: trial averaging would only add rounding error
        return np.array(pr_true, dtype=np.float64, copy=True)
    base = pr_true.reshape(-1, 1)
    key_col = keys.reshape(-1, 1)
    acc = np.zeros(base.shape[0])
    for start in range(0, trials, _TRIAL_CHUNK):
        ctrs = np.arange(start, min(start + _TRIAL_CHUNK, trials), dtype=np.uint64)
        words = rng.counter_words(ctrs)
        rows = max(1, min(acc.size, _BLOCK_DRAWS // ctrs.size))
        # one workspace for every block of the chunk: fresh temporaries per
        # block would let the allocator return their pages to the system and
        # fault them in again on the next block
        work = np.empty((3, rows, ctrs.size), dtype=np.uint64)
        for lo in range(0, acc.size, rows):
            hi = min(lo + rows, acc.size)
            draws = rng.normals_into(key_col[lo:hi], words, work[:, :hi - lo])
            draws *= sigma_abs
            draws += base[lo:hi]
            np.maximum(draws, 0.0, out=draws)
            acc[lo:hi] += draws.sum(axis=1)
    return (acc / trials).reshape(pr_true.shape)


def noisy_mean_scalar(value, sigma_abs, trials, key):
    """:func:`noisy_mean_matrix` of one probability on one stream key."""
    if sigma_abs == 0.0:
        return float(value)
    cell = np.array([[value]], dtype=np.float64)
    keys = np.array([[key]], dtype=np.uint64)
    return float(noisy_mean_matrix(cell, sigma_abs, trials, keys)[0, 0])
