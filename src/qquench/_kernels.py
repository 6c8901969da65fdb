"""Hot numeric kernels, vectorized over numpy arrays.

The inner loops that dominate runtime: per-bin response probabilities and
trial-averaged noisy measurements. Noise comes from the counter-keyed
streams in :mod:`rng`, so the output bits depend only on the inputs, never
on call order.
"""

from __future__ import annotations

import numpy as np

from . import rng

# Fixed trial block size; constant so the pairwise summation order (and
# therefore the output bits) never depends on memory.
_TRIAL_CHUNK = 4096


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
    acc = np.zeros(pr_true.shape)
    base = pr_true[:, :, None]
    key_block = keys[:, :, None]
    for start in range(0, trials, _TRIAL_CHUNK):
        ctrs = np.arange(start, min(start + _TRIAL_CHUNK, trials), dtype=np.uint64)
        draws = base + sigma_abs * rng.normals(key_block, ctrs)
        np.maximum(draws, 0.0, out=draws)
        acc += draws.sum(axis=2)
    return acc / trials


def noisy_mean_scalar(value, sigma_abs, trials, key):
    """:func:`noisy_mean_matrix` of one probability on one stream key."""
    if sigma_abs == 0.0:
        return float(value)
    cell = np.array([[value]], dtype=np.float64)
    keys = np.array([[key]], dtype=np.uint64)
    return float(noisy_mean_matrix(cell, sigma_abs, trials, keys)[0, 0])
