"""Hot numeric kernels, vectorized over numpy arrays.

The inner loops that dominate runtime: per-bin response probabilities and
trial-averaged noisy measurements. Noise comes from the counter-keyed
streams in :mod:`rng`, so the output bits depend only on the inputs, never
on call order.
"""

from __future__ import annotations

import os
import threading

import numpy as np

from . import rng

# Trials are summed in chunks of _TRIAL_CHUNK and each chunk over blocks of
# about _BLOCK_DRAWS draws (a 3 x 256 KB workspace per worker and chunk), so
# the working set stays fixed whatever (N, depths, trials) is. Both are
# constants: a cell sums the same contiguous trial chunk pairwise and adds its
# chunks in the same order for any block size or worker count, so the output
# bits never depend on memory or on the number of CPUs.
_TRIAL_CHUNK = 4096
_BLOCK_DRAWS = 2**15

# The blocks of a chunk run on up to one thread per CPU this process may use
# (numpy releases the GIL inside the ufuncs). Read once: a per-call lookup
# was a measurable share of the one-block calls a small sweep makes.
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


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
        stripes = min(_WORKERS, -(-acc.size // rows))
        if stripes == 1:
            _add_stripe(acc, base, key_col, sigma_abs, words, rows, 0, acc.size)
        else:
            _add_stripes(stripes, acc, base, key_col, sigma_abs, words, rows)
    return (acc / trials).reshape(pr_true.shape)


def _add_stripe(acc, base, key_col, sigma_abs, words, rows, lo, hi):
    """Add one trial chunk of cells ``lo:hi`` to ``acc``, in blocks of ``rows`` cells.

    ``words`` are the chunk's counter words. One workspace serves every
    block: fresh temporaries per block would let the allocator return their
    pages to the system and fault them in again on the next block.
    """
    work = np.empty((3, min(rows, hi - lo), words.size), dtype=np.uint64)
    for a in range(lo, hi, rows):
        b = min(a + rows, hi)
        draws = rng.normals_into(key_col[a:b], words, work[:, :b - a])
        draws *= sigma_abs
        draws += base[a:b]
        np.maximum(draws, 0.0, out=draws)
        acc[a:b] += draws.sum(axis=1)


def _add_stripe_keeping_error(errors, k, *args):
    """:func:`_add_stripe`, with its exception kept in ``errors[k]``: a thread drops it."""
    try:
        _add_stripe(*args)
    except BaseException as exc:  # re-raised by the caller of _add_stripes
        errors[k] = exc


def _add_stripes(stripes, acc, base, key_col, sigma_abs, words, rows):
    """:func:`_add_stripe` over all cells, split into ``stripes`` runs of whole blocks.

    The caller's thread adds stripe 0 and one new thread each of the others;
    the stripes write disjoint slices of ``acc``. Every thread is joined
    before the first exception of any stripe is raised, so ``acc`` is never
    returned partly summed.
    """
    blocks = -(-acc.size // rows)
    cuts = [min(k * blocks // stripes * rows, acc.size) for k in range(stripes + 1)]
    errors = [None] * stripes
    started = []
    try:
        for k in range(1, stripes):
            thread = threading.Thread(target=_add_stripe_keeping_error, args=(
                errors, k, acc, base, key_col, sigma_abs, words, rows, cuts[k], cuts[k + 1]))
            thread.start()
            started.append(thread)
        _add_stripe_keeping_error(errors, 0, acc, base, key_col, sigma_abs, words, rows,
                                  cuts[0], cuts[1])
    finally:
        for thread in started:
            thread.join()
    for exc in errors:
        if exc is not None:
            raise exc


def noisy_mean_scalar(value, sigma_abs, trials, key):
    """:func:`noisy_mean_matrix` of one probability on one stream key."""
    if sigma_abs == 0.0:
        return float(value)
    cell = np.array([[value]], dtype=np.float64)
    keys = np.array([[key]], dtype=np.uint64)
    return float(noisy_mean_matrix(cell, sigma_abs, trials, keys)[0, 0])
