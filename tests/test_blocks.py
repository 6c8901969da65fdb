"""Finishing and scoring over (S, N) blocks of scans, and sweeps run as
blocks of (depth, seed) rows.

``reconstruct_inverted`` and ``score_reconstruction`` take one scan or a
block of scans through the same code. A block must give every row the bits
that row gets on its own, whatever its memory layout, and both must stay
within a few ulp of the per-scan formulas they replaced
(``support.reference_*``). ``depth_sweep`` must give the bits of one block
per depth (``support.reference_depth_sweep``) for any block size.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qquench import (
    WAVEFORM_NAMES,
    BasisGrid,
    NoiseModel,
    builtin_waveform,
    depth_sweep,
    dft_post_selector,
    make_state,
    score_reconstruction,
    uniform_post_selector,
)
from qquench import fidelity, rng
from qquench.reconstruct import invert_pair, reconstruct_inverted
from support import (
    measure_block,
    random_state,
    reference_depth_sweep,
    reference_reconstruct_inverted,
    reference_score,
    scaled_amplitudes,
)

# One synthetic raw inversion row per kind:
#   scan          4*w of the state plus small noise: the sum rule holds
#   fold          one bin folded past Re w = 1/2: exactly that bin is flagged
#   no_candidate  sum rule broken and no bin explains the deficit: all flagged
#   surplus       sum rule broken with deficit <= 0: all flagged
#   zero          all-zero row: zero norm, psi stays zero, all flagged
#   preflagged    every bin arrives branch-flagged: the valid mask is empty
#   noise         arbitrary values and flags
ROW_KINDS = ("scan", "fold", "no_candidate", "surplus", "zero", "preflagged", "noise")

REC_FIELDS = ("raw_re", "raw_im", "psi", "amplitude_env", "phase_env", "branch_ok", "nodes")
REC_FLOATS = ("raw_re", "raw_im", "amplitude_env", "phase_env")
NOISES = {
    "none": None,
    "quiet": NoiseModel(relative_sigma=0.0),
    # resolution floor 10 * 2 * 0.01 = 0.2: some bins fall below it
    "noisy": NoiseModel(relative_sigma=0.01, seed=1, trials=1),
}


def _setup(n, selector, state_kind, gen):
    grid = BasisGrid(size=n)
    sel = uniform_post_selector(grid) if selector == "uniform" else dft_post_selector(grid, 3)
    if state_kind == "flat":
        # real positive amplitudes: a flat phase envelope, so f_p takes the
        # mean-cosine fallback
        state = make_state(grid, 0.2 + gen.random(n))
    else:
        state = random_state(grid, gen)
    overlaps = None if selector == "uniform" else sel.overlaps
    return grid, sel, state, overlaps


def _row(kind, state, sel, gen):
    n = state.grid.size
    ok = np.ones(n, dtype=bool)
    im = 0.1 * gen.standard_normal(n)
    im -= im.mean()
    if kind == "scan":
        raw = 4.0 * scaled_amplitudes(state.amplitudes, sel.overlaps)
        raw += 1e-3 * (gen.standard_normal(n) + 1j * gen.standard_normal(n))
        return raw.real, raw.imag, ok
    if kind == "fold":
        a = gen.uniform(0.7, 0.8)
        re = np.full(n, 4.0 * (1.0 - a) / (n - 1))
        re[0] = 4.0 - 4.0 * a
        return re, 4.0 * im, ok
    if kind == "no_candidate":
        return np.full(n, 2.0 / n) + 0.01 * gen.random(n), im, ok
    if kind == "surplus":
        return np.full(n, 8.0 / n), im, ok
    if kind == "zero":
        return np.zeros(n), np.zeros(n), ok
    if kind == "preflagged":
        raw = 4.0 * scaled_amplitudes(state.amplitudes, sel.overlaps)
        return raw.real, raw.imag, np.zeros(n, dtype=bool)
    return gen.uniform(-3, 3, n), gen.uniform(-3, 3, n), gen.random(n) < 0.8


def _block(kinds, state, sel, gen):
    rows = [_row(kind, state, sel, gen) for kind in kinds]
    return tuple(np.array([r[i] for r in rows]) for i in range(3))


def _assert_row_equals(block, block_scores, s, single, single_scores):
    assert single.grid is block.grid
    for field in REC_FIELDS:
        assert np.array_equal(getattr(block, field)[s], getattr(single, field)), field
    for field in ("f_w", "f_p", "f_a"):
        assert isinstance(getattr(single_scores, field), float)
        assert np.array_equal(getattr(block_scores, field)[s],
                              getattr(single_scores, field)), field
    assert np.array_equal(block_scores.valid_bins[s], single_scores.valid_bins)


def _check_kind(kind, rec, scores):
    flagged = np.flatnonzero(~rec.branch_ok)
    if kind == "fold":
        assert flagged.tolist() == [0]
    elif kind in ("no_candidate", "surplus", "zero"):
        assert flagged.size == rec.branch_ok.size
    if kind == "zero":
        assert not np.any(rec.psi) and scores.f_w == 0.0
    if kind in ("zero", "preflagged"):
        assert not np.any(scores.valid_bins)
        assert scores.f_p == 1.0 and scores.f_a == 1.0


@settings(max_examples=60, deadline=None)
@given(kinds=st.lists(st.sampled_from(ROW_KINDS), min_size=1, max_size=8),
       n=st.integers(4, 16), selector=st.sampled_from(["uniform", "dft:3"]),
       state_kind=st.sampled_from(["random", "flat"]),
       noise=st.sampled_from(sorted(NOISES)), seed=st.integers(0, 2**32 - 1))
@example(kinds=list(ROW_KINDS), n=6, selector="uniform", state_kind="flat",
         noise="noisy", seed=0)
@example(kinds=list(ROW_KINDS), n=9, selector="dft:3", state_kind="random",
         noise="none", seed=1)
def test_block_equals_its_rows(kinds, n, selector, state_kind, noise, seed):
    gen = np.random.default_rng(seed)
    grid, sel, state, overlaps = _setup(n, selector, state_kind, gen)
    re, im, ok = _block(kinds, state, sel, gen)
    noise = NOISES[noise]
    block = reconstruct_inverted(grid, re, im, ok, overlaps)
    block_scores = score_reconstruction(block, state, noise)
    assert block.psi.shape == (len(kinds), n)
    assert block_scores.f_w.shape == (len(kinds),)
    for s, kind in enumerate(kinds):
        single = reconstruct_inverted(grid, re[s], im[s], ok[s], overlaps)
        single_scores = score_reconstruction(single, state, noise)
        _assert_row_equals(block, block_scores, s, single, single_scores)
        _check_kind(kind, single, single_scores)
    # more leading axes: a (1, S, N) block is the (S, N) block
    deep = reconstruct_inverted(grid, re[None], im[None], ok[None], overlaps)
    deep_scores = score_reconstruction(deep, state, noise)
    for field in REC_FIELDS:
        assert np.array_equal(getattr(deep, field)[0], getattr(block, field)), field
    for field in ("f_w", "f_p", "f_a", "valid_bins"):
        assert np.array_equal(getattr(deep_scores, field)[0], getattr(block_scores, field))


def _assert_matches_reference(rec, scores, grid, re, im, ok, overlaps, state, noise):
    ref = reference_reconstruct_inverted(grid, re, im, ok, overlaps)
    ref_scores = reference_score(ref, state, noise)
    for field in REC_FLOATS:
        assert np.max(np.abs(getattr(rec, field) - getattr(ref, field)), initial=0) <= 1e-14
    assert np.max(np.abs(rec.psi - ref.psi)) <= 1e-14
    assert np.array_equal(rec.branch_ok, ref.branch_ok)
    assert np.array_equal(rec.nodes, ref.nodes)
    for got, want in zip((scores.f_w, scores.f_p, scores.f_a), ref_scores[:3]):
        assert abs(got - want) <= 1e-14
    assert np.array_equal(scores.valid_bins, ref_scores[3])


@pytest.mark.parametrize("waveform", WAVEFORM_NAMES)
@pytest.mark.parametrize("selector", ["uniform", "dft:3"])
def test_block_matches_per_scan_reference(waveform, selector):
    # noisy scans of every builtin waveform against the per-scan
    # BLAS-norm/vdot formulas; blocks equal their rows (test above)
    grid = BasisGrid(size=20)
    state = builtin_waveform(waveform, grid)
    sel = uniform_post_selector(grid) if selector == "uniform" else dft_post_selector(grid, 3)
    overlaps = None if selector == "uniform" else sel.overlaps
    for sigma, trials in ((0.002, 1), (0.05, 3), (0.0, 1)):
        noise = NoiseModel(relative_sigma=sigma, seed=11, trials=trials)
        for theta in (np.pi / 8, 3 * np.pi / 8, np.pi / 2, 2.5):
            seeds = rng.derive_keys(noise.seed, rng.float_tag(theta), np.arange(8))
            _, _, p, _ = measure_block(state, sel, (theta, -theta), noise, seeds)
            re, im, ok = invert_pair((theta, -theta), p)
            for s in range(len(seeds)):
                row = reconstruct_inverted(grid, re[s], im[s], ok[s], overlaps)
                _assert_matches_reference(row, score_reconstruction(row, state, noise),
                                          grid, re[s], im[s], ok[s], overlaps, state, noise)


@pytest.mark.parametrize("selector", ["uniform", "dft:3"])
def test_special_rows_match_per_scan_reference(selector):
    # the fold, all-flagged, zero-norm and empty-mask rows against the old formulas
    gen = np.random.default_rng(5)
    grid, sel, state, overlaps = _setup(9, selector, "random", gen)
    for noise in NOISES.values():
        for kind in ROW_KINDS:
            re, im, ok = _row(kind, state, sel, gen)
            rec = reconstruct_inverted(grid, re, im, ok, overlaps)
            scores = score_reconstruction(rec, state, noise)
            _assert_matches_reference(rec, scores, grid, re, im, ok, overlaps, state, noise)


def _layouts(x):
    """``x`` (S, N) in C order, in Fortran order, and as the transposed view
    of a C-ordered (N, S) array."""
    return {"C": x, "F": np.asfortranarray(x), "T": np.ascontiguousarray(x.T).T}


@settings(max_examples=40, deadline=None)
@given(kinds=st.lists(st.sampled_from(ROW_KINDS), min_size=2, max_size=8),
       n=st.integers(8, 40), selector=st.sampled_from(["uniform", "dft:3"]),
       noise=st.sampled_from(sorted(NOISES)), seed=st.integers(0, 2**32 - 1))
@example(kinds=["scan"] * 8, n=20, selector="uniform", noise="noisy", seed=3)
def test_block_bits_do_not_depend_on_memory_layout(kinds, n, selector, noise, seed):
    # numpy adds a row pairwise only along the innermost axis; along any
    # other it adds in sequence, which changes the last bits
    gen = np.random.default_rng(seed)
    grid, sel, state, overlaps = _setup(n, selector, "random", gen)
    re, im, ok = _block(kinds, state, sel, gen)
    noise = NOISES[noise]
    want = reconstruct_inverted(grid, re, im, ok, overlaps)
    want_scores = score_reconstruction(want, state, noise)
    for layout, (re_l, im_l, ok_l) in zip("CFT", zip(*map(lambda x: _layouts(x).values(),
                                                         (re, im, ok)))):
        got = reconstruct_inverted(grid, re_l, im_l, ok_l, overlaps)
        for field in REC_FIELDS:
            assert np.array_equal(getattr(got, field), getattr(want, field)), (layout, field)
        # the scores of a result whose own fields are not C-ordered
        strided = type(got)(grid=grid, **{field: _layouts(getattr(got, field))[layout]
                                          for field in REC_FIELDS})
        for rec in (got, strided):
            scores = score_reconstruction(rec, state, noise)
            for field in ("f_w", "f_p", "f_a", "valid_bins"):
                assert np.array_equal(getattr(scores, field), getattr(want_scores, field)), \
                    (layout, field)


SWEEP_FIELDS = ("depths", "seed_count", "fw_mean", "fw_std", "fp_mean", "fp_std",
                "fa_mean", "fa_std", "response_magnitudes")
_sweep_depth = st.one_of(st.sampled_from([math.pi, math.pi / 2, 3 * math.pi / 8]),
                         st.floats(0.05, 6.2))


def _sweep_or_error(sweep, *args, **kwargs):
    try:
        return sweep(*args, **kwargs)
    except Exception as exc:  # compared by type: both sides must raise alike
        return type(exc)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(4, 24), selector=st.sampled_from(["uniform", "dft:3"]),
       depths=st.lists(_sweep_depth, min_size=1, max_size=4),
       sigma=st.sampled_from([0.0, 0.002, 0.05, 1.0]), trials=st.sampled_from([1, 3]),
       n_seeds=st.integers(2, 9), seed=st.integers(0, 2**64 - 1),
       state_seed=st.integers(0, 2**32 - 1), cells=st.sampled_from([1, 7, 20, 47, 2**15]))
@example(n=20, selector="uniform", depths=[math.pi / 2, math.pi], sigma=0.002, trials=1,
         n_seeds=5, seed=4343, state_seed=1, cells=20)
@example(n=20, selector="dft:3", depths=[math.pi / 16, math.pi / 2], sigma=0.0, trials=3,
         n_seeds=3, seed=1, state_seed=2, cells=1)
def test_block_sweep_equals_the_per_depth_sweep(n, selector, depths, sigma, trials, n_seeds,
                                                seed, state_seed, cells):
    grid = BasisGrid(size=n)
    state = random_state(grid, np.random.default_rng(state_seed))
    sel = uniform_post_selector(grid) if selector == "uniform" else dft_post_selector(grid, 3)
    noise = NoiseModel(relative_sigma=sigma, seed=seed, trials=trials)
    with mock.patch.object(fidelity, "_SWEEP_CELLS", cells):
        got = _sweep_or_error(depth_sweep, state, sel, depths, noise, n_seeds=n_seeds)
    want = _sweep_or_error(reference_depth_sweep, state, sel, depths, noise, n_seeds=n_seeds)
    if isinstance(want, type):
        assert got is want
        return
    assert not isinstance(got, type), got
    for field in SWEEP_FIELDS:
        assert np.array_equal(getattr(got, field), want[field]), field
