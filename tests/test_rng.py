import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qquench import rng
from support import libm_reference_normals, reference_normals, reference_uniforms


def test_mix64_is_deterministic_and_masked():
    a = rng.mix64(12345)
    assert a == rng.mix64(12345)
    assert 0 <= a < 2**64
    assert rng.mix64(2**64 + 12345) == a


def test_mix64_scalar_matches_array_path():
    values = np.array([0, 1, 2**32, 2**63, 2**64 - 1], dtype=np.uint64)
    vector = rng._mix64_np(values.copy())
    scalar = np.array([rng.mix64(int(v)) for v in values], dtype=np.uint64)
    assert np.array_equal(vector, scalar)


def test_derive_key_changes_with_every_tag():
    base = rng.derive_key(7, 1, 2)
    assert base == rng.derive_key(7, 1, 2)
    assert base != rng.derive_key(8, 1, 2)
    assert base != rng.derive_key(7, 2, 2)
    assert base != rng.derive_key(7, 1, 3)
    assert rng.derive_key(7, 1) != rng.derive_key(7, 1, 0)


def test_float_tag_distinguishes_nearby_depths():
    assert rng.float_tag(np.pi / 2) != rng.float_tag(-np.pi / 2)
    assert rng.float_tag(0.1) != rng.float_tag(0.1 + 1e-15)
    assert rng.float_tag(1.0) == rng.float_tag(1.0)


def test_stream_key_matches_key_matrix():
    thetas = (np.pi / 2, -np.pi / 2, 0.3)
    keys = rng.key_matrix(321, 4, thetas)
    assert keys.shape == (4, 3)
    assert keys.dtype == np.uint64
    for n in range(4):
        for d, theta in enumerate(thetas):
            assert int(keys[n, d]) == rng.stream_key(321, n, theta)


_u64 = st.integers(0, 2**64 - 1)


@settings(deadline=None)
@given(seeds=st.lists(_u64, min_size=1, max_size=4), n_bins=st.integers(0, 64),
       thetas=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=8))
@example(seeds=[2**64 - 1, 2**63 + 5], n_bins=3, thetas=[-0.0, 0.0, np.pi, -np.pi, -1e-4])
def test_key_matrix_equals_stream_key_oracle(seeds, n_bins, thetas):
    oracle = np.array([[[rng.stream_key(seed, n, t) for t in thetas]
                        for n in range(n_bins)] for seed in seeds], dtype=np.uint64)
    oracle = oracle.reshape(len(seeds), n_bins, len(thetas))
    one = rng.key_matrix(seeds[0], n_bins, thetas)
    block = rng.key_matrix(np.array(seeds, dtype=np.uint64), n_bins, thetas)
    assert one.dtype == block.dtype == np.uint64
    assert np.array_equal(one, oracle[0])
    assert np.array_equal(block, oracle)
    # one row of depths per seed: seed s quenches the depths rotated by s
    rows = np.array([np.roll(np.asarray(thetas, dtype=np.float64), s) for s in range(len(seeds))])
    per_row = rng.key_matrix(np.array(seeds, dtype=np.uint64), n_bins, rows)
    assert per_row.shape == oracle.shape
    for s in range(len(seeds)):
        assert np.array_equal(per_row[s], np.roll(oracle[s], s, axis=-1))


@settings(deadline=None)
@given(seed=_u64, tag=_u64, count=st.integers(1, 40))
def test_derive_keys_equals_derive_key_oracle(seed, tag, count):
    keys = rng.derive_keys(seed, tag, np.arange(count))
    assert np.array_equal(keys, np.array([rng.derive_key(seed, tag, s) for s in range(count)],
                                         dtype=np.uint64))
    assert np.array_equal(rng.derive_keys(keys, rng.BASELINE_BIN + 1, rng.float_tag(0.0)),
                          np.array([rng.stream_key(int(k), rng.BASELINE_BIN, 0.0) for k in keys],
                                   dtype=np.uint64))


@settings(deadline=None)
@given(keys=st.lists(_u64, min_size=1, max_size=6),
       counters=st.lists(_u64, min_size=1, max_size=40))
def test_normals_broadcast_keys_match_one_call_per_key(keys, counters):
    counters = np.array(counters, dtype=np.uint64)
    block = rng.normals(np.array(keys, dtype=np.uint64)[:, None], counters)
    rows = np.array([rng.normals(k, counters) for k in keys])
    assert block.shape == (len(keys), counters.size)
    assert np.array_equal(block, rows)


@settings(deadline=None)
@given(keys=st.lists(_u64, min_size=1, max_size=6),
       counters=st.lists(_u64, min_size=1, max_size=40), spare=st.integers(0, 3))
def test_normals_into_a_reused_workspace_equals_normals(keys, counters, spare):
    keys = np.array(keys, dtype=np.uint64)[:, None]
    counters = np.array(counters, dtype=np.uint64)
    words = rng.counter_words(counters)
    work = np.empty((3, keys.shape[0] + spare, counters.size), dtype=np.uint64)
    rng.normals_into(keys[::-1], words, work[:, :keys.shape[0]])  # leave stale bits behind
    got = rng.normals_into(keys, words, work[:, :keys.shape[0]])
    assert np.array_equal(got, reference_normals(keys, counters))
    assert np.array_equal(rng.normals(keys, counters), got)


def test_baseline_stream_is_distinct_from_bins():
    theta = np.pi / 2
    baseline = rng.stream_key(5, rng.BASELINE_BIN, theta)
    bins = {rng.stream_key(5, n, theta) for n in range(64)}
    assert baseline not in bins


def test_normal_is_deterministic_in_all_arguments():
    key = rng.stream_key(9, 3, 0.7)
    assert rng.normal(key, 0) == rng.normal(key, 0)
    assert rng.normal(key, 0) != rng.normal(key, 1)
    assert rng.normal(key, 0) != rng.normal(key + 1, 0)


def test_normals_vector_matches_scalar():
    key = rng.stream_key(13, 0, np.pi / 2)
    counters = np.arange(100, dtype=np.uint64)
    vec = rng.normals(key, counters)
    scalars = np.array([rng.normal(key, int(c)) for c in counters])
    assert np.allclose(vec, scalars, rtol=0, atol=5e-16)


def test_normal_moments():
    key = rng.stream_key(2024, 0, 1.0)
    draws = rng.normals(key, np.arange(200_000, dtype=np.uint64))
    se_mean = 1.0 / np.sqrt(draws.size)
    assert abs(draws.mean()) < 5 * se_mean
    assert abs(draws.std() - 1.0) < 5 * se_mean
    # tail sanity: about 4.6% of draws beyond 2 sigma
    frac = np.mean(np.abs(draws) > 2.0)
    assert frac == pytest.approx(0.0455, abs=0.005)


def test_normal_streams_are_uncorrelated():
    k1 = rng.stream_key(1, 0, np.pi / 2)
    k2 = rng.stream_key(1, 1, np.pi / 2)
    counters = np.arange(50_000, dtype=np.uint64)
    a = rng.normals(k1, counters)
    b = rng.normals(k2, counters)
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 5 / np.sqrt(counters.size)


# The 53-bit integers k behind a uniform u = (k + 1/2) * 2**-53 at the ends
# and the quarter points of (0, 1], where the reduction of cos(2*pi*u) turns.
EDGE_K = np.array([0, 1, 2**51 - 1, 2**51, 2**52 - 1, 2**52, 3 * 2**51, 2**53 - 1],
                  dtype=np.uint64)


def _uniforms(k):
    return (k.astype(np.float64) + 0.5) * 2.0**-53


def _cos_two_pi(u):
    return rng._mul_cos_two_pi(np.ones_like(u), u.copy(), np.empty_like(u))


@pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63,
                    reason="needs an extended-precision long double")
def test_cos_factor_matches_a_long_double_cos():
    k = np.random.default_rng(2024).integers(0, 2**53, size=2**20, dtype=np.uint64)
    u = _uniforms(np.concatenate([EDGE_K, k]))
    two_pi = 8 * np.arctan(np.longdouble(1))
    exact = np.cos(two_pi * u.astype(np.longdouble))
    err = np.abs(_cos_two_pi(u).astype(np.longdouble) - exact)
    assert float(err.max()) <= 5e-16


def test_cos_factor_reduction_is_exact():
    u = _uniforms(EDGE_K)
    one_minus = 1.0 - u
    v = np.minimum(u, one_minus)
    s = 0.25 - v
    for ui, oi, vi, si in zip(u.tolist(), one_minus.tolist(), v.tolist(), s.tolist()):
        fu = Fraction(ui)
        assert fu.denominator <= 2**54 and 0 < fu <= 1
        if fu >= Fraction(1, 2):  # 1 - u is the smaller one: Sterbenz
            assert Fraction(oi) == 1 - fu
        assert Fraction(vi) == min(fu, 1 - fu)
        assert Fraction(si) == Fraction(1, 4) - Fraction(vi)


def test_normals_move_at_most_a_few_ulp_from_libm_cos():
    keys = rng.key_matrix(99, 8, (0.5, -0.5))[..., None]
    counters = np.arange(20_000, dtype=np.uint64)
    u1, _ = reference_uniforms(keys, counters)
    radius = np.sqrt(-2.0 * np.log(u1))
    moved = np.abs(rng.normals(keys, counters) - libm_reference_normals(keys, counters))
    assert np.all(moved <= 2e-15 * radius)
    assert np.any(moved > 0)


def test_scalar_normal_differs_from_vector_only_through_log():
    key = rng.stream_key(17, 2, 0.4)
    counters = np.arange(2000, dtype=np.uint64)
    vec = rng.normals(key, counters)
    u1, _ = reference_uniforms(np.array([key], dtype=np.uint64), counters)
    same_log = np.array([math.log(u) for u in u1.tolist()]) == np.log(u1)
    scalars = np.array([rng.normal(key, int(c)) for c in counters])
    assert same_log.mean() > 0.5
    assert np.array_equal(scalars[same_log], vec[same_log])
