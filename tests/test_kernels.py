import math
import os
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qquench import _kernels, rng
from support import (mean_of_one_cell, mix64, normals, oracle_probabilities, per_trial_means,
                     pure_python_mean, random_state, stream_key)
from qquench import BasisGrid, uniform_post_selector


def _sample_problem(seed, n=6, depths=(0.3, np.pi / 2, -np.pi / 2, 2.5)):
    rs = np.random.default_rng(seed)
    grid = BasisGrid(size=n)
    state = random_state(grid, rs)
    sel = uniform_post_selector(grid)
    return state.amplitudes, sel.overlaps, np.asarray(depths)


def test_true_probabilities_match_oracle():
    for seed in range(10):
        psi, overlaps, thetas = _sample_problem(seed)
        p0, pr = _kernels.true_probabilities(psi, overlaps, thetas)
        o_p0, o_pr = oracle_probabilities(psi, overlaps, thetas)
        assert p0 == pytest.approx(o_p0, abs=1e-14)
        assert np.allclose(pr, o_pr, rtol=0, atol=1e-14)


def test_zero_sigma_mean_is_exact():
    psi, overlaps, thetas = _sample_problem(4)
    _, pr = _kernels.true_probabilities(psi, overlaps, thetas)
    keys = rng.key_matrix(1, psi.size, thetas)
    out = _kernels.noisy_mean_matrix(pr, 0.0, 5, keys)
    assert np.array_equal(out, pr)


def test_trial_average_converges():
    true = 0.3
    sigma = 0.05
    trials = 20_000
    got = mean_of_one_cell(true, sigma, trials, stream_key(8, -1, 1.0))
    se = sigma / np.sqrt(trials)
    assert abs(got - true) < 5 * se


def test_clamping_biases_tiny_probabilities_up():
    # true probability far below sigma: negatives clamp to 0, so the
    # average must sit above the true value
    got = mean_of_one_cell(1e-6, 0.05, 50_000, stream_key(9, -1, 1.0))
    assert got > 1e-6


def test_mean_matrix_depends_on_keys():
    psi, overlaps, thetas = _sample_problem(6)
    _, pr = _kernels.true_probabilities(psi, overlaps, thetas)
    a = _kernels.noisy_mean_matrix(pr, 0.01, 3, rng.key_matrix(1, psi.size, thetas))
    b = _kernels.noisy_mean_matrix(pr, 0.01, 3, rng.key_matrix(2, psi.size, thetas))
    assert not np.allclose(a, b)
    a2 = _kernels.noisy_mean_matrix(pr, 0.01, 3, rng.key_matrix(1, psi.size, thetas))
    assert np.array_equal(a, a2)


def test_noisy_means_match_pure_python_oracle():
    psi, overlaps, thetas = _sample_problem(7, n=3)
    _, pr = _kernels.true_probabilities(psi, overlaps, thetas)
    keys = rng.key_matrix(11, psi.size, thetas)
    trials, sigma = 9, 0.05
    oracle = np.array([[pure_python_mean(pr[n, d], sigma, trials, int(keys[n, d]))
                        for d in range(thetas.size)] for n in range(psi.size)])
    above = pr > _kernels.Z_MAX * sigma
    assert above.any() and not above.all()  # both paths run
    got = _kernels.noisy_mean_matrix(pr, sigma, trials, keys)
    assert np.allclose(got, oracle, rtol=0, atol=1e-15)


def _problem(n, trials):
    """``n`` cells: two depth columns when ``n`` is even, so blocks also cut
    across the rows of the (N, D) layout."""
    shape = (n // 2, 2) if n % 2 == 0 else (n, 1)
    pr = np.random.default_rng(n + trials).random(shape)
    return pr, rng.key_matrix(n, shape[0], np.linspace(0.3, 2.8, shape[1]))


@pytest.mark.parametrize("trials", [1, 1000, 4096, 4097])
@pytest.mark.parametrize("cells", ["1", "rows-1", "rows", "rows+1", "4000"])
def test_blocked_mean_matrix_is_bit_identical(cells, trials):
    # every cell is under the bound (Pr < 1 < Z_MAX * 0.2): the per-trial path
    chunk = min(trials, _kernels._TRIAL_CHUNK)
    rows = max(1, _kernels._BLOCK_DRAWS // chunk)
    n = {"1": 1, "rows-1": rows - 1, "rows": rows, "rows+1": rows + 1,
         "4000": 4000}[cells]
    pr, keys = _problem(n, trials)
    shape = pr.shape
    got = _kernels.noisy_mean_matrix(pr, 0.2, trials, keys)
    # The reference goes over bin slices of at most 2**22 draws (32 MB per
    # temporary); only the 4000-cell cases at >= 4096 trials need several.
    step = max(1, 2**22 // (shape[1] * chunk))
    want = np.concatenate([
        per_trial_means(pr[lo:lo + step], 0.2, trials, keys[lo:lo + step])
        for lo in range(0, shape[0], step)])
    assert np.array_equal(got, want)


def _one_draw(pr, sigma, trials, keys):
    """Pr + (sigma / sqrt(trials)) * normal(key, 0), in the kernel's order."""
    return normals(keys, np.zeros(keys.shape, dtype=np.uint64)) * (
        sigma / math.sqrt(trials)) + pr


# Cells from well under to well over the bound, with the bound itself.
_in_sigmas = st.one_of(st.floats(0.0, 20.0), st.just(_kernels.Z_MAX),
                       st.sampled_from([np.nextafter(_kernels.Z_MAX, 0), 0.0]))


@settings(max_examples=40, deadline=None)
@given(data=st.data(), trials=st.sampled_from([2, 9, 1000, 4097]),
       sigma=st.floats(1e-6, 0.3), seed=st.integers(0, 2**64 - 1))
def test_each_cell_takes_the_path_its_bound_picks(data, trials, sigma, seed):
    n = data.draw(st.integers(1, 24), label="bins")
    z = np.array(data.draw(st.lists(_in_sigmas, min_size=2 * n, max_size=2 * n)))
    pr = z.reshape(n, 2) * sigma
    keys = rng.key_matrix(seed, n, [0.7, -0.7])
    got = _kernels.noisy_mean_matrix(pr, sigma, trials, keys)
    above = pr > _kernels.Z_MAX * sigma
    assert np.array_equal(got[above], _one_draw(pr, sigma, trials, keys)[above])
    assert np.array_equal(got[~above], per_trial_means(pr, sigma, trials, keys)[~above])


@settings(max_examples=40, deadline=None)
@given(data=st.data(), sigma=st.floats(1e-6, 0.3), seed=st.integers(0, 2**64 - 1))
def test_one_trial_keeps_the_per_trial_bits(data, sigma, seed):
    # at T = 1 the one-draw path is the per-trial read, clamp included
    n = data.draw(st.integers(1, 40), label="bins")
    pr = np.array(data.draw(st.lists(_in_sigmas, min_size=n, max_size=n)))[:, None] * sigma
    keys = rng.key_matrix(seed, n, [1.1])
    got = _kernels.noisy_mean_matrix(pr, sigma, 1, keys)
    assert np.array_equal(got, per_trial_means(pr, sigma, 1, keys))
    assert np.array_equal(got, np.maximum(_one_draw(pr, sigma, 1, keys), 0.0))


def _unxorshift(y, shift):
    x = y
    for _ in range(64 // shift + 1):
        x = y ^ (x >> shift)
    return x


def _unmix64(z):
    """The inverse of mix64: undo each xor-shift and multiply in turn."""
    mask = rng.MASK64
    z = _unxorshift(z, 31)
    z = (z * pow(rng.MIX2, -1, 2**64)) & mask
    z = _unxorshift(z, 27)
    z = (z * pow(rng.MIX1, -1, 2**64)) & mask
    z = _unxorshift(z, 30)
    return (z - rng.GOLD) & mask


def test_no_draw_exceeds_z_max():
    # The smallest uniform u1 = 2**-54 gives the largest radius. First on
    # the stream: keys whose first mixed word a has a >> 11 == 0, so u1 is
    # exactly 2**-54, whatever u2 they draw.
    word = mix64(rng.CTR_SALT)  # counter 0
    for a in (0, 1, 2047):
        assert mix64(_unmix64(a)) == a
    keys = np.array([_unmix64(a) ^ word for a in range(2048)], dtype=np.uint64)
    z = normals(keys, np.zeros(keys.size, dtype=np.uint64))
    radius = math.sqrt(-2.0 * math.log(2.0**-54))
    assert np.max(np.abs(z)) > 0.99 * radius  # u1 was 2**-54
    assert np.max(np.abs(z)) <= _kernels.Z_MAX
    # Then the cos factor at both of its extremes: u2 next to 0 and 1
    # (cos = +1) and next to 1/2 (cos = -1); u2 is an odd multiple of 2**-54.
    ulp = 2.0**-54
    u2 = np.array([ulp, 3 * ulp, 1 - ulp, 1 - 3 * ulp, 0.5 - ulp, 0.5 + ulp,
                   0.5 - 3 * ulp, 0.5 + 3 * ulp])
    r = np.full(u2.size, ulp)
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    z = rng._mul_cos_two_pi(r, u2, np.empty_like(r))
    assert np.all(np.abs(z) > radius - 1e-12)
    assert np.all(np.abs(z) <= _kernels.Z_MAX)


def _moments(x):
    d = x - x.mean()
    var = np.mean(d * d)
    return x.mean(), var, np.mean(d**4) / var**2


def test_one_draw_and_per_trial_means_share_their_law():
    # 10**5 cells per path, far above the bound, at T = 16: residuals
    # (mean - Pr) * sqrt(T) / sigma are N(0, 1) on both paths. Tolerances
    # are five standard errors of a difference of two samples of n: mean
    # 5 sqrt(2/n), variance 5 sqrt(4/n), kurtosis 5 sqrt(48/n). The KS
    # distance must stay under its 0.1% critical value 1.949 sqrt(2/n).
    n, trials, sigma = 100_000, 16, 0.01
    pr = np.ones((n, 1))
    one = _kernels.noisy_mean_matrix(pr, sigma, trials, rng.key_matrix(1, n, [1.0]))
    per = _kernels._per_trial_means(pr.ravel(), sigma, trials,
                                    rng.key_matrix(2, n, [1.0]).ravel())
    res = [(x.ravel() - 1.0) * math.sqrt(trials) / sigma for x in (one, per)]
    (m1, v1, k1), (m2, v2, k2) = map(_moments, res)
    assert abs(m1 - m2) <= 5 * math.sqrt(2 / n)
    assert abs(v1 - v2) <= 5 * math.sqrt(4 / n)
    assert abs(k1 - k2) <= 5 * math.sqrt(48 / n)
    a, b = np.sort(res[0]), np.sort(res[1])
    grid = np.concatenate([a, b])
    ks = np.max(np.abs(np.searchsorted(a, grid, side="right")
                       - np.searchsorted(b, grid, side="right"))) / n
    assert ks <= 1.949 * math.sqrt(2 / n)


def test_mean_matrix_reuses_one_workspace():
    # One 3 x 256 KB workspace at most serves every block of a call, on
    # either path; fresh temporaries per block peaked at ~2 MB here and,
    # once the allocator trimmed the heap, faulted their pages in again on
    # every block.
    pr = np.full((2000, 2), 0.3)
    keys = rng.key_matrix(5, 2000, [1.0, -1.0])
    _kernels.noisy_mean_matrix(pr[:1, :1], 0.01, 2, keys[:1, :1])
    # sigma 0.01 puts every cell above the bound (one draw each), 0.1 under it
    for sigma in (0.01, 0.1):
        tracemalloc.start()
        try:
            _kernels.noisy_mean_matrix(pr, sigma, 1000, keys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        workspace = 3 * _kernels._BLOCK_DRAWS * 8
        assert peak <= workspace + 8 * pr.size * 8 + 2**17, \
            f"sigma {sigma}: peak {peak / 2**10:.0f} KB"


def test_mean_matrix_peak_rss_stays_bounded():
    # 200 bins x 16 depths x 1000 trials: (N, D, trials) temporaries would
    # take ~170 MB; cell blocks keep the growth at a few MB. At sigma 0.01
    # every cell is above the bound and takes one draw; at 0.1 every cell is
    # under it and sums its 1000 reads in chunked blocks.
    child = textwrap.dedent("""
        import resource, sys
        import numpy as np
        from qquench import _kernels, rng
        pr = np.full((200, 16), 0.3)
        keys = rng.key_matrix(5, 200, np.linspace(0.1, 3.0, 16))
        _kernels.noisy_mean_matrix(pr[:1, :1], 0.01, 2, keys[:1, :1])
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        _kernels.noisy_mean_matrix(pr, float(sys.argv[1]), 1000, keys)
        after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        print((after - before) * 1024)
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(_kernels.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    # A spawned process starts from the peak RSS of its spawner, which here
    # may be hundreds of MB; a small relay in between gives a low start.
    relay = "import subprocess, sys; sys.exit(subprocess.run(sys.argv[1:]).returncode)"
    for sigma in ("0.01", "0.1"):
        proc = subprocess.run([sys.executable, "-c", relay, sys.executable, "-c", child, sigma],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        growth = int(proc.stdout)
        assert growth < 32 * 2**20, f"sigma {sigma}: peak RSS grew by {growth / 2**20:.1f} MB"
