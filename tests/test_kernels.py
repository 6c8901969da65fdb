import os
import subprocess
import sys
import textwrap
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qquench import _kernels, rng
from support import oracle_probabilities, random_state, reference_normals
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
    got = _kernels.noisy_mean_scalar(true, sigma, trials, rng.stream_key(8, -1, 1.0))
    se = sigma / np.sqrt(trials)
    assert abs(got - true) < 5 * se


def test_clamping_biases_tiny_probabilities_up():
    # true probability far below sigma: negatives clamp to 0, so the
    # average must sit above the true value
    got = _kernels.noisy_mean_scalar(1e-6, 0.05, 50_000, rng.stream_key(9, -1, 1.0))
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
    oracle = np.array([[
        sum(max(pr[n, d] + sigma * rng.normal(int(keys[n, d]), t), 0.0)
            for t in range(trials)) / trials
        for d in range(thetas.size)] for n in range(psi.size)])
    got = _kernels.noisy_mean_matrix(pr, sigma, trials, keys)
    assert np.allclose(got, oracle, rtol=0, atol=1e-15)
    scalar = _kernels.noisy_mean_scalar(pr[1, 2], sigma, trials, int(keys[1, 2]))
    assert scalar == pytest.approx(oracle[1, 2], rel=0, abs=1e-15)


def _unblocked_mean(pr, sigma, trials, keys):
    """The kernel's formula without cell blocks or a workspace: whole
    (N, D, chunk) arrays, with the allocating reference normals."""
    acc = np.zeros(pr.shape)
    for start in range(0, trials, _kernels._TRIAL_CHUNK):
        ctrs = np.arange(start, min(start + _kernels._TRIAL_CHUNK, trials),
                         dtype=np.uint64)
        draws = pr[:, :, None] + sigma * reference_normals(keys[:, :, None], ctrs)
        np.maximum(draws, 0.0, out=draws)
        acc += draws.sum(axis=2)
    return acc / trials


def _problem(n, trials):
    """``n`` cells: two depth columns when ``n`` is even, so blocks and
    stripes also cut across the rows of the (N, D) layout."""
    shape = (n // 2, 2) if n % 2 == 0 else (n, 1)
    pr = np.random.default_rng(n + trials).random(shape)
    return pr, rng.key_matrix(n, shape[0], np.linspace(0.3, 2.8, shape[1]))


@pytest.mark.parametrize("trials", [1, 1000, 4096, 4097])
@pytest.mark.parametrize("cells", ["1", "rows-1", "rows", "rows+1", "4000"])
def test_blocked_mean_matrix_is_bit_identical(cells, trials):
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
        _unblocked_mean(pr[lo:lo + step], 0.2, trials, keys[lo:lo + step])
        for lo in range(0, shape[0], step)])
    assert np.array_equal(got, want)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), trials=st.sampled_from([1, 1000, 4096, 4097]),
       workers=st.sampled_from([1, 2, 3, 7]))
def test_threaded_mean_matrix_is_bit_identical(data, trials, workers):
    rows = max(1, _kernels._BLOCK_DRAWS // min(trials, _kernels._TRIAL_CHUNK))
    pr, keys = _problem(data.draw(st.integers(1, 4 * rows + 1), label="cells"), trials)
    interval = sys.getswitchinterval()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "_WORKERS", 1)
        serial = _kernels.noisy_mean_matrix(pr, 0.2, trials, keys)
        mp.setattr(_kernels, "_WORKERS", workers)
        sys.setswitchinterval(1e-6)  # hand the GIL over as often as it goes
        try:
            got = _kernels.noisy_mean_matrix(pr, 0.2, trials, keys)
        finally:
            sys.setswitchinterval(interval)
    assert np.array_equal(got, serial)
    assert np.array_equal(got, _unblocked_mean(pr, 0.2, trials, keys))


def test_worker_failure_reaches_the_caller(monkeypatch):
    # 100 cells at 1000 trials are 4 blocks of 32 cells; two stripes split
    # them at cell 64, so the block at cell 96 runs on the second thread.
    pr, keys = _problem(100, 1000)
    bad_key = keys.reshape(-1)[96]
    normals_into = rng.normals_into

    def failing(key, words, work):
        if key[0, 0] == bad_key:
            raise RuntimeError("block at cell 96")
        return normals_into(key, words, work)

    monkeypatch.setattr(_kernels, "_WORKERS", 2)
    monkeypatch.setattr(rng, "normals_into", failing)
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="cell 96"):
        _kernels.noisy_mean_matrix(pr, 0.2, 1000, keys)
    assert threading.active_count() == threads


def test_single_block_call_starts_no_thread(monkeypatch):
    def no_thread(*args, **kwargs):
        raise AssertionError("a one-block call started a thread")

    monkeypatch.setattr(_kernels, "_WORKERS", 7)
    monkeypatch.setattr(threading, "Thread", no_thread)
    for n, trials in ((1, 1), (1280, 1), (32, 1000)):
        pr, keys = _problem(n, trials)
        got = _kernels.noisy_mean_matrix(pr, 0.2, trials, keys)
        assert np.array_equal(got, _unblocked_mean(pr, 0.2, trials, keys))
    pr, keys = _problem(33, 1000)  # two blocks
    with pytest.raises(AssertionError, match="started a thread"):  # the patch reaches the kernel
        _kernels.noisy_mean_matrix(pr, 0.2, 1000, keys)


def test_mean_matrix_reuses_one_workspace():
    # Each stripe of blocks shares one 3 x 256 KB workspace; fresh
    # temporaries per block peaked at ~2 MB here and, once the allocator
    # trimmed the heap, faulted their pages in again on every block.
    pr = np.full((2000, 2), 0.3)
    keys = rng.key_matrix(5, 2000, [1.0, -1.0])
    _kernels.noisy_mean_matrix(pr[:1, :1], 0.01, 2, keys[:1, :1])
    tracemalloc.start()
    try:
        _kernels.noisy_mean_matrix(pr, 0.01, 1000, keys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    blocks = -(-pr.size // (_kernels._BLOCK_DRAWS // 1000))
    workspaces = min(_kernels._WORKERS, blocks) * 3 * _kernels._BLOCK_DRAWS * 8
    assert peak <= workspaces + 8 * pr.size * 8 + 2**17, f"peak {peak / 2**10:.0f} KB"


def test_mean_matrix_peak_rss_stays_bounded():
    # 200 bins x 16 depths x 1000 trials: (N, D, trials) temporaries would
    # take ~170 MB; cell blocks keep the growth at a few MB.
    child = textwrap.dedent("""
        import resource
        import numpy as np
        from qquench import _kernels, rng
        pr = np.full((200, 16), 0.3)
        keys = rng.key_matrix(5, 200, np.linspace(0.1, 3.0, 16))
        _kernels.noisy_mean_matrix(pr[:1, :1], 0.01, 2, keys[:1, :1])
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        _kernels.noisy_mean_matrix(pr, 0.01, 1000, keys)
        after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        print((after - before) * 1024)
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(_kernels.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    # A spawned process starts from the peak RSS of its spawner, which here
    # may be hundreds of MB; a small relay in between gives a low start.
    relay = "import subprocess, sys; sys.exit(subprocess.run(sys.argv[1:]).returncode)"
    proc = subprocess.run([sys.executable, "-c", relay, sys.executable, "-c", child],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    growth = int(proc.stdout)
    assert growth < 32 * 2**20, f"peak RSS grew by {growth / 2**20:.1f} MB"
