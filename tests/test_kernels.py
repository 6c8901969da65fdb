import numpy as np
import pytest

from qquench import _kernels, rng
from support import oracle_probabilities, random_state
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
