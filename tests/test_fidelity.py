import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from qquench import (
    BasisGrid,
    DegenerateBaselineError,
    NoiseModel,
    PostSelector,
    SingularDepthError,
    builtin_waveform,
    depth_sweep,
    dft_post_selector,
    fidelity_overall,
    make_state,
    reconstruct_wavefunction,
    scan,
    score_reconstruction,
    uniform_post_selector,
)
from qquench import rng
from qquench.fidelity import _envelope_correlation
from support import branch_valid_state, derive_key

QUIET = NoiseModel(relative_sigma=0.0)


def test_fidelity_overall_identical_states():
    rng = np.random.default_rng(1)
    z = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    z = z / np.linalg.norm(z)
    assert fidelity_overall(z, z) == pytest.approx(1.0, abs=1e-14)


def test_fidelity_overall_global_phase_invariant():
    rng = np.random.default_rng(2)
    z = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    assert fidelity_overall(z, z * np.exp(0.7j)) == pytest.approx(1.0, abs=1e-12)


def test_fidelity_overall_orthogonal_states():
    a = np.array([1.0, 0.0], dtype=complex)
    b = np.array([0.0, 1.0], dtype=complex)
    assert fidelity_overall(a, b) == 0.0


def test_fidelity_overall_zero_vector():
    assert fidelity_overall(np.zeros(3), np.ones(3)) == 0.0


def _unmasked(rec, ref, degenerate_by_cosine):
    """The envelope correlation over every bin."""
    return _envelope_correlation(rec, ref, degenerate_by_cosine, np.ones(np.shape(rec), bool))


def test_fidelity_phase_identical_envelopes():
    phi = np.array([0.1, -0.5, 1.2])
    assert _unmasked(phi, phi, True) == pytest.approx(1.0, abs=1e-14)


def test_fidelity_phase_flat_envelopes_score_one():
    zeros = np.zeros(5)
    assert _unmasked(zeros, zeros, True) == 1.0


def test_fidelity_phase_flat_reference_uses_mean_cosine():
    noisy = np.array([0.01, -0.02, 0.015])
    got = _unmasked(noisy, np.zeros(3), True)
    assert got == pytest.approx(np.mean(np.cos(noisy)), abs=1e-15)
    assert got > 0.99


def test_fidelity_phase_anticorrelated_is_negative():
    phi = np.array([0.3, -0.7, 1.1])
    assert _unmasked(phi, -phi, True) == pytest.approx(-1.0, abs=1e-14)


def test_fidelity_amplitude_identical():
    amp = np.array([0.2, 0.5, 0.6])
    assert _unmasked(amp, amp, False) == pytest.approx(1.0, abs=1e-14)


def test_fidelity_amplitude_bounded_by_one():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = np.abs(rng.standard_normal(6))
        b = np.abs(rng.standard_normal(6))
        assert _unmasked(a, b, False) <= 1.0 + 1e-12


def test_score_noiseless_round_trip_is_perfect():
    rng = np.random.default_rng(5)
    grid = BasisGrid(size=8)
    sel = uniform_post_selector(grid)
    for _ in range(20):
        state = branch_valid_state(grid, rng)
        rmap = scan(state, sel, (np.pi / 2, -np.pi / 2), QUIET)
        rec = reconstruct_wavefunction(rmap)
        scores = score_reconstruction(rec, state, QUIET)
        assert scores.f_w >= 1 - 1e-12
        assert scores.f_p == pytest.approx(1.0, abs=1e-9)
        assert scores.f_a == pytest.approx(1.0, abs=1e-12)
        assert np.all(scores.valid_bins)


def test_score_masks_input_nodes():
    grid = BasisGrid(size=4)
    state = make_state(grid, [1.0, 1.0, 0.0, 1.0])
    sel = uniform_post_selector(grid)
    rmap = scan(state, sel, (np.pi / 2, -np.pi / 2), QUIET)
    rec = reconstruct_wavefunction(rmap)
    scores = score_reconstruction(rec, state, QUIET)
    assert not scores.valid_bins[2]
    assert scores.f_w >= 1 - 1e-12


def test_score_degrades_monotonically_with_noise():
    grid = BasisGrid(size=20)
    state = builtin_waveform("gaussian_linear_chirp", grid)
    sel = uniform_post_selector(grid)
    means = []
    for sigma in (0.0, 0.002, 0.01, 0.05):
        vals = []
        for s in range(32):
            noise = NoiseModel(relative_sigma=sigma, seed=s, trials=1) \
                if sigma else QUIET
            rmap = scan(state, sel, (np.pi / 2, -np.pi / 2), noise)
            rec = reconstruct_wavefunction(rmap)
            vals.append(score_reconstruction(rec, state, noise).f_w)
        means.append(np.mean(vals))
    assert means[0] >= 1 - 1e-12
    assert means[0] > means[1] > means[2] > means[3]


def test_depth_sweep_noiseless_is_exact_with_zero_spread():
    grid = BasisGrid(size=8)
    state = builtin_waveform("double_hump_quadratic_phase", grid)
    sel = uniform_post_selector(grid)
    sweep = depth_sweep(state, sel, (np.pi / 4, np.pi / 2), QUIET, n_seeds=4)
    assert np.all(sweep.fw_mean >= 1 - 1e-9)
    assert np.all(sweep.fw_std == 0.0)
    assert np.all(sweep.fp_std == 0.0)
    assert np.all(sweep.fa_std == 0.0)
    assert sweep.seed_count == 4
    assert sweep.response_magnitudes.shape == (8, 2)


def test_depth_sweep_magnitudes_match_scan():
    grid = BasisGrid(size=8)
    state = builtin_waveform("gaussian_flat_phase", grid)
    sel = uniform_post_selector(grid)
    sweep = depth_sweep(state, sel, (np.pi / 2,), QUIET, n_seeds=2)
    rmap = scan(state, sel, (np.pi / 2,), QUIET)
    assert np.allclose(sweep.response_magnitudes[:, 0],
                       np.abs(rmap.response_matrix()[:, 0]), atol=1e-14)


def test_depth_sweep_is_deterministic():
    grid = BasisGrid(size=8)
    state = builtin_waveform("gaussian_flat_phase", grid)
    sel = uniform_post_selector(grid)
    noise = NoiseModel(relative_sigma=0.002, seed=11, trials=1)
    a = depth_sweep(state, sel, (np.pi / 4, np.pi / 2), noise, n_seeds=4)
    b = depth_sweep(state, sel, (np.pi / 4, np.pi / 2), noise, n_seeds=4)
    for field in ("fw_mean", "fw_std", "fp_mean", "fp_std", "fa_mean", "fa_std"):
        assert np.array_equal(getattr(a, field), getattr(b, field))


def test_depth_sweep_seeds_are_independent_across_depths():
    grid = BasisGrid(size=8)
    state = builtin_waveform("gaussian_flat_phase", grid)
    sel = uniform_post_selector(grid)
    noise = NoiseModel(relative_sigma=0.01, seed=11, trials=1)
    sweep = depth_sweep(state, sel, (np.pi / 2 - 1e-9, np.pi / 2), noise,
                        n_seeds=8)
    # nearly identical depths, different noise streams: spreads differ
    assert sweep.fw_std[0] != sweep.fw_std[1]


def test_depth_sweep_validates_arguments():
    grid = BasisGrid(size=4)
    state = make_state(grid, np.ones(4))
    sel = uniform_post_selector(grid)
    noise = NoiseModel(relative_sigma=0.002, seed=1, trials=1)
    with pytest.raises(ValueError):
        depth_sweep(state, sel, (), noise)
    with pytest.raises(ValueError):
        depth_sweep(state, sel, (-0.5,), noise)
    with pytest.raises(SingularDepthError):
        depth_sweep(state, sel, (2 * np.pi,), noise)
    with pytest.raises(ValueError):
        depth_sweep(state, sel, (np.pi / 2,), noise, n_seeds=1)
    with pytest.raises(ValueError):
        depth_sweep(state, sel, (np.pi / 2,), noise, n_seeds=0)
    for n_seeds in (2.5, True):
        with pytest.raises(ValueError):
            depth_sweep(state, sel, (np.pi / 2,), noise, n_seeds=n_seeds)
    depth_sweep(state, sel, (np.pi / 2,), noise, n_seeds=np.int64(2))
    # noiseless runs may use a single seed
    depth_sweep(state, sel, (np.pi / 2,), QUIET, n_seeds=1)


def _per_seed_sweep(state, sel, depths, noise, n_seeds):
    """depth_sweep as a plain loop: one scan, reconstruction and score per seed."""
    overlaps = None if sel.label == "uniform" else sel.overlaps
    fw, fp, fa = (np.empty((len(depths), n_seeds)) for _ in range(3))
    for d, theta in enumerate(depths):
        for s in range(n_seeds):
            sub = NoiseModel(relative_sigma=noise.relative_sigma, trials=noise.trials,
                             seed=derive_key(noise.seed, rng.float_tag(theta), s))
            rmap = scan(state, sel, (theta, -theta), sub)
            rec = reconstruct_wavefunction(rmap, overlaps=overlaps)
            scores = score_reconstruction(rec, state, sub)
            fw[d, s], fp[d, s], fa[d, s] = scores.f_w, scores.f_p, scores.f_a
    mags = np.column_stack([np.abs(scan(state, sel, (t,), QUIET).response_matrix()[:, 0])
                            for t in depths])
    return {"fw_mean": fw.mean(axis=1), "fw_std": fw.std(axis=1, ddof=1),
            "fp_mean": fp.mean(axis=1), "fp_std": fp.std(axis=1, ddof=1),
            "fa_mean": fa.mean(axis=1), "fa_std": fa.std(axis=1, ddof=1),
            "response_magnitudes": mags}


@pytest.mark.parametrize("selector", ["uniform", "dft:3"])
@pytest.mark.parametrize("trials", [1, 3])
@pytest.mark.parametrize("seed", [5, 2**63 + 5])
def test_depth_sweep_matches_per_seed_reference(selector, trials, seed):
    # the seed-batched sweep must reproduce the per-seed loop bit for bit
    grid = BasisGrid(size=12)
    state = builtin_waveform("square_step_phase", grid)
    sel = uniform_post_selector(grid) if selector == "uniform" else dft_post_selector(grid, 3)
    depths = (np.pi / 8, 3 * np.pi / 8, np.pi / 2, 2.5)
    noise = NoiseModel(relative_sigma=0.01, seed=seed, trials=trials)
    sweep = depth_sweep(state, sel, depths, noise, n_seeds=6)
    expected = _per_seed_sweep(state, sel, depths, noise, 6)
    assert np.array_equal(sweep.depths, depths)
    assert sweep.seed_count == 6
    for field, value in expected.items():
        assert np.array_equal(getattr(sweep, field), value), field


def test_depth_sweep_divides_out_selector_overlaps():
    grid = BasisGrid(size=20)
    state = builtin_waveform("square_step_phase", grid)
    sel = dft_post_selector(grid, 3)
    noise = NoiseModel(relative_sigma=0.002, seed=1, trials=1)
    sweep = depth_sweep(state, sel, (np.pi / 2,), noise, n_seeds=32)
    assert sweep.fw_mean[0] >= 0.99


def test_depth_sweep_divides_out_the_overlaps_of_a_hand_built_selector():
    grid = BasisGrid(size=20)
    state = builtin_waveform("gaussian_linear_chirp", grid)
    builtin = dft_post_selector(grid, 1)
    hand_built = PostSelector(grid, builtin.overlaps)
    for sel in (builtin, hand_built):
        sweep = depth_sweep(state, sel, (np.pi / 2,), QUIET, n_seeds=1)
        assert sweep.fw_mean[0] >= 1 - 1e-12, sel.label
    assert scan(state, hand_built, (np.pi / 2, -np.pi / 2), QUIET).meta["selector"] == "custom"


def test_depth_sweep_rejects_a_degenerate_measured_baseline():
    # P0 = 4e-6 with sigma equal to P0: some seeds measure P0 at the floor,
    # and the sweep raises as a scan with that seed does
    grid = BasisGrid(size=4)
    state = make_state(grid, [1.0, -1.0, 1.0, -1.0 + 8e-3])
    sel = uniform_post_selector(grid)
    noise = NoiseModel(relative_sigma=1.0, seed=3, trials=1)
    theta = np.pi / 2
    failing = []
    for s in range(32):
        sub = NoiseModel(relative_sigma=1.0, trials=1,
                         seed=derive_key(noise.seed, rng.float_tag(theta), s))
        try:
            scan(state, sel, (theta, -theta), sub)
        except DegenerateBaselineError:
            failing.append(s)
    assert 0 < len(failing) < 32
    with pytest.raises(DegenerateBaselineError):
        depth_sweep(state, sel, (theta,), noise, n_seeds=32)


def test_sweep_peak_rss_does_not_grow_with_seeds():
    # 1,024 seeds x 5 depths at N = 2000: as one block the rows would take
    # about 280 MB more; blocks of _SWEEP_CELLS bins keep the growth at a few MB
    child = textwrap.dedent("""
        import resource
        from qquench import BasisGrid, NoiseModel, builtin_waveform, depth_sweep
        from qquench import uniform_post_selector
        from qquench.cli import DEFAULT_SWEEP_DEPTHS
        state = builtin_waveform("gaussian_linear_chirp", BasisGrid(size=2000))
        sel = uniform_post_selector(state.grid)
        noise = NoiseModel(relative_sigma=0.002, seed=7, trials=1)
        depth_sweep(state, sel, DEFAULT_SWEEP_DEPTHS, noise, n_seeds=2)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        depth_sweep(state, sel, DEFAULT_SWEEP_DEPTHS, noise, n_seeds=1024)
        after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        print((after - before) * 1024)
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(rng.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    # A spawned process starts from the peak RSS of its spawner; a small
    # relay in between gives a low start.
    relay = "import subprocess, sys; sys.exit(subprocess.run(sys.argv[1:]).returncode)"
    proc = subprocess.run([sys.executable, "-c", relay, sys.executable, "-c", child],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    growth = int(proc.stdout)
    assert growth < 16 * 2**20, f"peak RSS grew by {growth / 2**20:.1f} MB"
