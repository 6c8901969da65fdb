import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qquench import (
    BasisGrid,
    DegenerateBaselineError,
    IndexOutOfRangeError,
    NoiseModel,
    PostSelector,
    ResponseMap,
    builtin_waveform,
    dft_post_selector,
    make_state,
    reconstruct_wavefunction,
    scan,
    uniform_post_selector,
)
from qquench import _kernels
from qquench.quench import BASELINE_FLOOR, _sum_rule_baseline
from support import (
    QuenchConfig,
    apply_quench,
    measure_block,
    measure_with_noise,
    oracle_probabilities,
    projection_probability,
    random_state,
    response_factor,
    scaled_amplitudes,
)

QUIET = NoiseModel(relative_sigma=0.0)


def uniform_state(n):
    grid = BasisGrid(size=n)
    return make_state(grid, np.ones(n)), uniform_post_selector(grid)


def test_apply_quench_rotates_one_bin():
    state, _ = uniform_state(4)
    out = apply_quench(state, QuenchConfig(bin=2, depth=np.pi / 3))
    expected = state.amplitudes.copy()
    expected[2] *= np.exp(1j * np.pi / 3)
    assert np.allclose(out.amplitudes, expected, atol=1e-15)


def test_apply_quench_zero_depth_is_identity():
    state, _ = uniform_state(4)
    out = apply_quench(state, QuenchConfig(bin=1, depth=0.0))
    assert np.array_equal(out.amplitudes, state.amplitudes)


def test_apply_quench_preserves_norm():
    rng = np.random.default_rng(5)
    grid = BasisGrid(size=7)
    for _ in range(10):
        state = random_state(grid, rng)
        out = apply_quench(state, QuenchConfig(bin=3, depth=2.1))
        assert np.linalg.norm(out.amplitudes) == pytest.approx(1.0, abs=1e-12)


def test_apply_quench_is_2pi_periodic():
    state, _ = uniform_state(5)
    a = apply_quench(state, QuenchConfig(bin=2, depth=0.7))
    b = apply_quench(state, QuenchConfig(bin=2, depth=0.7 + 2 * np.pi))
    assert np.allclose(a.amplitudes, b.amplitudes, atol=1e-12)


def test_apply_quench_bin_out_of_range():
    state, _ = uniform_state(4)
    with pytest.raises(IndexOutOfRangeError):
        apply_quench(state, QuenchConfig(bin=4, depth=0.1))
    with pytest.raises(IndexOutOfRangeError):
        QuenchConfig(bin=-1, depth=0.1)


def test_projection_probability_uniform_case():
    state, sel = uniform_state(4)
    assert projection_probability(state, sel) == pytest.approx(1.0, abs=1e-14)


def test_worked_example_quarter_turn():
    # uniform N=4 state, uniform selector: every bin responds with p=0.375
    # at theta=pi/2 and p=0.75 (Pr=1/4) at theta=pi
    state, sel = uniform_state(4)
    rmap = scan(state, sel, (np.pi / 2,), QUIET)
    assert np.allclose(rmap.response_matrix(), 0.375, atol=1e-14)
    rmap_pi = scan(state, sel, (np.pi,), QUIET)
    assert np.allclose(rmap_pi.response_matrix(), 0.75, atol=1e-14)
    assert np.allclose(rmap_pi.measured_matrix(), 0.25, atol=1e-14)


def test_scan_matches_direct_expansion_oracle():
    rng = np.random.default_rng(17)
    depths = (0.3, np.pi / 2, -np.pi / 2, 2.0)
    for n in (3, 5, 8):
        grid = BasisGrid(size=n)
        sel = uniform_post_selector(grid)
        for _ in range(5):
            state = random_state(grid, rng)
            rmap = scan(state, sel, depths, QUIET)
            p0, pr = oracle_probabilities(state.amplitudes, sel.overlaps, depths)
            assert rmap.baseline_p0 == pytest.approx(p0, abs=1e-14)
            assert np.allclose(rmap.measured_matrix(), pr, rtol=0, atol=1e-13)


def test_scan_with_dft_selector_matches_oracle():
    rng = np.random.default_rng(23)
    grid = BasisGrid(size=6)
    sel = dft_post_selector(grid, 2)
    state = random_state(grid, rng)
    rmap = scan(state, sel, (1.2,), QUIET)
    p0, pr = oracle_probabilities(state.amplitudes, sel.overlaps, (1.2,))
    assert rmap.baseline_p0 == pytest.approx(p0, abs=1e-14)
    assert np.allclose(rmap.measured_matrix(), pr, atol=1e-13)


def test_response_antisymmetry():
    rng = np.random.default_rng(31)
    grid = BasisGrid(size=6)
    sel = uniform_post_selector(grid)
    for theta in (0.4, np.pi / 4, 2.0):
        for _ in range(5):
            state = random_state(grid, rng)
            rmap = scan(state, sel, (theta, -theta), QUIET)
            p = rmap.response_matrix()
            w = scaled_amplitudes(state.amplitudes, sel.overlaps)
            expected = 4.0 * np.sin(theta) * w.imag
            assert np.allclose(p[:, 0] - p[:, 1], expected, atol=1e-12)


def test_response_factor_values():
    assert response_factor(0.25, 1.0) == pytest.approx(0.75)
    assert response_factor(1.0, 1.0) == 0.0


def test_response_factor_degenerate_baseline():
    with pytest.raises(DegenerateBaselineError):
        response_factor(0.1, 0.0)
    with pytest.raises(DegenerateBaselineError):
        response_factor(0.1, 1e-9)


def test_scan_orthogonal_selector_names_it():
    grid = BasisGrid(size=4)
    state = make_state(grid, np.ones(4))
    sel = dft_post_selector(grid, 1)
    with pytest.raises(DegenerateBaselineError, match="dft:1"):
        scan(state, sel, (np.pi / 2,), QUIET)


def test_scan_rejects_bad_depths():
    state, sel = uniform_state(4)
    with pytest.raises(ValueError):
        scan(state, sel, (), QUIET)
    with pytest.raises(ValueError):
        scan(state, sel, (0.0,), QUIET)
    with pytest.raises(ValueError):
        scan(state, sel, (np.nan,), QUIET)


def test_scan_rejects_mismatched_grids():
    state, _ = uniform_state(4)
    sel = uniform_post_selector(BasisGrid(size=5))
    with pytest.raises(Exception):
        scan(state, sel, (np.pi / 2,), QUIET)


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(relative_sigma=-0.1)
    with pytest.raises(ValueError):
        NoiseModel(relative_sigma=0.1, trials=0)
    assert NoiseModel(relative_sigma=0.0).noiseless
    assert not NoiseModel(relative_sigma=0.002).noiseless


@pytest.mark.parametrize("trials", [2.5, 3.0, True])
def test_noise_model_rejects_non_integer_trials(trials):
    with pytest.raises(ValueError):
        NoiseModel(relative_sigma=0.1, trials=trials)


@pytest.mark.parametrize("trials", [3, np.int64(3), np.uint8(3)])
def test_noise_model_accepts_integer_trials(trials):
    assert NoiseModel(relative_sigma=0.1, trials=trials).trials == 3


@pytest.mark.parametrize("seed", [2.5, "7", True])
def test_noise_model_rejects_non_integer_seed(seed):
    with pytest.raises(ValueError):
        NoiseModel(relative_sigma=0.1, seed=seed)


@pytest.mark.parametrize("seed", [np.int64(7), np.int32(7), np.uint64(7)])
def test_noise_model_accepts_numpy_integer_seed(seed):
    state, sel = uniform_state(4)
    noise = NoiseModel(relative_sigma=0.01, seed=seed, trials=3)
    assert noise.seed == 7
    got = scan(state, sel, (np.pi / 2,), noise).measured_matrix()
    want = scan(state, sel, (np.pi / 2,),
                NoiseModel(relative_sigma=0.01, seed=7, trials=3)).measured_matrix()
    assert np.array_equal(got, want)


def test_measure_with_noise_noiseless_passthrough():
    assert measure_with_noise(0.37, QUIET) == 0.37


def test_measure_with_noise_is_seed_deterministic():
    noisy = NoiseModel(relative_sigma=0.01, seed=4, trials=3)
    a = measure_with_noise(0.4, noisy)
    b = measure_with_noise(0.4, noisy)
    assert a == b
    other = NoiseModel(relative_sigma=0.01, seed=5, trials=3)
    assert measure_with_noise(0.4, other) != a


def test_measure_with_noise_spread_scales_with_sigma():
    values_small = []
    values_big = []
    for s in range(400):
        values_small.append(measure_with_noise(
            0.5, NoiseModel(relative_sigma=0.002, seed=s, trials=1)))
        values_big.append(measure_with_noise(
            0.5, NoiseModel(relative_sigma=0.02, seed=s, trials=1)))
    std_small = np.std(values_small)
    std_big = np.std(values_big)
    # absolute scale sigma_rel * value, and a factor 10 between the two
    assert std_small == pytest.approx(0.002 * 0.5, rel=0.25)
    assert std_big == pytest.approx(10 * std_small, rel=0.25)


def test_measure_with_noise_trial_averaging_tightens():
    spread_1 = np.std([measure_with_noise(
        0.5, NoiseModel(relative_sigma=0.02, seed=s, trials=1))
        for s in range(300)])
    spread_25 = np.std([measure_with_noise(
        0.5, NoiseModel(relative_sigma=0.02, seed=s, trials=25))
        for s in range(300)])
    assert spread_25 == pytest.approx(spread_1 / 5.0, rel=0.3)


def test_measure_with_noise_clamps_at_zero():
    values = [measure_with_noise(
        0.001, NoiseModel(relative_sigma=0.5, seed=s, trials=1), baseline_p0=1.0)
        for s in range(200)]
    assert min(values) >= 0.0
    assert np.mean(values) > 0.001


def test_noisy_scan_deterministic_and_close_to_truth():
    rng = np.random.default_rng(41)
    grid = BasisGrid(size=8)
    state = random_state(grid, rng)
    sel = uniform_post_selector(grid)
    noise = NoiseModel(relative_sigma=0.002, seed=77, trials=1)
    a = scan(state, sel, (np.pi / 2, -np.pi / 2), noise)
    b = scan(state, sel, (np.pi / 2, -np.pi / 2), noise)
    assert np.array_equal(a.measured_matrix(), b.measured_matrix())
    assert a.baseline_p0 == b.baseline_p0
    quiet = scan(state, sel, (np.pi / 2, -np.pi / 2), QUIET)
    # 0.2% noise: measured probabilities track the exact ones closely
    assert np.allclose(a.measured_matrix(), quiet.measured_matrix(),
                       rtol=0, atol=6 * 0.002)
    other = scan(state, sel, (np.pi / 2, -np.pi / 2),
                 NoiseModel(relative_sigma=0.002, seed=78, trials=1))
    assert not np.array_equal(a.measured_matrix(), other.measured_matrix())


def test_noisy_baseline_spread_matches_relative_sigma():
    rng = np.random.default_rng(43)
    grid = BasisGrid(size=6)
    state = random_state(grid, rng)
    sel = uniform_post_selector(grid)
    quiet = scan(state, sel, (np.pi / 2,), QUIET)
    # the direct read; the map's p0 is the sum-rule estimate here
    baselines = [
        scan(state, sel, (np.pi / 2,),
             NoiseModel(relative_sigma=0.002, seed=s, trials=1)).meta["p0_direct"]
        for s in range(400)
    ]
    assert np.std(baselines) == pytest.approx(
        0.002 * quiet.baseline_p0, rel=0.25)


def test_response_map_validates_record_order():
    grid = BasisGrid(size=2)
    depths = (np.pi / 2,)
    pr = np.full((2, 1), 0.4)
    p = np.full((2, 1), 0.2)
    ResponseMap(grid=grid, depths=depths, pr=pr, p=p, p0=0.5)
    with pytest.raises(ValueError):  # wrong bin count
        ResponseMap(grid=grid, depths=depths, pr=pr[:1], p=p[:1], p0=0.5)
    with pytest.raises(ValueError):  # wrong depth count
        ResponseMap(grid=grid, depths=(np.pi / 2, -np.pi / 2), pr=pr, p=p, p0=0.5)
    with pytest.raises(ValueError):  # not (N, D)
        ResponseMap(grid=grid, depths=depths, pr=pr.ravel(), p=p.ravel(), p0=0.5)


@pytest.mark.parametrize("p0", [-0.5, 0.0, 1e-9, BASELINE_FLOOR, np.nan])
def test_response_map_rejects_a_baseline_at_or_below_the_floor(p0):
    with pytest.raises(DegenerateBaselineError, match="floor"):
        ResponseMap(grid=BasisGrid(size=2), depths=(np.pi / 2,), pr=np.full((2, 1), 0.4),
                    p=np.full((2, 1), 0.2), p0=p0)


def test_response_matrix_shape_and_content():
    state, sel = uniform_state(4)
    rmap = scan(state, sel, (np.pi / 2, np.pi), QUIET)
    mat = rmap.response_matrix()
    assert mat.shape == (4, 2)
    assert np.allclose(mat[:, 0], 0.375, atol=1e-14)
    assert np.allclose(mat[:, 1], 0.75, atol=1e-14)
    assert np.allclose(rmap.baseline_p0, 1.0, atol=1e-14)


_depth = st.floats(-2 * np.pi, 2 * np.pi).filter(lambda t: t != 0.0)


@settings(max_examples=50, deadline=None)
@given(a=_depth, b=_depth, n=st.integers(2, 12),
       seed=st.integers(0, 2**64 - 1), trials=st.integers(1, 5))
def test_noisy_scan_columns_follow_their_depths(a, b, n, seed, trials):
    # draws are keyed by depth value, not position: reordering the depth
    # list permutes the measured columns and changes no bit
    grid = BasisGrid(size=n)
    state = builtin_waveform("gaussian_linear_chirp", grid)
    sel = uniform_post_selector(grid)
    noise = NoiseModel(relative_sigma=0.002, seed=seed, trials=trials)
    ab = scan(state, sel, (a, b), noise)
    ba = scan(state, sel, (b, a), noise)
    assert ab.baseline_p0 == ba.baseline_p0
    assert np.array_equal(ab.measured_matrix(), ba.measured_matrix()[:, ::-1])
    assert np.array_equal(ab.response_matrix(), ba.response_matrix()[:, ::-1])


# The baseline from the sum rule: for a flat selector the quenched reads fix
# P0 as (sum of all reads - sum_d h_d / N) / sum_d (N - h_d).

def _flat_selector(grid, kind, phases):
    if kind == "uniform":
        return uniform_post_selector(grid)
    if kind == "dft":
        return dft_post_selector(grid, int(phases[0] * 1e6) % grid.size)
    n = grid.size
    return PostSelector(grid, np.exp(2j * np.pi * np.asarray(phases[:n])) / np.sqrt(n),
                        label="random-phase")


def test_flat_selectors_are_recognised():
    grid = BasisGrid(size=7)
    assert uniform_post_selector(grid).flat
    assert all(dft_post_selector(grid, k).flat for k in range(7))
    assert PostSelector(grid, np.exp(1j * np.arange(7.0)) / np.sqrt(7)).flat
    uneven = np.linspace(1.0, 2.0, 7)
    assert not PostSelector(grid, uneven / np.linalg.norm(uneven)).flat


@settings(max_examples=100, deadline=None)
@given(n=st.integers(3, 40), seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["uniform", "dft", "random-phase"]),
       phases=st.lists(st.floats(0.0, 1.0), min_size=40, max_size=40),
       depths=st.lists(_depth, min_size=1, max_size=4))
def test_sum_rule_baseline_is_exact_without_noise(n, seed, kind, phases, depths):
    grid = BasisGrid(size=n)
    state = random_state(grid, np.random.default_rng(seed))
    sel = _flat_selector(grid, kind, phases)
    assert sel.flat
    p0, pr = _kernels.true_probabilities(state.amplitudes, sel.overlaps, np.array(depths))
    # a small P0 is the difference of sums of order 1/N: rounding, not the rule
    assume(n * p0 >= 1e-2)
    estimate = _sum_rule_baseline(pr[None], np.array([depths]), [np.nan])[0]
    assume(not np.isnan(estimate))  # NaN: the direct read stays
    assert abs(estimate - p0) <= 1e-12 * p0


@pytest.mark.parametrize("selector", ["uniform", "dft:3"])
def test_sum_rule_baseline_is_ten_times_tighter_at_200_bins(selector):
    grid = BasisGrid(size=200)
    state = builtin_waveform("gaussian_linear_chirp", grid)
    sel = uniform_post_selector(grid) if selector == "uniform" else dft_post_selector(grid, 3)
    noise = NoiseModel(relative_sigma=0.002, seed=11, trials=1)
    p0, _, _, p0_read = measure_block(state, sel, (np.pi / 2, -np.pi / 2), noise,
                                      np.arange(256))
    assert np.std(p0) <= np.std(p0_read) / 10


@pytest.mark.parametrize("seed", range(4))
def test_sum_rule_baseline_keeps_its_bits_when_depths_are_reordered(seed):
    grid = BasisGrid(size=9)
    state = builtin_waveform("square_step_phase", grid)
    noise = NoiseModel(relative_sigma=0.01, seed=seed, trials=3)
    depths = np.random.default_rng(seed).uniform(0.1, 3.0, 7) * np.array([1, -1] * 3 + [1])
    orders = [depths] + [np.random.default_rng([seed, k]).permutation(depths) for k in range(6)]
    maps = [scan(state, dft_post_selector(grid, 2), order, noise) for order in orders]
    assert maps[0].p0 != maps[0].meta["p0_direct"]
    assert len({m.p0 for m in maps}) == 1


def test_direct_read_stays_where_the_sum_rule_is_noisier():
    state = builtin_waveform("gaussian_linear_chirp", BasisGrid(size=12))
    noise = NoiseModel(relative_sigma=0.01, seed=2, trials=1)
    uneven = np.linspace(1.0, 2.0, 12)
    not_flat = PostSelector(state.grid, uneven / np.linalg.norm(uneven))
    rmap = scan(state, not_flat, (np.pi / 2, -np.pi / 2), noise)
    assert rmap.p0 == rmap.meta["p0_direct"]
    # N = 3 at theta = pi: sum_d (N - h_d) = -1, not above sqrt(N D)
    small = make_state(BasisGrid(size=3), [1.0, 0.5, 0.2])
    rmap = scan(small, uniform_post_selector(small.grid), (np.pi,), noise)
    assert rmap.p0 == rmap.meta["p0_direct"]
    # a noiseless map uses the true P0 and records no read
    quiet = scan(state, uniform_post_selector(state.grid), (np.pi / 2, -np.pi / 2), QUIET)
    p0, _ = oracle_probabilities(state.amplitudes, uniform_post_selector(state.grid).overlaps,
                                 (np.pi / 2,))
    assert quiet.p0 == pytest.approx(p0, rel=1e-14) and "p0_direct" not in quiet.meta


@pytest.mark.parametrize("seed", range(8))
def test_a_fold_is_still_flagged_under_the_sum_rule_baseline(seed):
    # bin 5 carries Re w = 40/59 = 0.68 > 1/2, every other w is 1/59: the
    # folded inversion leaves sum(raw)/4 at 0.64, outside the 0.25 tolerance
    grid = BasisGrid(size=20)
    amps = np.ones(20)
    amps[5] = 40.0
    state = make_state(grid, amps)
    noise = NoiseModel(relative_sigma=0.002, seed=seed, trials=1)
    rmap = scan(state, uniform_post_selector(grid), (np.pi / 2, -np.pi / 2), noise)
    assert rmap.p0 != rmap.meta["p0_direct"]
    rec = reconstruct_wavefunction(rmap)
    assert not rec.branch_ok[5]


def test_package_exports_its_public_names_and_no_module():
    import types

    import qquench
    assert len(qquench.__all__) == 44 and "scan" in qquench.__all__
    assert not any(isinstance(getattr(qquench, name), types.ModuleType)
                   for name in qquench.__all__)
