import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qquench import (
    BasisGrid,
    IncompleteDepthsError,
    NoiseModel,
    ReconstructionResult,
    SingularDepthError,
    amplitude_nodes,
    dft_post_selector,
    gauge_fix,
    invert_general,
    make_state,
    phase_envelope,
    reconstruct_wavefunction,
    scan,
    uniform_post_selector,
)
from qquench import builtin_waveform
from qquench.reconstruct import SINGULAR_TOL
from support import branch_valid_state, random_state, scaled_amplitudes

QUIET = NoiseModel(relative_sigma=0.0)


def forward_response(w, theta):
    """Exact response factor for a scaled amplitude w at depth theta."""
    phase = np.exp(1j * theta) - 1.0
    return float(-2.0 * (phase * w).real - abs(phase) ** 2 * abs(w) ** 2)


def test_invert_pm_halfpi_worked_example():
    # 1 - cos(fl(pi/2)) rounds to 1 - 2**-53, so re lands 1 ulp above 1
    re, im, ok = invert_general(0.375, 0.375, np.pi / 2)
    assert re == pytest.approx(1.0, abs=4.5e-16)
    assert (im, ok) == (0.0, True)


def test_invert_pm_halfpi_imaginary_is_exact_difference():
    rng = np.random.default_rng(3)
    for _ in range(100):
        p1, p2 = rng.uniform(-0.5, 0.5, size=2)
        _, im, _ = invert_general(p1, p2, np.pi / 2)
        assert im == p1 - p2


def test_invert_pm_halfpi_reduction_property():
    # 1000 random points in the branch-valid disk: forward map then invert
    # recovers (4x, 4y)
    rng = np.random.default_rng(7)
    count = 0
    while count < 1000:
        x = rng.uniform(-0.6, 0.5)
        y = rng.uniform(-0.6, 0.6)
        if x * x + y * y > 0.45:
            continue
        count += 1
        w = complex(x, y)
        p1 = forward_response(w, np.pi / 2)
        p2 = forward_response(w, -np.pi / 2)
        re, im, ok = invert_general(p1, p2, np.pi / 2)
        assert ok
        assert re == pytest.approx(4 * x, abs=1e-12)
        assert im == pytest.approx(4 * y, abs=1e-12)


def test_invert_pm_halfpi_flags_negative_radicand():
    re, im, ok = invert_general(0.9, 0.9, np.pi / 2)
    assert not ok
    assert re == 2.0


def test_invert_pm_halfpi_accepts_arrays():
    p1 = np.array([0.375, 0.1])
    p2 = np.array([0.375, 0.2])
    re, im, ok = invert_general(p1, p2, np.pi / 2)
    assert re.shape == im.shape == ok.shape == (2,)
    assert im[1] == pytest.approx(-0.1)


@pytest.mark.parametrize("theta", [0.3, np.pi / 4, np.pi / 2, 2.0, 3.0])
def test_invert_general_round_trip(theta):
    rng = np.random.default_rng(int(theta * 1000))
    for _ in range(200):
        x = rng.uniform(-0.5, 0.45)
        y = rng.uniform(-0.5, 0.5)
        if x * x + y * y > 0.4:
            continue
        w = complex(x, y)
        pp = forward_response(w, theta)
        pm = forward_response(w, -theta)
        re, im, ok = invert_general(pp, pm, theta)
        assert ok
        assert re == pytest.approx(4 * x, abs=1e-10)
        assert im == pytest.approx(4 * y, abs=1e-10)


def test_invert_general_at_pi_has_zero_imaginary_channel():
    # sin(pi) vanishes so only the real part is observable there
    re, im, ok = invert_general(0.75, 0.75, np.pi)
    assert (re, im, ok) == (1.0, 0.0, True)


def test_invert_general_rejects_singular_depths():
    with pytest.raises(SingularDepthError):
        invert_general(0.1, 0.1, 1e-12)
    with pytest.raises(SingularDepthError):
        invert_general(0.1, 0.1, 2 * np.pi)
    with pytest.raises(ValueError):
        invert_general(0.1, 0.1, -0.5)
    with pytest.raises(ValueError):
        invert_general(0.1, 0.1, np.nan)


def test_reconstruct_uniform_state():
    grid = BasisGrid(size=4)
    state = make_state(grid, np.ones(4))
    sel = uniform_post_selector(grid)
    rmap = scan(state, sel, (np.pi / 2, -np.pi / 2), QUIET)
    rec = reconstruct_wavefunction(rmap)
    assert np.allclose(rec.psi, 0.5, atol=1e-12)
    assert np.all(rec.branch_ok)
    assert np.allclose(rec.raw_re, 1.0, atol=1e-12)
    assert np.allclose(rec.raw_im, 0.0, atol=1e-12)


def test_reconstruct_requires_pm_pair():
    grid = BasisGrid(size=4)
    state = make_state(grid, np.ones(4))
    sel = uniform_post_selector(grid)
    rmap = scan(state, sel, (np.pi / 2, np.pi / 3), QUIET)
    with pytest.raises(IncompleteDepthsError):
        reconstruct_wavefunction(rmap)
    single = scan(state, sel, (np.pi / 2,), QUIET)
    with pytest.raises(IncompleteDepthsError):
        reconstruct_wavefunction(single)


def test_reconstruct_round_trip_random_states():
    rng = np.random.default_rng(19)
    for n in (4, 8, 20):
        grid = BasisGrid(size=n)
        sel = uniform_post_selector(grid)
        for _ in range(5):
            state = branch_valid_state(grid, rng)
            rmap = scan(state, sel, (np.pi / 2, -np.pi / 2), QUIET)
            rec = reconstruct_wavefunction(rmap)
            assert abs(np.vdot(rec.psi, state.amplitudes)) >= 1 - 1e-12
            assert np.all(rec.branch_ok)
            assert np.linalg.norm(rec.psi) == pytest.approx(1.0, abs=1e-12)


def test_reconstruct_general_depth_agrees_with_halfpi():
    rng = np.random.default_rng(21)
    grid = BasisGrid(size=8)
    sel = uniform_post_selector(grid)
    state = branch_valid_state(grid, rng)
    rec_half = reconstruct_wavefunction(
        scan(state, sel, (np.pi / 2, -np.pi / 2), QUIET))
    rec_gen = reconstruct_wavefunction(
        scan(state, sel, (1.1, -1.1), QUIET))
    assert np.allclose(rec_half.psi, rec_gen.psi, atol=1e-9)


def test_reconstruct_orders_depths_either_way():
    grid = BasisGrid(size=4)
    state = make_state(grid, np.ones(4))
    sel = uniform_post_selector(grid)
    a = reconstruct_wavefunction(scan(state, sel, (np.pi / 2, -np.pi / 2), QUIET))
    b = reconstruct_wavefunction(scan(state, sel, (-np.pi / 2, np.pi / 2), QUIET))
    assert np.array_equal(a.psi, b.psi)


def test_branch_failure_concentrated_state():
    grid = BasisGrid(size=2)
    state = make_state(grid, [1.0, 0.0])
    sel = uniform_post_selector(grid)
    rmap = scan(state, sel, (np.pi / 2, -np.pi / 2), QUIET)
    rec = reconstruct_wavefunction(rmap)
    assert not rec.branch_ok[0]


def test_fold_detection_flags_dominant_bin():
    # bin 0 carries Re[w] = 0.65 > 1/2: its inversion folds and the sum
    # rule breaks, so exactly that bin must be flagged
    grid = BasisGrid(size=4)
    state = make_state(grid, [0.95, 0.17, 0.17, 0.17])
    sel = uniform_post_selector(grid)
    rmap = scan(state, sel, (np.pi / 2, -np.pi / 2), QUIET)
    rec = reconstruct_wavefunction(rmap)
    assert not rec.branch_ok[0]
    assert np.all(rec.branch_ok[1:])


def test_gauge_convention_peak_bin_real_positive():
    rng = np.random.default_rng(29)
    grid = BasisGrid(size=8)
    sel = uniform_post_selector(grid)
    state = branch_valid_state(grid, rng)
    rec = reconstruct_wavefunction(scan(state, sel, (np.pi / 2, -np.pi / 2), QUIET))
    peak = np.argmax(np.abs(rec.psi))
    assert rec.psi[peak].imag == pytest.approx(0.0, abs=1e-12)
    assert rec.psi[peak].real > 0


def test_overlap_correction_for_dft_selector():
    grid = BasisGrid(size=8)
    state = builtin_waveform("gaussian_flat_phase", grid)
    sel = dft_post_selector(grid, 1)
    # verified branch-valid: max Re[w] is about 0.44 for this combination
    w = state.amplitudes * sel.overlaps / (sel.overlaps @ state.amplitudes)
    assert np.max(w.real) < 0.5
    rmap = scan(state, sel, (np.pi / 2, -np.pi / 2), QUIET)
    rec = reconstruct_wavefunction(rmap, overlaps=sel.overlaps)
    assert abs(np.vdot(rec.psi, state.amplitudes)) >= 1 - 1e-10
    # without the correction the recovered vector is a different state
    rec_raw = reconstruct_wavefunction(rmap)
    assert abs(np.vdot(rec_raw.psi, state.amplitudes)) < 1 - 1e-3


def test_reconstruction_derives_its_envelopes_from_psi():
    grid = BasisGrid(size=4)
    psi = np.array([0.6, -0.8j, 0.0, -1e-12])
    inputs = dict(grid=grid, raw_re=np.zeros(4), raw_im=np.zeros(4), psi=psi,
                  branch_ok=np.ones(4, bool))
    rec = ReconstructionResult(**inputs)
    assert np.array_equal(rec.amplitude_env, np.abs(psi))
    assert np.array_equal(rec.phase_env, phase_envelope(psi))
    assert np.array_equal(rec.nodes, [False, False, True, True])
    for name in ("amplitude_env", "phase_env", "nodes"):
        with pytest.raises(TypeError):
            ReconstructionResult(**inputs, **{name: getattr(rec, name)})


def test_phase_envelope_quadrants():
    psi = np.array([1.0, 1j, -1.0, -1j]) / 2.0
    assert np.allclose(phase_envelope(psi), [0.0, np.pi / 2, np.pi, -np.pi / 2])


def test_phase_envelope_nodes_get_zero():
    psi = np.array([1.0, 0.0, 1e-12])
    phases = phase_envelope(psi)
    assert phases[1] == 0.0
    assert phases[2] == 0.0
    assert np.array_equal(amplitude_nodes(psi), [False, True, True])


def test_phase_envelope_never_returns_minus_pi():
    psi = np.array([-1.0 + 0.0j, -1.0 - 1e-300j])
    phases = phase_envelope(psi)
    assert phases[0] == np.pi


def test_gauge_fix_zero_vector_unchanged():
    z = np.zeros(3, dtype=np.complex128)
    assert np.array_equal(gauge_fix(z), z)


def test_gauge_fix_rotates_peak_to_real():
    rng = np.random.default_rng(33)
    grid = BasisGrid(size=6)
    state = random_state(grid, rng)
    fixed = gauge_fix(state.amplitudes)
    peak = np.argmax(np.abs(fixed))
    assert fixed[peak].imag == pytest.approx(0.0, abs=1e-14)
    assert fixed[peak].real > 0
    # only a global phase was applied
    assert abs(np.vdot(fixed, state.amplitudes)) == pytest.approx(1.0, abs=1e-12)


_theta = st.floats(0.0, 2 * np.pi, exclude_min=True, exclude_max=True).filter(
    lambda t: 1.0 - np.cos(t) >= SINGULAR_TOL)


@settings(max_examples=80, deadline=None)
@given(theta=_theta, n=st.integers(4, 12), seed=st.integers(0, 2**32 - 1))
@example(theta=np.pi / 2, n=12, seed=2019)
def test_invert_general_noiseless_round_trip_property(theta, n, seed):
    # a noiseless +/-theta scan of a branch-valid state inverts to 4w; the
    # error is rounding, amplified by 1/sin(theta) in the imaginary channel
    # and by 1/(1 - cos(theta)) in the real one
    grid = BasisGrid(size=n)
    state = branch_valid_state(grid, np.random.default_rng(seed))
    sel = uniform_post_selector(grid)
    p = scan(state, sel, (theta, -theta), QUIET).response_matrix()
    re, im, ok = invert_general(p[:, 0], p[:, 1], theta)
    w = scaled_amplitudes(state.amplitudes, sel.overlaps)
    scale = 1e-12 * (1.0 + np.max(np.abs(w)) ** 2)
    sin_t = abs(np.sin(theta))
    assert np.all(ok)
    assert np.max(np.abs(re - 4 * w.real)) <= scale * (1.0 + 1.0 / (1.0 - np.cos(theta)))
    if sin_t < SINGULAR_TOL:
        assert np.all(im == 0.0)
    else:
        assert np.max(np.abs(im - 4 * w.imag)) <= scale * (1.0 + 1.0 / sin_t)


@settings(max_examples=80, deadline=None)
@given(theta=st.floats(0.1, np.pi - 0.1), n=st.integers(4, 12),
       seed=st.integers(0, 2**32 - 1))
def test_sum_rule_holds_on_noiseless_scans(theta, n, seed):
    # sum_u w_u = 1, so the raw inversion of a noiseless scan sums to 4
    grid = BasisGrid(size=n)
    state = branch_valid_state(grid, np.random.default_rng(seed))
    rmap = scan(state, uniform_post_selector(grid), (theta, -theta), QUIET)
    rec = reconstruct_wavefunction(rmap)
    total = complex(np.sum(rec.raw_re + 1j * rec.raw_im)) / 4.0
    assert abs(total - 1.0) <= 1e-9
    assert np.all(rec.branch_ok)
