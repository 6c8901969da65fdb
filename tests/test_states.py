import math

import numpy as np
import pytest

from qquench import (
    BasisGrid,
    DimensionMismatchError,
    IndexOutOfRangeError,
    NonFiniteInputError,
    UnknownWaveformError,
    WAVEFORM_NAMES,
    ZeroVectorError,
    builtin_waveform,
    dft_post_selector,
    make_state,
    sample_envelope,
    uniform_post_selector,
)


def test_grid_times_and_span():
    grid = BasisGrid(size=20, bin_width=0.1e-6)
    assert grid.span == pytest.approx(2e-6)
    times = grid.times()
    assert times.shape == (20,)
    assert times[0] == pytest.approx(0.05e-6)
    assert times[-1] == pytest.approx(1.95e-6)
    assert np.allclose(np.diff(times), 0.1e-6)


def test_grid_origin_shifts_times():
    grid = BasisGrid(size=4, bin_width=1.0, origin=10.0)
    assert np.allclose(grid.times(), [10.5, 11.5, 12.5, 13.5])


@pytest.mark.parametrize("kwargs", [
    dict(size=1),
    dict(size=0),
    dict(size=4, bin_width=0.0),
    dict(size=4, bin_width=-1.0),
    dict(size=4, bin_width=math.inf),
])
def test_grid_rejects_bad_parameters(kwargs):
    with pytest.raises(ValueError):
        BasisGrid(**kwargs)


def test_make_state_normalizes():
    grid = BasisGrid(size=4)
    state = make_state(grid, [3.0, 0.0, 4.0, 0.0])
    assert np.linalg.norm(state.amplitudes) == pytest.approx(1.0, abs=1e-12)
    assert state.amplitudes[0] == pytest.approx(0.6)
    assert state.amplitudes[2] == pytest.approx(0.8)


def test_make_state_rejects_zero_vector():
    grid = BasisGrid(size=4)
    with pytest.raises(ZeroVectorError):
        make_state(grid, np.zeros(4))


def test_make_state_rejects_wrong_length():
    grid = BasisGrid(size=4)
    with pytest.raises(DimensionMismatchError):
        make_state(grid, np.ones(5))


def test_make_state_rejects_non_finite():
    grid = BasisGrid(size=4)
    with pytest.raises(NonFiniteInputError):
        make_state(grid, [1.0, np.nan, 0.0, 0.0])
    with pytest.raises(NonFiniteInputError):
        make_state(grid, [1.0, np.inf, 0.0, 0.0])


def test_state_amplitudes_are_read_only():
    grid = BasisGrid(size=4)
    state = make_state(grid, np.ones(4))
    with pytest.raises(ValueError):
        state.amplitudes[0] = 0.0


def test_uniform_selector_overlaps():
    grid = BasisGrid(size=16)
    sel = uniform_post_selector(grid)
    assert np.allclose(sel.overlaps, 0.25)
    assert np.linalg.norm(sel.overlaps) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n,k", [(4, 1), (8, 3), (20, 19), (5, 2)])
def test_dft_selector_is_unbiased(n, k):
    # every overlap modulus is 1/sqrt(N): the two bases are mutually unbiased
    grid = BasisGrid(size=n)
    sel = dft_post_selector(grid, k)
    assert np.allclose(np.abs(sel.overlaps), 1.0 / math.sqrt(n), atol=1e-12)
    assert np.linalg.norm(sel.overlaps) == pytest.approx(1.0, abs=1e-12)


def test_dft_selectors_are_orthogonal():
    grid = BasisGrid(size=8)
    a = dft_post_selector(grid, 1)
    b = dft_post_selector(grid, 5)
    assert abs(np.vdot(a.amplitudes, b.amplitudes)) < 1e-12


def test_dft_selector_k_zero_is_uniform():
    grid = BasisGrid(size=8)
    assert np.allclose(dft_post_selector(grid, 0).overlaps,
                       uniform_post_selector(grid).overlaps)


def test_dft_selector_rejects_out_of_range_k():
    grid = BasisGrid(size=8)
    with pytest.raises(IndexOutOfRangeError):
        dft_post_selector(grid, 8)
    with pytest.raises(IndexOutOfRangeError):
        dft_post_selector(grid, -1)


def test_sample_envelope_with_callables():
    grid = BasisGrid(size=10, bin_width=0.2)
    state = sample_envelope(grid, lambda t: np.exp(-t), lambda t: 0.5 * t)
    times = grid.times()
    expected = np.exp(-times) * np.exp(0.5j * times)
    expected = expected / np.linalg.norm(expected)
    assert np.allclose(state.amplitudes, expected, atol=1e-14)


def test_sample_envelope_with_arrays():
    grid = BasisGrid(size=4)
    state = sample_envelope(grid, np.array([1.0, 2.0, 2.0, 1.0]), np.zeros(4))
    assert np.allclose(np.abs(state.amplitudes),
                       np.array([1, 2, 2, 1]) / math.sqrt(10))


def test_sample_envelope_rejects_negative_amplitude():
    grid = BasisGrid(size=4)
    with pytest.raises(ValueError):
        sample_envelope(grid, lambda t: -np.ones_like(t), lambda t: np.zeros_like(t))


@pytest.mark.parametrize("name", WAVEFORM_NAMES)
def test_builtin_waveforms_are_normalized(name):
    grid = BasisGrid(size=20)
    state = builtin_waveform(name, grid)
    assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-12


def test_gaussian_flat_phase_is_real():
    grid = BasisGrid(size=20)
    state = builtin_waveform("gaussian_flat_phase", grid)
    # after rotating the global phase away, the envelope is purely real
    peak = np.argmax(np.abs(state.amplitudes))
    rotated = state.amplitudes * np.exp(-1j * np.angle(state.amplitudes[peak]))
    assert np.allclose(rotated.imag, 0.0, atol=1e-14)


def test_square_step_phase_has_one_jump():
    grid = BasisGrid(size=20)
    state = builtin_waveform("square_step_phase", grid)
    phases = np.angle(state.amplitudes)
    jumps = np.flatnonzero(np.abs(np.diff(phases)) > 1e-6)
    assert jumps.size == 1
    assert phases[jumps[0] + 1] - phases[jumps[0]] == pytest.approx(np.pi / 2)


def test_builtin_waveform_unknown_name():
    grid = BasisGrid(size=20)
    with pytest.raises(UnknownWaveformError):
        builtin_waveform("nope", grid)
