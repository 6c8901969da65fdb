import dataclasses
import json
import os
import stat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qquench import (
    BasisGrid,
    NoiseModel,
    NonFiniteInputError,
    ReconstructionResult,
    ResponseMap,
    SweepResult,
    ZeroVectorError,
    builtin_waveform,
    depth_sweep,
    load_reconstruction,
    load_response_map,
    load_sweep_fidelity,
    load_sweep_map,
    load_waveform,
    make_state,
    reconstruct_wavefunction,
    save_reconstruction,
    save_response_map,
    save_sweep_fidelity,
    save_sweep_map,
    save_waveform,
    scan,
    uniform_post_selector,
)
from qquench import phase_envelope
from qquench.io import atomic_write_text, fmt_float, resolve_format
from qquench.quench import BASELINE_FLOOR

import support

QUIET = NoiseModel(relative_sigma=0.0)


@pytest.fixture
def pipeline():
    grid = BasisGrid(size=8)
    state = builtin_waveform("gaussian_linear_chirp", grid)
    sel = uniform_post_selector(grid)
    noise = NoiseModel(relative_sigma=0.002, seed=3, trials=2)
    rmap = scan(state, sel, (np.pi / 2, -np.pi / 2), noise)
    rec = reconstruct_wavefunction(rmap)
    sweep = depth_sweep(state, sel, (np.pi / 4, np.pi / 2), noise, n_seeds=3)
    return state, rmap, rec, sweep


def test_fmt_float_round_trips_doubles():
    rng = np.random.default_rng(1)
    edge_values = [0.0, -0.0, 1e-300, -1e300, np.pi, 2.0 / 3.0]
    for x in list(rng.standard_normal(200)) + edge_values:
        assert float(fmt_float(x)) == x or (x == 0 and float(fmt_float(x)) == 0)


def test_resolve_format_rules(tmp_path):
    assert resolve_format(tmp_path / "a.csv", None) == "csv"
    assert resolve_format(tmp_path / "a.json", None) == "json"
    assert resolve_format(tmp_path / "a.txt", None) == "csv"
    assert resolve_format(tmp_path / "a.csv", "json") == "json"
    with pytest.raises(ValueError):
        resolve_format(tmp_path / "a.csv", "yaml")


def test_atomic_write_leaves_no_temp_files(tmp_path):
    target = tmp_path / "out.txt"
    atomic_write_text(target, "hello\n")
    atomic_write_text(target, "replaced\n")
    assert target.read_text() == "replaced\n"
    assert os.listdir(tmp_path) == ["out.txt"]


@pytest.mark.parametrize("umask", [0o022, 0o027], ids=["022", "027"])
def test_atomic_write_mode_matches_open(tmp_path, umask):
    previous = os.umask(umask)
    try:
        atomic_write_text(tmp_path / "atomic.txt", "x\n")
        with open(tmp_path / "plain.txt", "w") as handle:
            handle.write("x\n")
    finally:
        os.umask(previous)
    atomic_mode = stat.S_IMODE(os.stat(tmp_path / "atomic.txt").st_mode)
    assert atomic_mode == stat.S_IMODE(os.stat(tmp_path / "plain.txt").st_mode)
    assert atomic_mode == 0o666 & ~umask


def test_atomic_write_leaves_the_umask_alone(tmp_path, monkeypatch):
    # the umask is process-wide: setting it, even to read it, races every
    # other thread that creates a file
    previous = os.umask(0o022)
    try:
        def no_umask(mask):
            raise AssertionError("atomic_write_text set the umask")

        with monkeypatch.context() as patch:
            patch.setattr(os, "umask", no_umask)
            atomic_write_text(tmp_path / "atomic.txt", "x\n")
    finally:
        os.umask(previous)
    assert stat.S_IMODE(os.stat(tmp_path / "atomic.txt").st_mode) == 0o666 & ~0o022
    assert os.listdir(tmp_path) == ["atomic.txt"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_waveform_round_trip(tmp_path, pipeline, fmt):
    state = pipeline[0]
    path = tmp_path / f"wave.{fmt}"
    save_waveform(path, state, fmt)
    loaded = load_waveform(path)
    assert loaded.grid.size == state.grid.size
    assert loaded.grid.bin_width == pytest.approx(state.grid.bin_width, rel=1e-12)
    assert abs(np.vdot(loaded.amplitudes, state.amplitudes)) >= 1 - 1e-12
    assert np.allclose(loaded.amplitudes, state.amplitudes, atol=1e-14)


def test_waveform_csv_stores_fields_exactly(tmp_path, pipeline):
    # the polar fields in the file are the in-memory doubles verbatim;
    # only the loader's re-normalization can touch the last bit
    state = pipeline[0]
    path = tmp_path / "wave.csv"
    save_waveform(path, state, "csv")
    rows = [line.split(",") for line in
            path.read_text().strip().split("\n")[1:]]
    amps = np.array([float(r[1]) for r in rows])
    phases = np.array([float(r[2]) for r in rows])
    times = np.array([float(r[0]) for r in rows])
    assert np.array_equal(amps, np.abs(state.amplitudes))
    assert np.array_equal(phases, phase_envelope(state.amplitudes))
    assert np.array_equal(times, state.grid.times())


def test_waveform_csv_is_plain_table(tmp_path, pipeline):
    path = tmp_path / "wave.csv"
    save_waveform(path, pipeline[0], "csv")
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "t,amplitude,phase"
    assert len(lines) == 1 + 8


def test_waveform_rejects_zero_amplitudes(tmp_path):
    path = tmp_path / "zero.csv"
    rows = ["t,amplitude,phase"] + [f"{t},0,0" for t in (1.0, 2.0, 3.0)]
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(ZeroVectorError):
        load_waveform(path)


def test_waveform_rejects_irregular_spacing(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,amplitude,phase\n0.0,1,0\n1.0,1,0\n3.0,1,0\n")
    with pytest.raises(ValueError):
        load_waveform(path)


def test_waveform_rejects_negative_amplitude(tmp_path):
    path = tmp_path / "neg.csv"
    path.write_text("t,amplitude,phase\n0.0,1,0\n1.0,-1,0\n2.0,1,0\n")
    with pytest.raises(ValueError):
        load_waveform(path)


def test_waveform_header_mismatch(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,amp,phi\n0.0,1,0\n")
    with pytest.raises(ValueError):
        load_waveform(path)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_response_map_round_trip_is_exact(tmp_path, pipeline, fmt):
    rmap = pipeline[1]
    path = tmp_path / f"map.{fmt}"
    save_response_map(path, rmap, fmt)
    kwargs = {}
    if fmt == "csv":
        kwargs = dict(bin_width=rmap.grid.bin_width, origin=rmap.grid.origin)
    loaded = load_response_map(path, **kwargs)
    assert loaded.grid.size == rmap.grid.size
    assert loaded.depths == rmap.depths
    assert np.array_equal(loaded.measured_matrix(), rmap.measured_matrix())
    assert np.array_equal(loaded.response_matrix(), rmap.response_matrix())
    assert np.array_equal(loaded.baseline_p0, rmap.baseline_p0)


def test_response_map_csv_header(tmp_path, pipeline):
    path = tmp_path / "map.csv"
    save_response_map(path, pipeline[1], "csv")
    first = path.read_text().split("\n", 1)[0]
    assert first == "bin,theta,P0,Pr,p"


def test_response_map_csv_rejects_gaps(tmp_path):
    path = tmp_path / "gap.csv"
    path.write_text("bin,theta,P0,Pr,p\n0,1.0,0.5,0.4,0.2\n2,1.0,0.5,0.4,0.2\n")
    with pytest.raises(ValueError):
        load_response_map(path)


@pytest.mark.parametrize("bin_text", ["99999999999999999999", "1000000000000", "-1"])
def test_response_map_csv_rejects_a_bin_out_of_range(tmp_path, bin_text):
    # a bin past the row count is rejected before np.bincount would allocate
    # one counter per bin index up to it
    path = tmp_path / "far.csv"
    path.write_text(f"bin,theta,P0,Pr,p\n0,1.0,0.5,0.4,0.2\n{bin_text},1.0,0.5,0.4,0.2\n")
    with pytest.raises(ValueError, match="far.csv: .*bin"):
        load_response_map(path)


def test_response_map_csv_rejects_baselines_that_differ_between_bins(tmp_path):
    path = tmp_path / "p0.csv"
    path.write_text("bin,theta,P0,Pr,p\n0,1.0,0.5,0.4,0.2\n1,1.0,0.25,0.2,0.2\n")
    with pytest.raises(ValueError, match="P0"):
        load_response_map(path)


def test_response_map_json_rejects_baselines_that_differ_between_bins(tmp_path, pipeline):
    # a JSON map stores its one baseline as a scalar: a per-bin list is no number
    path = tmp_path / "p0.json"
    save_response_map(path, pipeline[1], "json")
    payload = json.loads(path.read_text())
    payload["p0"] = [payload["p0"] * (1.5 if n == 3 else 1.0) for n in range(8)]
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="field 'p0' must be a number"):
        load_response_map(path)


def test_reconstruction_json_round_trip_is_exact(tmp_path, pipeline):
    rec = pipeline[2]
    path = tmp_path / "rec.json"
    save_reconstruction(path, rec, "json")
    loaded = load_reconstruction(path)
    assert np.array_equal(loaded.raw_re, rec.raw_re)
    assert np.array_equal(loaded.raw_im, rec.raw_im)
    assert np.array_equal(loaded.psi, rec.psi)
    assert np.array_equal(loaded.branch_ok, rec.branch_ok)
    assert np.array_equal(loaded.phase_env, rec.phase_env)
    assert np.array_equal(loaded.nodes, rec.nodes)
    assert loaded.grid.bin_width == rec.grid.bin_width


def test_reconstruction_csv_columns(tmp_path, pipeline):
    rec = pipeline[2]
    path = tmp_path / "rec.csv"
    save_reconstruction(path, rec, "csv")
    first = path.read_text().split("\n", 1)[0]
    assert first == "bin,t,re,im,abs2,phase,branch_ok"
    table = load_reconstruction(path)
    assert np.array_equal(table["re"], rec.raw_re)
    assert np.array_equal(table["im"], rec.raw_im)
    assert np.array_equal(table["abs2"], rec.amplitude_env**2)
    assert np.array_equal(table["branch_ok"], rec.branch_ok)
    assert np.array_equal(table["bin"], np.arange(rec.grid.size))


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_fidelity_round_trip(tmp_path, pipeline, fmt):
    sweep = pipeline[3]
    path = tmp_path / f"fid.{fmt}"
    save_sweep_fidelity(path, sweep, fmt)
    table = load_sweep_fidelity(path)
    assert np.array_equal(table["theta"], sweep.depths)
    assert np.all(table["seed_count"] == sweep.seed_count)
    for name in ("fw_mean", "fw_std", "fp_mean", "fp_std", "fa_mean", "fa_std"):
        assert np.array_equal(table[name], getattr(sweep, name))


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_map_round_trip(tmp_path, pipeline, fmt):
    sweep = pipeline[3]
    path = tmp_path / f"map.{fmt}"
    save_sweep_map(path, sweep, fmt)
    table = load_sweep_map(path)
    assert np.array_equal(table["theta"], sweep.depths)
    assert np.array_equal(table["abs_p"], sweep.response_magnitudes)


def test_sweep_csv_headers(tmp_path, pipeline):
    sweep = pipeline[3]
    fid = tmp_path / "f.csv"
    mp = tmp_path / "m.csv"
    save_sweep_fidelity(fid, sweep, "csv")
    save_sweep_map(mp, sweep, "csv")
    assert fid.read_text().split("\n", 1)[0] == \
        "theta,seed_count,fw_mean,fw_std,fp_mean,fp_std,fa_mean,fa_std"
    assert mp.read_text().split("\n", 1)[0] == "bin,theta,abs_p"


def test_empty_csv_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ValueError):
        load_waveform(path)


def test_format_override_beats_suffix(tmp_path, pipeline):
    # a .txt path written as json still loads as json when told so
    path = tmp_path / "map.txt"
    save_response_map(path, pipeline[1], "json")
    loaded = load_response_map(path, fmt="json")
    assert loaded.depths == pipeline[1].depths


# Exact round trips of every save/load pair on arbitrary finite doubles.

_finite = st.floats(allow_nan=False, allow_infinity=False)
# a response map's baseline must lie above the floor
_baseline = st.floats(min_value=BASELINE_FLOOR, exclude_min=True, allow_infinity=False)
# any pr in this range keeps p = 1 - pr/p0 finite over a baseline above the floor
_pr = st.floats(min_value=-1e300, max_value=1e300)
_shape = st.tuples(st.integers(2, 6), st.integers(1, 4))
_formats = st.sampled_from(["csv", "json"])


def _grid(n, width):
    # with a dyadic width every bin time is exact, so a CSV waveform, which
    # stores times only, gives back this very grid
    return BasisGrid(size=n, bin_width=width, origin=-width)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=st.integers(2, 8), fmt=_formats)
def test_waveform_files_round_trip_exactly(tmp_path_factory, data, n, fmt):
    psi = data.draw(arrays(np.complex128, n, elements=st.complex_numbers(
        min_magnitude=1e-3, max_magnitude=1e3, allow_nan=False, allow_infinity=False)))
    state = make_state(_grid(n, 0.25), psi)
    path = tmp_path_factory.mktemp("wave") / f"wave.{fmt}"
    save_waveform(path, state, fmt)
    loaded = load_waveform(path)
    # the file holds the polar doubles verbatim; loading rebuilds the state from them
    expected = make_state(state.grid, np.abs(state.amplitudes)
                          * np.exp(1j * phase_envelope(state.amplitudes)))
    assert np.array_equal(loaded.amplitudes, expected.amplitudes)
    assert loaded.grid == state.grid


@settings(max_examples=60, deadline=None)
@given(data=st.data(), shape=_shape, fmt=st.sampled_from(["csv", "json", "v2"]),
       width=st.floats(1e-9, 1e3))
def test_response_map_files_round_trip_exactly(tmp_path_factory, data, shape, fmt, width):
    rmap = ResponseMap(
        grid=_grid(shape[0], width),
        depths=data.draw(st.lists(_finite, min_size=shape[1], max_size=shape[1])),
        pr=data.draw(arrays(np.float64, shape, elements=_pr)),
        p0=data.draw(_baseline),
    )
    path = tmp_path_factory.mktemp("map") / f"map.{'csv' if fmt == 'csv' else 'json'}"
    if fmt == "v2":  # a version 2 map also stores p, which is checked on load
        support.v2_save_response_map(path, rmap)
    else:
        save_response_map(path, rmap, fmt)
    loaded = load_response_map(path, bin_width=width, origin=-width)
    assert loaded.grid == rmap.grid
    assert loaded.depths == rmap.depths
    assert np.array_equal(loaded.pr, rmap.pr)
    assert np.array_equal(loaded.p, rmap.p)
    assert loaded.p0 == rmap.p0


@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=st.integers(2, 8))
def test_reconstruction_json_round_trips_exactly(tmp_path_factory, data, n):
    psi = data.draw(arrays(np.complex128, n, elements=st.complex_numbers(
        max_magnitude=1e3, allow_nan=False, allow_infinity=False)))
    rec = ReconstructionResult(
        grid=_grid(n, 0.5),
        raw_re=data.draw(arrays(np.float64, n, elements=_finite)),
        raw_im=data.draw(arrays(np.float64, n, elements=_finite)),
        psi=psi, branch_ok=data.draw(arrays(np.bool_, n)),
    )
    path = tmp_path_factory.mktemp("rec") / "rec.json"
    save_reconstruction(path, rec, "json")
    loaded = load_reconstruction(path)
    assert loaded.grid == rec.grid
    for field in ("raw_re", "raw_im", "psi", "amplitude_env", "phase_env", "branch_ok",
                  "nodes"):
        assert np.array_equal(getattr(loaded, field), getattr(rec, field)), field


@settings(max_examples=40, deadline=None)
@given(data=st.data(), shape=_shape, fmt=_formats, seed_count=st.integers(1, 64))
def test_sweep_files_round_trip_exactly(tmp_path_factory, data, shape, fmt, seed_count):
    n, d = shape
    stats = {name: data.draw(arrays(np.float64, d, elements=_finite))
             for name in ("fw_mean", "fw_std", "fp_mean", "fp_std", "fa_mean", "fa_std")}
    sweep = SweepResult(
        grid=_grid(n, 0.5), depths=data.draw(arrays(np.float64, d, elements=_finite)),
        seed_count=seed_count,
        response_magnitudes=data.draw(arrays(np.float64, shape, elements=_finite)), **stats)
    folder = tmp_path_factory.mktemp("sweep")
    save_sweep_fidelity(folder / f"fid.{fmt}", sweep, fmt)
    save_sweep_map(folder / f"map.{fmt}", sweep, fmt)
    table = load_sweep_fidelity(folder / f"fid.{fmt}")
    heat = load_sweep_map(folder / f"map.{fmt}")
    assert np.array_equal(table["theta"], sweep.depths)
    assert np.all(table["seed_count"] == seed_count)
    for name, value in stats.items():
        assert np.array_equal(table[name], value), name
    assert np.array_equal(heat["bin"], np.arange(n))
    assert np.array_equal(heat["theta"], sweep.depths)
    assert np.array_equal(heat["abs_p"], sweep.response_magnitudes)


# Version 2 JSON: tagged and columnar; every JSON artifact carries its tag.

def _draw_waveform(data, n, d):
    psi = data.draw(arrays(np.complex128, n, elements=st.complex_numbers(
        min_magnitude=1e-3, max_magnitude=1e3, allow_nan=False, allow_infinity=False)))
    return make_state(_grid(n, 0.25), psi)


def _draw_response_map(data, n, d):
    return ResponseMap(
        grid=_grid(n, data.draw(st.floats(1e-9, 1e3))),
        depths=data.draw(st.lists(_finite, min_size=d, max_size=d)),
        pr=data.draw(arrays(np.float64, (n, d), elements=_pr)),
        p0=data.draw(_baseline),
        meta=data.draw(st.fixed_dictionaries({"selector": st.sampled_from(["uniform", "dft:3"]),
                                              "seed": st.integers(0, 2**64 - 1)})),
    )


def _draw_reconstruction(data, n, d):
    psi = data.draw(arrays(np.complex128, n, elements=st.complex_numbers(
        max_magnitude=1e3, allow_nan=False, allow_infinity=False)))
    return ReconstructionResult(
        grid=_grid(n, 0.5),
        raw_re=data.draw(arrays(np.float64, n, elements=_finite)),
        raw_im=data.draw(arrays(np.float64, n, elements=_finite)),
        psi=psi, branch_ok=data.draw(arrays(np.bool_, n)),
    )


def _draw_sweep(data, n, d):
    return SweepResult(
        grid=_grid(n, 0.5), depths=data.draw(arrays(np.float64, d, elements=_finite)),
        seed_count=data.draw(st.integers(1, 64)),
        response_magnitudes=data.draw(arrays(np.float64, (n, d), elements=_finite)),
        **{name: data.draw(arrays(np.float64, d, elements=_finite))
           for name in support.SWEEP_STATS})


ARTIFACTS = {
    "waveform": (_draw_waveform, save_waveform, load_waveform),
    "response_map": (_draw_response_map, save_response_map, load_response_map),
    "reconstruction": (_draw_reconstruction, save_reconstruction, load_reconstruction),
    "sweep_fidelity": (_draw_sweep, save_sweep_fidelity, load_sweep_fidelity),
    "sweep_map": (_draw_sweep, save_sweep_map, load_sweep_map),
}


def _arrays(loaded) -> dict:
    """Every array a loaded artifact holds, by name."""
    if isinstance(loaded, dict):
        return loaded
    fields = {"WavefunctionState": ("amplitudes",),
              "ResponseMap": ("depths", "pr", "p", "p0"),
              "ReconstructionResult": ("raw_re", "raw_im", "psi", "amplitude_env",
                                       "phase_env", "branch_ok", "nodes")}[type(loaded).__name__]
    grid = loaded.grid
    return {"grid": np.array([grid.size, grid.bin_width, grid.origin]),
            **{name: np.asarray(getattr(loaded, name)) for name in fields}}


# the byte oracles of each artifact: (CSV, JSON)
ORACLES = {
    "waveform": (support.csv_save_waveform, support.v2_save_waveform),
    "response_map": (support.csv_save_response_map, support.v3_save_response_map),
    "reconstruction": (support.csv_save_reconstruction, support.v2_save_reconstruction),
    "sweep_fidelity": (support.csv_save_sweep_fidelity, support.v2_save_sweep_fidelity),
    "sweep_map": (support.csv_save_sweep_map, support.v2_save_sweep_map),
}


def _loaded_before(artifact, obj, fmt) -> dict:
    """The arrays that loading ``obj``'s file gave before the column table."""
    if artifact == "waveform":
        obj = make_state(obj.grid, np.abs(obj.amplitudes)
                         * np.exp(1j * phase_envelope(obj.amplitudes)))
    elif artifact == "reconstruction" and fmt == "csv":
        return {"bin": np.arange(obj.grid.size), "t": obj.grid.times(), "re": obj.raw_re,
                "im": obj.raw_im, "abs2": obj.amplitude_env**2, "phase": obj.phase_env,
                "branch_ok": obj.branch_ok}
    elif artifact == "sweep_fidelity":
        return {"theta": obj.depths, "seed_count": np.full(obj.depths.size, obj.seed_count),
                **{name: getattr(obj, name) for name in support.SWEEP_STATS}}
    elif artifact == "sweep_map":
        return {"bin": np.arange(obj.grid.size), "theta": obj.depths,
                "abs_p": obj.response_magnitudes}
    return _arrays(obj)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), shape=_shape, artifact=st.sampled_from(sorted(ARTIFACTS)),
       fmt=_formats)
def test_writers_match_the_byte_oracle_and_its_files_load_as_before(tmp_path_factory, data,
                                                                     shape, artifact, fmt):
    draw, save, load = ARTIFACTS[artifact]
    obj = draw(data, *shape)
    folder = tmp_path_factory.mktemp(artifact)
    oracle, new = folder / f"oracle.{fmt}", folder / f"new.{fmt}"
    ORACLES[artifact][fmt == "json"](oracle, obj)
    save(new, obj, fmt)
    assert new.read_bytes() == oracle.read_bytes()
    kwargs = {}
    if artifact == "response_map" and fmt == "csv":
        kwargs = dict(bin_width=obj.grid.bin_width, origin=obj.grid.origin)
    loaded = load(oracle, **kwargs)
    got, want = _arrays(loaded), _loaded_before(artifact, obj, fmt)
    assert got.keys() == want.keys()
    for name in want:
        assert np.asarray(got[name]).dtype == np.asarray(want[name]).dtype, name
        assert np.array_equal(got[name], want[name]), name
    if artifact == "response_map":
        from qquench import __version__
        assert loaded.meta == ({} if fmt == "csv" else {**obj.meta, "version": __version__})


def test_scan_records_meta_and_json_restores_it(tmp_path, pipeline):
    rmap = pipeline[1]
    # a noisy map also records its direct baseline read next to the p0 it uses
    direct = rmap.meta["p0_direct"]
    assert isinstance(direct, float) and direct != rmap.p0
    assert rmap.meta == {"selector": "uniform", "seed": 3, "sigma": 0.002, "trials": 2,
                         "p0_direct": direct}
    save_response_map(tmp_path / "map.json", rmap)
    save_response_map(tmp_path / "map.csv", rmap)
    from qquench import __version__
    assert load_response_map(tmp_path / "map.json").meta == {**rmap.meta, "version": __version__}
    assert load_response_map(tmp_path / "map.csv").meta == {}


def test_response_map_meta_defaults_empty_and_is_a_copy():
    meta = {"selector": "dft:3"}
    rmap = ResponseMap(grid=BasisGrid(size=2), depths=(1.0,), pr=[[0.1], [0.2]], p0=0.5,
                       meta=meta)
    meta["selector"] = "uniform"
    assert rmap.meta == {"selector": "dft:3"}
    assert ResponseMap(grid=BasisGrid(size=2), depths=(1.0,), pr=[[0.1], [0.2]],
                       p0=0.5).meta == {}


@pytest.mark.parametrize("artifact", sorted(ARTIFACTS))
def test_unknown_format_tag_is_named(tmp_path, pipeline, artifact):
    path = tmp_path / "x.json"
    path.write_text(json.dumps({"format": f"qquench.{artifact}/9"}))
    _, save, load = ARTIFACTS[artifact]
    with pytest.raises(ValueError, match=f"qquench.{artifact}/9"):
        load(path)
    # a file without a tag, such as one in the retired per-bin layout, is not read
    state, rmap, rec, sweep = pipeline
    obj = {"waveform": state, "response_map": rmap, "reconstruction": rec}.get(artifact, sweep)
    save(path, obj)
    for tag in ("missing", None):
        support.edit_json(path, "format", tag)
        with pytest.raises(ValueError, match="x.json: missing or null field 'format'"):
            load(path)


def test_v2_file_of_another_artifact_is_rejected(tmp_path, pipeline):
    path = tmp_path / "wave.json"
    save_waveform(path, pipeline[0], "json")
    with pytest.raises(ValueError, match="qquench.waveform/2"):
        load_response_map(path)


def test_reconstruction_json_rejects_a_short_psi(tmp_path):
    grid = BasisGrid(size=20)
    state = builtin_waveform("gaussian_linear_chirp", grid)
    rec = reconstruct_wavefunction(scan(state, uniform_post_selector(grid),
                                        (np.pi / 2, -np.pi / 2), QUIET))
    path = tmp_path / "rec.json"
    save_reconstruction(path, rec, "json")
    payload = json.loads(path.read_text())
    payload["psi_re"] = payload["psi_re"][:5]
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="psi"):
        load_reconstruction(path)


@pytest.mark.parametrize("artifact,field,value", [
    ("reconstruction", "branch_ok.0", "false"),
    ("reconstruction", "branch_ok.1", 0.5),
    ("reconstruction", "branch_ok.2", 1),
    ("sweep_fidelity", "seed_count", 3.7),
    ("sweep_fidelity", "seed_count", 3.0),
    ("sweep_fidelity", "seed_count", True),
], ids=["branch_ok-string", "branch_ok-float", "branch_ok-int",
        "seed_count-fraction", "seed_count-float", "seed_count-bool"])
def test_json_bool_and_int_fields_are_not_coerced(tmp_path, pipeline, artifact, field, value):
    # np.array(..., dtype=bool) reads "false" and 0.5 as True, int() truncates 3.7
    obj = pipeline[2] if artifact == "reconstruction" else pipeline[3]
    _, save, load = ARTIFACTS[artifact]
    path = tmp_path / f"{artifact}.json"
    save(path, obj, "json")
    support.edit_json(path, field, value)
    name = next(key for key in reversed(field.split(".")) if not key.isdigit())
    with pytest.raises(ValueError, match=f"field {name!r} must hold JSON (int|bool)s"):
        load(path)


def test_sweep_fidelity_json_rejects_a_short_column(tmp_path, pipeline):
    path = tmp_path / "fid.json"
    save_sweep_fidelity(path, pipeline[3], "json")
    payload = json.loads(path.read_text())
    payload["fw_mean"] = payload["fw_mean"][:-1]
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="fw_mean"):
        load_sweep_fidelity(path)


@pytest.mark.parametrize("column", ["pr", "p"])
def test_response_map_v2_rejects_ragged_columns(tmp_path, pipeline, column):
    path = tmp_path / "map.json"
    # only a version 2 map stores p
    (support.v2_save_response_map if column == "p" else save_response_map)(path, pipeline[1])
    payload = json.loads(path.read_text())
    payload[column][2] = payload[column][2][:1]
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=f"{str(path)}.*{column!r}"):
        load_response_map(path)


def test_sweep_map_csv_places_depth_major_rows_by_bin_and_theta(tmp_path):
    path = tmp_path / "map.csv"
    path.write_text("bin,theta,abs_p\n0,1.0,0.1\n1,1.0,0.2\n0,2.0,0.3\n1,2.0,0.4\n")
    table = load_sweep_map(path)
    assert np.array_equal(table["bin"], [0, 1])
    assert np.array_equal(table["theta"], [1.0, 2.0])
    assert np.array_equal(table["abs_p"], [[0.1, 0.3], [0.2, 0.4]])


def test_sweep_map_csv_missing_row_names_the_file(tmp_path):
    path = tmp_path / "short.csv"
    path.write_text("bin,theta,abs_p\n0,1.0,0.1\n0,2.0,0.3\n1,1.0,0.2\n")
    with pytest.raises(ValueError, match="short.csv"):
        load_sweep_map(path)


WIDE = 2000


def _wide_artifacts():
    grid = BasisGrid(size=WIDE)
    state = builtin_waveform("double_hump_quadratic_phase", grid)
    rmap = scan(state, uniform_post_selector(grid), (np.pi / 2, -np.pi / 2),
                NoiseModel(relative_sigma=0.002, seed=11, trials=1))
    rng = np.random.default_rng(0)
    depths = np.linspace(0.1, 1.5, 5)
    sweep = SweepResult(grid=grid, depths=depths, seed_count=32,
                        response_magnitudes=rng.random((WIDE, depths.size)),
                        **{name: rng.random(depths.size) for name in support.SWEEP_STATS})
    return state, rmap, reconstruct_wavefunction(rmap), sweep


def test_json_writers_stay_on_the_c_encoder(tmp_path, monkeypatch):
    def pure_python_encoder(*args, **kwargs):
        raise AssertionError("JSON written through the pure-Python encoder")

    monkeypatch.setattr(json.encoder, "_make_iterencode", pure_python_encoder)
    with pytest.raises(AssertionError):  # the patch reaches json.dumps
        json.dumps([1.0], indent=2)
    state, rmap, rec, sweep = _wide_artifacts()
    save_waveform(tmp_path / "wave.json", state)
    save_response_map(tmp_path / "map.json", rmap)
    save_reconstruction(tmp_path / "rec.json", rec)
    save_sweep_fidelity(tmp_path / "fid.json", sweep)
    save_sweep_map(tmp_path / "heat.json", sweep)
    assert len(os.listdir(tmp_path)) == 5


def test_v3_response_map_stores_at_most_24_bytes_per_value(tmp_path):
    # the columnar file holds each pr double once, as its shortest repr, and
    # no p (21.0 bytes a value here, separators, grid and meta included)
    rmap = _wide_artifacts()[1]
    save_response_map(tmp_path / "v3.json", rmap)
    assert os.path.getsize(tmp_path / "v3.json") <= 24 * rmap.pr.size


@pytest.mark.parametrize("field,value", [("p0", None), ("bin_width", "wide"), ("origin", [0]),
                                         ("p0", "missing"), ("meta", "missing")])
def test_response_map_v2_names_a_bad_field(tmp_path, pipeline, field, value):
    path = tmp_path / "map.json"
    save_response_map(path, pipeline[1], "json")
    payload = json.loads(path.read_text())
    if value == "missing":
        del payload[field]
    else:
        payload[field] = value
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=f"map.json: .*{field!r}"):
        load_response_map(path)


# Every float an artifact file holds must be finite, in every format.

def _v2_floats(payload) -> list:
    """The dotted path of the first float in each field of a v2 payload."""
    paths = []
    for key, value in payload.items():
        where = [key]
        while isinstance(value, list):
            where.append("0")
            value = value[0]
        if isinstance(value, float):
            paths.append(".".join(where))
    return paths


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("version", ["csv", "v2"])
@pytest.mark.parametrize("artifact", sorted(ARTIFACTS))
def test_every_float_read_from_a_file_must_be_finite(tmp_path, pipeline, artifact, version,
                                                      value):
    state, rmap, rec, sweep = pipeline
    obj = {"waveform": state, "response_map": rmap, "reconstruction": rec}.get(artifact, sweep)
    _, save, load = ARTIFACTS[artifact]
    path = tmp_path / f"{artifact}.{'csv' if version == 'csv' else 'json'}"
    save(path, obj, "csv" if version == "csv" else "json")
    text = path.read_text()
    if version == "csv":
        header = text.split("\n", 1)[0].split(",")
        fields = [name for name in header if name not in ("bin", "branch_ok", "seed_count")]
    else:
        fields = _v2_floats(json.loads(text))
    assert fields
    for field in fields:
        if version == "csv":
            lines = text.split("\n")
            cells = lines[2].split(",")
            cells[header.index(field)] = str(value)
            lines[2] = ",".join(cells)
            path.write_text("\n".join(lines))
            name = field
        else:
            path.write_text(text)
            support.edit_json(path, field, value)
            name = next(key for key in reversed(field.split(".")) if not key.isdigit())
        with pytest.raises(NonFiniteInputError, match=f"{artifact}.*{name!r}"):
            load(path)


def test_json_writer_refuses_nan(tmp_path, pipeline):
    # a response map cannot hold NaN (test_response_map_refuses_non_finite_arrays);
    # a reconstruction can, and its writer refuses it
    rec = pipeline[2]
    raw = np.array(rec.raw_re)
    raw[2] = np.nan
    with pytest.raises(ValueError, match="JSON"):
        save_reconstruction(tmp_path / "rec.json", dataclasses.replace(rec, raw_re=raw))
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name", ["depths", "pr"])
def test_response_map_refuses_non_finite_arrays(pipeline, name, value):
    rmap = pipeline[1]
    fields = {"depths": list(rmap.depths), "pr": np.array(rmap.pr)}
    if name == "depths":
        fields[name][1] = value
    else:
        fields[name][2, 1] = value
    with pytest.raises(NonFiniteInputError, match=f"response map {name} holds NaN or Infinity"):
        ResponseMap(grid=rmap.grid, p0=rmap.p0, **fields)


def test_response_map_refuses_a_derived_p_that_overflows():
    # |pr / p0| overflows to Infinity, so p = 1 - pr/p0 is -Infinity
    with pytest.raises(NonFiniteInputError, match="response map p holds NaN or Infinity"):
        ResponseMap(grid=BasisGrid(size=2), depths=(1.0,), pr=[[0.1], [1e305]], p0=1e-5)
