import filecmp
import json
import math
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qquench import load_reconstruction, load_response_map, load_sweep_fidelity, load_waveform
from qquench.cli import _CONFIG_TYPES, _build_parser, main, parse_theta

import support


def run(*argv):
    return main(list(argv))


@pytest.fixture
def wave_csv(tmp_path):
    path = tmp_path / "wave.csv"
    assert run("prepare", "--waveform", "gaussian_flat_phase",
               "--bins", "20", "--bin-width", "0.1e-6", "--out", str(path)) == 0
    return path


def uniform_wave(tmp_path, n=4):
    path = tmp_path / "uniform.csv"
    rows = ["t,amplitude,phase"]
    for u in range(n):
        rows.append(f"{(u + 0.5) * 0.1e-6},1,0")
    path.write_text("\n".join(rows) + "\n")
    return path


@pytest.mark.parametrize("text,expected", [
    ("pi/2", math.pi / 2),
    ("-pi/2", -math.pi / 2),
    ("3pi/8", 3 * math.pi / 8),
    ("2*pi/3", 2 * math.pi / 3),
    ("pi", math.pi),
    ("0.75", 0.75),
    ("-1.5e-1", -0.15),
    ("PI/4", math.pi / 4),
])
def test_parse_theta(text, expected):
    assert parse_theta(text) == pytest.approx(expected, rel=1e-15)


def test_parse_theta_rejects_garbage():
    with pytest.raises(ValueError):
        parse_theta("two pi")


def test_prepare_writes_expected_grid(wave_csv, capsys):
    lines = wave_csv.read_text().strip().split("\n")
    assert lines[0] == "t,amplitude,phase"
    assert len(lines) == 21
    times = [float(line.split(",")[0]) for line in lines[1:]]
    assert times[-1] + 0.05e-6 == pytest.approx(2e-6)


def test_prepare_prints_norm(tmp_path, capsys):
    out = tmp_path / "w.csv"
    assert run("prepare", "--waveform", "square_step_phase",
               "--bins", "8", "--out", str(out)) == 0
    printed = capsys.readouterr().out
    norm = float(printed.split("norm = ")[1].split()[0])
    assert norm == pytest.approx(1.0, abs=1e-12)


def test_prepare_requires_one_source(tmp_path):
    out = str(tmp_path / "w.csv")
    assert run("prepare", "--out", out) == 12
    assert run("prepare", "--waveform", "gaussian_flat_phase",
               "--input", "x.csv", "--out", out) == 12


def test_prepare_unknown_waveform(tmp_path):
    assert run("prepare", "--waveform", "nope",
               "--out", str(tmp_path / "w.csv")) == 6


def test_prepare_zero_amplitude_input(tmp_path):
    src = tmp_path / "zero.csv"
    src.write_text("t,amplitude,phase\n0.0,0,0\n1.0,0,0\n")
    assert run("prepare", "--input", str(src),
               "--out", str(tmp_path / "w.csv")) == 3


def test_prepare_missing_input_file(tmp_path):
    assert run("prepare", "--input", str(tmp_path / "missing.csv"),
               "--out", str(tmp_path / "w.csv")) == 11


def test_usage_error_exit_code():
    assert run() == 2
    assert run("scan", "--theta", "junk") == 2


def test_scan_uniform_default_depths(tmp_path):
    wave = uniform_wave(tmp_path)
    out = tmp_path / "map.csv"
    assert run("scan", "--input", str(wave), "--sigma", "0",
               "--out", str(out)) == 0
    rmap = load_response_map(out)
    assert rmap.depths == (math.pi / 2, -math.pi / 2)
    assert np.allclose(rmap.response_matrix(), 0.375, atol=1e-12)


def test_scan_negative_pi_fraction_theta(tmp_path):
    # the form the README documents; a bare "--theta -3pi/8" reads as a flag
    wave = uniform_wave(tmp_path)
    out = tmp_path / "map.csv"
    assert run("scan", "--input", str(wave), "--sigma", "0",
               "--theta=-3pi/8", "--theta", "3pi/8", "--out", str(out)) == 0
    assert load_response_map(out).depths == (-3 * math.pi / 8, 3 * math.pi / 8)


def test_scan_noiseless_is_seed_independent(tmp_path):
    wave = uniform_wave(tmp_path)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run("scan", "--input", str(wave), "--sigma", "0", "--seed", "1",
               "--out", str(a)) == 0
    assert run("scan", "--input", str(wave), "--sigma", "0", "--seed", "2",
               "--out", str(b)) == 0
    assert filecmp.cmp(a, b, shallow=False)


def test_scan_noisy_depends_on_seed(tmp_path):
    wave = uniform_wave(tmp_path)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run("scan", "--input", str(wave), "--seed", "1", "--out", str(a)) == 0
    assert run("scan", "--input", str(wave), "--seed", "2", "--out", str(b)) == 0
    assert not filecmp.cmp(a, b, shallow=False)


def test_scan_orthogonal_selector_diagnostic(tmp_path, capsys):
    wave = uniform_wave(tmp_path)
    rc = run("scan", "--input", str(wave), "--selector", "dft:1",
             "--out", str(tmp_path / "m.csv"))
    assert rc == 8
    assert "dft:1" in capsys.readouterr().err


def test_scan_bad_selector(tmp_path):
    wave = uniform_wave(tmp_path)
    assert run("scan", "--input", str(wave), "--selector", "hadamard",
               "--out", str(tmp_path / "m.csv")) == 12


@pytest.mark.parametrize("argv,flag", [
    (["scan", "--waveform", "gaussian_flat_phase", "--sigma", "nan"], "--sigma"),
    (["scan", "--waveform", "gaussian_flat_phase", "--sigma", "inf"], "--sigma"),
    (["scan", "--waveform", "gaussian_flat_phase", "--theta", "nan"], "--theta"),
    (["prepare", "--waveform", "gaussian_flat_phase", "--bin-width", "inf"], "--bin-width"),
    (["prepare", "--waveform", "gaussian_flat_phase", "--origin=-inf"], "--origin"),
], ids=["sigma-nan", "sigma-inf", "theta-nan", "bin-width-inf", "origin-inf"])
def test_non_finite_flag_exits_5_and_names_it(tmp_path, capsys, argv, flag):
    assert run(*argv, "--out", str(tmp_path / "out.json")) == 5
    err = capsys.readouterr().err
    value = argv[-1].split("=")[-1]
    assert f"{flag} must be finite, got {value}" in err, err


def test_negative_sigma_stays_a_configuration_error(tmp_path, capsys):
    assert run("scan", "--waveform", "gaussian_flat_phase", "--sigma", "-0.1",
               "--out", str(tmp_path / "m.json")) == 12
    assert "relative_sigma must be >= 0" in capsys.readouterr().err


def test_env_seed_fallback(tmp_path, monkeypatch):
    wave = uniform_wave(tmp_path)
    flagged = tmp_path / "flag.csv"
    env = tmp_path / "env.csv"
    assert run("scan", "--input", str(wave), "--seed", "99",
               "--out", str(flagged)) == 0
    monkeypatch.setenv("QQUENCH_SEED", "99")
    assert run("scan", "--input", str(wave), "--out", str(env)) == 0
    assert filecmp.cmp(flagged, env, shallow=False)
    monkeypatch.setenv("QQUENCH_SEED", "100")
    assert run("scan", "--input", str(wave), "--out", str(env)) == 0
    assert not filecmp.cmp(flagged, env, shallow=False)


def test_reconstruct_round_trip_with_reference(tmp_path, wave_csv, capsys):
    map_path = tmp_path / "map.json"
    assert run("scan", "--input", str(wave_csv), "--sigma", "0",
               "--out", str(map_path)) == 0
    rec_path = tmp_path / "rec.csv"
    assert run("reconstruct", "--input", str(map_path),
               "--reference", str(wave_csv), "--out", str(rec_path)) == 0
    printed = capsys.readouterr().out
    f_w = float(printed.split("f_w = ")[1].split()[0])
    assert f_w >= 1 - 1e-9
    table = load_reconstruction(rec_path)
    assert np.all(table["branch_ok"])


def _dft3_chain(tmp_path, map_name="map.json"):
    wave = tmp_path / "step.csv"
    assert run("prepare", "--waveform", "square_step_phase", "--bins", "20",
               "--out", str(wave)) == 0
    map_path = tmp_path / map_name
    assert run("scan", "--input", str(wave), "--sigma", "0", "--selector", "dft:3",
               "--out", str(map_path)) == 0
    return wave, map_path


def _printed_f_w(capsys):
    return float(capsys.readouterr().out.split("f_w = ")[1].split()[0])


def test_reconstruct_takes_the_selector_from_the_map(tmp_path, capsys):
    wave, map_path = _dft3_chain(tmp_path)
    assert run("reconstruct", "--input", str(map_path), "--reference", str(wave),
               "--out", str(tmp_path / "rec.json")) == 0
    assert _printed_f_w(capsys) >= 1 - 1e-9


@pytest.mark.parametrize("selector", ["uniform", "dft:2"])
def test_reconstruct_rejects_a_selector_that_disagrees_with_the_map(tmp_path, capsys,
                                                                    selector):
    wave, map_path = _dft3_chain(tmp_path)
    assert run("reconstruct", "--input", str(map_path), "--selector", selector,
               "--out", str(tmp_path / "rec.json")) == 12
    assert "dft:3" in capsys.readouterr().err


def test_reconstruct_accepts_an_explicit_selector_that_agrees(tmp_path, capsys):
    wave, map_path = _dft3_chain(tmp_path)
    assert run("reconstruct", "--input", str(map_path), "--selector", "dft:+3",
               "--reference", str(wave), "--out", str(tmp_path / "rec.json")) == 0
    assert _printed_f_w(capsys) >= 1 - 1e-9


def test_reconstruct_csv_map_keeps_the_selector_flag(tmp_path, capsys):
    # a CSV map records no selector: the flag alone decides, as before
    wave, map_path = _dft3_chain(tmp_path, "map.csv")
    assert run("reconstruct", "--input", str(map_path), "--selector", "dft:3",
               "--reference", str(wave), "--out", str(tmp_path / "rec.csv")) == 0
    assert _printed_f_w(capsys) >= 1 - 1e-9
    assert run("reconstruct", "--input", str(map_path), "--reference", str(wave),
               "--out", str(tmp_path / "rec.csv")) == 0
    assert _printed_f_w(capsys) < 0.5


def test_reconstruct_unknown_format_tag(tmp_path, capsys):
    wave, map_path = _dft3_chain(tmp_path)
    payload = json.loads(map_path.read_text())
    payload["format"] = "qquench.response_map/9"
    map_path.write_text(json.dumps(payload))
    assert run("reconstruct", "--input", str(map_path),
               "--out", str(tmp_path / "rec.json")) == 12
    assert "qquench.response_map/9" in capsys.readouterr().err


def test_reconstruct_untagged_map_exits_12(tmp_path, wave_csv, capsys):
    map_path = tmp_path / "map.json"
    assert run("scan", "--input", str(wave_csv), "--out", str(map_path)) == 0
    support.edit_json(map_path, "format", "missing")
    out = tmp_path / "rec.json"
    assert run("reconstruct", "--input", str(map_path), "--out", str(out)) == 12
    assert "missing or null field 'format'" in capsys.readouterr().err
    assert not out.exists()


def test_prepare_untagged_waveform_exits_12(tmp_path, wave_csv, capsys):
    wave_json = tmp_path / "wave.json"
    assert run("prepare", "--input", str(wave_csv), "--out", str(wave_json)) == 0
    support.edit_json(wave_json, "format", None)
    assert run("prepare", "--input", str(wave_json), "--out", str(tmp_path / "w.csv")) == 12
    assert "missing or null field 'format'" in capsys.readouterr().err


# A float field of a JSON artifact takes a JSON number only: an int or a
# float, never a bool, a string or a null.

@pytest.mark.parametrize("artifact,field,value", [
    ("map", "bin_width", True),
    ("map", "origin", "0"),
    ("map", "p0", "0.56"),
    ("map", "depths.0", True),
    ("map", "pr.3.0", "0.5"),
    ("map", "p.2.1", False),
    ("map", "pr.0.1", None),
    ("waveform", "bin_width", False),
    ("waveform", "amp.3", "0.5"),
    ("waveform", "phase.0", True),
])
def test_a_json_float_field_refuses_bools_strings_and_nulls(tmp_path, wave_csv, capsys,
                                                            artifact, field, value):
    if artifact == "map":
        path, command = tmp_path / "map.json", "reconstruct"
        assert run("scan", "--input", str(wave_csv), "--out", str(path)) == 0
        if field.startswith("p."):  # only a version 2 map stores p
            support.v2_save_response_map(path, load_response_map(path))
    else:
        path, command = tmp_path / "wave.json", "prepare"
        assert run("prepare", "--input", str(wave_csv), "--out", str(path)) == 0
    support.edit_json(path, field, value)
    out = tmp_path / "out.json"
    assert run(command, "--input", str(path), "--out", str(out)) == 12
    key = field.split(".")[0]
    assert f"{path}: field {key!r} must hold JSON numbers, got {value!r}" in capsys.readouterr().err
    assert not out.exists()


def test_a_json_integer_too_large_for_a_float_exits_12(tmp_path, wave_csv, capsys):
    path = tmp_path / "map.json"
    assert run("scan", "--input", str(wave_csv), "--out", str(path)) == 0
    support.edit_json(path, "pr.3.0", 10**400)
    assert run("reconstruct", "--input", str(path), "--out", str(tmp_path / "rec.json")) == 12
    assert "column 'pr' is not an array of numbers" in capsys.readouterr().err


def test_readme_exit_code_table_matches_the_cli():
    from qquench import cli

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Exit codes", 1)[1].split("\n#", 1)[0]
    rows = [line.split("|")[1:3] for line in section.splitlines()
            if line.startswith("| ") and line.split("|")[1].strip().isdigit()]
    table = {int(code): meaning.strip() for code, meaning in rows}
    assert len(table) == len(rows)
    documented = {cli.EXIT_OK: "success", cli.EXIT_USAGE: "usage error",
                  cli.EXIT_IO: "file I/O failure", cli.EXIT_CONFIG: "invalid configuration value"}
    for code, meaning in documented.items():
        assert table.get(code) == meaning, code
    codes = list(cli.EXIT_CODES.values())
    assert len(set(codes)) == len(codes)
    assert set(table) == set(codes) | set(documented)


# The untagged per-sample and per-bin layouts that version 1 JSON files used.
# No reader takes them any more: a damaged one is refused for its missing tag
# before any of its other fields is read.

def _write_v1_map(path, rmap):
    records = [{"bin": n, "P0": rmap.p0,
                "entries": [{"theta": t, "Pr": pr_nd, "p": p_nd}
                            for t, pr_nd, p_nd in zip(rmap.depths, pr_n, p_n)]}
               for n, (pr_n, p_n) in enumerate(zip(rmap.pr.tolist(), rmap.p.tolist()))]
    path.write_text(json.dumps({"bin_width": rmap.grid.bin_width, "origin": rmap.grid.origin,
                                "depths": list(rmap.depths), "records": records}))


def _write_v1_waveform(path, state):
    samples = [{"t": float(t), "amp": float(abs(a)), "phase": float(np.angle(a))}
               for t, a in zip(state.grid.times(), state.amplitudes)]
    path.write_text(json.dumps({"bin_width": state.grid.bin_width,
                                "origin": state.grid.origin, "samples": samples}))


@pytest.mark.parametrize("field,value", [("records", "missing"), ("records.3.P0", None)])
def test_reconstruct_v1_map_with_a_missing_or_null_field(tmp_path, wave_csv, capsys,
                                                         field, value):
    map_path = tmp_path / "map.json"
    assert run("scan", "--input", str(wave_csv), "--sigma", "0", "--out", str(map_path)) == 0
    _write_v1_map(map_path, load_response_map(map_path))
    support.edit_json(map_path, field, value)
    out = tmp_path / "rec.json"
    assert run("reconstruct", "--input", str(map_path), "--out", str(out)) == 12
    assert "missing or null field 'format'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("field,value", [("samples.0.amp", "missing"), ("origin", None)])
def test_prepare_v1_waveform_with_a_missing_or_null_field(tmp_path, wave_csv, capsys,
                                                          field, value):
    wave_json = tmp_path / "wave.json"
    _write_v1_waveform(wave_json, load_waveform(wave_csv))
    support.edit_json(wave_json, field, value)
    out = tmp_path / "w.csv"
    assert run("prepare", "--input", str(wave_json), "--out", str(out)) == 12
    assert "missing or null field 'format'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("p0", ["-0.5", "0.0", "1e-9"])
def test_reconstruct_rejects_a_map_whose_baseline_is_at_or_below_the_floor(tmp_path, wave_csv,
                                                                           capsys, fmt, p0):
    map_path = tmp_path / f"map.{fmt}"
    assert run("scan", "--input", str(wave_csv), "--out", str(map_path)) == 0
    if fmt == "json":
        support.edit_json(map_path, "p0", float(p0))
    else:
        lines = map_path.read_text().splitlines()
        at = lines[0].split(",").index("P0")
        for row, line in enumerate(lines[1:], 1):
            cells = line.split(",")
            cells[at] = p0
            lines[row] = ",".join(cells)
        map_path.write_text("\n".join(lines) + "\n")
    out = tmp_path / "rec.json"
    assert run("reconstruct", "--input", str(map_path), "--out", str(out)) == 8
    assert "floor" in capsys.readouterr().err
    assert not out.exists()


def test_reconstruct_rejects_a_reference_of_another_size(tmp_path, wave_csv, capsys):
    map_path, wave30 = tmp_path / "map.json", tmp_path / "wave30.csv"
    assert run("scan", "--input", str(wave_csv), "--out", str(map_path)) == 0
    assert run("prepare", "--waveform", "gaussian_flat_phase", "--bins", "30",
               "--out", str(wave30)) == 0
    capsys.readouterr()
    out = tmp_path / "rec.json"
    assert run("reconstruct", "--input", str(map_path), "--reference", str(wave30),
               "--out", str(out)) == 4
    err = capsys.readouterr().err
    assert "30 bins" in err and "has 20" in err
    assert not out.exists()


def test_readme_quick_start_runs_as_written(tmp_path, monkeypatch):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Quick start (CLI)", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("qquench ")]
    assert len(lines) == 5
    monkeypatch.chdir(tmp_path)
    for line in lines:
        argv = shlex.split(line)[1:]
        assert main(argv) == 0, line
        out = argv[argv.index("--out") + 1]
        # sweep's --out is a prefix for its two tables
        names = [f"{out}_fidelity.csv", f"{out}_map.csv"] if argv[0] == "sweep" else [out]
        for name in names:
            assert (tmp_path / name).is_file(), (line, name)


@pytest.mark.parametrize("fmt,column,value", [
    ("json", "p", math.nan), ("json", "p", math.inf), ("json", "p0", math.nan),
    ("csv", "p", math.nan),
])
def test_reconstruct_rejects_a_map_holding_nan_or_infinity(tmp_path, wave_csv, capsys,
                                                           fmt, column, value):
    map_path = tmp_path / f"map.{fmt}"
    assert run("scan", "--input", str(wave_csv), "--out", str(map_path)) == 0
    if fmt == "json" and column == "p":  # only a version 2 map stores p
        support.v2_save_response_map(map_path, load_response_map(map_path))
    if fmt == "json":
        payload = json.loads(map_path.read_text())
        if column == "p0":
            payload["p0"] = value
        else:
            payload[column][3][0] = value
        map_path.write_text(json.dumps(payload))
    else:
        lines = map_path.read_text().split("\n")
        cells = lines[4].split(",")
        cells[lines[0].split(",").index(column)] = str(value)
        lines[4] = ",".join(cells)
        map_path.write_text("\n".join(lines))
    out = tmp_path / "rec.json"
    assert run("reconstruct", "--input", str(map_path), "--out", str(out)) == 5
    assert f"{map_path}: column {column!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("fmt", ["csv", "v2"])
def test_reconstruct_rejects_a_stored_p_one_ulp_off(tmp_path, wave_csv, capsys, fmt):
    map_path = tmp_path / f"map.{'csv' if fmt == 'csv' else 'json'}"
    assert run("scan", "--input", str(wave_csv), "--out", str(map_path)) == 0
    rmap = load_response_map(map_path)
    if fmt == "v2":
        support.v2_save_response_map(map_path, rmap)
    out = tmp_path / "rec.json"
    assert run("reconstruct", "--input", str(map_path), "--out", str(out)) == 0
    out.unlink()
    off = np.nextafter(rmap.p[3, 1], np.inf)
    if fmt == "v2":
        support.edit_json(map_path, "p.3.1", float(off))
    else:
        lines = map_path.read_text().split("\n")
        cells = lines[8].split(",")  # bin 3, second depth
        assert float(cells[4]) == rmap.p[3, 1]
        cells[4] = repr(float(off))
        lines[8] = ",".join(cells)
        map_path.write_text("\n".join(lines))
    assert run("reconstruct", "--input", str(map_path), "--out", str(out)) == 12
    assert f"{map_path}: column 'p' differs from 1 - Pr/P0" in capsys.readouterr().err
    assert not out.exists()


def test_reconstruct_incomplete_depths(tmp_path, wave_csv):
    map_path = tmp_path / "map.csv"
    assert run("scan", "--input", str(wave_csv), "--sigma", "0",
               "--theta", "pi/2", "--out", str(map_path)) == 0
    assert run("reconstruct", "--input", str(map_path),
               "--out", str(tmp_path / "rec.csv")) == 10


def test_reconstruct_csv_map_takes_grid_flags(tmp_path, wave_csv):
    map_path = tmp_path / "map.csv"
    assert run("scan", "--input", str(wave_csv), "--sigma", "0",
               "--out", str(map_path)) == 0
    rec_path = tmp_path / "rec.json"
    assert run("reconstruct", "--input", str(map_path),
               "--bin-width", "0.1e-6", "--out", str(rec_path)) == 0
    rec = load_reconstruction(rec_path)
    assert rec.grid.bin_width == pytest.approx(0.1e-6)


def test_sweep_outputs(tmp_path, wave_csv):
    prefix = tmp_path / "sw"
    assert run("sweep", "--input", str(wave_csv), "--sigma", "0",
               "--out", str(prefix)) == 0
    table = load_sweep_fidelity(f"{prefix}_fidelity.csv")
    assert table["theta"].size == 5
    assert np.all(table["fw_mean"] >= 1 - 1e-9)
    assert np.all(table["fw_std"] == 0.0)
    mp = (tmp_path / "sw_map.csv").read_text().split("\n", 1)[0]
    assert mp == "bin,theta,abs_p"


def test_sweep_custom_depths_json(tmp_path, wave_csv):
    prefix = tmp_path / "sj"
    assert run("sweep", "--input", str(wave_csv), "--theta", "pi/4",
               "--theta", "pi/2", "--seeds", "3", "--seed", "5",
               "--format", "json", "--out", str(prefix)) == 0
    table = load_sweep_fidelity(f"{prefix}_fidelity.json")
    assert table["theta"].size == 2
    assert np.all(table["seed_count"] == 3)


@pytest.mark.parametrize("theta,code", [("2pi", 9), ("1e-6", 9), ("-pi/2", 12)])
def test_sweep_bad_depth_exit_code(tmp_path, wave_csv, theta, code):
    # a depth near 0 mod 2pi is singular, as in reconstruct; a negative one is a bad value
    assert run("sweep", "--input", str(wave_csv), f"--theta={theta}",
               "--out", str(tmp_path / "sw")) == code
    assert not (tmp_path / "sw_fidelity.csv").exists()


def test_config_file_supplies_defaults(tmp_path, wave_csv):
    config = tmp_path / "conf.json"
    config.write_text('{"sigma": 0.0, "theta": ["pi/2", "-pi/2"]}')
    out = tmp_path / "m1.csv"
    assert run("scan", "--input", str(wave_csv), "--config", str(config),
               "--out", str(out)) == 0
    rmap = load_response_map(out)
    assert rmap.depths == (math.pi / 2, -math.pi / 2)
    # flag wins over the config file
    out2 = tmp_path / "m2.csv"
    assert run("scan", "--input", str(wave_csv), "--config", str(config),
               "--theta", "pi", "--out", str(out2)) == 0
    assert load_response_map(out2).depths == (math.pi,)


def test_config_file_rejects_unknown_keys(tmp_path, wave_csv):
    config = tmp_path / "conf.json"
    config.write_text('{"sigmaa": 0.0}')
    assert run("scan", "--input", str(wave_csv), "--config", str(config),
               "--out", str(tmp_path / "m.csv")) == 12


@pytest.mark.parametrize("command,payload", [
    ("sweep", '{"trials": 2.5, "seeds": 2.9}'),
    ("sweep", '{"seeds": true, "sigma": 0.0}'),
    ("sweep", '{"seeds": 3.0}'),
    ("scan", '{"trials": 2.5}'),
    ("prepare", '{"bins": 8.7}'),
    ("prepare", '{"bins": "8"}'),
])
def test_config_file_rejects_non_integer_counts(tmp_path, wave_csv, command, payload):
    # as flags these values exit 2; from the config they must not be truncated
    config = tmp_path / "conf.json"
    config.write_text(payload)
    source = ["--waveform", "gaussian_flat_phase"] if command == "prepare" \
        else ["--input", str(wave_csv)]
    out = tmp_path / "out.csv"
    assert run(command, *source, "--config", str(config), "--out", str(out)) == 12
    assert not out.exists()


@pytest.mark.parametrize("command,payload", [
    ("prepare", '{"out": 5}'),
    ("scan", '{"input": 0}'),
    ("prepare", '{"bin_width": [1]}'),
    ("scan", '{"sigma": true}'),
    ("prepare", '{"origin": false}'),
    ("scan", '{"selector": 3}'),
    ("prepare", '{"waveform": ["gaussian_flat_phase"]}'),
    ("scan", '{"format": null}'),
])
def test_config_file_rejects_values_of_the_wrong_type(tmp_path, wave_csv, command, payload):
    config = tmp_path / "conf.json"
    config.write_text(payload)
    argv = [command, "--config", str(config)]
    if "out" not in payload:
        argv += ["--out", str(tmp_path / "out.csv")]
    if "input" not in payload and "waveform" not in payload:
        argv += ["--waveform", "gaussian_flat_phase"] if command == "prepare" \
            else ["--input", str(wave_csv)]
    assert run(*argv) == 12
    assert not (tmp_path / "out.csv").exists()


def test_every_flag_has_a_config_type():
    subparsers = next(a for a in _build_parser()._actions if a.dest == "command")
    dests = {action.dest for sub in subparsers.choices.values() for action in sub._actions}
    assert dests - {"help", "config", "theta", "seed"} == set(_CONFIG_TYPES)


def test_config_file_accepts_numbers_and_strings(tmp_path):
    config = tmp_path / "conf.json"
    out = tmp_path / "m.json"
    config.write_text(json.dumps({"sigma": 0, "origin": 1e-7, "bin_width": 2e-7,
                                  "waveform": "gaussian_flat_phase", "bins": 8,
                                  "selector": "uniform", "format": "json",
                                  "out": str(out)}))
    assert run("scan", "--config", str(config)) == 0
    rmap = load_response_map(out)
    assert rmap.meta["sigma"] == 0.0
    assert (rmap.grid.bin_width, rmap.grid.origin) == (2e-7, 1e-7)


def test_config_file_accepts_integer_counts(tmp_path):
    config = tmp_path / "conf.json"
    config.write_text('{"bins": 8}')
    out = tmp_path / "wave.csv"
    assert run("prepare", "--waveform", "gaussian_flat_phase", "--config", str(config),
               "--out", str(out)) == 0
    assert len(out.read_text().strip().split("\n")) == 9


def test_missing_out_flag(tmp_path, wave_csv):
    assert run("scan", "--input", str(wave_csv)) == 12


def test_console_script_help():
    proc = subprocess.run([sys.executable, "-m", "qquench.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "prepare" in proc.stdout and "sweep" in proc.stdout
