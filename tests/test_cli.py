import filecmp
import math
import subprocess
import sys

import numpy as np
import pytest

from qquench import load_reconstruction, load_response_map, load_sweep_fidelity
from qquench.cli import main, parse_theta


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
