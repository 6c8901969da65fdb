"""File formats for waveforms, response maps, reconstructions, and sweeps.

Every format exists as CSV (flat, plot-friendly) and JSON (self-describing).
Floats are written with 17 significant digits so a write-then-read cycle
reproduces the double exactly. All writes are atomic: content goes to a
temporary file in the destination directory first and is renamed into
place, so a crash never leaves a half-written file behind.

The response-map and reconstruction CSVs carry no grid metadata (their
columns are the plotting quantities only); the JSON mirrors do. CSV loaders
therefore accept bin_width/origin arguments, defaulting to the standard
grid.
"""

from __future__ import annotations

import csv
import io as _io
import json
import os
import tempfile
from typing import Sequence

import numpy as np

from .quench import ResponseMap
from .reconstruct import (
    ReconstructionResult,
    amplitude_nodes,
    phase_envelope,
)
from .states import (
    DEFAULT_BIN_WIDTH,
    BasisGrid,
    WavefunctionState,
    make_state,
)

WAVEFORM_FIELDS = ("t", "amplitude", "phase")
RESPONSE_FIELDS = ("bin", "theta", "P0", "Pr", "p")
RECON_FIELDS = ("bin", "t", "re", "im", "abs2", "phase", "branch_ok")
SWEEP_FIELDS = ("theta", "seed_count", "fw_mean", "fw_std",
                "fp_mean", "fp_std", "fa_mean", "fa_std")
MAP_FIELDS = ("bin", "theta", "abs_p")


def fmt_float(x: float) -> str:
    """Render a double with 17 significant digits (lossless round trip)."""
    return format(float(x), ".17g")


def atomic_write_text(path, text: str) -> None:
    """Write text to ``path`` via a temp file plus rename.

    The file gets the mode ``open()`` would give a new file (0666 less the
    umask), not the 0600 that ``mkstemp`` creates the temp file with.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".qquench-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        umask = os.umask(0)  # the only way to read the umask is to set it
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def resolve_format(path, fmt: str | None) -> str:
    """Pick csv or json from an explicit choice or the path suffix."""
    if fmt is not None:
        fmt = fmt.lower()
        if fmt not in ("csv", "json"):
            raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")
        return fmt
    suffix = os.path.splitext(os.fspath(path))[1].lower()
    return "json" if suffix == ".json" else "csv"


def _csv_text(header: Sequence[str], rows) -> str:
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _read_csv(path, header: Sequence[str]):
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        rows = [row for row in reader if row]
    if not rows:
        raise ValueError(f"{path}: empty file")
    if tuple(rows[0]) != tuple(header):
        raise ValueError(
            f"{path}: expected header {','.join(header)}, got {','.join(rows[0])}"
        )
    return rows[1:]


def _read_columns(path, header: Sequence[str]) -> dict:
    rows = _read_csv(path, header)
    return {name: [row[i] for row in rows] for i, name in enumerate(header)}


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _parse_bool(text: str) -> bool:
    key = text.strip().lower()
    if key == "true":
        return True
    if key == "false":
        return False
    raise ValueError(f"expected true/false, got {text!r}")


# -- waveform files ---------------------------------------------------------

def save_waveform(path, state: WavefunctionState, fmt: str | None = None) -> None:
    """Write a state's amplitude/phase envelope sampled at bin centers."""
    fmt = resolve_format(path, fmt)
    times = state.grid.times()
    amps = np.abs(state.amplitudes)
    phases = phase_envelope(state.amplitudes)
    if fmt == "csv":
        rows = ((fmt_float(t), fmt_float(a), fmt_float(ph))
                for t, a, ph in zip(times, amps, phases))
        atomic_write_text(path, _csv_text(WAVEFORM_FIELDS, rows))
        return
    payload = {
        "bin_width": state.grid.bin_width,
        "origin": state.grid.origin,
        "samples": [
            {"t": float(t), "amp": float(a), "phase": float(ph)}
            for t, a, ph in zip(times, amps, phases)
        ],
    }
    atomic_write_text(path, _json_text(payload))


def _grid_from_times(times: np.ndarray) -> BasisGrid:
    if times.size < 2:
        raise ValueError("waveform needs at least 2 rows to define a grid")
    diffs = np.diff(times)
    width = float(np.median(diffs))
    if width <= 0 or np.any(np.abs(diffs - width) > 1e-6 * width):
        raise ValueError("waveform rows must be uniformly spaced in t")
    return BasisGrid(size=times.size, bin_width=width,
                     origin=float(times[0]) - width / 2.0)


def load_waveform(path, fmt: str | None = None) -> WavefunctionState:
    """Read a waveform file and return the normalized state it describes."""
    fmt = resolve_format(path, fmt)
    if fmt == "csv":
        rows = _read_csv(path, WAVEFORM_FIELDS)
        data = np.array([[float(v) for v in row] for row in rows])
        grid = _grid_from_times(data[:, 0])
        amps, phases = data[:, 1], data[:, 2]
    else:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        samples = payload["samples"]
        grid = BasisGrid(size=len(samples),
                         bin_width=float(payload["bin_width"]),
                         origin=float(payload.get("origin", 0.0)))
        amps = np.array([float(s["amp"]) for s in samples])
        phases = np.array([float(s["phase"]) for s in samples])
    if np.any(amps < 0):
        raise ValueError("waveform amplitude column must be >= 0")
    return make_state(grid, amps * np.exp(1j * phases))


# -- response-map files -----------------------------------------------------

def save_response_map(path, rmap: ResponseMap, fmt: str | None = None) -> None:
    fmt = resolve_format(path, fmt)
    pr, p = rmap.pr.tolist(), rmap.p.tolist()
    if fmt == "csv":
        p0 = fmt_float(rmap.p0)
        thetas = [fmt_float(t) for t in rmap.depths]
        rows = (
            (str(n), theta, p0, fmt_float(pr_nd), fmt_float(p_nd))
            for n, (pr_n, p_n) in enumerate(zip(pr, p))
            for theta, pr_nd, p_nd in zip(thetas, pr_n, p_n)
        )
        atomic_write_text(path, _csv_text(RESPONSE_FIELDS, rows))
        return
    payload = {
        "bin_width": rmap.grid.bin_width,
        "origin": rmap.grid.origin,
        "depths": list(rmap.depths),
        "records": [
            {
                "bin": n,
                "P0": rmap.p0,
                "entries": [
                    {"theta": t, "Pr": pr_nd, "p": p_nd}
                    for t, pr_nd, p_nd in zip(rmap.depths, pr_n, p_n)
                ],
            }
            for n, (pr_n, p_n) in enumerate(zip(pr, p))
        ],
    }
    atomic_write_text(path, _json_text(payload))


def _response_map(path, rows, bin_width, origin) -> ResponseMap:
    """Build a map from rows ``[bin, theta, P0, Pr, p]``, one per measurement.

    Rows are grouped by bin in a stable order, so each bin keeps its own
    depth order, which must equal every other bin's; the map holds one
    baseline, so every row must carry the same P0.
    """
    rows = np.array(rows, dtype=np.float64).reshape(-1, 5)
    rows = rows[np.argsort(rows[:, 0], kind="stable")]
    if rows.size == 0 or rows[0, 0] != 0:
        raise ValueError(f"{path}: response map must cover bins 0..N-1")
    counts = np.bincount(rows[:, 0].astype(np.int64))
    if np.any(counts != counts[0]):
        raise ValueError(f"{path}: response map must cover bins 0..N-1 "
                         "with the same number of depths each")
    block = rows.reshape(counts.size, counts[0], 5)
    thetas, p0 = block[..., 1], block[..., 2]
    if np.any(thetas != thetas[0]):
        raise ValueError(f"{path}: bins of the response map differ in their depths")
    if np.any(p0 != p0[0, 0]):
        raise ValueError(f"{path}: bins of the response map differ in their baseline P0")
    return ResponseMap(grid=BasisGrid(size=counts.size, bin_width=bin_width, origin=origin),
                       depths=tuple(thetas[0].tolist()), pr=block[..., 3], p=block[..., 4],
                       p0=p0[0, 0])


def load_response_map(path, fmt: str | None = None,
                      bin_width: float = DEFAULT_BIN_WIDTH,
                      origin: float = 0.0) -> ResponseMap:
    """Read a response map; CSV needs the grid supplied out of band."""
    fmt = resolve_format(path, fmt)
    if fmt == "csv":
        rows = [[int(row[0]), *map(float, row[1:])]
                for row in _read_csv(path, RESPONSE_FIELDS)]
        return _response_map(path, rows, bin_width, origin)

    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    rows = [[int(rec["bin"]), float(e["theta"]), float(rec["P0"]), float(e["Pr"]),
             float(e["p"])] for rec in payload["records"] for e in rec["entries"]]
    rmap = _response_map(path, rows, float(payload["bin_width"]),
                         float(payload.get("origin", 0.0)))
    if rmap.depths != tuple(float(t) for t in payload["depths"]):
        raise ValueError(f"{path}: record depths differ from the map's depth list")
    return rmap


# -- reconstruction files ---------------------------------------------------

def save_reconstruction(path, result: ReconstructionResult,
                        fmt: str | None = None) -> None:
    """Write per-bin inversion output; re/im are the raw unnormalized values."""
    fmt = resolve_format(path, fmt)
    times = result.grid.times()
    abs2 = result.amplitude_env**2
    if fmt == "csv":
        rows = (
            (str(u), fmt_float(times[u]), fmt_float(result.raw_re[u]),
             fmt_float(result.raw_im[u]), fmt_float(abs2[u]),
             fmt_float(result.phase_env[u]),
             "true" if result.branch_ok[u] else "false")
            for u in range(result.grid.size)
        )
        atomic_write_text(path, _csv_text(RECON_FIELDS, rows))
        return
    payload = {
        "bin_width": result.grid.bin_width,
        "origin": result.grid.origin,
        "bins": [
            {
                "bin": u,
                "t": float(times[u]),
                "re": float(result.raw_re[u]),
                "im": float(result.raw_im[u]),
                "abs2": float(abs2[u]),
                "phase": float(result.phase_env[u]),
                "branch_ok": bool(result.branch_ok[u]),
            }
            for u in range(result.grid.size)
        ],
        "psi": [
            {"re": float(z.real), "im": float(z.imag)} for z in result.psi
        ],
    }
    atomic_write_text(path, _json_text(payload))


def load_reconstruction(path, fmt: str | None = None,
                        bin_width: float = DEFAULT_BIN_WIDTH,
                        origin: float = 0.0):
    """Read a reconstruction file.

    JSON rebuilds the full :class:`ReconstructionResult` (it stores the
    normalized psi). CSV is a presentation format without psi; it loads as
    a dict of column arrays instead.
    """
    fmt = resolve_format(path, fmt)
    if fmt == "json":
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        bins = payload["bins"]
        grid = BasisGrid(size=len(bins),
                         bin_width=float(payload["bin_width"]),
                         origin=float(payload.get("origin", 0.0)))
        raw_re = np.array([float(b["re"]) for b in bins])
        raw_im = np.array([float(b["im"]) for b in bins])
        branch_ok = np.array([bool(b["branch_ok"]) for b in bins])
        psi = np.array([complex(z["re"], z["im"]) for z in payload["psi"]])
        return ReconstructionResult(
            grid=grid, raw_re=raw_re, raw_im=raw_im, psi=psi,
            amplitude_env=np.abs(psi), phase_env=phase_envelope(psi),
            branch_ok=branch_ok, nodes=amplitude_nodes(psi),
        )
    cols = _read_columns(path, RECON_FIELDS)
    return {
        "bin": np.array([int(v) for v in cols["bin"]]),
        **{name: np.array([float(v) for v in cols[name]]) for name in RECON_FIELDS[1:-1]},
        "branch_ok": np.array([_parse_bool(v) for v in cols["branch_ok"]]),
    }


# -- sweep files ------------------------------------------------------------

def save_sweep_fidelity(path, sweep, fmt: str | None = None) -> None:
    """Write the per-depth fidelity statistics table."""
    fmt = resolve_format(path, fmt)
    if fmt == "csv":
        rows = (
            (fmt_float(sweep.depths[d]), str(sweep.seed_count),
             fmt_float(sweep.fw_mean[d]), fmt_float(sweep.fw_std[d]),
             fmt_float(sweep.fp_mean[d]), fmt_float(sweep.fp_std[d]),
             fmt_float(sweep.fa_mean[d]), fmt_float(sweep.fa_std[d]))
            for d in range(sweep.depths.size)
        )
        atomic_write_text(path, _csv_text(SWEEP_FIELDS, rows))
        return
    payload = {
        "seed_count": sweep.seed_count,
        "depths": [float(t) for t in sweep.depths],
        "fw_mean": [float(v) for v in sweep.fw_mean],
        "fw_std": [float(v) for v in sweep.fw_std],
        "fp_mean": [float(v) for v in sweep.fp_mean],
        "fp_std": [float(v) for v in sweep.fp_std],
        "fa_mean": [float(v) for v in sweep.fa_mean],
        "fa_std": [float(v) for v in sweep.fa_std],
    }
    atomic_write_text(path, _json_text(payload))


def save_sweep_map(path, sweep, fmt: str | None = None) -> None:
    """Write the |p(bin, depth)| magnitude table for heat-map plotting."""
    fmt = resolve_format(path, fmt)
    mags = sweep.response_magnitudes
    if fmt == "csv":
        rows = (
            (str(u), fmt_float(sweep.depths[d]), fmt_float(mags[u, d]))
            for u in range(mags.shape[0])
            for d in range(sweep.depths.size)
        )
        atomic_write_text(path, _csv_text(MAP_FIELDS, rows))
        return
    payload = {
        "bin_width": sweep.grid.bin_width,
        "origin": sweep.grid.origin,
        "depths": [float(t) for t in sweep.depths],
        "magnitudes": [[float(v) for v in row] for row in mags],
    }
    atomic_write_text(path, _json_text(payload))


def load_sweep_fidelity(path, fmt: str | None = None) -> dict:
    """Read a fidelity table back as a dict of column arrays."""
    if resolve_format(path, fmt) == "json":
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        cols = {name: payload[name] for name in SWEEP_FIELDS[2:]}
        cols["theta"] = payload["depths"]
        cols["seed_count"] = [payload["seed_count"]] * len(payload["depths"])
    else:
        cols = _read_columns(path, SWEEP_FIELDS)
    out = {name: np.array([float(v) for v in cols[name]]) for name in SWEEP_FIELDS}
    out["seed_count"] = np.array([int(v) for v in cols["seed_count"]], dtype=np.int64)
    return out


def load_sweep_map(path, fmt: str | None = None) -> dict:
    """Read a magnitude map back as a dict with bins, depths, magnitudes."""
    fmt = resolve_format(path, fmt)
    if fmt == "json":
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        mags = np.array(payload["magnitudes"], dtype=np.float64)
        return {
            "bin": np.arange(mags.shape[0]),
            "theta": np.array(payload["depths"], dtype=np.float64),
            "abs_p": mags,
        }
    rows = _read_csv(path, MAP_FIELDS)
    bins = np.array([int(r[0]) for r in rows])
    thetas = np.array([float(r[1]) for r in rows])
    values = np.array([float(r[2]) for r in rows])
    uniq_bins = np.unique(bins)
    uniq_thetas = thetas[bins == uniq_bins[0]]
    mags = values.reshape(uniq_bins.size, uniq_thetas.size)
    return {"bin": uniq_bins, "theta": uniq_thetas, "abs_p": mags}
