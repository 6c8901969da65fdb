"""File formats for waveforms, response maps, reconstructions, and sweeps.

Every format exists as CSV (flat, plot-friendly) and JSON (self-describing).
A JSON file is one object on one line whose ``format`` tag names the
artifact and the layout version, e.g. ``"qquench.response_map/2"``; every
array in it is a column (a list, or an N x D list of lists). A JSON file
without a ``format`` tag is read as version 1, the per-bin record layout
of earlier releases. CSV floats are written with 17 significant digits and
JSON floats as their shortest repr, so a write-then-read cycle reproduces
every double exactly. All writes are atomic: content goes to a temporary
file in the destination directory first and is renamed into place, so a
crash never leaves a half-written file behind.

The response-map and reconstruction CSVs carry no grid metadata (their
columns are the plotting quantities only); the JSON mirrors do. CSV loaders
therefore accept bin_width/origin arguments, defaulting to the standard
grid.
"""

from __future__ import annotations

import csv
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


def _floats(values) -> list:
    """An array's doubles as a flat list of Python floats."""
    return np.asarray(values, dtype=np.float64).ravel().tolist()


def _fmt_column(values) -> list:
    """One CSV column: every double with 17 significant digits."""
    return [format(v, ".17g") for v in _floats(values)]


def _csv_text(header: Sequence[str], columns) -> str:
    """The header line, then one line per row read across equal-length ``columns``."""
    return "\n".join([",".join(header), *map(",".join, zip(*columns))]) + "\n"


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


def _parse_bool(text: str) -> bool:
    key = text.strip().lower()
    if key == "true":
        return True
    if key == "false":
        return False
    raise ValueError(f"expected true/false, got {text!r}")


def _format_tag(artifact: str) -> str:
    return f"qquench.{artifact}/2"


def _write_json(path, artifact: str, payload: dict) -> None:
    """Write a v2 JSON artifact in one line; without ``indent`` the C encoder runs."""
    text = json.dumps({"format": _format_tag(artifact), **payload}) + "\n"
    atomic_write_text(path, text)


def _read_json(path, artifact: str):
    """Load a JSON artifact: ``(payload, True)`` for v2, ``(payload, False)`` for v1.

    A v1 file has no ``format`` tag; any tag other than this artifact's v2
    tag is rejected.
    """
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: expected a JSON object")
    tag = payload.get("format")
    if tag is None:
        return payload, False
    if tag != _format_tag(artifact):
        raise ValueError(f"{path}: unsupported format {tag!r}; "
                         f"a {artifact} file is {_format_tag(artifact)!r}")
    return payload, True


def _field(path, payload: dict, name: str):
    """``payload[name]``; a missing or null field raises ``ValueError`` naming it."""
    value = payload.get(name)
    if value is None:
        raise ValueError(f"{path}: missing or null field {name!r}")
    return value


def _records(path, payload: dict, name: str) -> list:
    """A v1 list of objects, such as the per-bin records of a response map."""
    records = _field(path, payload, name)
    if not isinstance(records, list) or not all(isinstance(r, dict) for r in records):
        raise ValueError(f"{path}: field {name!r} must be a list of objects")
    return records


def _number(path, payload: dict, name: str, kind=float):
    value = _field(path, payload, name)
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise ValueError(f"{path}: field {name!r} must be a number, got {value!r}") from None


def _column(path, payload: dict, name: str, shape: tuple, dtype=np.float64) -> np.ndarray:
    """``payload[name]`` as an array of ``shape``; a None in ``shape`` takes any length.

    A ragged column, or one whose length differs from the bin or depth
    count, raises ``ValueError``.
    """
    try:
        col = np.array(_field(path, payload, name), dtype=dtype)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: column {name!r} is not an array of numbers ({exc})") from None
    if col.ndim != len(shape) or any(want is not None and got != want
                                     for got, want in zip(col.shape, shape)):
        expected = tuple("N" if want is None else want for want in shape)
        raise ValueError(f"{path}: column {name!r} has shape {col.shape}, expected {expected}")
    return col


def _json_origin(path, payload: dict) -> float:
    return _number(path, payload, "origin") if "origin" in payload else 0.0


def _json_grid(path, payload: dict, size: int) -> BasisGrid:
    return BasisGrid(size=size, bin_width=_number(path, payload, "bin_width"),
                     origin=_json_origin(path, payload))


def _bin_major(path, what: str, table: np.ndarray) -> np.ndarray:
    """Group rows ``[bin, theta, ...]`` by bin into an (N, D, columns) block.

    Rows are sorted by bin in a stable order, so each bin keeps its own
    depth order, which must equal every other bin's; the bins must be
    0..N-1, each with the same number of rows.
    """
    table = table[np.argsort(table[:, 0], kind="stable")]
    if table.size == 0 or table[0, 0] != 0:
        raise ValueError(f"{path}: {what} must cover bins 0..N-1")
    counts = np.bincount(table[:, 0].astype(np.int64))
    if np.any(counts != counts[0]):
        raise ValueError(f"{path}: {what} must cover bins 0..N-1 "
                         "with the same number of depths each")
    block = table.reshape(counts.size, counts[0], table.shape[1])
    if np.any(block[..., 1] != block[0, :, 1]):
        raise ValueError(f"{path}: bins of the {what} differ in their depths")
    return block


# -- waveform files ---------------------------------------------------------

def save_waveform(path, state: WavefunctionState, fmt: str | None = None) -> None:
    """Write a state's amplitude/phase envelope sampled at bin centers."""
    fmt = resolve_format(path, fmt)
    times = state.grid.times()
    amps = np.abs(state.amplitudes)
    phases = phase_envelope(state.amplitudes)
    if fmt == "csv":
        columns = [_fmt_column(c) for c in (times, amps, phases)]
        atomic_write_text(path, _csv_text(WAVEFORM_FIELDS, columns))
        return
    _write_json(path, "waveform", {
        "bin_width": state.grid.bin_width,
        "origin": state.grid.origin,
        "t": _floats(times),
        "amp": _floats(amps),
        "phase": _floats(phases),
    })


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
        payload, v2 = _read_json(path, "waveform")
        if v2:
            amps = _column(path, payload, "amp", (None,))
            phases = _column(path, payload, "phase", amps.shape)
            _column(path, payload, "t", amps.shape)
        else:
            samples = _records(path, payload, "samples")
            amps = np.array([_number(path, s, "amp") for s in samples])
            phases = np.array([_number(path, s, "phase") for s in samples])
        grid = _json_grid(path, payload, amps.size)
    if np.any(amps < 0):
        raise ValueError("waveform amplitude column must be >= 0")
    return make_state(grid, amps * np.exp(1j * phases))


# -- response-map files -----------------------------------------------------

def save_response_map(path, rmap: ResponseMap, fmt: str | None = None) -> None:
    """Write a response map; JSON also records the grid and ``rmap.meta``."""
    fmt = resolve_format(path, fmt)
    if fmt == "csv":
        n, d = rmap.pr.shape
        columns = [
            [str(u) for u in range(n) for _ in range(d)],
            _fmt_column(rmap.depths) * n,
            _fmt_column([rmap.p0]) * (n * d),
            _fmt_column(rmap.pr),
            _fmt_column(rmap.p),
        ]
        atomic_write_text(path, _csv_text(RESPONSE_FIELDS, columns))
        return
    from . import __version__  # the package finishes importing io before it sets this

    _write_json(path, "response_map", {
        "meta": {**rmap.meta, "version": __version__},
        "bin_width": rmap.grid.bin_width,
        "origin": rmap.grid.origin,
        "depths": list(rmap.depths),
        "p0": rmap.p0,
        "pr": rmap.pr.tolist(),
        "p": rmap.p.tolist(),
    })


def _response_map(path, rows, bin_width, origin) -> ResponseMap:
    """Build a map from rows ``[bin, theta, P0, Pr, p]``, one per measurement.

    The map holds one baseline, so every row must carry the same P0.
    """
    block = _bin_major(path, "response map", np.array(rows, dtype=np.float64).reshape(-1, 5))
    p0 = block[..., 2]
    if np.any(p0 != p0[0, 0]):
        raise ValueError(f"{path}: bins of the response map differ in their baseline P0")
    return ResponseMap(grid=BasisGrid(size=block.shape[0], bin_width=bin_width, origin=origin),
                       depths=tuple(block[0, :, 1].tolist()), pr=block[..., 3], p=block[..., 4],
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

    payload, v2 = _read_json(path, "response_map")
    if v2:
        depths = _column(path, payload, "depths", (None,))
        pr = _column(path, payload, "pr", (None, depths.size))
        p = _column(path, payload, "p", pr.shape)
        meta = _field(path, payload, "meta")
        if not isinstance(meta, dict):
            raise ValueError(f"{path}: meta must be a JSON object")
        return ResponseMap(grid=_json_grid(path, payload, pr.shape[0]),
                           depths=tuple(depths.tolist()), pr=pr, p=p,
                           p0=_number(path, payload, "p0"), meta=meta)

    rows = [[_number(path, rec, "bin", int), _number(path, e, "theta"), _number(path, rec, "P0"),
             _number(path, e, "Pr"), _number(path, e, "p")]
            for rec in _records(path, payload, "records")
            for e in _records(path, rec, "entries")]
    rmap = _response_map(path, rows, _number(path, payload, "bin_width"),
                         _json_origin(path, payload))
    if rmap.depths != tuple(_column(path, payload, "depths", (None,)).tolist()):
        raise ValueError(f"{path}: record depths differ from the map's depth list")
    return rmap


# -- reconstruction files ---------------------------------------------------

def save_reconstruction(path, result: ReconstructionResult,
                        fmt: str | None = None) -> None:
    """Write per-bin inversion output; re/im are the raw unnormalized values."""
    fmt = resolve_format(path, fmt)
    abs2 = result.amplitude_env**2
    branch_ok = np.asarray(result.branch_ok, dtype=bool).tolist()
    if fmt == "csv":
        columns = [
            [str(u) for u in range(result.grid.size)],
            *map(_fmt_column, (result.grid.times(), result.raw_re, result.raw_im, abs2,
                               result.phase_env)),
            ["true" if ok else "false" for ok in branch_ok],
        ]
        atomic_write_text(path, _csv_text(RECON_FIELDS, columns))
        return
    psi = np.asarray(result.psi, dtype=np.complex128)
    _write_json(path, "reconstruction", {
        "bin_width": result.grid.bin_width,
        "origin": result.grid.origin,
        "re": _floats(result.raw_re),
        "im": _floats(result.raw_im),
        "abs2": _floats(abs2),
        "phase": _floats(result.phase_env),
        "branch_ok": branch_ok,
        "psi_re": _floats(psi.real),
        "psi_im": _floats(psi.imag),
    })


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
        payload, v2 = _read_json(path, "reconstruction")
        if v2:
            raw_re = _column(path, payload, "re", (None,))
            raw_im, _, _, psi_re, psi_im = (
                _column(path, payload, name, raw_re.shape)
                for name in ("im", "abs2", "phase", "psi_re", "psi_im"))
            branch_ok = _column(path, payload, "branch_ok", raw_re.shape, dtype=bool)
            psi = np.empty(raw_re.shape, dtype=np.complex128)
            psi.real, psi.imag = psi_re, psi_im
        else:
            bins, psi = _records(path, payload, "bins"), _records(path, payload, "psi")
            if len(psi) != len(bins):
                raise ValueError(f"{path}: psi has {len(psi)} entries for {len(bins)} bins")
            raw_re = np.array([_number(path, b, "re") for b in bins])
            raw_im = np.array([_number(path, b, "im") for b in bins])
            branch_ok = np.array([bool(_field(path, b, "branch_ok")) for b in bins])
            psi = np.array([complex(_number(path, z, "re"), _number(path, z, "im"))
                            for z in psi])
        return ReconstructionResult(
            grid=_json_grid(path, payload, raw_re.size), raw_re=raw_re, raw_im=raw_im, psi=psi,
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
    stats = [getattr(sweep, name) for name in SWEEP_FIELDS[2:]]
    if fmt == "csv":
        columns = [_fmt_column(sweep.depths), [str(sweep.seed_count)] * sweep.depths.size,
                   *map(_fmt_column, stats)]
        atomic_write_text(path, _csv_text(SWEEP_FIELDS, columns))
        return
    _write_json(path, "sweep_fidelity", {
        "seed_count": int(sweep.seed_count),
        "depths": _floats(sweep.depths),
        **{name: _floats(col) for name, col in zip(SWEEP_FIELDS[2:], stats)},
    })


def save_sweep_map(path, sweep, fmt: str | None = None) -> None:
    """Write the |p(bin, depth)| magnitude table for heat-map plotting."""
    fmt = resolve_format(path, fmt)
    mags = sweep.response_magnitudes
    if fmt == "csv":
        n, d = mags.shape
        columns = [[str(u) for u in range(n) for _ in range(d)],
                   _fmt_column(sweep.depths) * n, _fmt_column(mags)]
        atomic_write_text(path, _csv_text(MAP_FIELDS, columns))
        return
    _write_json(path, "sweep_map", {
        "bin_width": sweep.grid.bin_width,
        "origin": sweep.grid.origin,
        "depths": _floats(sweep.depths),
        "magnitudes": np.asarray(mags, dtype=np.float64).tolist(),
    })


def load_sweep_fidelity(path, fmt: str | None = None) -> dict:
    """Read a fidelity table back as a dict of column arrays."""
    if resolve_format(path, fmt) == "csv":
        cols = _read_columns(path, SWEEP_FIELDS)
        out = {name: np.array([float(v) for v in cols[name]]) for name in SWEEP_FIELDS}
        out["seed_count"] = np.array([int(v) for v in cols["seed_count"]], dtype=np.int64)
        return out
    # v1 and v2 share the columnar layout; v2 only adds the tag
    payload, _ = _read_json(path, "sweep_fidelity")
    depths = _column(path, payload, "depths", (None,))
    out = {"theta": depths,
           "seed_count": np.full(depths.size, _number(path, payload, "seed_count", int),
                                 dtype=np.int64)}
    out.update((name, _column(path, payload, name, depths.shape)) for name in SWEEP_FIELDS[2:])
    return out


def load_sweep_map(path, fmt: str | None = None) -> dict:
    """Read a magnitude map back as a dict with bins, depths, magnitudes."""
    if resolve_format(path, fmt) == "json":
        payload, _ = _read_json(path, "sweep_map")
        depths = _column(path, payload, "depths", (None,))
        mags = _column(path, payload, "magnitudes", (None, depths.size))
        return {"bin": np.arange(mags.shape[0]), "theta": depths, "abs_p": mags}
    rows = _read_csv(path, MAP_FIELDS)
    table = np.array([[int(r[0]), float(r[1]), float(r[2])] for r in rows],
                     dtype=np.float64).reshape(-1, 3)
    block = _bin_major(path, "magnitude map", table)
    return {"bin": np.arange(block.shape[0]), "theta": block[0, :, 1], "abs_p": block[..., 2]}
