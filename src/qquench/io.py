"""File formats for waveforms, response maps, reconstructions, and sweeps.

Every format exists as CSV (flat, plot-friendly) and JSON (self-describing).
A JSON file is one object on one line whose ``format`` tag names the
artifact and the layout version, e.g. ``"qquench.response_map/3"``; every
array in it is a column (a list, or an N x D list of lists). A JSON file
without that tag is rejected. CSV floats are written with 17 significant
digits and JSON floats as their shortest repr, so a write-then-read cycle
reproduces every double exactly. All writes are atomic: content goes to a
temporary file in the destination directory first and is renamed into
place, so a crash never leaves a half-written file behind.

Each artifact is described once, by its table of columns below, and one
CSV writer and reader and one JSON writer and reader serve all of them. A
column runs along the bins (N), the depths (D) or both (N x D), or is a
scalar. An artifact with an N x D column has a *long* CSV: one row per bin
and depth, bin-major, where a depth column repeats once per bin. Every
other CSV is *wide*: one row per bin, or one row per depth. A scalar
repeats on every CSV row, and every row must carry the same value; the
``bin`` column is the bin index. Every float read from an artifact must be
finite, else :class:`NonFiniteInputError` is raised.

The response-map and reconstruction CSVs carry no grid metadata (their
columns are the plotting quantities only); the JSON mirrors do. CSV loaders
therefore accept bin_width/origin arguments, defaulting to the standard
grid.
"""

from __future__ import annotations

import csv
import json
import math
import os
import tempfile
from itertools import chain
from typing import NamedTuple

import numpy as np

from .errors import NonFiniteInputError
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


class _Column(NamedTuple):
    """One column: its JSON key, CSV header (None if JSON only), axis
    (``"N"``, ``"D"``, ``"ND"``, or ``""`` for a scalar) and type."""

    key: str
    csv: str | None
    axis: str
    kind: type
    json: bool = True


class _Artifact(NamedTuple):
    """An artifact's JSON tag, CSV column order, columns in JSON key order,
    whether its JSON records the grid (``bin_width``, ``origin``), and version."""

    tag: str
    header: tuple
    columns: tuple
    grid: bool = True
    version: int = 2


_BIN = _Column("bin", "bin", "N", int)  # a CSV's bin index
_DEPTHS = _Column("depths", "theta", "D", float)
_STATS = ("fw_mean", "fw_std", "fp_mean", "fp_std", "fa_mean", "fa_std")

_WAVEFORM = _Artifact("waveform", ("t", "amplitude", "phase"), (
    _Column("t", "t", "N", float), _Column("amp", "amplitude", "N", float),
    _Column("phase", "phase", "N", float)))
_RESPONSE_MAP = _Artifact("response_map", ("bin", "theta", "P0", "Pr", "p"), (
    _DEPTHS, _Column("p0", "P0", "", float), _Column("pr", "Pr", "ND", float),
    _Column("p", "p", "ND", float, json=False)), version=3)
_RESPONSE_MAP_V2 = _RESPONSE_MAP._replace(version=2, columns=(  # still read; it stores p
    *_RESPONSE_MAP.columns[:3], _Column("p", "p", "ND", float)))
_RECONSTRUCTION = _Artifact(
    "reconstruction", ("bin", "t", "re", "im", "abs2", "phase", "branch_ok"), (
        _Column("t", "t", "N", float, json=False),
        *(_Column(name, name, "N", float) for name in ("re", "im", "abs2", "phase")),
        _Column("branch_ok", "branch_ok", "N", bool),
        _Column("psi_re", None, "N", float), _Column("psi_im", None, "N", float)))
_SWEEP_FIDELITY = _Artifact("sweep_fidelity", ("theta", "seed_count", *_STATS), (
    _Column("seed_count", "seed_count", "", int), _DEPTHS,
    *(_Column(name, name, "D", float) for name in _STATS)), grid=False)
_SWEEP_MAP = _Artifact("sweep_map", ("bin", "theta", "abs_p"), (
    _DEPTHS, _Column("magnitudes", "abs_p", "ND", float)))


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


def _format_tag(art: _Artifact) -> str:
    return f"qquench.{art.tag}/{art.version}"


def _finite(path, name: str, values):
    """``values`` (an array or a float), unless one of them is NaN or Infinity."""
    if not (math.isfinite(values) if isinstance(values, float) else np.isfinite(values).all()):
        raise NonFiniteInputError(f"{path}: column {name!r} holds NaN or Infinity")
    return values


# -- writing ------------------------------------------------------------------

def _cells(col: _Column, values) -> list:
    """One column's CSV cells: floats with 17 significant digits, booleans as true/false."""
    values = np.asarray(values, dtype=col.kind).ravel().tolist()
    if col.kind is float:
        return [format(v, ".17g") for v in values]
    if col.kind is bool:
        return ["true" if v else "false" for v in values]
    return [str(v) for v in values]


def _save(path, fmt: str | None, art: _Artifact, grid: BasisGrid, cols: dict, **head) -> None:
    """Write ``cols``, keyed by JSON key, as ``art``; ``head`` leads the JSON object."""
    if resolve_format(path, fmt) == "csv":
        cells = {c.csv: _cells(c, cols[c.key]) for c in art.columns if c.csv in art.header}
        rows = max(map(len, cells.values()))
        if "bin" in art.header:
            cells["bin"] = _cells(_BIN, np.repeat(np.arange(grid.size), rows // grid.size))
        # a depth column repeats once per bin, a scalar on every row
        columns = [c if len(c) == rows else c * (rows // len(c)) for c in map(cells.get, art.header)]
        text = "\n".join([",".join(art.header), *map(",".join, zip(*columns))]) + "\n"
    else:
        payload = {"format": _format_tag(art), **head}
        if art.grid:
            payload.update(bin_width=grid.bin_width, origin=grid.origin)
        payload.update((c.key, np.asarray(cols[c.key], dtype=c.kind).tolist())
                       for c in art.columns if c.json)
        # without ``indent`` the C encoder runs
        text = json.dumps(payload, allow_nan=False) + "\n"
    atomic_write_text(path, text)


# -- reading CSV --------------------------------------------------------------

def _parse_bool(text: str) -> bool:
    key = text.strip().lower()
    if key not in ("true", "false"):
        raise ValueError(f"expected true/false, got {text!r}")
    return key == "true"


def _bin_major(path, what: str, table: np.ndarray) -> np.ndarray:
    """Group rows ``[bin, theta, ...]`` by bin into an (N, D, columns) block.

    Rows are sorted by bin in a stable order, so each bin keeps its own
    depth order, which must equal every other bin's; the bins must be
    0..N-1, each with the same number of rows.
    """
    table = table[np.argsort(table[:, 0], kind="stable")]
    if table.size == 0 or table[0, 0] != 0 or table[-1, 0] >= len(table):
        raise ValueError(f"{path}: {what} must cover bins 0..N-1")
    counts = np.bincount(table[:, 0].astype(np.int64))
    if np.any(counts != counts[0]):
        raise ValueError(f"{path}: {what} must cover bins 0..N-1 "
                         "with the same number of depths each")
    block = table.reshape(counts.size, counts[0], table.shape[1])
    if np.any(block[..., 1] != block[0, :, 1]):
        raise ValueError(f"{path}: bins of the {what} differ in their depths")
    return block


def _read_csv(path, art: _Artifact) -> dict:
    """``art``'s CSV as columns by JSON key, plus ``bin``.

    A long table is regrouped by bin into (N, D) blocks (its columns are
    numbers); a wide one keeps its columns.
    """
    with open(path, "r", encoding="utf-8", newline="") as handle:
        rows = [row for row in csv.reader(handle) if row]
    if not rows:
        raise ValueError(f"{path}: empty file")
    if tuple(rows[0]) != art.header:
        raise ValueError(f"{path}: expected header {','.join(art.header)}, "
                         f"got {','.join(rows[0])}")
    if any(len(row) != len(art.header) for row in rows):
        raise ValueError(f"{path}: every row must have {len(art.header)} cells")
    rows = rows[1:]
    if not rows:
        raise ValueError(f"{path}: no data rows")
    what = art.tag.replace("_", " ")
    named = {c.csv: c for c in art.columns}
    flat, cols = [], {}
    for i, col in enumerate(named.get(name, _BIN) for name in art.header):
        cells = [row[i] for row in rows]
        try:
            values = np.array([_parse_bool(v) for v in cells] if col.kind is bool
                              else [col.kind(v) for v in cells], dtype=col.kind)
        except OverflowError:
            raise ValueError(f"{path}: column {col.csv!r} holds a number out of range") from None
        if col.kind is float:
            _finite(path, col.csv, values)
        if not col.axis and np.any(values != values[0]):
            raise ValueError(f"{path}: rows of the {what} differ in their {col.csv}")
        flat.append((col, values))
        cols[col.key] = values if col.axis else values[0]
    if any(c.axis == "ND" for c in art.columns):
        block = _bin_major(path, what, np.column_stack([values for _, values in flat]))
        cols["bin"] = np.arange(len(block))
        cols.update((col.key, block[0, :, i] if col.axis == "D" else block[..., i])
                    for i, (col, _) in enumerate(flat) if col.axis in ("D", "ND"))
    return cols


def _by_csv(art: _Artifact, cols: dict) -> dict:
    """Columns keyed by their CSV names, in CSV order."""
    key = {c.csv: c.key for c in art.columns}
    return {name: cols[key.get(name, name)] for name in art.header}


# -- reading JSON -------------------------------------------------------------

def _field(path, payload: dict, name: str):
    """``payload[name]``; a missing or null field raises ``ValueError`` naming it."""
    value = payload.get(name)
    if value is None:
        raise ValueError(f"{path}: missing or null field {name!r}")
    return value


def _exact(path, name: str, values, kind):
    """``values`` (one JSON value, a list, or a list of lists) if each value
    in it is a JSON ``kind``: 3.7 is no int, "false" or 0.5 no bool, and a
    bool, a string or a null no float. Other nestings fail the shape check."""
    rows = values if isinstance(values, list) else [values]
    nested = bool(rows) and type(rows[0]) is list  # an N x D column
    try:
        bad = set(map(type, chain.from_iterable(rows) if nested else rows))
    except TypeError:  # a number among the rows: left to the shape check
        return values
    bad -= ({int, float} if kind is float else {kind}) | {list}
    if bad:
        value = next(v for v in (chain.from_iterable(rows) if nested else rows) if type(v) in bad)
        if isinstance(value, float):  # NaN or Infinity is non-finite input
            _finite(path, name, value)
        raise ValueError(f"{path}: field {name!r} must hold JSON "
                         f"{'number' if kind is float else kind.__name__}s, got {value!r}")
    return values


def _number(path, payload: dict, name: str, kind=float):
    """``payload[name]`` as a ``kind`` (see :func:`_exact`); a float must be finite."""
    value = _exact(path, name, _field(path, payload, name), kind)
    if kind is not float:
        return value
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{path}: field {name!r} must be a number, got {value!r}") from None
    return _finite(path, name, number)


def _column(path, payload: dict, col: _Column, sizes: dict) -> np.ndarray:
    """``payload[col.key]`` as an array whose axes match the lengths in ``sizes``.

    A ragged column, or one whose length differs from the bin or depth
    count seen so far, raises ``ValueError``; an axis seen first is
    recorded in ``sizes``.
    """
    values = _exact(path, col.key, _field(path, payload, col.key), col.kind)
    try:
        values = np.array(values, dtype=col.kind)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{path}: column {col.key!r} is not an array of numbers ({exc})") from None
    if values.ndim != len(col.axis) or any(sizes.setdefault(axis, got) != got
                                           for axis, got in zip(col.axis, values.shape)):
        expected = tuple(sizes.get(axis, axis) for axis in col.axis)
        raise ValueError(f"{path}: column {col.key!r} has shape {values.shape}, "
                         f"expected {expected}")
    return _finite(path, col.key, values) if col.kind is float else values


def _read_json(path, art: _Artifact, *older: _Artifact):
    """Load ``art``'s JSON, or an ``older`` layout's by its tag: ``(payload, columns by key)``."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: expected a JSON object")
    tag = payload.get("format")
    if tag is None:
        raise ValueError(f"{path}: missing or null field 'format' (untagged v1 files are not read)")
    layout = next((a for a in (art, *older) if tag == _format_tag(a)), None)
    if layout is None:
        raise ValueError(f"{path}: unsupported format {tag!r}; "
                         f"a {art.tag} file is {_format_tag(art)!r}")
    sizes = {}
    return payload, {c.key: _column(path, payload, c, sizes) if c.axis
                     else _number(path, payload, c.key, c.kind)
                     for c in layout.columns if c.json}


def _json_grid(path, payload: dict, size: int) -> BasisGrid:
    origin = _number(path, payload, "origin") if "origin" in payload else 0.0
    return BasisGrid(size=size, bin_width=_number(path, payload, "bin_width"), origin=origin)


# -- waveform files ---------------------------------------------------------

def save_waveform(path, state: WavefunctionState, fmt: str | None = None) -> None:
    """Write a state's amplitude/phase envelope sampled at bin centers."""
    _save(path, fmt, _WAVEFORM, state.grid, {"t": state.grid.times(),
                                              "amp": np.abs(state.amplitudes),
                                              "phase": phase_envelope(state.amplitudes)})


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
    if resolve_format(path, fmt) == "csv":
        cols = _read_csv(path, _WAVEFORM)
        grid = _grid_from_times(cols["t"])
    else:
        payload, cols = _read_json(path, _WAVEFORM)
        grid = _json_grid(path, payload, cols["amp"].size)
    amps = cols["amp"]
    if np.any(amps < 0):
        raise ValueError("waveform amplitude column must be >= 0")
    return make_state(grid, amps * np.exp(1j * cols["phase"]))


# -- response-map files -----------------------------------------------------

def save_response_map(path, rmap: ResponseMap, fmt: str | None = None) -> None:
    """Write a response map; JSON also records the grid and ``rmap.meta``."""
    from . import __version__  # the package finishes importing io before it sets this

    _save(path, fmt, _RESPONSE_MAP, rmap.grid,
          {"depths": rmap.depths, "p0": rmap.p0, "pr": rmap.pr, "p": rmap.p},
          meta={**rmap.meta, "version": __version__})


def load_response_map(path, fmt: str | None = None,
                      bin_width: float = DEFAULT_BIN_WIDTH,
                      origin: float = 0.0) -> ResponseMap:
    """Read a response map; CSV needs the grid supplied out of band."""
    meta = {}
    if resolve_format(path, fmt) == "csv":
        cols = _read_csv(path, _RESPONSE_MAP)
        grid = BasisGrid(size=len(cols["pr"]), bin_width=bin_width, origin=origin)
    else:
        payload, cols = _read_json(path, _RESPONSE_MAP, _RESPONSE_MAP_V2)
        grid = _json_grid(path, payload, len(cols["pr"]))
        meta = _field(path, payload, "meta")
        if not isinstance(meta, dict):
            raise ValueError(f"{path}: meta must be a JSON object")
    rmap = ResponseMap(grid=grid, depths=cols["depths"], pr=cols["pr"], p0=cols["p0"],
                       meta=meta)
    if "p" in cols and cols["p"].tobytes() != rmap.p.tobytes():  # a CSV or /2 map stores p
        raise ValueError(f"{path}: column 'p' differs from 1 - Pr/P0")
    return rmap


# -- reconstruction files ---------------------------------------------------

def save_reconstruction(path, result: ReconstructionResult,
                        fmt: str | None = None) -> None:
    """Write per-bin inversion output; re/im are the raw unnormalized values."""
    psi = np.asarray(result.psi, dtype=np.complex128)
    _save(path, fmt, _RECONSTRUCTION, result.grid, {
        "t": result.grid.times(), "re": result.raw_re, "im": result.raw_im,
        "abs2": result.amplitude_env**2, "phase": result.phase_env,
        "branch_ok": result.branch_ok, "psi_re": psi.real, "psi_im": psi.imag})


def load_reconstruction(path, fmt: str | None = None,
                        bin_width: float = DEFAULT_BIN_WIDTH,
                        origin: float = 0.0):
    """Read a reconstruction file.

    JSON rebuilds the full :class:`ReconstructionResult` (it stores the
    normalized psi). CSV is a presentation format without psi; it loads as
    a dict of column arrays instead.
    """
    if resolve_format(path, fmt) == "csv":
        return _by_csv(_RECONSTRUCTION, _read_csv(path, _RECONSTRUCTION))
    payload, cols = _read_json(path, _RECONSTRUCTION)
    psi = np.empty(cols["re"].shape, dtype=np.complex128)
    psi.real, psi.imag = cols["psi_re"], cols["psi_im"]
    return ReconstructionResult(
        grid=_json_grid(path, payload, psi.size), raw_re=cols["re"], raw_im=cols["im"],
        psi=psi, amplitude_env=np.abs(psi), phase_env=phase_envelope(psi),
        branch_ok=cols["branch_ok"], nodes=amplitude_nodes(psi),
    )


# -- sweep files ------------------------------------------------------------

def save_sweep_fidelity(path, sweep, fmt: str | None = None) -> None:
    """Write the per-depth fidelity statistics table."""
    _save(path, fmt, _SWEEP_FIDELITY, sweep.grid,
          {c.key: getattr(sweep, c.key) for c in _SWEEP_FIDELITY.columns})


def save_sweep_map(path, sweep, fmt: str | None = None) -> None:
    """Write the |p(bin, depth)| magnitude table for heat-map plotting."""
    _save(path, fmt, _SWEEP_MAP, sweep.grid,
          {"depths": sweep.depths, "magnitudes": sweep.response_magnitudes})


def load_sweep_fidelity(path, fmt: str | None = None) -> dict:
    """Read a fidelity table back as a dict of column arrays."""
    cols = (_read_csv(path, _SWEEP_FIDELITY) if resolve_format(path, fmt) == "csv"
            else _read_json(path, _SWEEP_FIDELITY)[1])
    cols["seed_count"] = np.full(cols["depths"].size, cols["seed_count"], dtype=np.int64)
    return _by_csv(_SWEEP_FIDELITY, cols)


def load_sweep_map(path, fmt: str | None = None) -> dict:
    """Read a magnitude map back as a dict with bins, depths, magnitudes."""
    if resolve_format(path, fmt) == "csv":
        cols = _read_csv(path, _SWEEP_MAP)
    else:
        payload, cols = _read_json(path, _SWEEP_MAP)
        _json_grid(path, payload, len(cols["magnitudes"]))  # not returned, but must be valid
    return _by_csv(_SWEEP_MAP, {"bin": np.arange(len(cols["magnitudes"])), **cols})
