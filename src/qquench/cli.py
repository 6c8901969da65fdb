"""Command-line pipeline: prepare, scan, reconstruct, sweep.

Every run is deterministic: randomness flows from a single seed taken from
``--seed``, else the ``QQUENCH_SEED`` environment variable, else a fixed
default. Each error class maps to its own documented exit code so scripts
can branch on failure cause.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys

import numpy as np

from . import io as qio
from . import rng
from .errors import (
    DegenerateBaselineError,
    DimensionMismatchError,
    IncompleteDepthsError,
    IndexOutOfRangeError,
    NonFiniteInputError,
    SingularDepthError,
    UnknownWaveformError,
    ZeroVectorError,
)
from .fidelity import depth_sweep, fidelity_overall
from .quench import NoiseModel, scan
from .reconstruct import reconstruct_wavefunction
from .states import (
    DEFAULT_BIN_WIDTH,
    DEFAULT_BINS,
    BasisGrid,
    builtin_waveform,
    dft_post_selector,
    uniform_post_selector,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CODES = {
    ZeroVectorError: 3,
    DimensionMismatchError: 4,
    NonFiniteInputError: 5,
    UnknownWaveformError: 6,
    IndexOutOfRangeError: 7,
    DegenerateBaselineError: 8,
    SingularDepthError: 9,
    IncompleteDepthsError: 10,
}
EXIT_IO = 11
EXIT_CONFIG = 12

DEFAULT_SIGMA = 0.002
DEFAULT_SWEEP_SEEDS = 32
DEFAULT_SCAN_DEPTHS = (math.pi / 2, -math.pi / 2)
DEFAULT_SWEEP_DEPTHS = (math.pi / 16, math.pi / 8, math.pi / 4,
                        3 * math.pi / 8, math.pi / 2)

_THETA_RE = re.compile(
    r"^([+-]?)(?:(\d+(?:\.\d+)?)\*?)?pi(?:/(\d+(?:\.\d+)?))?$",
    re.IGNORECASE,
)


def parse_theta(text: str) -> float:
    """Parse a depth given as radians or a pi fraction like 'pi/2' or '-3pi/8'."""
    compact = text.replace(" ", "")
    match = _THETA_RE.match(compact)
    if match:
        sign = -1.0 if match.group(1) == "-" else 1.0
        mult = float(match.group(2)) if match.group(2) else 1.0
        div = float(match.group(3)) if match.group(3) else 1.0
        if div == 0:
            raise ValueError(f"invalid depth {text!r}")
        return sign * mult * math.pi / div
    try:
        return float(compact)
    except ValueError:
        raise ValueError(f"invalid depth {text!r}") from None


def parse_seed(text: str) -> int:
    """Parse a seed in decimal or 0x/0o/0b notation."""
    return int(text, 0)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qquench",
        description="Simulate phase-quench scans of a binned complex "
                    "waveform and reconstruct it from the responses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, *, noise=False, seeds=False):
        p.add_argument("--config", metavar="FILE",
                       help="JSON file of defaults; flags override it")
        p.add_argument("--format", choices=("csv", "json"), default=None,
                       help="output format (default: from --out suffix)")
        p.add_argument("--out", metavar="PATH", default=None,
                       help="output path (sweep: path prefix)")
        if noise:
            p.add_argument("--sigma", type=float, default=None,
                           help=f"relative baseline noise (default {DEFAULT_SIGMA})")
            p.add_argument("--trials", type=int, default=None,
                           help="measurements averaged per probability (default 1)")
            p.add_argument("--seed", type=parse_seed, default=None,
                           help="base seed (default: QQUENCH_SEED or built-in)")
        if seeds:
            p.add_argument("--seeds", type=int, default=None,
                           help=f"noise realizations per depth (default {DEFAULT_SWEEP_SEEDS})")

    prep = sub.add_parser("prepare", help="write a normalized waveform file")
    prep.add_argument("--waveform", metavar="NAME", default=None,
                      help="builtin test waveform name")
    prep.add_argument("--input", metavar="FILE", default=None,
                      help="existing waveform file to normalize instead")
    prep.add_argument("--bins", type=int, default=None,
                      help=f"bin count for builtin waveforms (default {DEFAULT_BINS})")
    prep.add_argument("--bin-width", type=float, default=None,
                      help=f"bin width in seconds (default {DEFAULT_BIN_WIDTH})")
    prep.add_argument("--origin", type=float, default=None,
                      help="time of the first bin edge (default 0)")
    add_common(prep)

    sc = sub.add_parser("scan", help="run the quench scan over all bins")
    sc.add_argument("--input", metavar="FILE", default=None,
                    help="waveform file to scan")
    sc.add_argument("--waveform", metavar="NAME", default=None,
                    help="builtin waveform to scan instead of a file")
    sc.add_argument("--bins", type=int, default=None)
    sc.add_argument("--bin-width", type=float, default=None)
    sc.add_argument("--origin", type=float, default=None)
    sc.add_argument("--theta", action="append", type=parse_theta, default=None,
                    metavar="DEPTH", help="quench depth, repeatable "
                    "(default pi/2 and -pi/2; accepts 'pi/2' style)")
    sc.add_argument("--selector", default=None,
                    help="post-selector: 'uniform' or 'dft:K' (default uniform)")
    add_common(sc, noise=True)

    rec = sub.add_parser("reconstruct",
                         help="invert a response map into a wavefunction")
    rec.add_argument("--input", metavar="FILE", required=True,
                     help="response map file (+/-theta pair)")
    rec.add_argument("--bin-width", type=float, default=None,
                     help="grid bin width for CSV maps (default "
                          f"{DEFAULT_BIN_WIDTH}; JSON maps carry their own)")
    rec.add_argument("--origin", type=float, default=None,
                     help="grid origin for CSV maps (default 0)")
    rec.add_argument("--selector", default=None,
                     help="selector used in the scan, to undo its overlaps "
                          "(default: the one a JSON map records, else uniform)")
    rec.add_argument("--reference", metavar="FILE", default=None,
                     help="waveform file to print overall fidelity against")
    add_common(rec)

    sw = sub.add_parser("sweep",
                        help="fidelity statistics across quench depths")
    sw.add_argument("--input", metavar="FILE", default=None)
    sw.add_argument("--waveform", metavar="NAME", default=None)
    sw.add_argument("--bins", type=int, default=None)
    sw.add_argument("--bin-width", type=float, default=None)
    sw.add_argument("--origin", type=float, default=None)
    sw.add_argument("--theta", action="append", type=parse_theta, default=None,
                    metavar="DEPTH",
                    help="sweep depth, repeatable (default 5-point grid)")
    sw.add_argument("--selector", default=None)
    add_common(sw, noise=True, seeds=True)

    return parser


# The JSON type each --config key must have (theta and seed are parsed from
# text instead): its flag's type. A bool is no number here, and an integer
# count must not come as 3.0 to be truncated.
_CONFIG_TYPES = {
    **dict.fromkeys(("bins", "trials", "seeds"), (int, "an integer")),
    **dict.fromkeys(("sigma", "bin_width", "origin"), ((int, float), "a number")),
    **dict.fromkeys(("out", "input", "waveform", "reference", "selector", "format"),
                    (str, "a string")),
}


def _apply_config(args: argparse.Namespace) -> None:
    """Fill still-unset options from the --config JSON file."""
    if getattr(args, "config", None) is None:
        return
    with open(args.config, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict):
        raise ValueError(f"{args.config}: config must be a JSON object")
    ns = vars(args)
    for key, value in payload.items():
        dest = key.replace("-", "_")
        if dest in ("command", "config") or dest not in ns:
            raise ValueError(f"{args.config}: unknown config key {key!r}")
        if ns[dest] is not None:
            continue
        if dest == "theta":
            if not isinstance(value, list):
                raise ValueError(f"{args.config}: theta must be a list")
            ns[dest] = [parse_theta(str(v)) for v in value]
        elif dest == "seed":
            ns[dest] = parse_seed(str(value))
        else:
            types, noun = _CONFIG_TYPES[dest]
            if isinstance(value, bool) or not isinstance(value, types):
                raise ValueError(f"{args.config}: {key} must be {noun}, got {value!r}")
            ns[dest] = value


def _check_finite(args: argparse.Namespace) -> None:
    """A NaN or infinite number option is non-finite input (exit 5), not a bad value."""
    for dest in ("sigma", "bin_width", "origin", "theta"):
        values = getattr(args, dest, None)
        for value in values if isinstance(values, list) else [values]:
            if value is not None and not math.isfinite(value):
                raise NonFiniteInputError(
                    f"--{dest.replace('_', '-')} must be finite, got {value!r}")


def _resolve_seed(flag_value) -> int:
    if flag_value is not None:
        return int(flag_value)
    env = os.environ.get("QQUENCH_SEED")
    if env is not None:
        return parse_seed(env)
    return rng.DEFAULT_SEED


def _noise_from_args(args) -> NoiseModel:
    sigma = DEFAULT_SIGMA if args.sigma is None else float(args.sigma)
    trials = 1 if args.trials is None else int(args.trials)
    return NoiseModel(relative_sigma=sigma, seed=_resolve_seed(args.seed),
                      trials=trials)


def _grid_from_args(args) -> BasisGrid:
    return BasisGrid(
        size=DEFAULT_BINS if args.bins is None else int(args.bins),
        bin_width=DEFAULT_BIN_WIDTH if args.bin_width is None else float(args.bin_width),
        origin=0.0 if args.origin is None else float(args.origin),
    )


def _state_from_args(args):
    if (args.input is None) == (args.waveform is None):
        raise ValueError("exactly one of --input or --waveform is required")
    if args.input is not None:
        return qio.load_waveform(args.input)
    return builtin_waveform(args.waveform, _grid_from_args(args))


def _selector_from_text(text, grid):
    text = "uniform" if text is None else str(text)
    if text == "uniform":
        return uniform_post_selector(grid)
    match = re.fullmatch(r"dft:([+-]?\d+)", text)
    if match:
        return dft_post_selector(grid, int(match.group(1)))
    raise ValueError(f"unknown selector {text!r}; use 'uniform' or 'dft:K'")


def _require_out(args) -> str:
    if args.out is None:
        raise ValueError("--out is required")
    return args.out


def cmd_prepare(args) -> int:
    state = _state_from_args(args)
    out = _require_out(args)
    qio.save_waveform(out, state, args.format)
    norm = float(np.linalg.norm(state.amplitudes))
    print(f"{out}: {state.grid.size} bins, norm = {qio.fmt_float(norm)}")
    return EXIT_OK


def cmd_scan(args) -> int:
    state = _state_from_args(args)
    depths = tuple(args.theta) if args.theta else DEFAULT_SCAN_DEPTHS
    selector = _selector_from_text(args.selector, state.grid)
    noise = _noise_from_args(args)
    rmap = scan(state, selector, depths, noise)
    out = _require_out(args)
    qio.save_response_map(out, rmap, args.format)
    print(f"{out}: {state.grid.size} bins x {len(depths)} depths, "
          f"P0 = {qio.fmt_float(rmap.p0)}")
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    bin_width = DEFAULT_BIN_WIDTH if args.bin_width is None else float(args.bin_width)
    origin = 0.0 if args.origin is None else float(args.origin)
    rmap = qio.load_response_map(args.input, bin_width=bin_width, origin=origin)
    ref = None if args.reference is None else qio.load_waveform(args.reference)
    if ref is not None and ref.grid.size != rmap.grid.size:
        raise DimensionMismatchError(f"--reference has {ref.grid.size} bins, "
                                     f"{args.input} has {rmap.grid.size}")
    # a JSON map names the selector its scan used; an explicit one must agree
    text = args.selector
    recorded = rmap.meta.get("selector")
    if recorded is not None:
        if text is not None and _selector_from_text(text, rmap.grid).label != recorded:
            raise ValueError(f"--selector {text} disagrees with the selector "
                             f"{recorded!r} that {args.input} was scanned with")
        text = recorded
    overlaps = None
    if text is not None and text != "uniform":
        overlaps = _selector_from_text(text, rmap.grid).overlaps
    result = reconstruct_wavefunction(rmap, overlaps=overlaps)
    out = _require_out(args)
    qio.save_reconstruction(out, result, args.format)
    flagged = int(np.sum(~result.branch_ok))
    print(f"{out}: {result.grid.size} bins, {flagged} flagged")
    if ref is not None:
        print(f"f_w = {qio.fmt_float(fidelity_overall(result.psi, ref.amplitudes))}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    state = _state_from_args(args)
    depths = tuple(args.theta) if args.theta else DEFAULT_SWEEP_DEPTHS
    selector = _selector_from_text(args.selector, state.grid)
    noise = _noise_from_args(args)
    n_seeds = DEFAULT_SWEEP_SEEDS if args.seeds is None else int(args.seeds)
    sweep = depth_sweep(state, selector, depths, noise, n_seeds=n_seeds)
    prefix = _require_out(args)
    ext = args.format or "csv"
    fid_path = f"{prefix}_fidelity.{ext}"
    map_path = f"{prefix}_map.{ext}"
    qio.save_sweep_fidelity(fid_path, sweep, args.format)
    qio.save_sweep_map(map_path, sweep, args.format)
    print(fid_path)
    print(map_path)
    return EXIT_OK


_COMMANDS = {
    "prepare": cmd_prepare,
    "scan": cmd_scan,
    "reconstruct": cmd_reconstruct,
    "sweep": cmd_sweep,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        _apply_config(args)
        _check_finite(args)
        return _COMMANDS[args.command](args)
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES.items()
                    if isinstance(exc, cls))
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
