"""Shared helpers for the test suite: random states, the independent
direct-expansion oracle the pipeline is checked against, the per-bin quench
and measurement formulas, the per-depth sweep, the per-scan
finishing and scoring formulas the block code is checked against, and the
version 1 and version 2 file writers the file formats are checked against."""

import cmath
import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from qquench import (
    BasisGrid,
    DegenerateBaselineError,
    IndexOutOfRangeError,
    NoiseModel,
    PostSelector,
    ReconstructionResult,
    WavefunctionState,
    amplitude_nodes,
    make_state,
    phase_envelope,
    scan,
    score_reconstruction,
)
from qquench import _kernels, rng
from qquench.fidelity import resolution_floor
from qquench.quench import BASELINE_FLOOR, _true_response, measure_seeds
from qquench.reconstruct import (
    FOLD_ATTR_ABS,
    FOLD_ATTR_REL,
    FOLD_SUM_TOL,
    NODE_TOL,
    invert_pair,
    reconstruct_inverted,
)


def random_state(grid: BasisGrid, rng, avoid_nodes: bool = False):
    """A random complex unit vector on the grid."""
    while True:
        z = rng.standard_normal(grid.size) + 1j * rng.standard_normal(grid.size)
        norm = np.linalg.norm(z)
        if norm < 1e-9:
            continue
        if avoid_nodes and np.min(np.abs(z)) / norm < 1e-3:
            continue
        return make_state(grid, z)


def branch_valid_state(grid: BasisGrid, rng, margin: float = 0.45):
    """A random state satisfying Re[w_u] <= margin for the uniform selector.

    Rejection sampling, blending toward the uniform state (whose w_u are all
    exactly 1/N) when pure rejection keeps failing.
    """
    n = grid.size
    uniform = np.full(n, 1.0 / np.sqrt(n), dtype=np.complex128)
    for blend in np.linspace(0.0, 0.9, 10):
        for _ in range(50):
            z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            z = z / np.linalg.norm(z)
            z = (1.0 - blend) * z + blend * uniform
            z = z / np.linalg.norm(z)
            total = z.sum()
            if abs(total) < 1e-6:
                continue
            w = z / total
            if np.max(w.real) <= margin and np.min(np.abs(z)) > 1e-6:
                return make_state(grid, z)
    raise RuntimeError("rejection sampling failed to find a branch-valid state")


def quench_matrix(n: int, bin_index: int, theta: float) -> np.ndarray:
    """The quench operator written out as an explicit dense matrix."""
    op = np.eye(n, dtype=np.complex128)
    op[bin_index, bin_index] = np.exp(1j * theta)
    return op


def oracle_probabilities(psi, overlaps, thetas):
    """Direct-expansion projection probabilities, no shared code with scan.

    Returns (P0, Pr[bin, depth]) by building each quench operator as a
    dense matrix, applying it, and projecting onto the selector.
    """
    psi = np.asarray(psi, dtype=np.complex128)
    overlaps = np.asarray(overlaps, dtype=np.complex128)
    n = psi.size
    p0 = abs(overlaps @ psi) ** 2
    pr = np.empty((n, len(thetas)))
    for u in range(n):
        for d, theta in enumerate(thetas):
            quenched = quench_matrix(n, u, theta) @ psi
            pr[u, d] = abs(overlaps @ quenched) ** 2
    return p0, pr


def scaled_amplitudes(psi, overlaps):
    """w_u = psi_u <b0|a_u> / <b0|psi>, the quantity the inversion targets."""
    psi = np.asarray(psi, dtype=np.complex128)
    overlaps = np.asarray(overlaps, dtype=np.complex128)
    return psi * overlaps / (overlaps @ psi)


# One quench, one projection and one noisy read at a time: the per-bin
# formulas that scan computes as (bins, depths) blocks.

@dataclass(frozen=True)
class QuenchConfig:
    """Where and how deep to quench: bin index and phase depth in radians."""

    bin: int
    depth: float

    def __post_init__(self):
        if self.bin < 0:
            raise IndexOutOfRangeError(f"bin index must be nonnegative, got {self.bin}")
        if not math.isfinite(self.depth):
            raise ValueError(f"quench depth must be finite, got {self.depth}")


def apply_quench(state: WavefunctionState, q: QuenchConfig) -> WavefunctionState:
    """Multiply the amplitude at ``q.bin`` by exp(i*q.depth); unitary, norm kept."""
    if not 0 <= q.bin < state.grid.size:
        raise IndexOutOfRangeError(f"bin {q.bin} outside [0, {state.grid.size})")
    amps = np.array(state.amplitudes, copy=True)
    amps[q.bin] *= cmath.exp(1j * q.depth)
    return WavefunctionState(state.grid, amps)


def projection_probability(state: WavefunctionState, selector: PostSelector) -> float:
    """Probability of projecting ``state`` onto the post-selection state."""
    return abs(np.vdot(selector.amplitudes, state.amplitudes)) ** 2


def response_factor(measured_pr: float, baseline_p0: float) -> float:
    """Relative probability change caused by the quench: 1 - Pr/P0."""
    if baseline_p0 <= BASELINE_FLOOR:
        raise DegenerateBaselineError(
            f"baseline P0={baseline_p0:.3e} at or below floor {BASELINE_FLOOR:.0e}"
        )
    return 1.0 - measured_pr / baseline_p0


def measure_with_noise(true_pr, noise: NoiseModel, key=None, baseline_p0=None) -> float:
    """Average of ``noise.trials`` noisy reads of a true probability.

    Each read adds a Normal(0, relative_sigma * baseline_p0) error and clamps
    at zero. ``key`` is the stream key of the measurement slot (default: the
    seed's baseline stream); ``baseline_p0`` anchors the absolute noise scale
    and defaults to ``true_pr`` itself.
    """
    if true_pr < 0:
        raise ValueError(f"true probability must be >= 0, got {true_pr}")
    if noise.noiseless:
        return float(true_pr)
    if key is None:
        key = rng.stream_key(noise.seed, rng.BASELINE_BIN, 0.0)
    scale = noise.relative_sigma * (true_pr if baseline_p0 is None else baseline_p0)
    return mean_of_one_cell(true_pr, scale, noise.trials, key)


def mean_of_one_cell(value, sigma_abs, trials, key) -> float:
    """:func:`_kernels.noisy_mean_matrix` of one probability on one stream key."""
    cell = np.array([[value]], dtype=np.float64)
    keys = np.array([[key]], dtype=np.uint64)
    return float(_kernels.noisy_mean_matrix(cell, sigma_abs, trials, keys)[0, 0])


def measure_block(state, selector, depths, noise, seeds):
    """:func:`quench.measure_seeds` with every row of the block measuring all
    of ``depths``, one row per entry of ``seeds``."""
    thetas, p0_true, pr_true = _true_response(state, selector, depths)
    rows = len(seeds)
    return measure_seeds(selector, p0_true, np.broadcast_to(pr_true, (rows,) + pr_true.shape),
                         np.broadcast_to(thetas, (rows, thetas.size)), noise, seeds)


def reference_depth_sweep(state, selector, depths, noise, n_seeds=32):
    """:func:`depth_sweep` as one block per depth: one measure, invert, finish
    and score call per depth, and a noiseless scan for the magnitudes. Its
    bits are the sweep's."""
    depth_arr = np.asarray(depths, dtype=np.float64)
    n_depths = depth_arr.size
    fw, fp, fa = (np.empty((n_depths, n_seeds)) for _ in range(3))
    overlaps = None if selector.label == "uniform" else selector.overlaps
    for d, theta in enumerate(depth_arr.tolist()):
        if noise.noiseless:
            seeds = [noise.seed]
        else:
            seeds = rng.derive_keys(noise.seed, rng.float_tag(theta), np.arange(n_seeds))
        pair = (theta, -theta)
        _, _, p, _ = measure_block(state, selector, pair, noise, seeds)
        re, im, ok = invert_pair(pair, p)
        scores = score_reconstruction(
            reconstruct_inverted(state.grid, re, im, ok, overlaps), state, noise)
        fw[d], fp[d], fa[d] = scores.f_w, scores.f_p, scores.f_a
    quiet = NoiseModel(relative_sigma=0.0, seed=noise.seed, trials=1)
    magnitudes = np.abs(scan(state, selector, depth_arr, quiet).p)
    if noise.noiseless:
        std = [np.zeros(n_depths)] * 3
    else:
        std = [x.std(axis=1, ddof=1) for x in (fw, fp, fa)]
    return {"depths": depth_arr, "seed_count": n_seeds,
            "fw_mean": fw.mean(axis=1), "fw_std": std[0],
            "fp_mean": fp.mean(axis=1), "fp_std": std[1],
            "fa_mean": fa.mean(axis=1), "fa_std": std[2],
            "response_magnitudes": magnitudes}


# The per-scan finishing and scoring formulas as they stood before both became
# block operations: BLAS norm and dot products, and envelope sums over the
# compressed valid bins. The block code must match them within a few ulp.

def _reference_detect_folds(raw, ok):
    total = complex(raw.sum()) / 4.0
    if abs(total - 1.0) <= FOLD_SUM_TOL:
        return
    deficit = 4.0 * (1.0 - total.real)
    if deficit <= 0:
        ok[:] = False
        return
    explained = 4.0 - 2.0 * raw.real
    window = max(FOLD_ATTR_ABS, FOLD_ATTR_REL * deficit)
    candidates = np.abs(explained - deficit) <= window
    if np.any(candidates):
        ok[candidates] = False
    else:
        ok[:] = False


def reference_reconstruct_inverted(grid, re, im, branch_ok, overlaps=None):
    """One scan's fold check, normalization and gauge, written per scan."""
    raw = re + 1j * im
    ok = np.array(branch_ok, dtype=bool, copy=True)
    _reference_detect_folds(raw, ok)
    scaled = raw if overlaps is None else raw / np.asarray(overlaps, dtype=np.complex128)
    norm = float(np.linalg.norm(scaled))
    if norm == 0.0:
        psi = np.zeros(grid.size, dtype=np.complex128)
        ok[:] = False
    else:
        psi = scaled / norm
        peak = int(np.argmax(np.abs(psi)))
        psi = psi * (psi[peak].conjugate() / abs(psi[peak]))
    return ReconstructionResult(grid=grid, raw_re=re, raw_im=im, psi=psi,
                                amplitude_env=np.abs(psi), phase_env=phase_envelope(psi),
                                branch_ok=ok, nodes=amplitude_nodes(psi))


def _reference_correlation(x, y, degenerate_by_cosine):
    if x.size == 0:
        return 1.0
    sx = float(np.sum(x * x))
    sy = float(np.sum(y * y))
    if sx == 0.0 or sy == 0.0:
        return float(np.mean(np.cos(x - y))) if degenerate_by_cosine else 0.0
    return float(np.sum(x * y) / math.sqrt(sx * sy))


def reference_score(result, state, noise=None):
    """One reconstruction's scores, written per scan: (f_w, f_p, f_a, valid_bins)."""
    psi_in = np.asarray(state.amplitudes, dtype=np.complex128)
    a = result.psi
    na, nb = np.linalg.norm(a), np.linalg.norm(psi_in)
    overall = 0.0 if na == 0.0 or nb == 0.0 else float(abs(np.vdot(a, psi_in)) / (na * nb))
    z = np.vdot(psi_in, result.psi)
    psi_rec = result.psi * (z.conjugate() / abs(z)) if abs(z) > 0 else result.psi
    valid = result.branch_ok & ~result.nodes & (np.abs(psi_in) >= NODE_TOL)
    floor = resolution_floor(noise)
    if floor > 0.0:
        valid &= np.hypot(result.raw_re, result.raw_im) >= floor
    phase = _reference_correlation(phase_envelope(psi_rec)[valid],
                                   phase_envelope(psi_in)[valid], True)
    amplitude = _reference_correlation(result.amplitude_env[valid],
                                       np.abs(psi_in)[valid], False)
    return overall, phase, amplitude, valid



# rng.normals written with a new array for every step. The in-place mixer and
# the in-place cos factor must give the same bits.

def _reference_mix64(z):
    z = z + np.uint64(rng.GOLD)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(rng.MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(rng.MIX2)
    return z ^ (z >> np.uint64(31))


def reference_uniforms(key, counters):
    """The Box-Muller uniforms (u1, u2) behind :func:`reference_normals`."""
    a = _reference_mix64(key ^ _reference_mix64(counters ^ np.uint64(rng.CTR_SALT)))
    b = _reference_mix64(a ^ np.uint64(rng.PAIR_SALT))
    u1 = ((a >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    u2 = ((b >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    return u1, u2


# Taylor coefficients of sin(x)/x in x**2, constant term first.
SIN_TAYLOR = [(-1) ** j / math.factorial(2 * j + 1) for j in range(11)]


def reference_normals(key, counters):
    """Standard normals at (key, counter); both at least 1-d uint64 arrays.

    The cos factor is sin(x) at the exactly reduced x = 2*pi*(1/4 - min(u2, 1 - u2)),
    as x times the Taylor polynomial of sin(x)/x by Horner's rule, multiplied
    onto r = sqrt(-2 ln u1) as (r * x) * P(x**2).
    """
    u1, u2 = reference_uniforms(key, counters)
    x = 2.0 * math.pi * (0.25 - np.minimum(u2, 1.0 - u2))
    x2 = x * x
    poly = np.full_like(x, SIN_TAYLOR[-1])
    for c in SIN_TAYLOR[-2::-1]:
        poly = poly * x2 + c
    return (np.sqrt(-2.0 * np.log(u1)) * x) * poly


# The noise model read by read: the per-trial path of the kernel. Cells above
# the bound take one draw instead (noisy_mean_matrix).

def per_trial_means(pr, sigma, trials, keys):
    """Mean of ``trials`` reads max(pr + sigma * z_t, 0) of every (N, D) cell,
    z_t the normal at counter t of the cell's key: whole (N, D, chunk) arrays
    with the allocating reference normals, added chunk by chunk as the kernel
    adds them."""
    acc = np.zeros(pr.shape)
    for start in range(0, trials, _kernels._TRIAL_CHUNK):
        ctrs = np.arange(start, min(start + _kernels._TRIAL_CHUNK, trials), dtype=np.uint64)
        draws = pr[:, :, None] + sigma * reference_normals(keys[:, :, None], ctrs)
        np.maximum(draws, 0.0, out=draws)
        acc += draws.sum(axis=2)
    return acc / trials


def pure_python_mean(pr, sigma, trials, key):
    """One cell of the kernel in pure Python: above the bound one normal
    scaled by sigma / sqrt(trials), else the mean of the clamped reads."""
    if pr > _kernels.Z_MAX * sigma:
        return rng.normal(key, 0) * (sigma / math.sqrt(trials)) + pr
    return sum(max(pr + sigma * rng.normal(key, t), 0.0) for t in range(trials)) / trials


def libm_reference_normals(key, counters):
    """:func:`reference_normals` as it stood before the reduced polynomial:
    the cos factor is numpy's cos of the rounded product 2*pi*u2."""
    u1, u2 = reference_uniforms(key, counters)
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * math.pi * u2)

# The CSV writers as they stood before the column-built CSV: row by row
# through csv.writer. They pin the CSV bytes of every artifact.

def _csv_fmt(x) -> str:
    return format(float(x), ".17g")


def _csv_write(path, header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(buf.getvalue())


def csv_save_waveform(path, state):
    times = state.grid.times()
    amps = np.abs(state.amplitudes)
    phases = phase_envelope(state.amplitudes)
    rows = [(_csv_fmt(t), _csv_fmt(a), _csv_fmt(ph)) for t, a, ph in zip(times, amps, phases)]
    _csv_write(path, ("t", "amplitude", "phase"), rows)


def csv_save_response_map(path, rmap):
    p0 = _csv_fmt(rmap.p0)
    thetas = [_csv_fmt(t) for t in rmap.depths]
    rows = [(str(n), theta, p0, _csv_fmt(pr_nd), _csv_fmt(p_nd))
            for n, (pr_n, p_n) in enumerate(zip(rmap.pr.tolist(), rmap.p.tolist()))
            for theta, pr_nd, p_nd in zip(thetas, pr_n, p_n)]
    _csv_write(path, ("bin", "theta", "P0", "Pr", "p"), rows)


def csv_save_reconstruction(path, result):
    times = result.grid.times()
    abs2 = result.amplitude_env**2
    rows = [(str(u), _csv_fmt(times[u]), _csv_fmt(result.raw_re[u]), _csv_fmt(result.raw_im[u]),
             _csv_fmt(abs2[u]), _csv_fmt(result.phase_env[u]),
             "true" if result.branch_ok[u] else "false")
            for u in range(result.grid.size)]
    _csv_write(path, ("bin", "t", "re", "im", "abs2", "phase", "branch_ok"), rows)


SWEEP_STATS = ("fw_mean", "fw_std", "fp_mean", "fp_std", "fa_mean", "fa_std")


def csv_save_sweep_fidelity(path, sweep):
    rows = [(_csv_fmt(sweep.depths[d]), str(sweep.seed_count),
             *(_csv_fmt(getattr(sweep, name)[d]) for name in SWEEP_STATS))
            for d in range(sweep.depths.size)]
    _csv_write(path, ("theta", "seed_count", *SWEEP_STATS), rows)


def csv_save_sweep_map(path, sweep):
    mags = sweep.response_magnitudes
    rows = [(str(u), _csv_fmt(sweep.depths[d]), _csv_fmt(mags[u, d]))
            for u in range(mags.shape[0]) for d in range(sweep.depths.size)]
    _csv_write(path, ("bin", "theta", "abs_p"), rows)


# The JSON version 2 writers as they stood before io.py described each
# artifact by one column table; with the CSV writers above they pin the
# bytes of every artifact in both formats.

def _v2_floats(values) -> list:
    return np.asarray(values, dtype=np.float64).ravel().tolist()


def _v2_write(path, artifact, payload):
    text = json.dumps({"format": f"qquench.{artifact}/2", **payload}) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


def v2_save_waveform(path, state):
    _v2_write(path, "waveform", {
        "bin_width": state.grid.bin_width,
        "origin": state.grid.origin,
        "t": _v2_floats(state.grid.times()),
        "amp": _v2_floats(np.abs(state.amplitudes)),
        "phase": _v2_floats(phase_envelope(state.amplitudes)),
    })


def v2_save_response_map(path, rmap):
    from qquench import __version__

    _v2_write(path, "response_map", {
        "meta": {**rmap.meta, "version": __version__},
        "bin_width": rmap.grid.bin_width,
        "origin": rmap.grid.origin,
        "depths": list(rmap.depths),
        "p0": rmap.p0,
        "pr": rmap.pr.tolist(),
        "p": rmap.p.tolist(),
    })


def v2_save_reconstruction(path, result):
    psi = np.asarray(result.psi, dtype=np.complex128)
    _v2_write(path, "reconstruction", {
        "bin_width": result.grid.bin_width,
        "origin": result.grid.origin,
        "re": _v2_floats(result.raw_re),
        "im": _v2_floats(result.raw_im),
        "abs2": _v2_floats(result.amplitude_env**2),
        "phase": _v2_floats(result.phase_env),
        "branch_ok": np.asarray(result.branch_ok, dtype=bool).tolist(),
        "psi_re": _v2_floats(psi.real),
        "psi_im": _v2_floats(psi.imag),
    })


def v2_save_sweep_fidelity(path, sweep):
    _v2_write(path, "sweep_fidelity", {
        "seed_count": int(sweep.seed_count),
        "depths": _v2_floats(sweep.depths),
        **{name: _v2_floats(getattr(sweep, name)) for name in SWEEP_STATS},
    })


def v2_save_sweep_map(path, sweep):
    _v2_write(path, "sweep_map", {
        "bin_width": sweep.grid.bin_width,
        "origin": sweep.grid.origin,
        "depths": _v2_floats(sweep.depths),
        "magnitudes": np.asarray(sweep.response_magnitudes, dtype=np.float64).tolist(),
    })


def edit_json(path, field: str, value):
    """Set the field at the dotted path ``field`` of a JSON file, such as
    ``"pr.3.0"``, to ``value``, or delete it if ``value`` is ``"missing"``."""
    payload = json.loads(path.read_text())
    *outer, last = (int(key) if key.isdigit() else key for key in field.split("."))
    node = payload
    for key in outer:
        node = node[key]
    if value == "missing":
        del node[last]
    else:
        node[last] = value
    path.write_text(json.dumps(payload))
