"""The three benchmark workloads: how each builds its inputs, runs one op and checks it.

Every workload is a closed loop with one client: op ``i`` runs only after
op ``i - 1`` has returned. Ops replay a fixed list of ``cycle`` cases: op
``i`` is case ``i % cycle``, and takes its noise seed from the workload seed
and its case alone, so the same seed gives the same inputs and every replay
of a case must give the same output. A run checks each case at least once,
so which cases fail depends on the seed and not on how many ops fit in the
run. A run stops only after a multiple of ``stride`` ops, which holds every
fast-varying case (selector, depth pair, CLI command) equally often.

Checks take their floors from the paper and the README, never from observed
numbers, and each check failure counts the op as failed. A failure caused by
a defect the package has today is marked with that defect, so ``correct``
reports only new failures while every failure still counts.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import re
import resource
import subprocess
import sys

import numpy as np

WAVEFORMS = ("gaussian_flat_phase", "gaussian_linear_chirp", "square_step_phase",
             "double_hump_quadratic_phase")
SELECTORS = ("uniform", "dft:3")
BIN_WIDTH = 0.1e-6
SIGMA = 0.002
SWEEP_DEPTHS = (math.pi / 16, math.pi / 8, math.pi / 4, 3 * math.pi / 8, math.pi / 2)
SWEEP_SEEDS = 32
WIDE_BINS = 2000
WIDE_TRIALS = 1000
WIDE_PAIRS = (math.pi / 2, 3 * math.pi / 8)
F_W_FLOOR = 0.99            # README quick start: "all around 0.999 at this noise"
F_W_EXACT = 1.0 - 1e-9      # noiseless inversion is exact up to rounding

# Layer-to-metric predictions, written down before any optimisation lands.
PREDICTIONS = {
    "sweep_small": {
        "should_move": {
            "op_p50_ms, ops_per_s": ["rng.key_matrix_ms", "rng.key_matrix_calls", "rng.keys",
                                     "quench.scan_ms", "quench.scan_self_ms", "quench.scan_calls",
                                     "quench.cells", "reconstruct.reconstruct_ms",
                                     "reconstruct.calls", "reconstruct.bins_ok_ratio",
                                     "fidelity.score_ms", "fidelity.depth_sweep_self_ms"],
            "setup_s": ["states.build_ms"],
        },
        "should_not_move": ["kernels.noisy_mean_matrix_ms (trials=1: nearly no work)",
                            "io.* (no io)", "peak_rss_mb"],
    },
    "scan_wide": {
        "should_move": {
            "ops_per_s, op_p50_ms, peak_rss_mb": ["kernels.noisy_mean_matrix_ms",
                                                  "kernels.noisy_mean_scalar_ms", "kernels.draws",
                                                  "kernels.draws_per_s", "kernels.block_bytes"],
            "op_p50_ms": ["kernels.true_probabilities_ms (minor share)", "quench.scan_self_ms",
                          "io.write_ms", "io.read_ms", "io.bytes_written", "io.bytes_read"],
            "setup_s": ["states.build_ms"],
        },
        "should_not_move": ["rng.key_matrix_ms (under 3% of an op)"],
    },
    "cli_roundtrip": {
        "should_move": {
            "op_p50_ms, op_tail_ms": ["cli.startup_ms", "cli.prepare_ms", "cli.scan_ms",
                                      "cli.reconstruct_ms", "cli.sweep_ms"],
            "op_p50_ms": ["io.write_ms", "io.read_ms", "io.bytes_written", "io.bytes_read"],
            "setup_s": ["states.build_ms"],
        },
        "should_not_move": ["kernels.noisy_mean_matrix_ms (noiseless at N=2000, trials=1 at N=20)"],
    },
}


def op_seed(workload: str, seed: int, case: int) -> int:
    """Noise seed of ``case``: a 63-bit hash of the workload, its seed and the case."""
    digest = hashlib.sha256(f"{workload}/{seed}/{case}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def _floats(*arrays) -> bytes:
    return b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes() for a in arrays)


def _complex(a) -> bytes:
    return _floats(np.asarray(a, dtype=np.complex128).view(np.float64))


class Outcome:
    """What one op returned: a sha256 of its canonical bytes, the check's error, and the
    known defect behind that error. Only the hash is kept, so a run's memory stays flat."""

    def __init__(self, canonical: bytes, error: str | None = None, known_defect: str | None = None):
        self.digest = hashlib.sha256(canonical).digest()
        self.error = error
        self.known_defect = known_defect if error else None


class Workload:
    name = ""
    cycle = 1               # ops before the case list repeats
    stride = 1              # ops that hold each fast-varying case once
    peak_rss_of = resource.RUSAGE_SELF

    def __init__(self, qq, seed: int, workdir: str):
        self.qq = qq
        self.seed = seed
        self.workdir = workdir

    def noise_seed(self, i: int) -> int:
        """Noise seed of op ``i``, the same for every replay of its case."""
        return op_seed(self.name, self.seed, i % self.cycle)

    def build(self) -> None:
        """Build the inputs every op reads."""

    def run(self, i: int):
        """Run op ``i``; the return value is handed to :meth:`check`."""
        raise NotImplementedError

    def check(self, i: int, out) -> Outcome:
        raise NotImplementedError


class SweepSmall(Workload):
    """One default ``depth_sweep`` per op at N=20 over 4 waveforms x 2 selectors."""

    name = "sweep_small"
    cycle = len(WAVEFORMS) * len(SELECTORS)
    stride = len(SELECTORS)
    KNOWN_DEFECT = ("depth_sweep reconstructs without the selector's overlaps, so dft:3 "
                    "sweeps score far below the floor")

    def build(self):
        qq = self.qq
        grid = qq.BasisGrid(size=20, bin_width=BIN_WIDTH)
        self.states = [qq.builtin_waveform(w, grid) for w in WAVEFORMS]
        self.selectors = [qq.uniform_post_selector(grid), qq.dft_post_selector(grid, 3)]

    def run(self, i):
        qq = self.qq
        noise = qq.NoiseModel(relative_sigma=SIGMA, seed=self.noise_seed(i),
                              trials=1)
        return qq.depth_sweep(self.states[(i // 2) % len(WAVEFORMS)], self.selectors[i % 2],
                              SWEEP_DEPTHS, noise, n_seeds=SWEEP_SEEDS)

    def check(self, i, sweep):
        canonical = _floats(sweep.depths, sweep.fw_mean, sweep.fw_std, sweep.fp_mean,
                            sweep.fp_std, sweep.fa_mean, sweep.fa_std,
                            sweep.response_magnitudes)
        fw_half_pi = float(sweep.fw_mean[SWEEP_DEPTHS.index(math.pi / 2)])
        if fw_half_pi >= F_W_FLOOR:
            return Outcome(canonical)
        return Outcome(canonical, f"mean f_w at pi/2 is {fw_half_pi:.6g} < {F_W_FLOOR}",
                       self.KNOWN_DEFECT if SELECTORS[i % 2] == "dft:3" else None)


class ScanWide(Workload):
    """One N=2000, trials=1000 scan, reconstruction, score and file round trip per op."""

    name = "scan_wide"
    cycle = len(WAVEFORMS) * len(SELECTORS) * len(WIDE_PAIRS)
    stride = len(SELECTORS) * len(WIDE_PAIRS)
    KNOWN_DEFECT = ("scan reads the baseline P0 once, with the trials of one bin; its error is "
                    "shared by all N bins and, at N=2000 and +/-3pi/8, moves the summed "
                    "reconstruction by about 0.1 per standard deviation against a fixed 0.25 "
                    "tolerance, so about 1 in 60 such scans breaks the sum rule (every bin "
                    "flagged) or the f_w floor")

    def build(self):
        qq = self.qq
        grid = qq.BasisGrid(size=WIDE_BINS, bin_width=BIN_WIDTH)
        self.states = [qq.builtin_waveform(w, grid) for w in WAVEFORMS]
        self.selectors = [qq.uniform_post_selector(grid), qq.dft_post_selector(grid, 3)]
        self.map_path = os.path.join(self.workdir, "map.json")
        self.rec_path = os.path.join(self.workdir, "rec.csv")

    def run(self, i):
        qq = self.qq
        state = self.states[(i // self.stride) % len(WAVEFORMS)]
        selector = self.selectors[i % 2]
        theta = WIDE_PAIRS[(i // 2) % len(WIDE_PAIRS)]
        noise = qq.NoiseModel(relative_sigma=SIGMA, seed=self.noise_seed(i),
                              trials=WIDE_TRIALS)
        rmap = qq.scan(state, selector, (theta, -theta), noise)
        overlaps = None if selector.label == "uniform" else selector.overlaps
        rec = qq.reconstruct_wavefunction(rmap, overlaps=overlaps)
        scores = qq.score_reconstruction(rec, state, noise)
        qq.save_response_map(self.map_path, rmap)
        reloaded = qq.load_response_map(self.map_path)
        qq.save_reconstruction(self.rec_path, rec)
        return state, rmap, rec, scores, reloaded

    def check(self, i, out):
        state, rmap, rec, scores, reloaded = out
        with open(self.map_path, "rb") as fh:
            map_bytes = fh.read()
        with open(self.rec_path, "rb") as fh:
            rec_bytes = fh.read()
        measured, response = rmap.measured_matrix(), rmap.response_matrix()
        canonical = b"".join((
            _floats(rmap.depths, [rmap.baseline_p0], measured, response, rec.raw_re, rec.raw_im),
            _complex(rec.psi), np.asarray(rec.branch_ok, dtype=np.uint8).tobytes(),
            _floats([scores.f_w, scores.f_p, scores.f_a]), map_bytes, rec_bytes))
        psi = np.asarray(state.amplitudes)
        f_w = abs(np.vdot(rec.psi, psi)) / (np.linalg.norm(rec.psi) * np.linalg.norm(psi))
        flagged = int(np.count_nonzero(~np.asarray(rec.branch_ok)))
        if not (np.array_equal(reloaded.measured_matrix(), measured)
                and np.array_equal(reloaded.response_matrix(), response)
                and reloaded.depths == rmap.depths):
            return Outcome(canonical, "response map changed in a JSON write/read round trip")
        if not f_w >= F_W_FLOOR:
            return Outcome(canonical, f"f_w {f_w:.6g} < {F_W_FLOOR}", self.KNOWN_DEFECT)
        if flagged:
            return Outcome(canonical, f"{flagged} flagged bins", self.KNOWN_DEFECT)
        return Outcome(canonical)


def _cli_chain():
    """The README's CLI chain: noisy at N=20 (the quick start), noiseless at N=2000."""
    steps = []
    for bins, sigma in ((20, SIGMA), (WIDE_BINS, 0.0)):
        wave, plain, dft = f"wave{bins}.csv", f"map{bins}.json", f"map{bins}_dft.csv"
        noise = ["--sigma", repr(sigma), "--seed"]
        steps += [
            ("prepare", bins, ["--waveform", None, "--bins", str(bins),
                               "--bin-width", repr(BIN_WIDTH), "--out", wave], [wave]),
            ("scan", bins, ["--input", wave, *noise, "SEED", "--out", plain], [plain]),
            ("scan", bins, ["--input", wave, *noise, "SEED", "--selector", "dft:3",
                            "--out", dft], [dft]),
            ("reconstruct", bins, ["--input", plain, "--reference", wave,
                                   "--out", f"rec{bins}.csv"], [f"rec{bins}.csv"]),
            ("reconstruct", bins, ["--input", dft, "--selector", "dft:3", "--reference", wave,
                                   "--out", f"rec{bins}_dft.json"], [f"rec{bins}_dft.json"]),
        ]
        if bins == 20:
            steps.append(("sweep", bins, ["--input", wave, "--seeds", str(SWEEP_SEEDS),
                                          "--seed", "SEED", "--out", "sweep"],
                          ["sweep_fidelity.csv", "sweep_map.csv"]))
    return steps


CLI_CHAIN = _cli_chain()


class CliRoundtrip(Workload):
    """One ``qquench`` command per op, cycling through the README chain per waveform.

    ``in_process`` calls ``qquench.cli.main`` instead of starting a
    subprocess; the traced run uses it so that the package's spans nest
    under ``cli``.
    """

    name = "cli_roundtrip"
    cycle = len(CLI_CHAIN) * len(WAVEFORMS)
    stride = len(CLI_CHAIN)
    peak_rss_of = resource.RUSAGE_CHILDREN
    in_process = False

    def build(self):
        qq = self.qq
        self.references = {
            (w, bins): qq.builtin_waveform(w, qq.BasisGrid(size=bins, bin_width=BIN_WIDTH))
            for w in WAVEFORMS for bins in (20, WIDE_BINS)
        }

    def command(self, i):
        waveform = WAVEFORMS[(i // len(CLI_CHAIN)) % len(WAVEFORMS)]
        name, bins, args, outputs = CLI_CHAIN[i % len(CLI_CHAIN)]
        seed = str(self.noise_seed(i))
        args = [waveform if a is None else seed if a == "SEED" else a for a in args]
        return waveform, name, bins, [name, *args], outputs

    def run(self, i):
        argv = self.command(i)[3]
        if self.in_process:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = self.qq.cli.main(argv)
            return code, buf.getvalue()
        proc = subprocess.run([sys.executable, "-m", "qquench.cli", *argv], cwd=self.workdir,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode:
            sys.stderr.write(proc.stderr)
        return proc.returncode, proc.stdout

    def check(self, i, out):
        code, stdout = out
        waveform, name, bins, argv, outputs = self.command(i)
        parts = [" ".join(argv).encode(), str(code).encode(), stdout.encode()]
        for path in outputs:
            full = os.path.join(self.workdir, path)
            if os.path.exists(full):
                with open(full, "rb") as fh:
                    parts.append(fh.read())
        canonical = b"\0".join(parts)
        if code != 0:
            return Outcome(canonical, f"exit code {code}")
        return Outcome(canonical, self._verify(waveform, name, bins, argv, stdout))

    def _verify(self, waveform, name, bins, argv, stdout):
        if name == "prepare":
            data = np.loadtxt(os.path.join(self.workdir, argv[-1]), delimiter=",", skiprows=1,
                              ndmin=2)
            psi = data[:, 1] * np.exp(1j * data[:, 2])
            err = float(np.max(np.abs(psi - self.references[(waveform, bins)].amplitudes)))
            return None if err <= 1e-12 else f"prepared waveform differs by {err:.3g}"
        if name == "scan":
            return None if f"{bins} bins x 2 depths" in stdout else "unexpected scan report"
        if name == "reconstruct":
            match = re.search(r"(\d+) flagged\s+f_w = (\S+)", stdout)
            if not match:
                return "no f_w printed"
            flagged, f_w = int(match.group(1)), float(match.group(2))
            if bins == WIDE_BINS:
                if flagged or not f_w >= F_W_EXACT:
                    return f"noiseless: {flagged} flagged, f_w {f_w!r} < {F_W_EXACT!r}"
            elif "dft:3" not in argv and not f_w >= F_W_FLOOR:
                return f"quick start f_w {f_w!r} < {F_W_FLOOR}"
            return None if 0.0 <= f_w <= 1.0 + 1e-9 else f"f_w {f_w!r} outside [0, 1]"
        data = np.loadtxt(os.path.join(self.workdir, "sweep_fidelity.csv"), delimiter=",",
                          skiprows=1, ndmin=2)
        fw_half_pi = data[np.argmin(np.abs(data[:, 0] - math.pi / 2)), 2]
        return None if fw_half_pi >= F_W_FLOOR else f"sweep mean f_w at pi/2 {fw_half_pi:.6g}"


WORKLOADS = {cls.name: cls for cls in (SweepSmall, ScanWide, CliRoundtrip)}
