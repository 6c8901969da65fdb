"""Write the golden output set that tests/test_golden.py checks.

At N = 20 bins, for each builtin waveform and each of the selectors
``uniform`` and ``dft:3``, the set holds:

- a noisy scan map at +/-pi/2 with T = 1 and one at +/-3pi/8 with T = 16,
  each in CSV and JSON;
- the reconstruction of each map, as CSV from the CSV map and as JSON
  from the JSON map;
- a 4-seed sweep over the CLI's default depth grid: its fidelity table
  and magnitude map, in JSON only, to keep the set under 200 KB (the
  sweep CSV writers share their layouts with the map and reconstruction
  CSVs).

``manifest.json`` records the environment the set was written in: the
Python and numpy versions, numpy's CPU dispatch (the data
``numpy.show_runtime()`` prints) and the C library. Run from the
repository root, after a change that moves output bits on purpose:

    PYTHONPATH=src python tests/golden/regen.py

It prints the name of each file whose bytes changed (or that is new) and
the count of files that kept their bytes.
"""

import json
import math
import platform
import sys
from pathlib import Path

import numpy as np

from qquench import (
    WAVEFORM_NAMES,
    BasisGrid,
    NoiseModel,
    builtin_waveform,
    depth_sweep,
    dft_post_selector,
    load_response_map,
    reconstruct_wavefunction,
    save_reconstruction,
    save_response_map,
    save_sweep_fidelity,
    save_sweep_map,
    scan,
    uniform_post_selector,
)
from qquench.cli import DEFAULT_SIGMA, DEFAULT_SWEEP_DEPTHS

BINS = 20
SEED = 2019
SWEEP_SEEDS = 4
SELECTORS = {"uniform": uniform_post_selector, "dft3": lambda grid: dft_post_selector(grid, 3)}
# (file tag, depth, trials) of each scan
SCANS = (("pi2_T1", math.pi / 2, 1), ("3pi8_T16", 3 * math.pi / 8, 16))
FOLDER = Path(__file__).resolve().parent
MANIFEST = "manifest.json"


def environment() -> dict:
    """What the bits of the set depend on besides the code."""
    try:
        from numpy._core._multiarray_umath import (
            __cpu_baseline__, __cpu_dispatch__, __cpu_features__)
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import (
            __cpu_baseline__, __cpu_dispatch__, __cpu_features__)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "libc": "-".join(platform.libc_ver()),
        "simd_baseline": list(__cpu_baseline__),
        "simd_found": [name for name in __cpu_dispatch__ if __cpu_features__[name]],
    }


def generate(folder: Path) -> list:
    """Write the set into ``folder`` and return the file names, sorted."""
    grid = BasisGrid(size=BINS)
    names = []

    def path(name):
        names.append(name)
        return folder / name

    for wave in WAVEFORM_NAMES:
        state = builtin_waveform(wave, grid)
        for sel_tag, make_selector in SELECTORS.items():
            selector = make_selector(grid)
            overlaps = None if sel_tag == "uniform" else selector.overlaps
            stem = f"{wave}_{sel_tag}"
            for scan_tag, theta, trials in SCANS:
                noise = NoiseModel(relative_sigma=DEFAULT_SIGMA, seed=SEED, trials=trials)
                rmap = scan(state, selector, (theta, -theta), noise)
                for fmt in ("csv", "json"):
                    map_path = path(f"{stem}_{scan_tag}_map.{fmt}")
                    save_response_map(map_path, rmap, fmt)
                    loaded = load_response_map(map_path)
                    save_reconstruction(path(f"{stem}_{scan_tag}_rec.{fmt}"),
                                        reconstruct_wavefunction(loaded, overlaps=overlaps), fmt)
            sweep = depth_sweep(state, selector, DEFAULT_SWEEP_DEPTHS,
                                NoiseModel(relative_sigma=DEFAULT_SIGMA, seed=SEED, trials=1),
                                n_seeds=SWEEP_SEEDS)
            save_sweep_fidelity(path(f"{stem}_sweep_fidelity.json"), sweep)
            save_sweep_map(path(f"{stem}_sweep_map.json"), sweep)
    return sorted(names)


def main() -> int:
    before = {path.name: path.read_bytes()
              for path in (*FOLDER.glob("*.csv"), *FOLDER.glob("*.json"))}
    names = generate(FOLDER)
    manifest = {"environment": environment(), "files": names}
    (FOLDER / MANIFEST).write_text(json.dumps(manifest, indent=2) + "\n")
    written = [*names, MANIFEST]
    moved = [name for name in written if before.get(name) != (FOLDER / name).read_bytes()]
    for name in moved:
        print(f"{'changed' if name in before else 'new'}: {name}")
    total = sum((FOLDER / name).stat().st_size for name in names)
    print(f"{len(names)} files, {total} bytes in {FOLDER}")
    print(f"{len(moved)} changed, {len(written) - len(moved)} unchanged (the manifest included)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
