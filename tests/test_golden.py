"""The golden output set in tests/golden: regenerated here, it must match.

Where the environment equals the one the manifest records, every file must
be byte-equal. Elsewhere (another CPU dispatch, numpy or C library) a
last-ulp difference in a log or exp may reach the outputs, so there every
boolean and integer must be equal and every float within the tolerance
below.
"""

import json
import math

from golden import regen

# Measured by regenerating the set with numpy's AVX512 kernels disabled
# (NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"; numpy 2.4.6 on
# x86_64): 910 of 9,624 floats moved, by at most 1.15e-13 absolute (a raw
# re of 0.016 under a dft:3 selector), and values above 1 by at most
# 4.5e-16 relative; no boolean moved. The bounds leave about 100x headroom
# on the first and 2,000x on the second.
FLOAT_ATOL = 1e-11
FLOAT_RTOL = 1e-12


def _close(path, got, want):
    assert math.isclose(got, want, rel_tol=FLOAT_RTOL, abs_tol=FLOAT_ATOL), \
        f"{path}: {got!r} differs from the golden {want!r}"


def _csv_cells(text):
    return [line.split(",") for line in text.splitlines()]


def _compare_csv(name, got, want):
    got, want = _csv_cells(got), _csv_cells(want)
    assert got[0] == want[0] and len(got) == len(want), name
    for row, (a_row, b_row) in enumerate(zip(got[1:], want[1:]), start=1):
        assert len(a_row) == len(b_row), f"{name} row {row}"
        for a, b in zip(a_row, b_row):
            if b in ("true", "false"):
                assert a == b, f"{name} row {row}: {a} != {b}"
            else:
                _close(f"{name} row {row}", float(a), float(b))


def _compare_json(where, got, want):
    if isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), where
        for key in want:
            _compare_json(f"{where}.{key}", got[key], want[key])
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (a, b) in enumerate(zip(got, want)):
            _compare_json(f"{where}[{i}]", a, b)
    elif isinstance(want, (bool, str, int)):
        assert got == want and type(got) is type(want), f"{where}: {got!r} != {want!r}"
    else:
        _close(where, float(got), float(want))


def test_golden_outputs_are_reproduced(tmp_path):
    manifest = json.loads((regen.FOLDER / regen.MANIFEST).read_text())
    names = regen.generate(tmp_path)
    assert names == manifest["files"]
    if regen.environment() == manifest["environment"]:
        for name in names:
            assert (tmp_path / name).read_bytes() == (regen.FOLDER / name).read_bytes(), name
        return
    for name in names:
        got = (tmp_path / name).read_text(encoding="utf-8")
        want = (regen.FOLDER / name).read_text(encoding="utf-8")
        if name.endswith(".csv"):
            _compare_csv(name, got, want)
        else:
            _compare_json(name, json.loads(got), json.loads(want))
