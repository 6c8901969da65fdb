"""Shared helpers for the test suite: random states, the independent
direct-expansion oracle the pipeline is checked against, and the per-scan
finishing and scoring formulas the block code is checked against."""

import math

import numpy as np

from qquench import (
    BasisGrid,
    ReconstructionResult,
    amplitude_nodes,
    make_state,
    phase_envelope,
)
from qquench.fidelity import resolution_floor
from qquench.reconstruct import FOLD_ATTR_ABS, FOLD_ATTR_REL, FOLD_SUM_TOL, NODE_TOL


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
