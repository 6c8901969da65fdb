"""Single-bin phase quenches, post-selection probabilities and noisy scans.

The protocol: multiply exactly one bin amplitude by exp(i*theta), project the
quenched state onto the fixed post-selector, and record the relative change
of the projection probability (the response factor p = 1 - Pr/P0). A scan
does this for every bin and every requested depth under a calibrated
Gaussian noise model.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import _kernels, rng
from .errors import DegenerateBaselineError, DimensionMismatchError, NonFiniteInputError
from .states import BasisGrid, PostSelector, WavefunctionState

# Noiseless baseline below this is treated as an orthogonal post-selection.
BASELINE_FLOOR = 1e-6


@dataclass(frozen=True)
class NoiseModel:
    """Gaussian measurement noise: relative baseline fluctuation, seed, trials.

    ``relative_sigma`` is the normalized background fluctuation (std of the
    baseline over the baseline itself); the experimental floor is around
    0.002. Each probability estimate averages ``trials`` independent noisy
    reads. ``relative_sigma = 0`` disables noise entirely.
    """

    relative_sigma: float = 0.002
    seed: int = rng.DEFAULT_SEED
    trials: int = 1

    def __post_init__(self):
        if not (math.isfinite(self.relative_sigma) and self.relative_sigma >= 0):
            raise ValueError(f"relative_sigma must be >= 0, got {self.relative_sigma}")
        for name in ("seed", "trials"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        # The stream mixer masks the seed to 64 bits with Python ints; a
        # numpy signed scalar would overflow there, so store it as an int.
        object.__setattr__(self, "seed", int(self.seed))
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")

    @property
    def noiseless(self) -> bool:
        return self.relative_sigma == 0.0


@dataclass(frozen=True, eq=False)
class ResponseMap:
    """A scan's measurements as (n_bins, n_depths) arrays over one baseline.

    ``pr[n, d]`` is the probability measured after quenching bin ``n`` by
    ``depths[d]``, over the one baseline ``p0``; ``p = 1 - pr / p0`` is derived.
    ``meta`` says how the map was made: :func:`scan` records the selector label,
    seed, sigma, trials and, if noisy, ``p0_direct`` (the direct baseline
    read); a map loaded from JSON also holds the version that wrote it.
    """

    grid: BasisGrid
    depths: tuple
    pr: np.ndarray
    p0: float
    meta: dict = field(default_factory=dict)
    p: np.ndarray = field(init=False)

    def __post_init__(self):
        depths, p0 = tuple(float(t) for t in self.depths), float(self.p0)
        pr = np.array(self.pr, dtype=np.float64, copy=True)
        shape = (self.grid.size, len(depths))
        if pr.shape != shape:
            raise ValueError(f"pr has shape {pr.shape}, (bins, depths) is {shape}")
        if not p0 > BASELINE_FLOOR:
            raise DegenerateBaselineError(f"P0={p0:.3e} at or below floor {BASELINE_FLOOR:.0e}")
        with np.errstate(over="ignore"):  # |pr/p0| may overflow, leaving p non-finite
            p = 1.0 - pr / p0
        pr.setflags(write=False)
        p.setflags(write=False)
        for name, value in (("depths", depths), ("pr", pr), ("p0", p0), ("p", p)):
            if not np.all(np.isfinite(value)):
                raise NonFiniteInputError(f"response map {name} holds NaN or Infinity")
            object.__setattr__(self, name, value)
        object.__setattr__(self, "meta", dict(self.meta))

    @property
    def baseline_p0(self) -> float:
        return self.p0

    def response_matrix(self) -> np.ndarray:
        """Response factors p as an (n_bins, n_depths) array."""
        return self.p.copy()

    def measured_matrix(self) -> np.ndarray:
        """Measured probabilities Pr as an (n_bins, n_depths) array."""
        return self.pr.copy()


def _per_depth(thetas, *fns):
    """Each ``math`` function in ``fns`` at every entry of ``thetas``, evaluated
    once per distinct depth: a numpy ufunc could differ from libm by an ulp."""
    values = sorted(set(np.ravel(thetas).tolist()))
    index = np.array(values).searchsorted(thetas)
    return tuple(np.array([fn(t) for t in values])[index] for fn in fns)


def _sum_rule_baseline(pr, thetas, direct):
    """Each row's baseline from the sum rule of a flat selector (README,
    "Baseline from the sum rule"), or its ``direct`` read where that is the
    better estimate: P0 = (sum of all reads - sum_d h_d / N) / sum_d (N - h_d)
    with h = 2 (1 - cos theta), for ``pr`` of shape (S, N, D) and each row's
    depths ``thetas`` (S, D). The direct read stays where sum_d (N - h_d) <= sqrt(N D)."""
    n, n_depths = pr.shape[-2:]
    # a row's depth sums are added in order of its depth values: reordering changes no bit
    order = np.argsort(thetas, axis=-1, kind="stable")
    h = 2.0 * (1.0 - _per_depth(np.sort(thetas, axis=-1), math.cos)[0].T)
    sums = np.stack([pr[..., d].sum(axis=-1) for d in range(n_depths)])
    total = sum(sums[order.T, np.arange(len(order))])
    weight = sum(n - h)
    return np.divide(total - sum(h) / n, weight, out=np.array(direct, dtype=np.float64),
                     where=weight > math.sqrt(n * n_depths))


def _true_response(state: WavefunctionState, selector: PostSelector, depths):
    """A scan's depths, exact baseline P0 and (n_bins, n_depths) Pr; raises for bad inputs."""
    if state.grid != selector.grid:
        raise DimensionMismatchError(f"grids differ: {state.grid} vs {selector.grid}")
    thetas = np.asarray(depths, dtype=np.float64)
    if thetas.ndim != 1 or thetas.size == 0:
        raise ValueError("need at least one quench depth")
    for theta in thetas.tolist():
        if not math.isfinite(theta):
            raise ValueError(f"quench depth must be finite, got {theta}")
        if theta == 0.0:
            raise ValueError("depth 0 is the baseline; scan depths must be nonzero")
    p0_true, pr_true = _kernels.true_probabilities(state.amplitudes, selector.overlaps, thetas)
    if p0_true <= BASELINE_FLOOR:
        raise DegenerateBaselineError(
            f"post-selector {selector.label!r} is (nearly) orthogonal to the state: "
            f"P0={p0_true:.3e} at or below floor {BASELINE_FLOOR:.0e}"
        )
    return thetas, p0_true, pr_true


def measure_seeds(selector: PostSelector, p0_true: float, pr_true, thetas,
                  noise: NoiseModel, seeds):
    """Measure one scan per row, as one block: row ``s`` reads the exact
    ``pr_true[s]`` (n_bins, n_depths) of its depths ``thetas[s]`` with seed ``seeds[s]``.

    Returns the baselines ``p0`` (S,), probabilities ``pr`` and response
    factors ``p`` (S, n_bins, n_depths), and the direct baseline reads (S,).
    A row holds the bits of a scan with its own seed, as a draw depends only
    on (seed, bin, depth, trial). A noisy ``p0`` is :func:`_sum_rule_baseline`'s.
    """
    p0 = p0_read = np.full(len(seeds), p0_true)
    pr = pr_true
    if not noise.noiseless:
        sigma_abs = noise.relative_sigma * p0_true
        # stream_key(seed, BASELINE_BIN, 0.0) of every seed
        baseline_keys = rng.derive_keys(seeds, rng.BASELINE_BIN + 1, rng.float_tag(0.0))
        p0 = p0_read = _kernels.noisy_mean_matrix(p0, sigma_abs, noise.trials, baseline_keys)
        keys = rng.key_matrix(seeds, pr_true.shape[-2], thetas)
        pr = _kernels.noisy_mean_matrix(pr_true, sigma_abs, noise.trials, keys)
        if selector.flat:
            p0 = _sum_rule_baseline(pr, thetas, p0_read)

    if np.any(p0 <= BASELINE_FLOOR):
        raise DegenerateBaselineError(
            f"measured baseline P0={p0.min():.3e} at or below floor {BASELINE_FLOOR:.0e} "
            f"(selector {selector.label!r})"
        )
    return p0, pr, 1.0 - pr / p0[:, None, None], p0_read


def scan(
    state: WavefunctionState,
    selector: PostSelector,
    depths,
    noise: NoiseModel,
) -> ResponseMap:
    """Measure Pr for every bin at every depth, over one baseline P0.

    The map derives p = 1 - Pr/P0 from them; a noisy map keeps the direct
    baseline read in ``meta["p0_direct"]``. Noise draws are counter-indexed
    by (seed, bin, depth, trial), so the scan is reproducible. This is
    :func:`measure_seeds` for one row, with the seed ``noise.seed``.
    """
    depths = tuple(float(t) for t in depths)
    thetas, p0_true, pr_true = _true_response(state, selector, depths)
    p0, pr, _, p0_read = measure_seeds(selector, p0_true, pr_true[None], thetas[None], noise,
                                       [noise.seed])
    meta = {"selector": selector.label, "seed": noise.seed,
            "sigma": float(noise.relative_sigma), "trials": int(noise.trials)}
    if not noise.noiseless:
        meta["p0_direct"] = float(p0_read[0])
    return ResponseMap(grid=state.grid, depths=depths, pr=pr[0], p0=p0[0], meta=meta)
