"""Subject-level K-fold cross-validation for bandwidth selection.

The score for a bandwidth is the mean squared prediction error over
held-out observations, each predicted from a fit on the remaining folds
at the observation's own (visit time, time-to-event) point. The selected
bandwidth is then shrunk by n^(-gamma) to undersmooth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import NumericalError
from .engine import View, check_bandwidth, held_out
from .fit import _residuals_from

DEFAULT_GAMMA = 1.0 / 20.0
DEFAULT_FOLDS = 5
# fraction of held-out observations allowed to lose their fit before a
# bandwidth is declared infeasible
MAX_EXCLUDED_FRACTION = 0.1
# octave-spaced, np.geomspace(0.5, 4, 4): CV curves for this estimator are shallow near
# the optimum, and a finer grid buys under 1% in CV score but tends to select wider
# bandwidths, whose leftover smoothing bias degrades interval calibration
DEFAULT_H_GRID = (0.5, 1.0, 2.0, 4.0)


@dataclass(frozen=True)
class CVResult:
    h_grid: tuple
    scores: tuple
    excluded_fraction: tuple
    h_selected: float
    h_undersmoothed: float
    gamma: float
    factor: float
    n_used: int
    folds: int
    seed: int


def check_folds(k: int):
    """ValueError unless k, the number of CV folds, is at least 2."""
    if k < 2:
        raise ValueError("need at least 2 folds")


def make_folds(data: Dataset, k: int, seed: int) -> np.ndarray:
    """One fold per subject, in data.ids order: a uniform random balanced partition
    of the complete-case subjects into folds 0 to k-1, and -1 for a censored one."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    cc = np.flatnonzero(data.event_observed)
    check_folds(k)
    if k > cc.size:
        raise ValueError(f"cannot make {k} folds from {cc.size} complete-case subjects")
    folds = np.full(data.n_subjects, -1)
    folds[cc[np.random.default_rng(seed).permutation(cc.size)]] = np.arange(cc.size) % k
    return folds


def cv_score(data: Dataset, folds, h: float) -> tuple[float, float]:
    """(score, excluded_fraction) for one bandwidth; folds as make_folds gives them.

    Held-out observations whose fit on the training folds fails are excluded
    from the average; if more than MAX_EXCLUDED_FRACTION are excluded the
    score is +inf. ValueError, naming h, when the squared errors overflow.
    """
    if np.shape(folds) != (data.n_subjects,):
        raise ValueError(f"folds must hold one entry per subject, not shape {np.shape(folds)}")
    view = View(data)
    if view.n_obs == 0:
        raise ValueError("no complete-case observations to cross-validate")
    h = float(h)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite score raises below
        fits = held_out(data, view, np.asarray(folds), h)
        resid, valid = _residuals_from(view, np.arange(view.n_obs), *fits)
        err = resid[valid]
        excluded_fraction = (view.n_obs - err.size) / view.n_obs
        if excluded_fraction > MAX_EXCLUDED_FRACTION or not err.size:
            return math.inf, excluded_fraction
        sq = err * err
    try:
        score = math.fsum(sq) / err.size
    except OverflowError:  # finite squares whose sum exceeds the float range
        score = math.inf
    if not math.isfinite(score):
        raise ValueError(f"the CV score overflows at bandwidth h={h!r}: "
                         "the responses are too large")
    return score, excluded_fraction


def check_gamma(gamma: float):
    """ValueError unless gamma, the undersmoothing exponent, is nonnegative and finite."""
    if not 0.0 <= gamma < math.inf:
        raise ValueError("gamma must be nonnegative and finite")


def undersmoothing_factor(n: int, gamma: float = DEFAULT_GAMMA) -> float:
    """Shrinkage n^(-gamma) applied to the selected bandwidth; always > 0."""
    if not n > 0:
        raise ValueError("n must be positive")
    check_gamma(gamma)
    factor = float(n) ** (-gamma)
    if not factor > 0:
        raise ValueError(f"gamma={gamma:g} shrinks the bandwidth to zero at n={n}")
    return factor


def candidate_grid(h_grid=None) -> tuple:
    """The candidate bandwidths as floats, DEFAULT_H_GRID for None; ValueError
    unless there is one and each passes engine.check_bandwidth."""
    grid = tuple(float(h) for h in (DEFAULT_H_GRID if h_grid is None else h_grid))
    if not grid:
        raise ValueError("h_grid must be nonempty")
    for h in grid:
        check_bandwidth(h)
    return grid


def select_bandwidth(data: Dataset, h_grid=None, k: int = DEFAULT_FOLDS,
                     seed: int = 0, gamma: float = DEFAULT_GAMMA) -> CVResult:
    """Grid-search CV; ties break to the smaller bandwidth.

    The undersmoothing factor uses the full cohort size (censored subjects
    included), matching the design the selector is calibrated for.
    """
    grid = candidate_grid(h_grid)  # every candidate is checked before the first CV pass
    folds = make_folds(data, k, seed)
    factor = undersmoothing_factor(data.n_subjects, gamma)
    pairs = [cv_score(data, folds, h) for h in grid]
    scores, excluded = map(tuple, zip(*pairs))

    best_h = None
    best_score = math.inf
    for h, score in sorted(zip(grid, scores)):
        if math.isfinite(score) and score < best_score:
            best_h, best_score = h, score
    if best_h is None:
        raise NumericalError(
            "no feasible bandwidth: every candidate excluded more than "
            f"{MAX_EXCLUDED_FRACTION:.0%} of held-out observations"
        )
    return CVResult(h_grid=grid, scores=scores, excluded_fraction=excluded,
                    h_selected=best_h, h_undersmoothed=best_h * factor,
                    gamma=float(gamma), factor=factor, n_used=data.n_subjects,
                    folds=k, seed=int(seed))
