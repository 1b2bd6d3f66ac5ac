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
from .engine import View
from .fit import _residuals
from .kernel import DEFAULT_KERNEL, Kernel

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
class FoldAssignment:
    """Partition of complete-case subjects into k balanced folds."""

    k: int
    assignment: dict  # subject id -> fold index in [0, k)
    seed: int


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


def make_folds(data: Dataset, k: int, seed: int) -> FoldAssignment:
    """Uniform random balanced partition; censored subjects get no fold."""
    ids = [i for i, e in zip(data.ids, data.event_observed) if e]
    if k < 2:
        raise ValueError("need at least 2 folds")
    if k > len(ids):
        raise ValueError(f"cannot make {k} folds from {len(ids)} complete-case subjects")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(ids))
    assignment = {ids[perm[i]]: i % k for i in range(len(ids))}
    return FoldAssignment(k=k, assignment=dict(assignment), seed=int(seed))


def cv_score(data: Dataset, folds: FoldAssignment, h: float,
             kernel: Kernel = DEFAULT_KERNEL) -> tuple[float, float]:
    """(score, excluded_fraction) for one bandwidth.

    Held-out observations whose fit on the training folds fails are excluded
    from the average; if more than MAX_EXCLUDED_FRACTION are excluded the
    score is +inf. ValueError, naming h, when the squared errors overflow.
    """
    view = View(data)
    if view.n_obs == 0:
        raise ValueError("no complete-case observations to cross-validate")
    obs_fold = np.array([folds.assignment[sid] for sid in view.subject_ids])[view.subj]
    h = float(h)
    # each held-out fit weighs only the other folds' observations: a sum over
    # the training set, never the full fit minus the own fold
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite score raises below
        resid, valid = _residuals(view, h, kernel, np.arange(view.n_obs), fold=obs_fold)
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


def undersmoothing_factor(n: int, gamma: float = DEFAULT_GAMMA) -> float:
    """Shrinkage n^(-gamma) applied to the selected bandwidth; always > 0."""
    if not n > 0:
        raise ValueError("n must be positive")
    if not 0.0 <= gamma < math.inf:
        raise ValueError("gamma must be nonnegative and finite")
    factor = float(n) ** (-gamma)
    if not factor > 0:
        raise ValueError(f"gamma={gamma:g} shrinks the bandwidth to zero at n={n}")
    return factor


def select_bandwidth(data: Dataset, h_grid=None, k: int = DEFAULT_FOLDS,
                     seed: int = 0, gamma: float = DEFAULT_GAMMA,
                     kernel: Kernel = DEFAULT_KERNEL) -> CVResult:
    """Grid-search CV; ties break to the smaller bandwidth.

    The undersmoothing factor uses the full cohort size (censored subjects
    included), matching the design the selector is calibrated for.
    """
    grid = tuple(float(h) for h in (DEFAULT_H_GRID if h_grid is None else h_grid))
    if not grid:
        raise ValueError("h_grid must be nonempty")
    if any(h <= 0 for h in grid):
        raise ValueError("all candidate bandwidths must be positive")
    folds = make_folds(data, k, seed)
    factor = undersmoothing_factor(data.n_subjects, gamma)
    pairs = [cv_score(data, folds, h, kernel) for h in grid]
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
