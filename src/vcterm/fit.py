"""Local weighted least squares on the (visit time, time-to-event) plane.

For a target point (t0, s0) the estimate solves

    beta_hat = (sum_i Xi' Ki Xi)^{-1} (sum_i Xi' Ki Yi)

over complete-case subjects, where Ki is diagonal with entries
h^{-2} K((tau_ij - t0)/h, (Ti - tau_ij - s0)/h). The sandwich variance
follows the moment-based plug-in form with per-subject score vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .data import Dataset
from .engine import STATUS_EMPTY, STATUS_OK, STATUS_SINGULAR, STATUSES, View, solve  # noqa: F401
from .errors import NumericalError

_TINY = np.finfo(float).tiny  # a score Gram diagonal below this has underflowed
SANDWICH_CHUNK = 16  # points per batched score sum; bounds its arrays for any grid


class FitError(NumericalError):
    """A pointwise fit could not be produced (no support or singular Gram)."""

    def __init__(self, status: str, n_eff: int):
        super().__init__(f"local fit failed: {status} (n_eff={n_eff})")
        self.status = status
        self.n_eff = n_eff


@dataclass
class FitPoint:
    t0: float
    s0: float
    h: float
    beta_hat: np.ndarray | None
    v_hat: np.ndarray | None
    n_eff: int
    status: str
    n_cc: int  # complete-case subjects, the n of the sandwich and the intervals


@dataclass
class ResidualTable:
    """Residuals at a fixed bandwidth, one per Dataset row, in the Dataset's row order.

    Rows of censored subjects and rows whose own local fit failed are invalid and NaN.
    """

    resid: np.ndarray
    valid: np.ndarray


def _residuals(view: View, h: float, rows: np.ndarray):
    """(resid, valid) over all observations: NaN unless in the sorted rows with an ok own fit."""
    sol = solve(view, view.t[rows], view.s[rows], h)
    return _residuals_from(view, rows, sol.beta, sol.status)


def _residuals_from(view: View, rows: np.ndarray, beta, status):
    """(resid, valid) over all observations: y - x'beta[i] at sorted rows[i] if status[i] is ok."""
    ok = status == 0
    valid = np.zeros(view.n_obs, dtype=bool)
    valid[rows[ok]] = True
    fitted = np.matmul(view.X[valid, None, :], beta[ok, :, None])[:, 0, 0]
    resid = np.full(view.n_obs, np.nan)
    resid[valid] = view.y[valid] - fitted
    return resid, valid


def _fit_points(data: Dataset, points, h: float) -> list[FitPoint]:
    """One engine pass over the points, with the sandwich variance of each ok point;
    its residual pass covers only the observations that ok points weigh."""
    view = View(data)
    t0, s0 = np.array(points, dtype=float).reshape(-1, 2).T
    weights = {}
    sol = solve(view, t0, s0, h, weights=weights)
    h = float(h)
    ok = sol.status == 0
    n, p = view.n_subjects, view.p
    out = [FitPoint(float(t0[i]), float(s0[i]), h, sol.beta[i] if ok[i] else None,
                    None, int(sol.n_eff[i]), STATUSES[status], n)
           for i, status in enumerate(sol.status)]
    if not ok.any():
        return out
    fits = np.flatnonzero(ok).tolist()
    need = np.zeros(view.n_obs, dtype=bool)
    need[np.concatenate([weights[i][0] for i in fits])] = True
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite V raises below
        resid, valid = _residuals(view, h, np.flatnonzero(need))
        eps = np.where(valid, resid, 0.0)
        for lo in range(0, len(fits), SANDWICH_CHUNK):
            chunk = fits[lo:lo + SANDWICH_CHUNK]
            idx, w = (np.concatenate(part) for part in zip(*(weights[i] for i in chunk)))
            # G[c, j]: point chunk[c]'s score of subject j, summed in visit order as for c alone
            key = np.repeat(np.arange(0, len(chunk) * n, n), [weights[i][0].size for i in chunk])
            key += view.subj[idx]
            terms = (w * eps[idx])[:, None] * view.X[idx]
            G = np.stack([np.bincount(key, x, len(chunk) * n) for x in terms.T], 1)
            G = G.reshape(-1, n, p)
            M = G.transpose(0, 2, 1) @ G
            E = sol.evecs[chunk]
            A_inv = E @ (E.transpose(0, 2, 1) / sol.evals[chunk][:, :, None])
            V = n * h * h * (A_inv @ M @ A_inv)
            V = 0.5 * (V + V.transpose(0, 2, 1))
            under = ((M.diagonal(axis1=1, axis2=2) < _TINY) & G.any(axis=1)).any(axis=1)
            bad = under | ~np.isfinite(V).all(axis=(1, 2))
            if bad.any():  # the first failing point raises, underflow before overflow
                first = bad.argmax()
                if under[first]:  # a square of the largest weight that underflows blames h
                    small = ("the kernel weights" if weights[chunk[first]][1].max() ** 2 < _TINY
                             else "the residuals or covariates")
                    raise ValueError(f"the sandwich variance underflows at bandwidth h={h!r}: "
                                     f"{small} are too small")
                raise ValueError(f"the sandwich variance overflows at bandwidth h={h!r}: "
                                 "the covariates and responses are too large")
            for i, v in zip(chunk, V):
                out[i].v_hat = v
    return out


def local_fit(data: Dataset, t0: float, s0: float, h: float) -> FitPoint:
    """Pointwise estimate at (t0, s0) with its sandwich variance; never raises on thin support.

    status is "empty_support" when fewer weighted observations than
    coefficients fall in the kernel disk, "singular" when the Gram matrix
    fails the reciprocal-condition test. An ok fit carries v_hat, from the
    same solve and the residuals of the observations in its kernel disk; a
    failed one has none and skips the residual pass.
    """
    return _fit_points(data, [(t0, s0)], h)[0]


def residuals(data: Dataset, h: float) -> ResidualTable:
    """Residual of every complete-case observation against its own local fit.

    Each observation (i, j) is compared with x_ij' beta_hat(tau_ij, Ti - tau_ij)
    at the same bandwidth; row r of the table is data's row r.
    """
    view = View(data)
    table = ResidualTable(np.full(data.n_observations, np.nan),
                          np.zeros(data.n_observations, dtype=bool))
    table.resid[view.row], table.valid[view.row] = _residuals(view, h, np.arange(view.n_obs))
    return table


def sandwich_variance(data: Dataset, t0: float, s0: float, h: float) -> np.ndarray:
    """Moment-based sandwich V_hat = n h^2 A^{-1} M A^{-1} at (t0, s0), symmetrized.

    M sums outer products of per-subject scores g_i = Xi' Ki eps_i, keeping
    within-subject correlation; n counts complete-case subjects. Residuals
    come from the same bandwidth; invalid ones contribute zero to M. Raises
    FitError on empty support or a singular Gram matrix.
    """
    fp = local_fit(data, t0, s0, h)
    if fp.status != STATUS_OK:
        raise FitError(fp.status, fp.n_eff)
    return fp.v_hat


def normal_quantile(alpha: float) -> float:
    """z_{alpha/2}: interval half-width, in standard errors, at level 1 - alpha."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    if 1.0 - alpha / 2.0 == 1.0:
        raise ValueError(f"alpha={alpha!r} is too small: 1 - alpha/2 rounds to 1")
    return NormalDist().inv_cdf(1.0 - alpha / 2.0)


def confidence_interval(fit: FitPoint, alpha: float = 0.05) -> np.ndarray:
    """Pointwise normal intervals beta_k +/- z_{alpha/2} sqrt(V_kk / (n h^2)), n = fit.n_cc.

    Returns an array of (lower, upper) rows, one per coefficient.
    """
    z = normal_quantile(alpha)
    if fit.status != STATUS_OK:
        raise FitError(fit.status, fit.n_eff)
    se = standard_errors(fit)
    return np.array([fit.beta_hat - z * se, fit.beta_hat + z * se]).T


def standard_errors(fit: FitPoint) -> np.ndarray:
    """sqrt(V_kk / (n h^2)) per coefficient, n = fit.n_cc, the scale used by the intervals."""
    if fit.v_hat is None:
        raise ValueError(f"fit has no variance: its status is {fit.status!r}, not ok")
    if not fit.n_cc > 0:
        raise ValueError("n_cc must be positive")
    return _fit_arrays([fit], fit.v_hat.shape[0])[1][0]


def _fit_arrays(fits, p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(estimate, se, status) of the fits: (G, p) estimates and standard_errors, NaN
    where a fit has no beta_hat or no v_hat, and (G,) int8 codes of STATUSES."""
    est, se = np.full((2, len(fits), p), np.nan)
    beta = [g for g, fp in enumerate(fits) if fp.beta_hat is not None]
    var = [g for g, fp in enumerate(fits) if fp.v_hat is not None]
    est[beta] = np.reshape([fits[g].beta_hat for g in beta], (-1, p))
    v = np.reshape([fits[g].v_hat.diagonal() for g in var], (-1, p))
    n_h2 = np.array([fits[g].n_cc * fits[g].h * fits[g].h for g in var])
    # tiny negative diagonals are eigen-roundoff from an exact zero
    se[var] = np.sqrt(np.maximum(v, 0.0) / n_h2[:, None])
    return est, se, np.array([STATUSES.index(fp.status) for fp in fits], dtype=np.int8)


def fit_grid(data: Dataset, grid, h: float) -> list[FitPoint]:
    """Fit every (t0, s0) in the grid; per-point failures never abort the grid.

    Every ok point carries v_hat; one residual pass covers the observations
    that the ok points weigh. Results are ordered like the input grid.
    """
    points = [(float(t), float(s)) for t, s in grid]
    if not points:
        raise ValueError("grid must contain at least one point")
    return _fit_points(data, points, h)

