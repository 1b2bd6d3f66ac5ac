"""Batched local weighted least squares on a fixed (t, s) cell lattice.

Every fit is a batch of targets (t0, s0) handed to `solve`, weighed by the
estimator's one kernel, DEFAULT_KERNEL. Observations sit in square cells of
side reach = truncation_radius * h, so each kernel disk lies in the 3 x 3
cells around its target's cell (the fixed-radius near-neighbour cell list of
Bentley, Stanat & Williams, 1977). One vectorised search per pass finds each
target cell's candidates, and the cells go in batches of about BATCH
candidates, whose coordinates and features are gathered once. Per cell, the
targets go in slabs of at most 2 * CHUNK. A slab's offsets (and in a CV pass
its fold differences) are one matrix product per plane that gives the bits of
np.subtract (see _offset_factors); one kernel evaluation turns them into a
slab x candidates weight block W in place, in a buffer reused over the pass,
and the disk mask it leaves counts each target's weights. W, the kernel's shape
exp(-r^2/2) 1{r <= R}, is h^-2 K up to a factor that cancels in every fit. W then
multiplies the stacked features [vec(x x'), x y] of the cell's candidates CHUNK
rows at a time, a partial last chunk zero-padded to CHUNK rows. The fixed GEMM height
and per-cell candidate sets keep each target's bits independent of the batch.
`held_out` fits each visit without its CV fold's subjects, in one masked pass or one
pass per fold, whichever form _per_fold expects to be cheaper.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .data import Dataset
from .kernel import DEFAULT_KERNEL, _weigh

STATUS_OK = "ok"
STATUS_SINGULAR = "singular"
STATUS_EMPTY = "empty_support"
STATUSES = (STATUS_OK, STATUS_SINGULAR, STATUS_EMPTY)  # indexed by status code

# reciprocal condition number below which a local Gram matrix is singular
RCOND_MIN = 1e-12

CHUNK = 8  # rows per GEMM
BATCH = 512  # candidates gathered at once, a bound on a pass's working arrays


class View:
    """Complete-case observations sorted by visit time, with stacked features F, of the
    subjects where the mask `subjects` is True (all if None; row still indexes dataset).
    A copy of the Dataset columns, built afresh by each fit or CV call."""

    def __init__(self, dataset: Dataset, subjects=None):
        cc = dataset.event_observed if subjects is None else dataset.event_observed & subjects
        p = self.p = dataset.p
        self.n_subjects = int(np.count_nonzero(cc))
        rows, counts = np.repeat(cc, dataset.counts), dataset.counts[cc]
        t = dataset.times[rows]
        order = np.argsort(t, kind="stable")
        self.t, self.n_obs = t[order], t.size
        self.row = np.flatnonzero(rows)[order]  # each observation's Dataset row
        # residual lifetime at each visit; followup_end is the event time here
        self.s = np.repeat(dataset.followup_end[cc], counts)[order] - self.t
        self.X = dataset.covariates[rows][order]
        self.y = dataset.responses[rows][order]
        self.subj = np.repeat(np.arange(self.n_subjects), counts)[order]
        with np.errstate(over="ignore"):  # an infinite feature fails solve's moment check
            outer = self.X[:, :, None] * self.X[:, None, :]
            self.F = np.hstack([outer.reshape(-1, p * p), self.X * self.y[:, None]])


# per target: beta (NaN unless ok), n_eff, status code into STATUSES, and the
# ascending eigenvalues and eigenvectors of the Gram matrix
Solution = namedtuple("Solution", "beta n_eff status evals evecs")


def _cells(view: View, h: float):
    """(lo_t, lo_s, side, nt, ns, keys): the lattice origin, cell side and cells per axis at
    h, and each observation's cell key. The side is a hair over reach, so rounding cannot put
    a disk point two cells away, and at least the data's span / 2**20, so no key overflows."""
    lo_t, lo_s = view.t.min(), view.s.min()
    side = (1.0 + 1e-6) * max(DEFAULT_KERNEL.truncation_radius * h,
                              max(np.ptp(view.t), np.ptp(view.s)) / 2**20)
    ci = np.floor((view.t - lo_t) / side).astype(np.intp)
    cj = np.floor((view.s - lo_s) / side).astype(np.intp)
    nt, ns = int(ci.max()) + 1, int(cj.max()) + 1
    return lo_t, lo_s, side, nt, ns, ci * ns + cj


def _lattice(view: View, t0, s0, h: float):
    """(order, by_cell, first, starts, n): the targets by_cell[first[g]:first[g + 1]]
    share lattice cell g, whose candidates are the observations order[starts[g, d]:
    starts[g, d] + n[g, d]] of strips d = 0, 1, 2 of its 3 x 3 neighbourhood."""
    lo_t, lo_s, side, nt, ns, keys = _cells(view, h)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    # target cells beyond the data are clipped to one with no data neighbours
    a = np.clip(np.floor((t0 - lo_t) / side), -2, nt + 1).astype(np.intp)
    b = np.clip(np.floor((s0 - lo_s) / side), -2, ns + 1).astype(np.intp)
    tkeys = (a + 2) * (ns + 4) + (b + 2)
    by_cell = np.argsort(tkeys, kind="stable")
    first = np.flatnonzero(np.r_[True, np.diff(tkeys[by_cell]) != 0])
    head = by_cell[first]
    strip = (a[head, None] + np.arange(-1, 2)) * ns  # a strip outside the lattice holds no keys
    starts = np.searchsorted(keys, strip + np.maximum(b[head, None] - 1, 0))
    ends = np.searchsorted(keys, strip + np.minimum(b[head, None] + 1, ns - 1), side="right")
    return order, by_cell, np.r_[first, t0.size], starts, ends - starts


def _offset_factors(x0, xc):
    """(A, B) with A[q, i] = [1, -x0[q][i]] and B[q, :, c] = [xc[q][c], 1], so that
    (A @ B)[q, i, c] = xc[q][c] - x0[q][i]. Both products in an entry are exact, so
    the entry is the one rounding that np.subtract makes, up to the sign of a zero,
    and two integers below 2**53 give a zero entry only when they are equal."""
    A, B = np.ones((len(x0), len(x0[0]), 2)), np.ones((len(xc), 2, len(xc[0])))
    for q, (a, b) in enumerate(zip(x0, xc)):
        np.negative(a, out=A[q, :, 1])
        B[q, 0] = b
    return A, B


def _moments(view: View, t0, s0, h: float, fold, weights):
    """(mom, n_eff): each target's kernel-weighted feature sums W @ F and its count of
    nonzero weights. A weight is zero when fold[0][target] == fold[1][observation]."""
    mom = np.zeros((t0.size, view.F.shape[1]))
    n_eff = np.zeros(t0.size, dtype=np.intp)
    if view.n_obs == 0 or t0.size == 0:
        return mom, n_eff
    order, by_cell, first, starts, n = _lattice(view, t0, s0, h)
    # candidate k of range r is order[k + skip[r]]; cell g's run from cut[g] to cut[g + 1]
    skip = (starts - np.cumsum(n).reshape(n.shape) + n).ravel()
    cut = np.r_[0, np.cumsum(n.sum(axis=1))]
    # the cells go in batches of about BATCH candidates, whose offset factors and
    # features are gathered once
    edges = [0, *(np.flatnonzero(np.diff(cut[:-1] // BATCH)) + 1).tolist(), len(cut) - 1]
    # planes of offsets: t, s and, in a fold pass, the fold difference
    x0, xc = (t0, s0), (view.t, view.s)
    if fold is not None:
        x0, xc = x0 + (fold[0],), xc + (fold[1],)
    inv_h, slab, widest = 1.0 / h, 2 * CHUNK, int(np.diff(cut).max())
    buf, ones = np.empty(len(x0) * slab * widest), np.ones(widest)
    n, first, cut = n.ravel(), first.tolist(), cut.tolist()
    for g0, g1 in zip(edges[:-1], edges[1:]):
        lo, targets = cut[g0], by_cell[first[g0]:first[g1]]
        cand_b = order[np.arange(lo, cut[g1]) + np.repeat(skip[3 * g0:3 * g1], n[3 * g0:3 * g1])]
        A, B = _offset_factors([x[targets] for x in x0], [x[cand_b] for x in xc])
        F = view.F[cand_b]
        for g in range(g0, g1):
            i, j = cut[g] - lo, cut[g + 1] - lo
            if i == j:
                continue
            cand, Fc, Bg = cand_b[i:j], F[i:j], B[:, :, i:j]
            for k in range(first[g] - first[g0], first[g + 1] - first[g0], slab):
                rows = targets[k:k + slab]
                P = buf[:len(x0) * rows.size * cand.size].reshape(-1, rows.size, cand.size)
                np.matmul(A[:, k:k + rows.size], Bg, out=P)
                P[:2] *= inv_h
                W = _weigh(DEFAULT_KERNEL, P[0], P[1])  # P[1] is now 1.0 inside the disk
                if fold is not None:
                    keep = np.not_equal(P[2], 0.0, out=P[2])
                    W *= keep
                    P[1] *= keep
                n_eff[rows] = P[1] @ ones[:cand.size]
                if weights is not None:
                    weights.update((r, (cand[w != 0], w[w != 0])) for r, w in zip(rows, W))
                if rows.size % CHUNK:  # a partial last chunk is zero-padded to CHUNK rows
                    W = np.vstack([W, np.zeros((-rows.size % CHUNK, cand.size))])
                # one GEMM of CHUNK rows per chunk, whatever the number of chunks
                chunks = np.matmul(W.reshape(-1, CHUNK, cand.size), Fc)
                mom[rows] = chunks.reshape(-1, Fc.shape[1])[:rows.size]
    return mom, n_eff


def check_bandwidth(h: float):
    """ValueError unless h and h * h are positive and finite and h * h is a normal float,
    since the sandwich multiplies by n h^2 and the standard errors divide by it."""
    if not (h > 0 and 0 < h * h < math.inf):
        raise ValueError("bandwidth h must be positive and finite, and so must h*h")
    if not h * h >= np.finfo(float).tiny:
        raise ValueError(f"bandwidth h={h!r} is too small: h*h is below the smallest "
                         "normal float")


def solve(view: View, t0, s0, h: float, fold=None,
          weights: dict | None = None) -> Solution:
    """Local fits at all targets (t0[i], s0[i]) in one pass.

    A target is "empty_support" when fewer than p observations carry weight,
    "singular" when its Gram matrix fails the reciprocal-condition test.
    ValueError when check_bandwidth fails (h below about 1.49e-154) or a
    kernel moment overflows.
    With a weights dict, weights[i] = (idx, w) lists each supported target's nonzero weights.
    """
    t0, s0 = np.asarray(t0, dtype=float), np.asarray(s0, dtype=float)
    h = float(h)
    check_bandwidth(h)
    if not (np.isfinite(t0).all() and np.isfinite(s0).all()):
        raise ValueError("target points must be finite")
    p, B = view.p, t0.size
    # an offset or target cell that overflows lies far outside every disk and
    # weighs zero; a weight is at most 1, so only a moment sum can overflow, or be
    # NaN where a zero weight meets an infinite feature
    with np.errstate(over="ignore", invalid="ignore"):
        mom, n_eff = _moments(view, t0, s0, h, fold, weights)
    if not np.isfinite(mom).all():
        raise ValueError(f"the kernel moments overflow at bandwidth h={h!r}: the covariates "
                         "and responses are too large")
    evals, evecs = np.linalg.eigh(mom[:, :p * p].reshape(B, p, p))
    lam = evals[:, -1]
    status = np.where(n_eff < p, 2, np.where((lam > 0) & (evals[:, 0] >= RCOND_MIN * lam), 0, 1))
    ok = status == 0
    V = evecs[ok]
    c = np.matmul(V.transpose(0, 2, 1), mom[ok, p * p:, None])[..., 0] / evals[ok]
    beta = np.full((B, p), np.nan)
    beta[ok] = np.matmul(V, c[..., None])[..., 0]
    return Solution(beta, n_eff, status, evals, evecs)


def _per_fold(view: View, h: float, k: int) -> bool:
    """The CV form at h with k folds: per-fold passes pay once an occupied lattice cell
    holds CHUNK * k**2 observations on average (a rule with measured misses, see README)."""
    keys = np.sort(_cells(view, h)[-1])
    return view.n_obs / (1 + np.count_nonzero(np.diff(keys))) >= CHUNK * k * k


def held_out(data: Dataset, view: View, folds, h: float):
    """(beta, status) at every observation of view = View(data) from a fit without its own
    fold's subjects; folds holds one fold per subject in data.ids order. One pass zeroes
    same-fold weights or, where _per_fold says so, one pass per fold runs against the View
    of the other folds' subjects, which evaluates no same-fold pair."""
    obs_fold = folds[data.event_observed][view.subj]
    fold_ids = set(obs_fold.tolist())  # every subject has a visit, so every fold is here
    if not _per_fold(view, h, len(fold_ids)):
        sol = solve(view, view.t, view.s, h, fold=(obs_fold, obs_fold))
        return sol.beta, sol.status
    beta, status = np.full((view.n_obs, view.p), np.nan), np.zeros(view.n_obs, dtype=np.intp)
    for f in fold_ids:
        own = obs_fold == f
        sol = solve(View(data, folds != f), view.t[own], view.s[own], h)
        beta[own], status[own] = sol.beta, sol.status
    return beta, status
