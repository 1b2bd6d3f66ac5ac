"""Batched local weighted least squares on a fixed (t, s) cell lattice.

Every fit is a batch of targets (t0, s0) handed to `solve`. Observations sit
in square cells of side reach = truncation_radius * h, so each kernel disk
lies in the 3 x 3 cells around its target's cell (the fixed-radius
near-neighbour cell list of Bentley, Stanat & Williams, 1977). Per cell, the
targets go in slabs of at most 2 * CHUNK: one kernel evaluation per slab
fills a slab x candidates weight block W in place, in two buffers reused
across the cell's slabs. W then multiplies the stacked features
[vec(x x'), x y] of the cell's candidates CHUNK rows at a time, a partial
last chunk zero-padded to CHUNK rows. The fixed GEMM height and per-cell
candidate sets keep each target's bits independent of the batch.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .data import Dataset
from .kernel import _TWO_PI, Kernel, _weigh

STATUS_OK = "ok"
STATUS_SINGULAR = "singular"
STATUS_EMPTY = "empty_support"
STATUSES = (STATUS_OK, STATUS_SINGULAR, STATUS_EMPTY)  # indexed by status code

# reciprocal condition number below which a local Gram matrix is singular
RCOND_MIN = 1e-12

CHUNK = 8  # rows per GEMM


class View:
    """Complete-case observations sorted by visit time, with stacked features F.
    A copy of the Dataset columns, built afresh by each fit or CV call."""

    def __init__(self, dataset: Dataset):
        cc = dataset.event_observed
        p = self.p = dataset.p
        self.n_subjects = int(np.count_nonzero(cc))
        self.subject_ids = tuple(i for i, e in zip(dataset.ids, cc) if e)
        rows, counts = np.repeat(cc, dataset.counts), dataset.counts[cc]
        t = dataset.times[rows]
        order = np.argsort(t, kind="stable")
        self.t, self.n_obs = t[order], t.size
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


def _blocks(view: View, t0, s0, h: float, kernel: Kernel, fold):
    """Yield (rows, cand, W, F[cand]) per slab; W[r, c] weighs observation cand[c]
    at target rows[r], and is zero when fold[0][rows[r]] == fold[1][cand[c]].
    W lives in a buffer that the next slab overwrites."""
    if view.n_obs == 0:
        return
    lo_t, lo_s = view.t.min(), view.s.min()
    # a hair wider than reach, so rounding cannot put a disk point two cells
    # away; at most 2**20 cells per axis, so a tiny h cannot overflow the keys
    side = (1.0 + 1e-6) * max(kernel.truncation_radius * h,
                              max(np.ptp(view.t), np.ptp(view.s)) / 2**20)
    ci = np.floor((view.t - lo_t) / side).astype(np.intp)
    cj = np.floor((view.s - lo_s) / side).astype(np.intp)
    nt, ns = int(ci.max()) + 1, int(cj.max()) + 1
    keys = ci * ns + cj
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    # target cells beyond the data are clipped to one with no data neighbours
    a = np.clip(np.floor((t0 - lo_t) / side), -2, nt + 1).astype(np.intp)
    b = np.clip(np.floor((s0 - lo_s) / side), -2, ns + 1).astype(np.intp)
    tkeys = (a + 2) * (ns + 4) + (b + 2)
    by_cell = np.argsort(tkeys, kind="stable")
    hh, slab = h * h, 2 * CHUNK
    for group in np.split(by_cell, np.flatnonzero(np.diff(tkeys[by_cell])) + 1):
        ga, gb = a[group[0]], b[group[0]]
        rows3 = np.arange(max(ga - 1, 0), min(ga + 1, nt - 1) + 1) * ns
        lo, hi = max(gb - 1, 0), min(gb + 1, ns - 1)
        starts = np.searchsorted(keys, rows3 + lo, side="left")
        ends = np.searchsorted(keys, rows3 + hi, side="right")
        cand = np.concatenate([order[i:j] for i, j in zip(starts, ends)] or [order[:0]])
        if cand.size == 0:
            continue
        tc, sc, Fc = view.t[cand], view.s[cand], view.F[cand]
        fc = None if fold is None else fold[1][cand]
        ubuf, vbuf = np.empty((2, min(group.size, slab), cand.size))
        for k in range(0, group.size, slab):
            rows = group[k:k + slab]
            u, v = ubuf[:rows.size], vbuf[:rows.size]
            np.subtract(tc, t0[rows, None], out=u)
            u /= h
            np.subtract(sc, s0[rows, None], out=v)
            v /= h
            W = _weigh(kernel, u, v)
            W /= hh
            if fc is not None:
                W *= np.not_equal(fold[0][rows, None], fc, out=v)
            yield rows, cand, W, Fc


def check_bandwidth(h: float, kernel: Kernel):
    """ValueError unless h, h * h and the largest weight K(0, 0) / h^2 are positive
    and finite (W divides by h * h)."""
    if not (h > 0 and 0 < h * h < math.inf):
        raise ValueError("bandwidth h must be positive and finite, and so must h*h")
    if not kernel.normalizer / _TWO_PI / (h * h) < math.inf:
        raise ValueError(f"bandwidth h={h!r} is too small: the kernel weight K(0, 0) / h^2 "
                         "overflows")


def solve(view: View, t0, s0, h: float, kernel: Kernel, fold=None,
          weights: dict | None = None) -> Solution:
    """Local fits at all targets (t0[i], s0[i]) in one pass.

    A target is "empty_support" when fewer than p observations carry weight,
    "singular" when its Gram matrix fails the reciprocal-condition test.
    ValueError when check_bandwidth fails (with the default kernel, h below
    about 3.05e-155) or a kernel moment overflows.
    With a weights dict, weights[i] = (idx, w) lists each supported target's nonzero weights.
    """
    t0, s0 = np.asarray(t0, dtype=float), np.asarray(s0, dtype=float)
    h = float(h)
    check_bandwidth(h, kernel)
    if not (np.isfinite(t0).all() and np.isfinite(s0).all()):
        raise ValueError("target points must be finite")
    p, B = view.p, t0.size
    mom = np.zeros((B, p * p + p))
    n_eff = np.zeros(B, dtype=np.intp)
    # an offset or target cell that overflows lies far outside every disk and
    # weighs zero; past check_bandwidth, only a moment sum can overflow, or be
    # NaN where a zero weight meets an infinite feature
    with np.errstate(over="ignore", invalid="ignore"):
        for rows, cand, W, Fc in _blocks(view, t0, s0, h, kernel, fold):
            for k in range(0, rows.size, CHUNK):
                block = W[k:k + CHUNK]
                if block.shape[0] < CHUNK:
                    block = np.zeros((CHUNK, cand.size))
                    block[:rows.size - k] = W[k:]
                mom[rows[k:k + CHUNK]] = (block @ Fc)[:rows.size - k]
            n_eff[rows] = np.count_nonzero(W, axis=1)
            if weights is not None:
                weights.update((r, (cand[w != 0], w[w != 0])) for r, w in zip(rows, W))
    if not np.isfinite(mom).all():
        raise ValueError(f"the kernel moments overflow at bandwidth h={h!r}: h is too small "
                         "or the covariates and responses too large")
    evals, evecs = np.linalg.eigh(mom[:, :p * p].reshape(B, p, p))
    lam = evals[:, -1]
    status = np.where(n_eff < p, 2, np.where((lam > 0) & (evals[:, 0] >= RCOND_MIN * lam), 0, 1))
    ok = status == 0
    V = evecs[ok]
    c = np.matmul(V.transpose(0, 2, 1), mom[ok, p * p:, None])[..., 0] / evals[ok]
    beta = np.full((B, p), np.nan)
    beta[ok] = np.matmul(V, c[..., None])[..., 0]
    return Solution(beta, n_eff, status, evals, evecs)
