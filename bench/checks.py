"""Checks on vcterm's command outputs that need no stored reference output.

Each check returns a list of problems; an empty list means the output
passed. The fit check recomputes the estimate by dense weighted least
squares over every complete-case row, with the kernel written out here
rather than taken from vcterm.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

# vcterm.fit documents these as the only statuses besides "ok"
FAILED_STATUSES = ("singular", "empty_support")
# vcterm.bandwidth: a bandwidth whose held-out observations lose their fit
# more often than this is scored +inf (printed as an empty score)
MAX_EXCLUDED_FRACTION = 0.1
FIT_TOLERANCE = 1e-9


def complete_case_arrays(dataset):
    """(t, s, X, y) over complete-case visits, s being the time to the event."""
    cc = [s for s in dataset.subjects if s.event_observed]
    t = np.concatenate([s.times for s in cc])
    s_axis = np.concatenate([s.followup_end - s.times for s in cc])
    X = np.vstack([s.covariates for s in cc])
    y = np.concatenate([s.responses for s in cc])
    return t, s_axis, X, y


def dense_wls(arrays, t0, s0, h, radius):
    """Kernel-weighted least squares at (t0, s0) using every row.

    The truncated normal weight exp(-r^2/2) on r <= radius is used without
    its constant factors, which cancel from the estimate.
    """
    t, s_axis, X, y = arrays
    rsq = ((t - t0) / h) ** 2 + ((s_axis - s0) / h) ** 2
    w = np.where(rsq <= radius * radius, np.exp(-0.5 * rsq), 0.0)
    Xw = X * w[:, None]
    return np.linalg.solve(Xw.T @ X, Xw.T @ y)


def _finite(*values):
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def check_fit(stdout, arrays, t0, s0, h, radius):
    payload = json.loads(stdout)
    rows = payload["rows"]
    if payload["meta"].get("status") != "ok":
        return [f"fit status {payload['meta'].get('status')!r}"]
    beta = dense_wls(arrays, t0, s0, h, radius)
    if len(rows) != beta.size:
        return [f"fit printed {len(rows)} coefficients, expected {beta.size}"]
    problems = []
    for row, ref in zip(rows, beta):
        est, se, lo, hi = row["estimate"], row["se"], row["lower"], row["upper"]
        if not _finite(est, se, lo, hi) or not lo <= est <= hi:
            problems.append(f"fit coef {row['coef']}: bad row {row}")
        elif abs(est - ref) > FIT_TOLERANCE * max(1.0, abs(ref)):
            problems.append(f"fit coef {row['coef']}: {est!r} but dense WLS gives {ref!r}")
    return problems


def check_slice(stdout, slice_T, t_step, p):
    rows = json.loads(stdout)["rows"]
    expected = sum(int(math.floor((T - 1e-9) / t_step)) for T in slice_T) * p
    problems = [] if len(rows) == expected else [
        f"slice printed {len(rows)} rows, expected {expected}"]
    for row in rows:
        values = (row["estimate"], row["se"], row["lower"], row["upper"])
        if row["status"] == "ok":
            if not _finite(*values):
                problems.append(f"slice row not finite: {row}")
        elif row["status"] not in FAILED_STATUSES or any(v is not None for v in values):
            problems.append(f"slice row with undocumented status: {row}")
    return problems


def check_cv(stdout, h_grid):
    payload = json.loads(stdout)
    rows = payload["rows"]
    problems = []
    if [row["h"] for row in rows] != list(h_grid):
        problems.append(f"cv rows cover {[row['h'] for row in rows]}, expected {list(h_grid)}")
    for row in rows:
        excluded = row["excluded_fraction"]
        if not (_finite(excluded) and 0.0 <= excluded <= 1.0):
            problems.append(f"cv row with bad excluded_fraction: {row}")
        elif row["score"] is None:
            if excluded <= MAX_EXCLUDED_FRACTION:
                problems.append(f"cv score missing at a feasible bandwidth: {row}")
        elif not (_finite(row["score"]) and row["score"] >= 0.0):
            problems.append(f"cv score not finite: {row}")
    if float(payload["meta"]["h_selected"]) not in h_grid:
        problems.append(f"h_selected {payload['meta']['h_selected']} is not in the grid")
    return problems


def check_study_pair(dir_a, dir_b):
    """Artifacts of the same study at two worker counts must match byte for byte."""
    names = sorted(os.listdir(dir_a))
    if names != sorted(os.listdir(dir_b)):
        return [f"study artifact lists differ: {names} vs {sorted(os.listdir(dir_b))}"]
    problems = []
    for name in names:
        with open(os.path.join(dir_a, name), "rb") as fa, \
                open(os.path.join(dir_b, name), "rb") as fb:
            if fa.read() != fb.read():
                problems.append(f"study artifact {name} differs between worker counts")
    if "metadata.json" not in names:
        problems.append("study wrote no metadata.json")
    return problems


def pair_counts(arrays, h, radius, kernel_eval, kernel, chunk=64):
    """(band pairs, disk pairs) examined by a full residual pass at h.

    For every complete-case visit as a target, the band holds the visits
    within radius * h in visit time, the window vcterm scans; the disk holds
    those with a nonzero kernel weight. Self pairs are included.
    """
    t, s_axis, _, _ = arrays
    order = np.argsort(t, kind="stable")
    t, s_axis = t[order], s_axis[order]
    reach = radius * h
    lo = np.searchsorted(t, t - reach, side="left")
    hi = np.searchsorted(t, t + reach, side="right")
    band = int(np.sum(hi - lo))
    disk = 0
    for a in range(0, t.size, chunk):
        b = min(a + chunk, t.size)
        w0, w1 = int(lo[a:b].min()), int(hi[a:b].max())
        cols = np.arange(w0, w1)
        in_band = (cols >= lo[a:b, None]) & (cols < hi[a:b, None])
        u = (t[w0:w1] - t[a:b, None]) / h
        v = (s_axis[w0:w1] - s_axis[a:b, None]) / h
        disk += int(np.count_nonzero(in_band & (kernel_eval(kernel, u, v) > 0.0)))
    return band, disk
