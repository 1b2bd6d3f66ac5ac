"""Independent reference implementations used only by the tests.

Everything here takes the slow, literal route: dense per-subject weight
matrices, explicit inverses, scipy quantiles. Agreement with the library
is meaningful because the code paths share nothing.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import os
from dataclasses import asdict
from statistics import NormalDist

import numpy as np
from scipy.stats import chi2

from vcterm import svg
from vcterm.bandwidth import select_bandwidth
from vcterm.data import Dataset, Subject
from vcterm.engine import STATUSES
from vcterm.errors import DataError, NumericalError
from vcterm.experiments import GridSpec, coverage_heatmap, slice_summary, study_fingerprint
from vcterm.fit import fit_grid, local_fit
from vcterm.io import (COVARIATE_PREFIX, MAX_DIAGNOSTICS, REQUIRED_COLUMNS, IngestionReport,
                       apply_transform, fmt_cell, json_text)
from vcterm.kernel import DEFAULT_KERNEL, kernel_moments

# radius of the 95% disk of the standard bivariate normal
RADIUS_SQ = float(chi2.ppf(0.95, df=2))
CONTAINED = 0.95


def kernel_scalar(u: float, v: float) -> float:
    rsq = u * u + v * v
    if rsq > RADIUS_SQ:
        return 0.0
    return math.exp(-0.5 * rsq) / (2.0 * math.pi * CONTAINED)


def weight_matrix(subject, t0: float, s0: float, h: float) -> np.ndarray:
    """Dense diagonal K_i for one complete-case subject."""
    T = subject.followup_end
    diag = [
        kernel_scalar((tau - t0) / h, (T - tau - s0) / h) / (h * h)
        for tau in subject.times
    ]
    return np.diag(diag)


def dense_local_fit(dataset, t0: float, s0: float, h: float) -> np.ndarray:
    """Normal equations assembled from dense matrices, solved with LU."""
    p = dataset.p
    A = np.zeros((p, p))
    b = np.zeros(p)
    for s in dataset.subjects:
        if not s.event_observed:
            continue
        K = weight_matrix(s, t0, s0, h)
        X = s.covariates
        A += X.T @ K @ X
        b += X.T @ K @ s.responses
    return np.linalg.solve(A, b)


def dense_residual_map(dataset, h: float) -> dict:
    """(subject_id, visit index) -> residual from a dense fit at that visit."""
    out = {}
    for s in dataset.subjects:
        if not s.event_observed:
            continue
        T = s.followup_end
        for j, tau in enumerate(s.times):
            beta = dense_local_fit(dataset, float(tau), float(T - tau), h)
            out[(s.id, j)] = float(s.responses[j] - s.covariates[j] @ beta)
    return out


def dense_sandwich(dataset, t0: float, s0: float, h: float, resid_map: dict
                   ) -> np.ndarray:
    """n h^2 A^{-1} M A^{-1} with explicit inverses and residual outer products."""
    p = dataset.p
    A = np.zeros((p, p))
    M = np.zeros((p, p))
    n_cc = 0
    for s in dataset.subjects:
        if not s.event_observed:
            continue
        n_cc += 1
        K = weight_matrix(s, t0, s0, h)
        X = s.covariates
        eps = np.array([resid_map[(s.id, j)] for j in range(s.n_visits)])
        A += X.T @ K @ X
        M += X.T @ K @ np.outer(eps, eps) @ K @ X
    A_inv = np.linalg.inv(A)
    return n_cc * h * h * (A_inv @ M @ A_inv)


def dense_fit(dataset, t0: float, s0: float, h: float, rcond_min: float = 1e-12):
    """(beta or None, n_eff, status) of a dense fit at (t0, s0): "empty_support" when fewer
    than p observations carry weight, "singular" when the Gram matrix fails the
    reciprocal-condition test, and "ok" with the LU solution otherwise."""
    p = dataset.p
    A = np.zeros((p, p))
    n_eff = 0
    for s in dataset.subjects:
        if s.event_observed:
            K = weight_matrix(s, t0, s0, h)
            n_eff += int(np.count_nonzero(np.diag(K)))
            A += s.covariates.T @ K @ s.covariates
    if n_eff < p:
        return None, n_eff, "empty_support"
    evals = np.linalg.eigvalsh(A)
    if not evals[0] >= rcond_min * evals[-1] > 0:
        return None, n_eff, "singular"
    return dense_local_fit(dataset, t0, s0, h), n_eff, "ok"


def dense_fit_grid(dataset, points, h: float) -> list:
    """(beta, V, n_eff, status) per point from dense_fit, with V from dense_sandwich (None
    unless ok) over the residuals of the visits whose own fit is ok, 0 at the others."""
    resid_map = {}
    for s in dataset.subjects:
        if s.event_observed:
            for j, tau in enumerate(s.times):
                beta, _, status = dense_fit(dataset, float(tau), float(s.followup_end - tau), h)
                resid_map[(s.id, j)] = (float(s.responses[j] - s.covariates[j] @ beta)
                                        if status == "ok" else 0.0)
    out = []
    for t0, s0 in points:
        beta, n_eff, status = dense_fit(dataset, t0, s0, h)
        V = None if beta is None else dense_sandwich(dataset, t0, s0, h, resid_map)
        out.append((beta, V, n_eff, status))
    return out


def reference_sandwich(dataset, points, h: float) -> list:
    """The per-point sandwich loop that vcterm.fit._fit_points batched: v_hat of
    each point (None unless its fit is ok), with one np.add.at per point.

    It shares the engine solve and the residual pass with the library, not
    the score sums, Gram products and inverses that it checks; fit_grid must
    give the same v_hat bits and raise the same first error.
    """
    from vcterm.engine import View, solve
    from vcterm.fit import _TINY, _residuals

    view = View(dataset)
    t0, s0 = np.array(points, dtype=float).reshape(-1, 2).T
    weights = {}
    sol = solve(view, t0, s0, h, weights=weights)
    h = float(h)
    out = [None] * t0.size
    fits = np.flatnonzero(sol.status == 0).tolist()
    if not fits:
        return out
    need = np.zeros(view.n_obs, dtype=bool)
    need[np.concatenate([weights[i][0] for i in fits])] = True
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite V raises below
        resid, valid = _residuals(view, h, np.flatnonzero(need))
        eps = np.where(valid, resid, 0.0)
        for i in fits:
            idx, w = weights[i]
            G = np.zeros((view.n_subjects, view.p))
            np.add.at(G, view.subj[idx], (w * eps[idx])[:, None] * view.X[idx])
            M = G.T @ G
            if (M.diagonal() < _TINY)[G.any(axis=0)].any():
                raise ValueError(f"the sandwich variance underflows at bandwidth h={h!r}: "
                                 "the residuals or covariates are too small")
            A_inv = sol.evecs[i] @ (sol.evecs[i].T / sol.evals[i][:, None])
            V = view.n_subjects * h * h * (A_inv @ M @ A_inv)
            out[i] = 0.5 * (V + V.T)
            if not np.isfinite(out[i]).all():
                raise ValueError(f"the sandwich variance overflows at bandwidth h={h!r}: "
                                 "the covariates and responses are too large")
    return out


def make_tiny_dataset(rng: np.random.Generator, n_subjects: int, p: int,
                      all_complete: bool = False):
    """Small well-posed dataset: visit times in [0, 3], follow-up past the
    last visit, responses with signal plus noise."""
    from vcterm.data import Dataset, Subject

    subjects = []
    for i in range(n_subjects):
        m = int(rng.integers(2, 6))
        times = np.sort(rng.uniform(0.0, 3.0, size=m))
        while np.any(np.diff(times) <= 0):
            times = np.sort(rng.uniform(0.0, 3.0, size=m))
        X = np.column_stack([np.ones(m)] + [rng.normal(size=m) for _ in range(p - 1)])
        y = X @ rng.normal(size=p) + 0.3 * rng.normal(size=m)
        followup = float(times[-1] + rng.uniform(0.1, 1.0))
        complete = True if all_complete else bool(rng.random() < 0.7)
        subjects.append(Subject(f"t{i:03d}", times, X, y, followup, complete))
    if not any(s.event_observed for s in subjects):
        subjects[0] = Subject(subjects[0].id, subjects[0].times,
                              subjects[0].covariates, subjects[0].responses,
                              subjects[0].followup_end, True)
    return Dataset(subjects, p=p)


def interior_target(dataset, rng: np.random.Generator):
    """(t0, s0) at a complete-case observation, so support is guaranteed."""
    cc = [s for s in dataset.subjects if s.event_observed]
    s = cc[int(rng.integers(len(cc)))]
    j = int(rng.integers(s.n_visits))
    tau = float(s.times[j])
    return tau, float(s.followup_end - tau)


def dense_kfold_cv(dataset, assignment: dict, h: float, rcond_min: float = 1e-12,
                   max_excluded: float = 0.1):
    """(score, excluded_fraction) of k-fold CV from dense fits on the other folds.

    A held-out observation is excluded when fewer than p training
    observations carry weight, or when the training Gram matrix fails the
    reciprocal-condition test; the score is +inf when more than max_excluded
    of all held-out observations are excluded.
    """
    cc = [s for s in dataset.subjects if s.event_observed]
    p = dataset.p
    sq, excluded, n_obs = [], 0, 0
    for s in cc:
        train = [o for o in cc if assignment[o.id] != assignment[s.id]]
        for j, tau in enumerate(s.times):
            n_obs += 1
            t0, s0 = float(tau), float(s.followup_end - tau)
            A = np.zeros((p, p))
            b = np.zeros(p)
            n_eff = 0
            for o in train:
                K = weight_matrix(o, t0, s0, h)
                n_eff += int(np.count_nonzero(np.diag(K)))
                A += o.covariates.T @ K @ o.covariates
                b += o.covariates.T @ K @ o.responses
            evals = np.linalg.eigvalsh(A)
            if n_eff < p or not evals[0] >= rcond_min * evals[-1] > 0:
                excluded += 1
                continue
            beta = np.linalg.solve(A, b)
            sq.append(float(s.responses[j] - s.covariates[j] @ beta) ** 2)
    fraction = excluded / n_obs
    if fraction > max_excluded or not sq:
        return math.inf, fraction
    return math.fsum(sq) / len(sq), fraction


# --------------------------------------------------------------------------
# reference CSV loader


def _parse_float(text: str, line: int, column: str) -> float:
    try:
        value = float(text)
    except (TypeError, ValueError):
        raise ValueError(f"line {line}: {column} {text!r} is not numeric")
    if not math.isfinite(value):
        raise ValueError(f"line {line}: {column} must be finite, got {text!r}")
    return value


class _RawSubject:
    __slots__ = ("sid", "first_line", "followup_end", "event_observed", "rows", "bad")

    def __init__(self, sid, first_line):
        self.sid = sid
        self.first_line = first_line
        self.followup_end = None
        self.event_observed = None
        self.rows = []  # (line, time, response, xvec)
        self.bad = None  # subject-level drop reason


def reference_load_csv(path: str, transform: str = "none"):
    """The row-by-row loader that vcterm.io.load_csv replaced.

    It groups rows per subject in Python dicts and builds each Subject on
    its own; load_csv must give the same Dataset bits, IngestionReport and
    DataError messages.
    """
    report = IngestionReport()
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    with fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise DataError(f"{path}: empty file, no header")
        missing = [c for c in REQUIRED_COLUMNS if c not in reader.fieldnames]
        if missing:
            raise DataError(f"{path}: missing required columns {missing}")
        x_cols = [c for c in reader.fieldnames if c.startswith(COVARIATE_PREFIX)]

        order: list[str] = []
        groups: dict[str, _RawSubject] = {}
        for row in reader:
            line = reader.line_num
            report.rows_in += 1
            sid = row.get("subject_id") or ""
            if not sid:
                report.rows_rejected += 1
                report.diagnostics.append(f"line {line}: empty subject_id")
                continue
            raw = groups.get(sid)
            if raw is None:
                raw = _RawSubject(sid, line)
                groups[sid] = raw
                order.append(sid)

            # subject-level fields first: consistency is a hard error
            try:
                fup = _parse_float(row.get("followup_end"), line, "followup_end")
                flag_text = (row.get("event_observed") or "").strip()
                if flag_text not in ("0", "1"):
                    raise ValueError(
                        f"line {line}: event_observed must be 0 or 1, got {flag_text!r}"
                    )
                flag = flag_text == "1"
            except ValueError as exc:
                raw.rows.append((line, None, None, None))
                report.diagnostics.append(str(exc))
                if raw.bad is None:
                    raw.bad = str(exc)
                continue
            if raw.followup_end is None:
                raw.followup_end = fup
                raw.event_observed = flag
                if fup <= 0:
                    raw.bad = f"line {line}: followup_end must be positive"
                    report.diagnostics.append(raw.bad)
            else:
                if fup != raw.followup_end:
                    raise DataError(
                        f"{path} line {line}: followup_end changed within "
                        f"subject {sid!r} ({raw.followup_end!r} -> {fup!r})"
                    )
                if flag != raw.event_observed:
                    raise DataError(
                        f"{path} line {line}: event_observed changed within subject {sid!r}"
                    )

            try:
                t = _parse_float(row.get("visit_time"), line, "visit_time")
                y = _parse_float(row.get("response"), line, "response")
                x = [_parse_float(row.get(c), line, c) for c in x_cols]
            except ValueError as exc:
                raw.rows.append((line, None, None, None))
                report.diagnostics.append(str(exc))
                continue
            raw.rows.append((line, t, y, x))

    report.subjects_in = len(order)
    subjects = []
    for sid in order:
        raw = groups[sid]
        if raw.bad is not None:
            report.subjects_dropped += 1
            report.rows_from_dropped_subjects += sum(
                1 for r in raw.rows if r[1] is not None
            )
            report.rows_rejected += sum(1 for r in raw.rows if r[1] is None)
            continue
        kept = []
        seen_times = {}
        for line, t, y, x in sorted(
            (r for r in raw.rows if r[1] is not None), key=lambda r: (r[1], r[0])
        ):
            if t < 0:
                report.rows_rejected += 1
                report.diagnostics.append(f"line {line}: negative visit_time {t!r}")
            elif t > raw.followup_end:
                report.rows_rejected += 1
                report.diagnostics.append(
                    f"line {line}: visit_time {t!r} after followup_end {raw.followup_end!r}"
                )
            elif t in seen_times:
                report.rows_rejected += 1
                report.diagnostics.append(
                    f"line {line}: duplicate visit_time {t!r} (first at line {seen_times[t]})"
                )
            else:
                seen_times[t] = line
                kept.append((t, y, x))
        report.rows_rejected += sum(1 for r in raw.rows if r[1] is None)
        if not kept:
            report.subjects_dropped += 1
            report.diagnostics.append(
                f"subject {sid!r}: no valid visits left, dropped"
            )
            continue
        times = np.array([r[0] for r in kept])
        responses = apply_transform(transform, np.array([r[1] for r in kept]))
        covs = np.column_stack(
            [np.ones(len(kept))] + [np.array([r[2][j] for r in kept])
                                    for j in range(len(x_cols))]
        )
        subjects.append(Subject(sid, times, covs, responses,
                                raw.followup_end, raw.event_observed))
        report.subjects_kept += 1
        report.rows_kept += len(kept)

    dataset = Dataset(subjects, p=1 + len(x_cols))
    report.n_diagnostics = len(report.diagnostics)
    del report.diagnostics[MAX_DIAGNOSTICS:]  # load_csv keeps the first ones and a count
    return dataset, report


# --------------------------------------------------------------------------
# reference CSV writers


class _LfRows:
    """csv.writer rows ending in LF, quoted as by a writer whose lines end in
    CR LF, so that a field holding a bare CR is quoted like one holding LF."""

    def __init__(self, fh):
        self.fh, self.buf = fh, io.StringIO()
        self.writer = csv.writer(self.buf, lineterminator="\r\n")

    def writerow(self, row):
        self.buf.seek(0)
        self.buf.truncate()
        self.writer.writerow(row)
        self.fh.write(self.buf.getvalue()[:-2] + "\n")


def reference_write_dataset_csv(dataset, path: str):
    """The row-by-row writer that vcterm.io.write_dataset_csv replaced: one
    csv.writer row of fmt_cell cells per visit."""
    headers = list(REQUIRED_COLUMNS) + [f"{COVARIATE_PREFIX}{k}" for k in range(2, dataset.p + 1)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = _LfRows(fh)
        writer.writerow(headers)
        rows = zip(dataset.times.tolist(), dataset.responses.tolist(),
                   dataset.covariates[:, 1:].tolist())
        for sid, count, end, event in zip(dataset.ids, dataset.counts.tolist(),
                                          dataset.followup_end.tolist(),
                                          dataset.event_observed.tolist()):
            tail = [fmt_cell(end), fmt_cell(event)]
            for t, y, x in itertools.islice(rows, count):
                writer.writerow([sid, fmt_cell(t), fmt_cell(y), *tail, *map(fmt_cell, x)])


def reference_write_truth_csv(truths, path: str):
    """The csv.writer truth writer that vcterm.io.write_truth_csv replaced."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = _LfRows(fh)
        writer.writerow(["subject_id", "x2", "x3_at_zero", "event_time",
                         "censor_time", "event_observed"])
        for tr in truths:
            writer.writerow([tr.subject_id, fmt_cell(tr.x2), fmt_cell(tr.x3_at_zero),
                             fmt_cell(tr.event_time), fmt_cell(tr.censor_time),
                             fmt_cell(tr.event_observed)])


# --------------------------------------------------------------------------
# reference study writer

def write_rows(stream, rows):
    """CSV lines of rows, each cell through fmt_cell, in one write: the per-cell
    writer that vcterm.io's column layout replaced."""
    stream.write("".join(",".join(map(fmt_cell, row)) + "\n" for row in rows))


def _reference_table_text(meta: dict, header, rows) -> str:
    """Comment lines, header, then rows of values, each cell through fmt_cell."""
    buf = io.StringIO()
    for key in sorted(meta):
        buf.write(f"# {key}={meta[key]}\n")
    buf.write(",".join(header) + "\n")
    write_rows(buf, rows)
    return buf.getvalue()


def _reference_save_table(path: str, meta: dict, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_reference_table_text(meta, header, rows))


def reference_slice_rows(table):
    """A SliceTable's rows of values, one tuple per point and coefficient."""
    return [(k + 1, float(table.t[i]), float(table.s[i]), float(table.truth[i, k]),
             *(a[i, k] for a in (table.mean_estimate, table.emp_sd, table.mean_se,
                                 table.lower_emp, table.upper_emp, table.lower_est,
                                 table.upper_est)), int(table.valid[i]))
            for i in range(table.t.size) for k in range(table.truth.shape[1])]


def reference_record_rows(record, points):
    """One replication's records rows of values, one tuple per point and coefficient."""
    G, p = record.estimate.shape
    return [(record.rep, g, points[g][0], points[g][1], k + 1, record.h,
             record.estimate[g, k], record.se[g, k], STATUSES[record.status[g]])
            for g in range(G) for k in range(p)]


def reference_append_partial(path: str, record, points):
    with open(path, "a", encoding="utf-8") as fh:
        write_rows(fh, reference_record_rows(record, points))


def reference_write_study_artifacts(result, out_dir: str):
    """The row-by-row writer that experiments.write_study_artifacts replaced: every
    table a list of tuples of values, formatted cell by cell by fmt_cell."""
    os.makedirs(out_dir, exist_ok=True)
    cfg = result.config
    fingerprint = study_fingerprint(cfg)
    meta = {"fingerprint": fingerprint, "replications": cfg.replications,
            "alpha": fmt_cell(cfg.alpha), "h_policy": cfg.h_policy}
    G, p = result.truth.shape
    rows = [(g, float(result.points[g, 0]), float(result.points[g, 1]), k + 1,
             float(result.truth[g, k]), *(a[g, k] for a in (
                 result.mean_estimate, result.bias, result.emp_sd, result.mean_se,
                 result.coverage, result.coverage_mc_se)), int(result.valid[g]))
            for g in range(G) for k in range(p)]
    _reference_save_table(os.path.join(out_dir, "summary.csv"), meta,
                          ("point", "t", "s", "coef", "truth", "mean_estimate", "bias",
                           "emp_sd", "mean_se", "coverage", "coverage_mc_se", "valid"), rows)
    points = [(float(t), float(s)) for t, s in result.points]
    rows = [row for record in result.records for row in reference_record_rows(record, points)]
    _reference_save_table(os.path.join(out_dir, "records.csv"), {"fingerprint": fingerprint},
                          ("rep", "point", "t", "s", "coef", "h", "estimate", "se", "status"),
                          rows)
    if cfg.grid.kind == "rect":
        for k in range(1, p + 1):
            _reference_save_table(os.path.join(out_dir, f"coverage_b{k}.csv"),
                                  {"fingerprint": fingerprint, "coefficient": k},
                                  ("t", "s", "coverage", "valid"), coverage_heatmap(result, k))
    if cfg.grid.kind == "slices":
        for T in cfg.grid.slice_T:
            _reference_save_table(
                os.path.join(out_dir, ("slice_T%g" % float(T)).replace(".", "_") + ".csv"),
                {"fingerprint": fingerprint, "T": fmt_cell(float(T))},
                ("coef", "t", "s", "truth", "mean_estimate", "emp_sd", "mean_se", "lower_emp",
                 "upper_emp", "lower_est", "upper_est", "valid"),
                reference_slice_rows(slice_summary(result, float(T))))
    metadata = {"fingerprint": fingerprint, "config": asdict(cfg),
                "h_values": list(result.h_values),
                "cv": None if result.cv is None else asdict(result.cv),
                "zero_valid_points": result.zero_valid_points,
                "status_codes": dict(enumerate(STATUSES))}
    with open(os.path.join(out_dir, "metadata.json"), "w", encoding="utf-8") as fh:
        fh.write(json_text(metadata, indent=2) + "\n")


# --------------------------------------------------------------------------
# reference CLI tables

SLICE_HEADER = ("T", "t", "s", "coef", "estimate", "se", "lower", "upper", "n_eff", "status")


def _reference_estimates(fp, alpha: float) -> list[tuple]:
    """(estimate, se, lower, upper) per coefficient of one ok fit, as the CLI built
    them point by point before its tables were laid out from array columns."""
    z = NormalDist().inv_cdf(1.0 - alpha / 2.0)
    se = np.sqrt(np.maximum(fp.v_hat.diagonal(), 0.0) / (fp.n_cc * fp.h * fp.h))
    return list(zip(fp.beta_hat.tolist(), se.tolist(), (fp.beta_hat - z * se).tolist(),
                    (fp.beta_hat + z * se).tolist()))


def reference_emit(fmt: str, header, rows, meta: dict) -> str:
    """A command's stdout from its rows of values: CSV cell by cell, or JSON dicts."""
    if fmt == "json":
        return json_text({"meta": meta, "rows": [dict(zip(header, r)) for r in rows]}) + "\n"
    return _reference_table_text(meta, header, rows)


def reference_fit(dataset, t0: float, s0: float, h: float, alpha: float):
    """(header, rows, meta) of `vcterm fit` at an ok point."""
    fp = local_fit(dataset, t0, s0, h)
    rows = [(k + 1, *est) for k, est in enumerate(_reference_estimates(fp, alpha))]
    meta = {"t0": fmt_cell(t0), "s0": fmt_cell(s0), "h": fmt_cell(h), "alpha": fmt_cell(alpha),
            "n_complete_case": fp.n_cc, "n_eff": fp.n_eff, "status": fp.status}
    return ("coef", "estimate", "se", "lower", "upper"), rows, meta


def reference_slices(dataset, Ts, t_step: float, h: float, alpha: float):
    """([(T, rows)] in --T order, meta) of `vcterm slice`: one batch of fits, then each
    point's rows, missing values NaN where its fit failed."""
    grid = GridSpec(slice_T=tuple(Ts), slice_t_step=t_step)
    fits = iter(fit_grid(dataset, grid.eval_points(), h))
    slices = []
    for T, count in zip(Ts, grid.slice_sizes()):
        rows = []
        for fp in itertools.islice(fits, count):
            ests = (_reference_estimates(fp, alpha) if fp.status == "ok"
                    else [(math.nan,) * 4] * dataset.p)
            rows += [(T, fp.t0, fp.s0, k + 1, *est, fp.n_eff, fp.status)
                     for k, est in enumerate(ests)]
        slices.append((T, rows))
    meta = {"h": fmt_cell(h), "alpha": fmt_cell(alpha),
            "n_complete_case": dataset.n_complete_case}
    return slices, meta


def reference_slice_svg(path: str, T: float, rows, p: int):
    """One slice's chart, its curves rebuilt from the rows by column index."""
    ts = sorted({r[1] for r in rows})
    curves, bands = [], []
    for k in range(1, p + 1):
        by_t = {r[1]: r for r in rows if r[3] == k}
        est, lo, hi = ([by_t[t][c] for t in ts] for c in (4, 6, 7))
        color = svg.PALETTE[(k - 1) % len(svg.PALETTE)]
        curves.append((f"b{k}", est, color))
        bands.append((lo, hi, color))
    svg.line_chart(path, ts, curves, bands, title=f"T = {T:g}")


def reference_cv(dataset, h_grid, folds: int, seed: int, gamma: float):
    """(header, rows, meta) of `vcterm cv`."""
    result = select_bandwidth(dataset, h_grid=h_grid, seed=seed, k=folds, gamma=gamma)
    rows = list(zip(result.h_grid, result.scores, result.excluded_fraction))
    meta = {"h_selected": fmt_cell(result.h_selected),
            "h_undersmoothed": fmt_cell(result.h_undersmoothed),
            "factor": fmt_cell(result.factor), "gamma": fmt_cell(result.gamma),
            "n_used": result.n_used, "n_complete_case": dataset.n_complete_case,
            "folds": result.folds, "seed": result.seed}
    return ("h", "score", "excluded_fraction"), rows, meta


def reference_kernel_moments(quadrature_n: int):
    """(header, rows, meta) of `vcterm kernel-moments`."""
    m = kernel_moments(DEFAULT_KERNEL, quadrature_n=quadrature_n)
    rows = list(zip(("mass", "mu0", "mu1_x", "mu1_y", "mu2_xx", "mu2_xy", "mu2_yy"),
                    (m.mass, m.mu0, *m.mu1, m.mu2[0, 0], m.mu2[0, 1], m.mu2[1, 1])))
    meta = {"quadrature_n": quadrature_n,
            "truncation_radius": fmt_cell(DEFAULT_KERNEL.truncation_radius),
            "normalizer": fmt_cell(DEFAULT_KERNEL.normalizer)}
    return ("moment", "value"), rows, meta


# --------------------------------------------------------------------------
# reference cohort generator

_JITTERS = (0.0, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6)
_CLAMP = 1e-12


def beta_interarrival_params(tau1: float, nu: float) -> tuple[float, float]:
    """Beta-distribution parameters for the within-year visit offsets."""
    scale = 4.0 * nu * nu
    return tau1 / scale, (1.0 - tau1) / scale


def gen_visit_times(rng: np.random.Generator, m: int = 20, nu: float = 0.01) -> np.ndarray:
    """One subject's visit times, the sampler that gen_dataset's draw loop inlined.
    First visit uniform on [0, 1]; visit j sits in year j with a Beta offset
    centered on the first visit's phase. Output is strictly increasing."""
    if m < 1:
        raise ValueError("m must be at least 1")
    if not 0.0 < nu <= 0.5:
        raise ValueError("nu must be in (0, 0.5]")
    tau1 = float(rng.uniform())
    tau1 = min(max(tau1, _CLAMP), 1.0 - _CLAMP)
    times = np.empty(m)
    times[0] = tau1
    if m > 1:
        a, b = beta_interarrival_params(tau1, nu)
        times[1:] = np.arange(1, m) + rng.beta(a, b, size=m - 1)
    return times


def _reference_correlate(sigma: np.ndarray, z: np.ndarray) -> np.ndarray:
    """L @ z for one covariance, with the per-matrix jitter ladder."""
    eye = np.eye(sigma.shape[0])
    for jit in _JITTERS:
        try:
            L = np.linalg.cholesky(sigma + jit * eye if jit else sigma)
        except np.linalg.LinAlgError:
            continue
        return L @ z
    raise NumericalError(
        f"covariance factorization failed after jitter up to {_JITTERS[-1]:g} "
        f"(dim={sigma.shape[0]})")


def reference_gen_dataset(config, seed_seq=None):
    """The subject-by-subject generator that vcterm.simulate.gen_dataset replaced.

    Each subject builds and factors its own two covariance matrices and its
    own responses; gen_dataset must give the same Dataset bits and the same
    TruthRecords.
    """
    from vcterm.simulate import TruthRecord, _event_times, beta_value, spawn_stateless

    ss = np.random.SeedSequence(config.seed) if seed_seq is None else seed_seq
    subjects, truths = [], []
    for i, child in enumerate(spawn_stateless(ss, config.n)):
        rng = np.random.default_rng(child)
        taus = gen_visit_times(rng, config.m, config.nu)
        t = np.concatenate(([0.0], taus))
        cov = np.empty((t.size + 1, t.size + 1))
        cov[0, 0] = 1.0
        cov[0, 1:] = cov[1:, 0] = 0.8 * np.exp(-t * t)
        cov[1:, 1:] = np.exp(-np.subtract.outer(t, t) ** 2)
        draw = _reference_correlate(cov, rng.standard_normal(t.size + 1))
        x2, x3_0, x3_visits = float(draw[0]), float(draw[1]), draw[2:]
        u_event = float(rng.uniform())
        t_event, t_cens = _event_times(u_event, float(rng.uniform()), x2, x3_0, config)
        if config.zero_errors:
            eps = np.zeros(taus.size)
        else:
            a, b = config.error_var_params
            sd = np.exp(0.5 * (a + b * taus))
            cov = np.outer(sd, sd) * config.error_corr_base ** np.abs(
                np.subtract.outer(taus, taus))
            eps = _reference_correlate(cov, rng.standard_normal(taus.size))
            eps = eps + math.sqrt(config.white_noise_var) * rng.standard_normal(taus.size)

        sid = f"s{i:06d}"
        truths.append(TruthRecord(sid, x2, x3_0, t_event, t_cens, t_event <= t_cens))
        keep = taus <= min(t_event, t_cens)
        kept_t = taus[keep]
        if kept_t.size == 0:
            continue
        X = np.column_stack([np.ones(kept_t.size), np.full(kept_t.size, x2),
                             x3_visits[keep]][: config.p])
        y = eps[keep].copy()
        for k in range(1, config.p + 1):
            y += X[:, k - 1] * beta_value(config, k, kept_t, t_event - kept_t)
        subjects.append(Subject(sid, kept_t, X, y, min(t_event, t_cens), t_event <= t_cens))
    return Dataset(subjects, p=config.p), truths
