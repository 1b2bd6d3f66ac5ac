"""Replication studies: repeated simulation, fitting, and coverage accounting.

A study draws R independent cohorts, fits the model with variance on a
fixed evaluation grid, and aggregates bias, spread, estimated standard
errors, and confidence-interval coverage per grid point and coefficient.
Per-replication rows are persisted append-only so a crashed study resumes;
a partial file with no finished replication restarts.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from .bandwidth import (CVResult, DEFAULT_FOLDS, DEFAULT_GAMMA, candidate_grid, check_folds,
                        select_bandwidth, undersmoothing_factor)
from .data import Dataset
from .engine import check_bandwidth
from .errors import DataError
from .fit import STATUS_OK, STATUSES, fit_grid, normal_quantile, standard_errors
from .io import fmt_cell, json_text, read_cell, save_table, write_rows
from .kernel import DEFAULT_KERNEL
from .simulate import SimConfig, beta_value, gen_dataset, spawn_stateless

H_POLICIES = ("fixed", "cv-once", "cv-per-rep")

PARTIAL_RECORDS = "records.partial.csv"
RECORDS_FILE = "records.csv"
SUMMARY_FILE = "summary.csv"
METADATA_FILE = "metadata.json"

MAX_GRID_POINTS = 2**16  # ample: the default slices, used by the bench and criterion 07, are 33
MAX_REPLICATIONS = 10**5  # run_study spawns every replication's seed sequence up front


@dataclass(frozen=True)
class GridSpec:
    """Evaluation grid: anti-diagonal slices at fixed total time, a
    rectangular mesh, or explicit points."""

    kind: str = "slices"
    slice_T: tuple = (8.0, 12.0, 16.0)
    slice_t_step: float = 1.0
    rect_t: tuple = ()
    rect_s: tuple = ()
    points: tuple = ()

    def __post_init__(self):
        if self.kind not in ("slices", "rect", "points"):
            raise ValueError(f"unknown grid kind {self.kind!r}")
        if self.kind == "slices" and (not self.slice_T or self.slice_t_step <= 0):
            raise ValueError("slices grid needs slice_T values and a positive step")
        if self.kind == "rect" and (not self.rect_t or not self.rect_s):
            raise ValueError("rect grid needs rect_t and rect_s values")
        if self.kind == "points" and not self.points:
            raise ValueError("points grid needs explicit points")
        for name in ("slice_T", "slice_t_step", "rect_t", "rect_s", "points"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite")
        if self.kind == "slices":
            sizes = self.slice_sizes()
            empty = [T for T, size in zip(self.slice_T, sizes) if size < 1]
            if empty:
                raise DataError(f"slice T={empty[0]:g} leaves no interior points at step "
                                f"{self.slice_t_step:g}")
        else:
            sizes = [len(self.rect_t) * len(self.rect_s) if self.kind == "rect"
                     else len(self.points)]
        if sum(sizes) > MAX_GRID_POINTS:
            raise ValueError(f"the grid has more than MAX_GRID_POINTS={MAX_GRID_POINTS} points")

    def slice_sizes(self) -> list[int]:
        """Points per slice, in slice_T order: 0 for T <= 0, MAX_GRID_POINTS + 1 past it."""
        return [math.floor(min(max((float(T) - 1e-9) / self.slice_t_step, 0.0),
                               MAX_GRID_POINTS + 1)) for T in self.slice_T]

    def eval_points(self) -> list[tuple[float, float]]:
        if self.kind == "slices":
            return [(i * self.slice_t_step, float(T) - i * self.slice_t_step)
                    for T, n in zip(self.slice_T, self.slice_sizes()) for i in range(1, n + 1)]
        if self.kind == "rect":
            return [(float(t), float(s)) for t in self.rect_t for s in self.rect_s]
        return [(float(t), float(s)) for t, s in self.points]


@dataclass(frozen=True)
class CvSettings:
    h_grid: tuple | None = None
    folds: int = DEFAULT_FOLDS
    seed: int = 0

    def __post_init__(self):
        check_folds(self.folds)


@dataclass(frozen=True)
class StudyConfig:
    sim: SimConfig
    replications: int
    h_policy: str = "cv-once"
    h_fixed: float | None = None
    gamma: float = DEFAULT_GAMMA
    alpha: float = 0.05
    grid: GridSpec = field(default_factory=GridSpec)
    cv: CvSettings = field(default_factory=CvSettings)

    def __post_init__(self):
        if not 1 <= self.replications <= MAX_REPLICATIONS:
            raise ValueError(f"replications must be from 1 to {MAX_REPLICATIONS}")
        if self.h_policy not in H_POLICIES:
            raise ValueError(f"h_policy must be one of {H_POLICIES}")
        if self.h_policy == "fixed":
            try:
                check_bandwidth(float(self.h_fixed or 0.0))
            except ValueError as exc:
                raise ValueError(f"fixed h_policy needs a positive h_fixed: {exc}") from None
        candidate_grid(self.cv.h_grid)
        normal_quantile(self.alpha)
        # n^(-gamma) only grows as n falls, so every drawn cohort passes too
        undersmoothing_factor(self.sim.n, self.gamma)
        points = self.grid.eval_points()
        for t, s in points:
            if t < 0 or s < 0:
                raise ValueError(f"grid point ({t}, {s}) leaves the first quadrant")
        with np.errstate(over="ignore", invalid="ignore"):  # far out, the surfaces overflow
            if not np.isfinite(truth_matrix(self.sim, points)).all():
                raise ValueError("a grid point lies so far out that its true coefficients "
                                 "are not finite")
        if self.grid.kind == "rect":
            try:  # the coverage heatmaps need each mesh point exactly once
                rect_index(points)
            except ValueError:
                raise ValueError("rect_t and rect_s must not repeat a value") from None


@dataclass
class RepRecord:
    """One replication's estimates on the grid."""

    rep: int
    h: float
    estimate: np.ndarray  # (G, p), NaN where not ok
    se: np.ndarray        # (G, p), NaN where not ok
    status: np.ndarray    # (G,), int codes


@dataclass
class StudyResult:
    config: StudyConfig
    points: np.ndarray          # (G, 2)
    truth: np.ndarray           # (G, p)
    mean_estimate: np.ndarray   # (G, p)
    bias: np.ndarray
    emp_sd: np.ndarray
    mean_se: np.ndarray
    coverage: np.ndarray
    coverage_mc_se: np.ndarray
    valid: np.ndarray           # (G,) replications with status ok per point
    h_values: tuple             # one bandwidth per replication
    cv: CVResult | None
    records: tuple

    @property
    def p(self) -> int:
        return self.truth.shape[1]

    @property
    def zero_valid_points(self) -> int:
        return int(np.count_nonzero(self.valid == 0))


def replication_seed_sequences(seed: int, replications: int):
    """Independent substreams, one per replication, stable in the index."""
    return spawn_stateless(np.random.SeedSequence(seed), replications)


def study_fingerprint(config: StudyConfig) -> str:
    """Hash identifying a study's configuration; the kernel every study fits
    with is hashed too, so fingerprints match those of files written before."""
    return hashlib.sha256(repr((config, DEFAULT_KERNEL)).encode()).hexdigest()[:16]


def truth_matrix(sim: SimConfig, points) -> np.ndarray:
    t = np.array([pt[0] for pt in points])
    s = np.array([pt[1] for pt in points])
    return np.column_stack([beta_value(sim, k, t, s) for k in range(1, sim.p + 1)])


def _run_replication(config: StudyConfig, rep: int, seed_seq, h: float | None,
                     points, ds: Dataset | None = None) -> RepRecord:
    """One replication on its cohort ds, generated from seed_seq when not given."""
    ds = gen_dataset(config.sim, seed_seq=seed_seq)[0] if ds is None else ds
    if h is None:
        cv = select_bandwidth(ds, h_grid=config.cv.h_grid, k=config.cv.folds,
                              seed=config.cv.seed, gamma=config.gamma)
        h = cv.h_undersmoothed
    n_cc = ds.n_complete_case
    fits = fit_grid(ds, points, h)
    G, p = len(points), config.sim.p
    est = np.full((G, p), np.nan)
    se = np.full((G, p), np.nan)
    status = np.empty(G, dtype=np.int8)
    for g, fp in enumerate(fits):
        status[g] = STATUSES.index(fp.status)
        if fp.status == STATUS_OK:
            est[g] = fp.beta_hat
            se[g] = standard_errors(fp, n_cc)
    return RepRecord(rep=rep, h=float(h), estimate=est, se=se, status=status)


def _record_rows(record: RepRecord, points):
    G, p = record.estimate.shape
    return [(record.rep, g, points[g][0], points[g][1], k + 1, record.h,
             record.estimate[g, k], record.se[g, k], STATUSES[record.status[g]])
            for g in range(G) for k in range(p)]


_RECORD_HEADER = ("rep", "point", "t", "s", "coef", "h", "estimate", "se", "status")


def _append_partial(path: str, rows):
    with open(path, "a", encoding="utf-8") as fh:
        write_rows(fh, rows)


def _load_partial(path: str, fingerprint: str, G: int, p: int) -> dict[int, RepRecord]:
    """Completed replications from an interrupted run; ignores partial reps
    and rows that do not parse, and ends a torn last line with a newline."""
    if not os.path.exists(path):
        return {}
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    lines = text.splitlines()
    if not lines:
        return {}
    head = lines[0]
    if not head.startswith("# fingerprint="):
        raise DataError(f"{path}: missing fingerprint line; remove the file to restart")
    if head.split("=", 1)[1] != fingerprint:
        raise DataError(
            f"{path}: was written by a different study configuration; "
            "remove the file or use a fresh output directory"
        )
    if not text.endswith("\n"):
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("\n")
    by_rep: dict[int, dict] = {}
    for ln in lines[1:]:
        if not ln or ln.startswith("#") or ln.startswith("rep,"):
            continue
        try:
            rep, g, _, _, k, h, est, se, name = ln.split(",")
            row = (float(h), read_cell(est), read_cell(se), STATUSES.index(name))
            # a rerun of a torn replication repeats its rows with equal values
            by_rep.setdefault(int(rep), {})[(int(g), int(k) - 1)] = row
        except ValueError:
            continue  # torn tail line from a crash; its replication reruns
    out = {}
    for rep, rows in by_rep.items():
        if len(rows) != G * p:
            continue
        est = np.full((G, p), np.nan)
        se = np.full((G, p), np.nan)
        status = np.empty(G, dtype=np.int8)
        for (g, k), (h, e, s, code) in rows.items():
            est[g, k], se[g, k], status[g] = e, s, code
        out[rep] = RepRecord(rep=rep, h=h, estimate=est, se=se, status=status)
    return out


def aggregate_records(config: StudyConfig, points, truth, records) -> StudyResult:
    """Reduce per-replication records in replication order."""
    G, p = truth.shape
    z = normal_quantile(config.alpha)
    mean_est = np.full((G, p), np.nan)
    emp_sd = np.full((G, p), np.nan)
    mean_se = np.full((G, p), np.nan)
    coverage = np.full((G, p), np.nan)
    cov_mc_se = np.full((G, p), np.nan)
    valid = np.zeros(G, dtype=int)
    ordered = sorted(records, key=lambda r: r.rep)
    for g in range(G):
        ok = [r for r in ordered if r.status[g] == 0]
        valid[g] = len(ok)
        if not ok:
            continue
        for k in range(p):
            ests = [float(r.estimate[g, k]) for r in ok]
            ses = [float(r.se[g, k]) for r in ok]
            nv = len(ests)
            m = math.fsum(ests) / nv
            mean_est[g, k] = m
            mean_se[g, k] = math.fsum(ses) / nv
            if nv > 1:
                emp_sd[g, k] = math.sqrt(
                    math.fsum((e - m) ** 2 for e in ests) / (nv - 1)
                )
            hits = sum(1 for e, s in zip(ests, ses) if abs(e - truth[g, k]) <= z * s)
            c = hits / nv
            coverage[g, k] = c
            cov_mc_se[g, k] = math.sqrt(c * (1.0 - c) / nv)
    pts = np.array([[pt[0], pt[1]] for pt in points])
    return StudyResult(
        config=config, points=pts, truth=truth, mean_estimate=mean_est,
        bias=mean_est - truth, emp_sd=emp_sd, mean_se=mean_se, coverage=coverage,
        coverage_mc_se=cov_mc_se, valid=valid,
        h_values=tuple(r.h for r in ordered), cv=None, records=tuple(ordered),
    )


def run_study(config: StudyConfig, out_dir: str | None = None,
              resume: bool = True) -> StudyResult:
    """Run (or resume) a replication study, one replication after another.

    Each finished replication's rows are appended to the partial records
    file at once, so a crash loses at most the replication in progress.

    Bandwidth policies: "fixed" uses h_fixed everywhere; "cv-once" selects on
    the first replication's cohort and reuses it; "cv-per-rep" reselects per
    replication.
    """
    points = config.grid.eval_points()
    truth = truth_matrix(config.sim, points)
    R = config.replications
    seqs = replication_seed_sequences(config.sim.seed, R)
    fingerprint = study_fingerprint(config)

    done: dict[int, RepRecord] = {}
    partial_path = None if out_dir is None else os.path.join(out_dir, PARTIAL_RECORDS)
    if partial_path is not None and resume:  # a foreign file is refused before any work
        done = _load_partial(partial_path, fingerprint, len(points), config.sim.p)

    cv_result = ds0 = None
    h0: float | None = None
    if config.h_policy == "fixed":
        h0 = float(config.h_fixed)
    elif config.h_policy == "cv-once":
        # the selection cohort is replication 0's cohort, which fits on it too
        ds0, _ = gen_dataset(config.sim, seed_seq=seqs[0])
        cv_result = select_bandwidth(ds0, h_grid=config.cv.h_grid, k=config.cv.folds,
                                     seed=config.cv.seed, gamma=config.gamma)
        h0 = cv_result.h_undersmoothed

    if partial_path is not None and not done:  # nothing worth keeping: start afresh
        os.makedirs(out_dir, exist_ok=True)
        save_table(partial_path, {"fingerprint": fingerprint}, _RECORD_HEADER, ())

    for rep in range(R):
        if rep in done:
            continue
        done[rep] = _run_replication(config, rep, seqs[rep], h0, points,
                                     ds0 if rep == 0 else None)
        if partial_path is not None:
            _append_partial(partial_path, _record_rows(done[rep], points))

    result = aggregate_records(config, points, truth, [done[r] for r in range(R)])
    result.cv = cv_result
    if out_dir is not None:
        write_study_artifacts(result, out_dir)
        # the scratch file only matters for crash recovery; removing it keeps
        # the finished directory identical across fresh and resumed runs
        os.remove(partial_path)
    return result


def rect_index(points) -> tuple[tuple, tuple, np.ndarray]:
    """(t values, s values, index), index[j, i] being the position in points of
    (t values[i], s values[j]); ValueError unless the points fill the mesh once each."""
    pts = [(float(t), float(s)) for t, s in points]
    t_vals = tuple(sorted({pt[0] for pt in pts}))
    s_vals = tuple(sorted({pt[1] for pt in pts}))
    where = {pt: g for g, pt in enumerate(pts)}
    if len(where) != len(pts) or len(t_vals) * len(s_vals) != len(pts):
        raise ValueError("evaluation grid is not rectangular; cannot build a heatmap")
    index = np.array([[where[(t, s)] for t in t_vals] for s in s_vals], dtype=np.intp)
    return t_vals, s_vals, index


def coverage_heatmap(result: StudyResult, coefficient: int) -> list[tuple]:
    """(t, s, coverage, valid) rows of one coefficient, t varying fastest; the grid
    must be rectangular. Coverage is NaN where no replication is valid, not 0."""
    if not 1 <= coefficient <= result.p:
        raise ValueError(f"coefficient must be in 1..{result.p}")
    t_vals, s_vals, index = rect_index(result.points)
    return [(t, s, result.coverage[g, coefficient - 1], int(result.valid[g]))
            for s, row in zip(s_vals, index.tolist()) for t, g in zip(t_vals, row)]


@dataclass
class SliceTable:
    """Aggregated curves along one fixed total time T = t + s."""

    T: float
    alpha: float
    t: np.ndarray
    s: np.ndarray
    truth: np.ndarray          # (nt, p)
    mean_estimate: np.ndarray
    emp_sd: np.ndarray
    mean_se: np.ndarray
    lower_emp: np.ndarray      # mean - z * empirical SD
    upper_emp: np.ndarray
    lower_est: np.ndarray      # mean - z * mean estimated SE
    upper_est: np.ndarray
    valid: np.ndarray          # (nt,)

    def rows(self):
        return [(k + 1, float(self.t[i]), float(self.s[i]), float(self.truth[i, k]),
                 *(a[i, k] for a in (self.mean_estimate, self.emp_sd, self.mean_se,
                                     self.lower_emp, self.upper_emp, self.lower_est,
                                     self.upper_est)), int(self.valid[i]))
                for i in range(self.t.size) for k in range(self.truth.shape[1])]


def slice_summary(result: StudyResult, T_fixed: float) -> SliceTable:
    """Truth, mean estimate, and both confidence envelopes along t + s = T."""
    T_fixed = float(T_fixed)
    total = result.points[:, 0] + result.points[:, 1]
    idx = np.nonzero(np.abs(total - T_fixed) <= 1e-9)[0]
    if idx.size == 0:
        raise ValueError(f"no evaluation points on the slice t + s = {T_fixed}")
    idx = idx[np.argsort(result.points[idx, 0])]
    z = normal_quantile(result.config.alpha)
    mean = result.mean_estimate[idx]
    emp = result.emp_sd[idx]
    est = result.mean_se[idx]
    return SliceTable(
        T=T_fixed, alpha=result.config.alpha,
        t=result.points[idx, 0], s=result.points[idx, 1],
        truth=result.truth[idx], mean_estimate=mean, emp_sd=emp, mean_se=est,
        lower_emp=mean - z * emp, upper_emp=mean + z * emp,
        lower_est=mean - z * est, upper_est=mean + z * est,
        valid=result.valid[idx],
    )


_SUMMARY_HEADER = ("point", "t", "s", "coef", "truth", "mean_estimate", "bias",
                   "emp_sd", "mean_se", "coverage", "coverage_mc_se", "valid")
_SLICE_HEADER = ("coef", "t", "s", "truth", "mean_estimate", "emp_sd", "mean_se",
                 "lower_emp", "upper_emp", "lower_est", "upper_est", "valid")
_HEATMAP_HEADER = ("t", "s", "coverage", "valid")


def slice_stem(T: float) -> str:
    """File name, without extension, of the table or chart of the slice at total time T."""
    return ("slice_T%g" % float(T)).replace(".", "_")


def write_study_artifacts(result: StudyResult, out_dir: str):
    """summary.csv, records.csv in replication order, metadata.json, and per-grid extras."""
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
    save_table(os.path.join(out_dir, SUMMARY_FILE), meta, _SUMMARY_HEADER, rows)

    points = [(float(t), float(s)) for t, s in result.points]
    record_rows = [row for record in result.records for row in _record_rows(record, points)]
    save_table(os.path.join(out_dir, RECORDS_FILE),
               {"fingerprint": fingerprint}, _RECORD_HEADER, record_rows)

    if cfg.grid.kind == "rect":
        for k in range(1, p + 1):
            save_table(os.path.join(out_dir, f"coverage_b{k}.csv"),
                       {"fingerprint": fingerprint, "coefficient": k},
                       _HEATMAP_HEADER, coverage_heatmap(result, k))
    if cfg.grid.kind == "slices":
        for T in cfg.grid.slice_T:
            table = slice_summary(result, float(T))
            save_table(os.path.join(out_dir, slice_stem(T) + ".csv"),
                       {"fingerprint": fingerprint, "T": fmt_cell(float(T))},
                       _SLICE_HEADER, table.rows())

    metadata = {
        "fingerprint": fingerprint,
        "config": asdict(cfg),
        "h_values": list(result.h_values),
        "cv": None if result.cv is None else asdict(result.cv),
        "zero_valid_points": result.zero_valid_points,
        "status_codes": dict(enumerate(STATUSES)),
    }
    with open(os.path.join(out_dir, METADATA_FILE), "w", encoding="utf-8") as fh:
        fh.write(json_text(metadata, indent=2) + "\n")
