"""vcterm benchmark: closed-loop command sessions on generated inputs.

    python3 bench/run.py --workload {cli-narrow,cli-wide} --seed N \
        --seconds S --trace {0,1} [--smoke]

Run from a checkout root; vcterm is imported from its src/ directory. One
client in one process calls vcterm.cli.main for each command and waits for
it before sending the next. Every workload runs the same session

    fit, slice, cv, study --threads 1, study --threads 2 (twice)

on inputs generated from --seed, and the workloads differ in where that
session spends its time (see WORKLOADS). Sessions repeat while the next one
is expected to finish within --seconds. Every output is checked; a command
that exits non-zero or fails a check counts as failed.

Host speed: the CPU speed of a shared host moves by a third and more, for
seconds to minutes at a time, so the median of raw command times says as
much about the neighbours as about vcterm. A fixed calibration loop (see
calibrate) is therefore timed before and after every command and every
set-up, and each time is reported scaled to a host on which that loop takes
CAL_REF_S: time * CAL_REF_S / (mean of the two loop times). The timing
metrics are medians of these scaled times over the run; the raw medians are
printed with the details.

The inputs are sized so that a session takes about 2.5 s and a run of a
minute holds about twenty: the cohort CSV holds a fixed number of
complete-case visits (at a fixed number of subjects that count, and the
band pairs a residual pass scans, move by 7% and 15% from seed to seed),
and the study runs criterion 07's seed, so its work is the same on every
run.

--trace 0 prints the end-to-end metrics named in BENCHMARK.json. --trace 1
alternates untraced sessions with sessions whose calls to vcterm's public
functions are wrapped in spans, and prints the per-layer metrics (raw
times) of the first traced session and the median tracing overhead over
the pairs. The last stdout line is the JSON result; the lines before it
hold the environment and the details.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from checks import (check_cv, check_fit, check_slice, check_study_pair,
                    complete_case_arrays, pair_counts)
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_JSON = ROOT / "BENCHMARK.json"
WORK = ROOT / ".bench_work"

FIT_POINT = (2.0, 6.0)
SLICE_T = (8.0, 12.0, 16.0)
SLICE_STEP = 1.0
STUDY_SEED = 20260815  # criterion 07's
STUDIES = (("study_w1", 1), ("study_w2", 2), ("study_w2b", 2))  # (label, workers)
SETUP_REPEATS = (5, 12)  # at least 5 set-ups, and more while under SETUP_MIN_S
SETUP_MIN_S = 1.5


@dataclass(frozen=True)
class Workload:
    cohort_rows: int     # complete-case visits in the cohort CSV given to fit, slice, cv
    h: float             # bandwidth of fit and slice
    cv_grid: tuple       # candidates for cv
    cv_folds: int
    study_n: int
    study_reps: int
    study_h: float | None  # None selects h by CV on the first cohort (cv-once)
    study_cv_grid: tuple = ()  # candidates for cv-once


# Why these: both put their weight on one cohort CSV. At h=0.708 a quarter
# of the band pairs a residual pass scans fall inside the kernel disk, at
# h=2.0 over half do, so cell-list tiling should help `cli-narrow` and leave
# `cli-wide` unchanged. `cli-narrow` also runs the replication study users
# run, the criterion-07 configuration (cv-once) at small n and R, so that
# generation, the residual pass, CV and the worker pool carry its time; its
# grid (0.5, 1) selects h=1 on criterion 07's seed at this size.
# `cli-wide` runs a fixed-h study with no CV, which isolates replication
# throughput: a change to CV should move the first study and not the second.
WORKLOADS = {
    "cli-narrow": Workload(cohort_rows=1700, h=0.708, cv_grid=(0.5, 0.708), cv_folds=5,
                           study_n=200, study_reps=2, study_h=None,
                           study_cv_grid=(0.5, 1.0)),
    "cli-wide": Workload(cohort_rows=1700, h=2.0, cv_grid=(2.0,), cv_folds=2,
                         study_n=200, study_reps=2, study_h=2.0),
}
# tiny inputs for the benchmark's own tests
SMOKE = dict(cohort_rows=850, study_n=200, study_reps=2)


def load_vcterm():
    """Import vcterm from this checkout's src/, never from elsewhere."""
    if not (SRC / "vcterm" / "__init__.py").is_file():
        raise SystemExit(f"error: no vcterm sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import vcterm
    import vcterm.cli
    if Path(vcterm.__file__).resolve().parent != SRC / "vcterm":
        raise SystemExit(f"error: imported vcterm from {vcterm.__file__}, not {SRC}")
    return vcterm


def metric_specs():
    with open(BENCH_JSON, encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["end_to_end"], spec["per_layer"]


# --------------------------------------------------------------------------
# host speed


# Seconds the calibration loop is taken to last; the scale of every
# reported time. About the loop's median on the 2-vCPU Xeon host the
# benchmark was sized on, so that scaled times read close to raw ones there.
CAL_REF_S = 0.010
_CAL = np.random.default_rng(20260815)
_CAL_FLOATS = _CAL.random(1500).tolist()
_CAL_SMALL = _CAL.random(256)
_CAL_GRAM = _CAL.random((3, 3)) + 3.0 * np.eye(3)
_CAL_LARGE = _CAL.random(100_000)


def calibrate():
    """Wall time of a fixed mix of the kinds of work vcterm does: an
    interpreted loop, formatting and parsing numbers as CSV does, many small
    numpy calls as the local fits make, and one large sort."""
    start = time.perf_counter()
    acc = 0
    for i in range(30_000):
        acc += i * i
    text = ",".join("%.6g" % x for x in _CAL_FLOATS)
    sum(float(x) for x in text.split(","))
    for _ in range(120):
        w = np.exp(-_CAL_SMALL ** 2)
        np.linalg.solve(_CAL_GRAM * w[:3].sum(), w[:3])
    np.sort(_CAL_LARGE * 1.0001)
    return time.perf_counter() - start


class Clock:
    """Times a call and scales it by the calibration loops around it."""

    def __init__(self):
        self.before = None

    def time(self, fn):
        """(result, raw seconds, scaled seconds) of fn()."""
        if self.before is None:
            self.before = calibrate()
        start = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - start
        after = calibrate()
        scaled = raw * CAL_REF_S / (0.5 * (self.before + after))
        self.before = after
        return result, raw, scaled


# --------------------------------------------------------------------------
# inputs


def study_config_text(w: Workload) -> str:
    lines = [f"n = {w.study_n}", f"seed = {STUDY_SEED}", f"replications = {w.study_reps}",
             "grid = slices", "slice_T = " + ",".join("%g" % T for T in SLICE_T),
             f"slice_t_step = {SLICE_STEP:g}"]
    if w.study_h is None:
        lines += ["h_policy = cv-once", "cv_h_grid = " + ",".join(map(repr, w.study_cv_grid))]
    else:
        lines += ["h_policy = fixed", f"h_fixed = {w.study_h!r}"]
    return "\n".join(lines) + "\n"


def cohort(w: Workload, seed: int):
    """The first subjects of a simulated cohort, up to and including the one
    that brings the complete-case visits to w.cohort_rows."""
    from vcterm import simulate
    from vcterm.data import Dataset
    n = w.cohort_rows // 3  # about 1.4 times the subjects needed
    while True:
        pool, _ = simulate.gen_dataset(simulate.SimConfig(n=n, seed=seed))
        kept, rows = [], 0
        for subject in pool.subjects:
            kept.append(subject)
            rows += subject.n_visits if subject.event_observed else 0
            if rows >= w.cohort_rows:
                return Dataset(kept, p=pool.p)
        n *= 2


def setup(w: Workload, seed: int, workdir: Path):
    """Generate the cohort CSV and the study config; returns the cohort."""
    from vcterm import io as iomod
    dataset = cohort(w, seed)
    iomod.write_dataset_csv(dataset, str(workdir / "cohort.csv"))
    (workdir / "study.conf").write_text(study_config_text(w), encoding="utf-8")
    return dataset


# --------------------------------------------------------------------------
# one session


class Session:
    """Runs commands through vcterm.cli.main, timing and checking each."""

    def __init__(self, vcterm, w: Workload, workdir: Path, arrays, clock, tracer=None):
        self.cli = vcterm.cli
        self.radius = vcterm.DEFAULT_KERNEL.truncation_radius
        self.w = w
        self.workdir = workdir
        self.arrays = arrays
        self.clock = clock
        self.tracer = tracer
        self.attempted = 0
        self.failures = []
        self.raw = {}

    def command(self, label, argv, check):
        """Time one command; returns its scaled wall time, or None when it failed."""
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        if self.tracer is not None:
            self.tracer.phase = label
        span = self.tracer.span("cli." + label) if self.tracer else contextlib.nullcontext()

        def call():
            try:
                with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    return self.cli.main(argv)
            except Exception:  # a crash is a failed command, not a failed benchmark
                err.write(traceback.format_exc())
                return None

        code, self.raw[label], scaled = self.clock.time(call)
        if code != 0:
            self.failures.append(f"{label}: exit {code}: {err.getvalue().strip()[-500:]}")
            return None
        try:
            problems = check(out.getvalue())
        except (ValueError, KeyError, TypeError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        if problems:
            self.failures.append(f"{label}: " + "; ".join(problems[:5]))
            return None
        return scaled

    def run(self):
        w, data, conf = self.w, str(self.workdir / "cohort.csv"), str(self.workdir / "study.conf")
        h = repr(w.h)
        times = {}
        times["fit"] = self.command(
            "fit", ["fit", "--data", data, "--t0", repr(FIT_POINT[0]), "--s0",
                    repr(FIT_POINT[1]), "--h", h, "--format", "json"],
            lambda out: check_fit(out, self.arrays, *FIT_POINT, w.h, self.radius))
        slice_args = [a for T in SLICE_T for a in ("--T", repr(T))]
        times["slice"] = self.command(
            "slice", ["slice", "--data", data, *slice_args, "--t-step", repr(SLICE_STEP),
                      "--h", h, "--format", "json"],
            lambda out: check_slice(out, SLICE_T, SLICE_STEP, 3))
        times["cv"] = self.command(
            "cv", ["cv", "--data", data, "--h-grid", ",".join(map(repr, w.cv_grid)),
                   "--folds", str(w.cv_folds), "--format", "json"],
            lambda out: check_cv(out, w.cv_grid))
        # the two-worker study runs twice: its time varies the most
        out_dirs = {}
        for label, workers in STUDIES:
            out_dirs[label] = self.workdir / label
            shutil.rmtree(out_dirs[label], ignore_errors=True)
            times[label] = self.command(
                label, ["study", "--config", conf, "--out-dir", str(out_dirs[label]),
                        "--threads", str(workers)], lambda out: [])
        for label in ("study_w2", "study_w2b"):
            if times["study_w1"] is not None and times[label] is not None:
                problems = check_study_pair(out_dirs["study_w1"], out_dirs[label])
                if problems:
                    self.failures.append(f"{label}: " + "; ".join(problems[:5]))
                    times[label] = None
        return times


# --------------------------------------------------------------------------
# tracing


def trace_targets(vcterm):
    """(module, function, span name, on_result) for each traced public function."""
    from vcterm import bandwidth, experiments, fit, simulate
    from vcterm import io as iomod

    def loaded(tr, result, args, kwargs, elapsed):
        tr.count("io.rows_loaded", result[1].rows_kept)

    def generated(tr, result, args, kwargs, elapsed):
        tr.count("simulate.subjects", len(result[1]))

    tables = []  # residual tables already counted; a repeat is a cache hit

    def resid(tr, result, args, kwargs, elapsed):
        if any(result is t for t in tables):
            tr.count("fit.residual_cache_hits", 1)
            return
        tables.append(result)
        tr.count("fit.residual_obs", int(result.resid.size))
        tr.count("fit.residual_invalid", result.n_invalid)

    def grid(tr, result, args, kwargs, elapsed):
        tr.count("fit.grid_points", len(result))

    def scored(tr, result, args, kwargs, elapsed):
        h = kwargs.get("h", args[2] if len(args) > 2 else None)
        tr.count(("cv_score_s", float(h)), elapsed)
        tr.count(("excluded_fraction", float(h)), result[1])
        tr.peak("bandwidth.excluded_fraction", result[1])

    def studied(tr, result, args, kwargs, elapsed):
        tr.count("experiments.zero_valid_points", result.zero_valid_points)

    return [
        (iomod, "load_csv", "io.load_csv", loaded),
        (iomod, "write_dataset_csv", "io.write_dataset_csv", None),
        (simulate, "gen_dataset", "simulate.gen_dataset", generated),
        (fit, "residuals", "fit.residuals", resid),
        (fit, "local_fit", "fit.local_fit", None),
        (fit, "sandwich_variance", "fit.sandwich_variance", None),
        (fit, "fit_grid", "fit.fit_grid", grid),
        (bandwidth, "cv_score", "bandwidth.cv_score", scored),
        (bandwidth, "select_bandwidth", "bandwidth.select_bandwidth", None),
        (experiments, "run_study", "experiments.run_study", studied),
        (experiments, "aggregate_records", "experiments.aggregate_records", None),
        (experiments, "write_study_artifacts", "experiments.write_study_artifacts", None),
    ]


SPAN_METRICS = ("io.load_csv", "simulate.gen_dataset", "fit.residuals", "fit.local_fit",
                "fit.sandwich_variance", "fit.fit_grid", "bandwidth.cv_score",
                "bandwidth.select_bandwidth", "experiments.run_study",
                "experiments.aggregate_records", "experiments.write_study_artifacts")
COUNT_METRICS = ("io.rows_loaded", "simulate.subjects", "fit.residual_obs",
                 "fit.residual_invalid", "fit.residual_cache_hits", "fit.grid_points",
                 "bandwidth.excluded_fraction", "experiments.zero_valid_points")
# the two-worker study runs its replications in pool threads, whose spans
# have no parent in the command; per-layer figures cover the other commands
SINGLE_WORKER = ("fit", "slice", "cv", "study_w1")


def span_cost(calls=20000):
    """Seconds one traced call adds, from timing a no-op with and without."""
    def noop():
        return None

    traced = Tracer().wrap(noop, "noop")
    start = time.perf_counter()
    for _ in range(calls):
        noop()
    mid = time.perf_counter()
    for _ in range(calls):
        traced()
    return max(0.0, (time.perf_counter() - mid) - (mid - start)) / calls


def layer_metrics(tracer, times):
    out = {}
    single = [tracer.self_times(phase) for phase in SINGLE_WORKER]
    for name in SPAN_METRICS:
        out[name + "_s"] = sum(totals.get(name, 0.0) for totals, _ in single)
    out["fit.local_fit_calls"] = sum(calls.get("fit.local_fit", 0) for _, calls in single)
    out["bandwidth.cv_score_calls"] = sum(calls.get("bandwidth.cv_score", 0)
                                          for _, calls in single)
    out["cli.self_s"] = sum(v for totals, _ in single for k, v in totals.items()
                            if k.startswith("cli."))
    for name in COUNT_METRICS:
        values = [tracer.counts.get((phase, name), 0) for phase in SINGLE_WORKER]
        out[name] = max(values) if name == "bandwidth.excluded_fraction" else sum(values)
    setup_totals, _ = tracer.self_times("setup")
    out["setup.simulate.gen_dataset_s"] = setup_totals.get("simulate.gen_dataset", 0.0)
    out["setup.io.write_dataset_csv_s"] = setup_totals.get("io.write_dataset_csv", 0.0)
    out["setup.simulate.subjects"] = tracer.counts.get(("setup", "simulate.subjects"), 0)
    if times["study_w1"] and times["study_w2"]:
        out["experiments.parallel_eff_w2"] = times["study_w1"] / (2.0 * times["study_w2"])
    else:
        out["experiments.parallel_eff_w2"] = 0.0
    coverage = [c for name, _, c in tracer.command_coverage()
                if name[len("cli."):] in SINGLE_WORKER]
    out["trace.coverage_min"] = min(coverage) if coverage else 0.0
    out["trace.spans"] = len(tracer.spans)
    return out


# --------------------------------------------------------------------------
# environment


def _git_commit():
    """HEAD of the checkout from .git, or None outside a git clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "vcterm").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
              "GOTO_NUM_THREADS", "OMP_PROC_BIND", "OMP_PLACES")


def environment(workload, seed, args):
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        blas = None
    return {"workload": workload, "seed": seed, "seconds": args.seconds,
            "trace": args.trace, "smoke": args.smoke, "nproc": os.cpu_count(),
            "cpu_model": _cpu_model(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
            "git_commit": _git_commit(), "src_sha256": _src_digest()}


# --------------------------------------------------------------------------
# the run


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def run(workload, seed, seconds, trace, smoke=False):
    """Execute one benchmark run; returns (result dict, detail dict)."""
    vcterm = load_vcterm()

    w = WORKLOADS[workload]
    if smoke:
        w = replace(w, **SMOKE)
    deadline = time.perf_counter() + seconds
    workdir = WORK / f"run-{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    tracer = Tracer() if trace else None
    detail = {}
    clock = Clock()
    try:
        setup_s, setup_raw = [], []
        while len(setup_s) < SETUP_REPEATS[0] or (
                len(setup_s) < SETUP_REPEATS[1] and sum(setup_raw) < SETUP_MIN_S):
            traced = tracer is not None and not setup_s
            if traced:
                tracer.phase = "setup"
                tracer.install(trace_targets(vcterm))
            dataset, raw, scaled = clock.time(lambda: setup(w, seed, workdir))
            setup_s.append(scaled)
            setup_raw.append(raw)
            if traced:
                tracer.uninstall()
        arrays = complete_case_arrays(dataset)

        # With tracing, untraced and traced sessions alternate; the first
        # traced one gives the spans, and every pair the tracing overhead.
        sessions = []  # (scaled times, raw times, wall, traced)
        attempted, failures = 0, []
        while True:
            traced = tracer is not None and len(sessions) % 2 == 1
            session_tracer = (tracer if len(sessions) == 1 else Tracer()) if traced else None
            if traced:
                session_tracer.install(trace_targets(vcterm))
            session = Session(vcterm, w, workdir, arrays, clock, session_tracer)
            start = time.perf_counter()
            try:
                times = session.run()
            finally:
                if traced:
                    session_tracer.uninstall()
            wall = time.perf_counter() - start
            sessions.append((times, session.raw, wall, traced))
            attempted += session.attempted
            failures += session.failures
            if tracer is not None and len(sessions) % 2 == 1:
                continue  # finish the pair
            if time.perf_counter() + wall > deadline:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(failures)
    detail["failures"] = failures
    detail["sessions"] = [{"wall_s": wall, "traced": traced, "commands_s": times,
                           "commands_raw_s": raw}
                          for times, raw, wall, traced in sessions]
    detail["setup_s"] = setup_s
    detail["setup_raw_s"] = setup_raw
    detail["raw_medians_s"] = {k: _median([r.get(k) for _, r, _, traced in sessions
                                           if not traced])
                               for k in sessions[0][1]}
    detail["raw_medians_s"]["setup"] = statistics.median(setup_raw)
    if tracer is None:
        untraced = [times for times, _, _, _ in sessions]
        cmd = {k: _median([t[k] for t in untraced]) for k in untraced[0]}
        study_w2 = _median([t[k] for t in untraced for k in ("study_w2", "study_w2b")])
        metrics = {
            "setup_s": statistics.median(setup_s),
            "fit_s": cmd["fit"],
            "slice_s": cmd["slice"],
            "cv_s": cmd["cv"],
            "reps_per_s_w1": w.study_reps / cmd["study_w1"] if cmd["study_w1"] else None,
            "reps_per_s_w2": w.study_reps / study_w2 if study_w2 else None,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_frac": 1.0 - failed / attempted,
        }
    else:
        traced_times, traced_wall = sessions[1][0], sessions[1][2]
        metrics = layer_metrics(tracer, traced_times)
        # scaled command times of each traced session over the untraced one before it
        ratios = [sum(b.values()) / sum(a.values())
                  for (a, _, _, _), (b, _, _, _) in zip(sessions[::2], sessions[1::2])
                  if None not in a.values() and None not in b.values()]
        metrics["trace.overhead_frac"] = _median(ratios) - 1.0 if ratios else None
        detail["trace_pairs"] = len(ratios)
        kernel = vcterm.DEFAULT_KERNEL
        band, disk = pair_counts(arrays, w.h, kernel.truncation_radius,
                                 vcterm.kernel_eval, kernel)
        metrics["fit.band_pairs"] = band
        metrics["fit.disk_pairs"] = disk
        metrics["fit.disk_frac"] = disk / band
        detail["pairs_by_h"] = {}
        for h in sorted({w.h, *w.cv_grid, *w.study_cv_grid}):
            band, disk = pair_counts(arrays, h, kernel.truncation_radius,
                                     vcterm.kernel_eval, kernel)
            detail["pairs_by_h"][repr(h)] = {"band": band, "disk": disk}
        detail["cv_by_h"] = {}
        for (phase, key), value in tracer.counts.items():
            if phase in SINGLE_WORKER and isinstance(key, tuple):
                by_h = detail["cv_by_h"].setdefault(phase, {})
                by_h.setdefault(repr(key[1]), {})[key[0]] = value
        detail["coverage"] = tracer.command_coverage()
        # the session difference above is at the mercy of host noise; this
        # is the wrapper's own cost, from a traced no-op, times the spans
        detail["tracer_cost_frac"] = span_cost() * len(tracer.spans) / traced_wall
        detail["spans"] = tracer.dump()
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny cohorts, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not BENCH_JSON.is_file():
        raise SystemExit(f"error: {BENCH_JSON} is missing")
    end_to_end, per_layer = metric_specs()

    env = environment(args.workload, args.seed, args)
    result, detail = run(args.workload, args.seed, args.seconds, args.trace, args.smoke)
    specs = per_layer if args.trace else end_to_end
    missing = [s["name"] for s in specs if result["metrics"].get(s["name"]) is None]
    if missing:
        detail["failures"].append(f"no value for metrics {missing}")
        result["correct"] = False
        result["failed"] = max(result["failed"], 1)
    values = {name: 0.0 if v is None else v for name, v in result["metrics"].items()}
    result["metrics"] = {s["name"]: {"value": values.get(s["name"], 0.0), "unit": s["unit"]}
                         for s in specs}

    spans = detail.pop("spans", None)
    WORK.mkdir(exist_ok=True)
    trace_file = WORK / f"trace-{args.workload}-seed{args.seed}-{args.trace}.json"
    with open(trace_file, "w", encoding="utf-8") as fh:
        json.dump({"environment": env, "result": result, "detail": detail,
                   "spans": spans}, fh)
    for s in specs:
        value = result["metrics"][s["name"]]["value"]
        print(f"# {s['name']:36s} {value:14.6g} {s['unit']}  ({s['better']} is better)")
    for failure in detail["failures"]:
        print(f"# FAILED {failure}")
    print(json.dumps({"environment": env}))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
