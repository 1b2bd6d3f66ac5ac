"""Command line interface.

Subcommands: fit, slice, cv, simulate, study, kernel-moments, heatmap.
Exit codes: 0 success, 2 usage, 3 data errors, 4 numerical failures.
Errors are written to stderr as a single JSON line.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys

import numpy as np

from . import config as cfgmod
from . import io as iomod
from . import svg as svgmod
from .bandwidth import DEFAULT_FOLDS, DEFAULT_GAMMA, DEFAULT_H_GRID, select_bandwidth
from .data import Dataset
from .errors import DataError, NumericalError, UsageError, VctermError
from .experiments import GridSpec, rect_index, run_study, slice_stem
from .fit import (STATUS_OK, confidence_interval, fit_grid, local_fit, normal_quantile,
                  standard_errors)
from .io import fmt_cell
from .kernel import DEFAULT_KERNEL, kernel_moments
from .simulate import gen_dataset


_COMMON = {  # options that several subcommands share; each adds only the ones it reads
    "seed": dict(type=int, default=None, help="override the relevant random seed"),
    "threads": dict(type=int, default=1, help="accepted for compatibility; has no effect"),
    "transform": dict(default="none", choices=iomod.TRANSFORMS,
                      help="response transform applied on load"),
    "format": dict(default="csv", choices=("csv", "json"), dest="fmt",
                   help="stdout format for structured output"),
}


def _add_common(parser: argparse.ArgumentParser, *names):
    for name in names:
        parser.add_argument("--" + name, **_COMMON[name])


@functools.cache  # parsing leaves the parser unchanged, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vcterm",
        description="Kernel estimation of time-varying coefficients for "
                    "longitudinal data with a terminal event.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="estimate coefficients at one target point")
    p.add_argument("--data", required=True)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--s0", type=float, required=True)
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--alpha", type=float, default=0.05)
    _add_common(p, "transform", "format")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("slice", help="estimates along lines of fixed total time")
    p.add_argument("--data", required=True)
    p.add_argument("--T", type=float, action="append", required=True,
                   help="total time of a slice; repeatable")
    p.add_argument("--t-step", type=float, default=1.0)
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--out-dir", default=None)
    p.add_argument("--svg", action="store_true",
                   help="also write one SVG per slice (needs --out-dir)")
    _add_common(p, "transform", "format")
    p.set_defaults(func=cmd_slice)

    p = sub.add_parser("cv", help="cross-validated bandwidth selection")
    p.add_argument("--data", required=True)
    p.add_argument("--h-grid", default=None, help="comma-separated candidates; default "
                   + ",".join("%g" % h for h in DEFAULT_H_GRID))
    p.add_argument("--folds", type=int, default=DEFAULT_FOLDS)
    p.add_argument("--gamma", type=float, default=DEFAULT_GAMMA)
    _add_common(p, "seed", "threads", "transform", "format")
    p.set_defaults(func=cmd_cv)

    p = sub.add_parser("simulate", help="generate a synthetic cohort CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--truth-out", default=None,
                   help="also write generator-side event/censoring times")
    _add_common(p, "seed")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("study", help="replication study with coverage accounting")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--no-resume", action="store_true",
                   help="ignore partial records from an interrupted run")
    _add_common(p, "seed", "threads")
    p.set_defaults(func=cmd_study)

    p = sub.add_parser("kernel-moments", help="quadrature diagnostics of the kernel")
    p.add_argument("--quadrature-n", type=int, default=256)
    _add_common(p, "format")
    p.set_defaults(func=cmd_kernel_moments)

    p = sub.add_parser("heatmap", help="render a coverage table to SVG")
    p.add_argument("--coverage", required=True,
                   help="coverage CSV written by the study command")
    p.add_argument("--out", required=True)
    p.add_argument("--title", default="")
    p.set_defaults(func=cmd_heatmap)
    return parser


def _load(args) -> Dataset:
    dataset, report = iomod.load_csv(args.data, transform=args.transform)
    if report.rows_rejected or report.subjects_dropped:
        for diag in report.diagnostics[:20]:
            print(f"warning: {diag}", file=sys.stderr)
        extra = report.n_diagnostics - 20
        if extra > 0:
            print(f"warning: ... and {extra} more", file=sys.stderr)
    print(
        f"loaded {report.subjects_kept} subjects ({report.rows_kept} rows kept, "
        f"{report.rows_rejected} rejected, {report.rows_from_dropped_subjects} "
        f"from dropped subjects)",
        file=sys.stderr,
    )
    return dataset


def _need_complete_cases(dataset: Dataset):
    if dataset.n_complete_case == 0:
        raise DataError("no complete-case subjects: every follow-up is censored")


def _emit_rows(fmt: str, header, rows, meta: dict):
    if fmt == "json":
        payload = {"meta": meta, "rows": [dict(zip(header, row)) for row in rows]}
        sys.stdout.write(iomod.json_text(payload) + "\n")
    else:
        iomod.write_table(sys.stdout, meta, header, rows)


def _estimates(fp, n_cc: int, alpha: float) -> list[tuple]:
    """(estimate, se, lower, upper) per coefficient of a fit with variance."""
    ci = confidence_interval(fp, n_cc, alpha)
    return list(zip(fp.beta_hat.tolist(), standard_errors(fp, n_cc).tolist(), *ci.T.tolist()))


def cmd_fit(args) -> int:
    dataset = _load(args)
    _need_complete_cases(dataset)
    normal_quantile(args.alpha)  # an invalid alpha fails before the fit
    fp = local_fit(dataset, args.t0, args.s0, args.h)
    if fp.status != STATUS_OK:
        raise NumericalError(
            f"fit at ({args.t0:g}, {args.s0:g}) failed: {fp.status} (n_eff={fp.n_eff})"
        )
    n_cc = dataset.n_complete_case
    rows = [(k + 1, *est) for k, est in enumerate(_estimates(fp, n_cc, args.alpha))]
    meta = {"t0": fmt_cell(args.t0), "s0": fmt_cell(args.s0), "h": fmt_cell(args.h),
            "alpha": fmt_cell(args.alpha), "n_complete_case": n_cc,
            "n_eff": fp.n_eff, "status": fp.status}
    _emit_rows(args.fmt, ("coef", "estimate", "se", "lower", "upper"), rows, meta)
    return 0


_SLICE_HEADER = ("T", "t", "s", "coef", "estimate", "se", "lower", "upper",
                 "n_eff", "status")


def cmd_slice(args) -> int:
    dataset = _load(args)
    _need_complete_cases(dataset)
    if args.svg and not args.out_dir:
        raise DataError("--svg needs --out-dir")
    n_cc = dataset.n_complete_case
    normal_quantile(args.alpha)  # an invalid alpha fails before the fits
    grid = GridSpec(slice_T=tuple(args.T), slice_t_step=args.t_step)
    slices = list(zip(args.T, grid.slice_sizes()))  # (T, number of points), in --T order
    # one batch for every slice: the residual pass runs once
    fits = iter(fit_grid(dataset, grid.eval_points(), args.h))
    all_rows = []
    per_slice = {}  # a repeated T writes one file
    for T, count in slices:
        rows = []
        for fp in itertools.islice(fits, count):
            ests = (_estimates(fp, n_cc, args.alpha) if fp.status == STATUS_OK
                    else [(math.nan,) * 4] * dataset.p)
            rows += [(T, fp.t0, fp.s0, k + 1, *est, fp.n_eff, fp.status)
                     for k, est in enumerate(ests)]
        per_slice[T] = rows
        all_rows.extend(rows)

    meta = {"h": fmt_cell(args.h), "alpha": fmt_cell(args.alpha), "n_complete_case": n_cc}
    if args.out_dir is None:
        _emit_rows(args.fmt, _SLICE_HEADER, all_rows, meta)
        return 0
    os.makedirs(args.out_dir, exist_ok=True)
    for T, rows in per_slice.items():
        stem = os.path.join(args.out_dir, slice_stem(T))
        iomod.save_table(stem + ".csv", {**meta, "T": fmt_cell(T)}, _SLICE_HEADER, rows)
        if args.svg:
            _slice_svg(stem + ".svg", T, rows, dataset.p)
    print(f"wrote {len(per_slice)} slice tables to {args.out_dir}", file=sys.stderr)
    return 0


def _slice_svg(path: str, T: float, rows, p: int):
    ts = sorted({r[1] for r in rows})
    curves = []
    bands = []
    for k in range(1, p + 1):
        by_t = {r[1]: r for r in rows if r[3] == k}
        est, lo, hi = ([by_t[t][c] for t in ts] for c in (4, 6, 7))
        color = svgmod.PALETTE[(k - 1) % len(svgmod.PALETTE)]
        curves.append((f"b{k}", est, color))
        bands.append((lo, hi, color))
    svgmod.line_chart(path, ts, curves, bands, title=f"T = {T:g}")


def cmd_cv(args) -> int:
    dataset = _load(args)
    _need_complete_cases(dataset)
    h_grid = None
    if args.h_grid is not None:
        try:
            h_grid = tuple(float(v) for v in args.h_grid.split(","))
        except ValueError:
            raise UsageError(f"--h-grid: expected comma-separated numbers, got {args.h_grid!r}")
    seed = 0 if args.seed is None else args.seed
    result = select_bandwidth(dataset, h_grid=h_grid, seed=seed, k=args.folds,
                              gamma=args.gamma)
    rows = list(zip(result.h_grid, result.scores, result.excluded_fraction))
    meta = {"h_selected": fmt_cell(result.h_selected),
            "h_undersmoothed": fmt_cell(result.h_undersmoothed),
            "factor": fmt_cell(result.factor), "gamma": fmt_cell(result.gamma),
            "n_used": result.n_used, "n_complete_case": dataset.n_complete_case,
            "folds": result.folds, "seed": result.seed}
    _emit_rows(args.fmt, ("h", "score", "excluded_fraction"), rows, meta)
    return 0


def cmd_simulate(args) -> int:
    cfg = cfgmod.load_sim_config(args.config, seed_override=args.seed)
    dataset, truths = gen_dataset(cfg)
    iomod.write_dataset_csv(dataset, args.out)
    if args.truth_out:
        iomod.write_truth_csv(truths, args.truth_out)
    n_events = sum(1 for t in truths if t.event_observed)
    print(
        f"simulated {cfg.n} subjects: {dataset.n_subjects} with visits, "
        f"{n_events} events observed, {dataset.n_observations} observations "
        f"-> {args.out}",
        file=sys.stderr,
    )
    return 0


def cmd_study(args) -> int:
    cfg = cfgmod.load_study_config(args.config, seed_override=args.seed)
    result = run_study(cfg, out_dir=args.out_dir, resume=not args.no_resume)
    print(
        f"study complete: {cfg.replications} replications, "
        f"{result.points.shape[0]} grid points -> {args.out_dir}",
        file=sys.stderr,
    )
    if result.zero_valid_points:
        raise NumericalError(
            f"{result.zero_valid_points} grid points had zero valid replications"
        )
    return 0


def cmd_kernel_moments(args) -> int:
    moments = kernel_moments(DEFAULT_KERNEL, quadrature_n=args.quadrature_n)
    mu2 = moments.mu2
    rows = list(zip(("mass", "mu0", "mu1_x", "mu1_y", "mu2_xx", "mu2_xy", "mu2_yy"),
                    (moments.mass, moments.mu0, *moments.mu1, mu2[0, 0], mu2[0, 1], mu2[1, 1])))
    meta = {"quadrature_n": args.quadrature_n,
            "truncation_radius": fmt_cell(DEFAULT_KERNEL.truncation_radius),
            "normalizer": fmt_cell(DEFAULT_KERNEL.normalizer)}
    _emit_rows(args.fmt, ("moment", "value"), rows, meta)
    return 0


def cmd_heatmap(args) -> int:
    meta, header, rows = iomod.read_table(args.coverage)
    if not {"t", "s", "coverage"}.issubset(header):
        raise DataError(f"{args.coverage}: expected columns t, s, coverage")
    try:
        pts = [(float(r["t"]), float(r["s"]), iomod.read_cell(r["coverage"])) for r in rows]
    except (ValueError, TypeError):
        raise DataError(f"{args.coverage}: malformed numeric fields")
    if not pts:
        raise DataError(f"{args.coverage}: no rows")
    try:
        t_vals, s_vals, index = rect_index([p[:2] for p in pts])
    except ValueError:
        raise DataError(f"{args.coverage}: grid is not rectangular")
    grid = np.array([p[2] for p in pts])[index]
    title = args.title or f"coverage (coefficient {meta.get('coefficient', '?')})"
    svgmod.heatmap_chart(args.out, t_vals, s_vals, grid, title=title)
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles usage errors and --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except VctermError as exc:
        print(json.dumps({"error": str(exc), "code": exc.exit_code}),
              file=sys.stderr)
        return exc.exit_code
    except ValueError as exc:
        print(json.dumps({"error": str(exc), "code": 2}), file=sys.stderr)
        return 2


def run():
    raise SystemExit(main())


if __name__ == "__main__":
    run()
