"""Command line interface.

Subcommands: fit, slice, cv, simulate, study, kernel-moments, heatmap.
Exit codes: 0 success, 1 a closed stdout, 2 usage, 3 data errors, 4 numerical failures.
Errors, argparse's usage errors included, are written to stderr as a single
JSON line.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import os
import sys

import numpy as np

from . import config as cfgmod
from . import io as iomod
from . import svg as svgmod
from .bandwidth import (DEFAULT_FOLDS, DEFAULT_GAMMA, DEFAULT_H_GRID, candidate_grid,
                        check_folds, check_gamma, select_bandwidth)
from .data import Dataset
from .errors import DataError, NumericalError, UsageError, VctermError
from .experiments import GridSpec, rect_index, run_study, slice_stem
from .fit import STATUS_OK, _fit_arrays, fit_grid, local_fit, normal_quantile
from .io import fmt_cell
from .kernel import DEFAULT_KERNEL, kernel_moments
from .simulate import gen_dataset


def _seed(text: str) -> int:
    """A --seed value: numpy's seed sequences take non-negative integers only."""
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return seed


_COMMON = {  # options that several subcommands share; each adds only the ones it reads
    "seed": dict(type=_seed, default=None, help="override the relevant random seed"),
    "threads": dict(type=int, default=1, help="accepted for compatibility; has no effect"),
    "transform": dict(default="none", choices=iomod.TRANSFORMS,
                      help="response transform applied on load"),
    "format": dict(default="csv", choices=("csv", "json"), dest="fmt",
                   help="stdout format for structured output"),
}


def _add_common(parser: argparse.ArgumentParser, *names):
    for name in names:
        parser.add_argument("--" + name, **_COMMON[name])


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are UsageErrors, so that main reports
    them as one JSON line; add_subparsers makes the subcommands' parsers of this
    class too."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


@functools.cache  # parsing leaves the parser unchanged, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    try:
        dataset, report = iomod.load_csv(args.data, transform=args.transform)
    except UnicodeDecodeError as exc:
        raise DataError(f"{args.data}: not UTF-8 text: {exc}") from None
    except OSError as exc:  # a read that fails once the file is open, as /proc/self/mem's
        raise DataError(f"cannot read {args.data}: {exc}") from None
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
    if dataset.n_complete_case == 0:
        raise DataError("no complete-case subjects: every follow-up is censored")
    return dataset


def _print_table(fmt: str, meta: dict, header, *columns):
    """A table of array columns, laid out by io._cells, on stdout as CSV or as JSON."""
    if fmt == "json":
        rows = iomod._cells(*columns, cell=lambda values: values)
        payload = {"meta": meta, "rows": [dict(zip(header, row)) for row in rows]}
        sys.stdout.write(iomod.json_text(payload) + "\n")
    else:
        iomod.write_table(sys.stdout, meta, header, [iomod._lines(iomod._cells(*columns))])


def _interval_columns(fits, p: int, alpha: float) -> tuple:
    """(estimate, se, lower, upper) of the fits, (G, p) each, NaN where a fit is not ok."""
    est, se, _ = _fit_arrays(fits, p)
    z = normal_quantile(alpha)
    return est, se, est - z * se, est + z * se


def cmd_fit(args) -> int:
    normal_quantile(args.alpha)  # an invalid alpha fails before the load
    dataset = _load(args)
    fp = local_fit(dataset, args.t0, args.s0, args.h)
    if fp.status != STATUS_OK:
        raise NumericalError(
            f"fit at ({args.t0:g}, {args.s0:g}) failed: {fp.status} (n_eff={fp.n_eff})"
        )
    meta = {"t0": fmt_cell(args.t0), "s0": fmt_cell(args.s0), "h": fmt_cell(args.h),
            "alpha": fmt_cell(args.alpha), "n_complete_case": fp.n_cc,
            "n_eff": fp.n_eff, "status": fp.status}
    _print_table(args.fmt, meta, ("coef", "estimate", "se", "lower", "upper"),
                 np.arange(1, dataset.p + 1),
                 *_interval_columns([fp], dataset.p, args.alpha))
    return 0


_SLICE_HEADER = ("T", "t", "s", "coef", "estimate", "se", "lower", "upper",
                 "n_eff", "status")


def cmd_slice(args) -> int:
    if args.svg and not args.out_dir:
        raise DataError("--svg needs --out-dir")
    normal_quantile(args.alpha)  # an invalid alpha or grid fails before the load
    grid = GridSpec(slice_T=tuple(args.T), slice_t_step=args.t_step)
    dataset = _load(args)
    slices, p = grid.slices(), dataset.p
    # one batch for every slice: the residual pass runs once
    fits = fit_grid(dataset, grid.eval_points(), args.h)
    t, s = np.array([(fp.t0, fp.s0) for fp in fits]).T
    est, se, lower, upper = _interval_columns(fits, p, args.alpha)
    columns = (np.concatenate([np.full((at.stop - at.start, 1), T) for T, at in slices.items()]),
               t[:, None], s[:, None], np.arange(1, p + 1), est, se, lower, upper,
               np.array([[fp.n_eff] for fp in fits]), np.array([[fp.status] for fp in fits]))
    meta = {"h": fmt_cell(args.h), "alpha": fmt_cell(args.alpha),
            "n_complete_case": dataset.n_complete_case}
    if args.out_dir is None:
        _print_table(args.fmt, meta, _SLICE_HEADER, *columns)
        return 0
    rows = iomod._cells(*columns)
    os.makedirs(args.out_dir, exist_ok=True)
    with iomod.output_files() as temp:
        for T, at in slices.items():
            stem = os.path.join(args.out_dir, slice_stem(T))
            iomod.save_table(temp(stem + ".csv"), {**meta, "T": fmt_cell(T)}, _SLICE_HEADER,
                             [iomod._lines(rows[at.start * p:at.stop * p])])
            if args.svg:
                _slice_svg(temp(stem + ".svg"), T, t[at], *(a[at] for a in (est, lower, upper)))
    print(f"wrote {len(slices)} slice tables to {args.out_dir}", file=sys.stderr)
    return 0


def _slice_svg(path: str, T: float, t, est, lower, upper):
    """One slice's chart: each coefficient's estimates, a column of the (n, p) est, against
    the (n,) t, in a band from lower to upper."""
    colors = [svgmod.PALETTE[k % len(svgmod.PALETTE)] for k in range(est.shape[1])]
    curves = [(f"b{k + 1}", e, c) for k, (e, c) in enumerate(zip(est.T.tolist(), colors))]
    bands = list(zip(lower.T.tolist(), upper.T.tolist(), colors))
    svgmod.line_chart(path, t.tolist(), curves, bands, title=f"T = {T:g}")


def cmd_cv(args) -> int:
    h_grid = None
    if args.h_grid is not None:
        try:
            h_grid = tuple(float(v) for v in args.h_grid.split(","))
        except ValueError:
            raise UsageError(f"--h-grid: expected comma-separated numbers, got {args.h_grid!r}")
    candidate_grid(h_grid)  # the candidates, folds and gamma fail before the load
    check_folds(args.folds)
    check_gamma(args.gamma)
    dataset = _load(args)
    seed = 0 if args.seed is None else args.seed
    result = select_bandwidth(dataset, h_grid=h_grid, seed=seed, k=args.folds,
                              gamma=args.gamma)
    meta = {"h_selected": fmt_cell(result.h_selected),
            "h_undersmoothed": fmt_cell(result.h_undersmoothed),
            "factor": fmt_cell(result.factor), "gamma": fmt_cell(result.gamma),
            "n_used": result.n_used, "n_complete_case": dataset.n_complete_case,
            "folds": result.folds, "seed": result.seed}
    _print_table(args.fmt, meta, ("h", "score", "excluded_fraction"),
                 result.h_grid, result.scores, result.excluded_fraction)
    return 0


def cmd_simulate(args) -> int:
    cfg = cfgmod.load_sim_config(args.config, seed_override=args.seed)
    dataset, truths = gen_dataset(cfg)
    with iomod.output_files() as temp:
        iomod.write_dataset_csv(dataset, temp(args.out))
        if args.truth_out:
            iomod.write_truth_csv(truths, temp(args.truth_out))
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
    meta = {"quadrature_n": args.quadrature_n,
            "truncation_radius": fmt_cell(DEFAULT_KERNEL.truncation_radius),
            "normalizer": fmt_cell(DEFAULT_KERNEL.normalizer)}
    _print_table(args.fmt, meta, ("moment", "value"),
                 ("mass", "mu0", "mu1_x", "mu1_y", "mu2_xx", "mu2_xy", "mu2_yy"),
                 (moments.mass, moments.mu0, *moments.mu1, mu2[0, 0], mu2[0, 1], mu2[1, 1]))
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
    with iomod.output_files() as temp:
        svgmod.heatmap_chart(temp(args.out), t_vals, s_vals, grid, title=title)
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse's --help
        return int(exc.code or 0)
    except VctermError as exc:
        message, code = str(exc), exc.exit_code
    except ValueError as exc:
        message, code = str(exc), 2
    except OSError as exc:  # a file that cannot be written; each read maps its own
        if exc.filename is None:
            raise
        message, code = f"cannot write {exc.filename}: {exc.strerror}", 3
    print(json.dumps({"error": message, "code": code}), file=sys.stderr)
    return code


def run():
    out = sys.stdout  # under -u a raw file, whose short writes TextIOWrapper would drop
    if isinstance(getattr(out, "buffer", None), io.RawIOBase):
        sys.stdout = io.TextIOWrapper(io.BufferedWriter(out.buffer), out.encoding, out.errors,
                                      write_through=True)
    try:
        code = main()
        sys.stdout.flush()  # so that a closed stdout fails here, not at exit
    except BrokenPipeError:  # the reader left, as `| head` does: the signal module's recipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    raise SystemExit(code)


if __name__ == "__main__":
    run()
