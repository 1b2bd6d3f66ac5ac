"""Every table the CLI prints or writes, byte for byte against the per-cell writer.

tests/oracles.py keeps the writer that built the `fit`, `slice`, `cv` and
`kernel-moments` tables as tuples of values, one point's interval at a time, and
printed them cell by cell through fmt_cell (CSV) or as dicts through json_text (JSON).
Each command here runs through vcterm.cli.main and must print what that reference
prints, and `slice --out-dir` must write, per T, the rows that its stdout prints.
"""

import contextlib
import io
import os

import pytest

import oracles
from vcterm import SimConfig, gen_dataset
from vcterm.cli import main
from vcterm.experiments import slice_stem
from vcterm.io import fmt_cell, load_csv, write_dataset_csv

FORMATS = ("csv", "json")


@pytest.fixture(scope="module")
def cohort(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("cli_tables") / "cohort.csv")
    write_dataset_csv(gen_dataset(SimConfig(n=200, seed=11))[0], path)
    return path, load_csv(path)[0]


def _stdout(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 0
    return out.getvalue()


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("t0, s0, h, alpha", [(2.0, 6.0, 2.0, 0.05), (1.0, 9.0, 1.5, 0.1)])
def test_fit_prints_the_per_cell_table(cohort, fmt, t0, s0, h, alpha):
    path, data = cohort
    got = _stdout(["fit", "--data", path, "--t0", repr(t0), "--s0", repr(s0), "--h", repr(h),
                   "--alpha", repr(alpha), "--format", fmt])
    assert got == oracles.reference_emit(fmt, *oracles.reference_fit(data, t0, s0, h, alpha))


SLICES = [((8.0, 40.0), 1.0, 2.0, 0.05),         # T=40 fails at most points
          ((12.0, 8.0, 5.0), 0.7, 1.5, 0.1)]      # out of order; 0.7 divides no T


def _slice_argv(path, Ts, t_step, h, alpha):
    return ["slice", "--data", path, *(a for T in Ts for a in ("--T", repr(T))),
            "--t-step", repr(t_step), "--h", repr(h), "--alpha", repr(alpha)]


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("Ts, t_step, h, alpha", SLICES)
def test_slice_prints_the_per_cell_table(cohort, fmt, Ts, t_step, h, alpha):
    path, data = cohort
    got = _stdout(_slice_argv(path, Ts, t_step, h, alpha) + ["--format", fmt])
    slices, meta = oracles.reference_slices(data, Ts, t_step, h, alpha)
    rows = [row for _, block in slices for row in block]
    if Ts[-1] == 40.0:
        assert 0 < sum(row[-1] != "ok" for row in rows) < len(rows)
    assert got == oracles.reference_emit(fmt, oracles.SLICE_HEADER, rows, meta)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("h_grid, folds, seed", [((0.05, 2.0), 2, 0), ((1.0, 2.0, 4.0), 3, 3)])
def test_cv_prints_the_per_cell_table(cohort, fmt, h_grid, folds, seed):
    path, data = cohort
    got = _stdout(["cv", "--data", path, "--h-grid", ",".join(map(repr, h_grid)),
                   "--folds", str(folds), "--seed", str(seed), "--format", fmt])
    header, rows, meta = oracles.reference_cv(data, h_grid, folds, seed, 0.05)
    if h_grid[0] == 0.05:
        assert rows[0][1] == float("inf")  # an infeasible candidate: a missing score
    assert got == oracles.reference_emit(fmt, header, rows, meta)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("quadrature_n", [64, 256])
def test_kernel_moments_prints_the_per_cell_table(fmt, quadrature_n):
    got = _stdout(["kernel-moments", "--quadrature-n", str(quadrature_n), "--format", fmt])
    assert got == oracles.reference_emit(fmt, *oracles.reference_kernel_moments(quadrature_n))


def test_each_slice_file_holds_the_stdout_rows_of_its_T(cohort, tmp_path):
    path, data = cohort
    Ts, t_step, h, alpha = (8.0, 40.0, 12.0), 0.7, 2.0, 0.05
    argv = _slice_argv(path, Ts, t_step, h, alpha)
    printed = _stdout(argv).splitlines(keepends=True)
    assert _stdout(argv + ["--out-dir", str(tmp_path / "out"), "--svg"]) == ""
    slices, meta = oracles.reference_slices(data, Ts, t_step, h, alpha)
    ref = tmp_path / "ref"
    ref.mkdir()
    for T, rows in slices:
        oracles.reference_slice_svg(str(ref / (slice_stem(T) + ".svg")), T, rows, data.p)
    names = sorted(slice_stem(T) + ext for T in Ts for ext in (".csv", ".svg"))
    assert sorted(os.listdir(tmp_path / "out")) == names
    for T, ref_rows in slices:
        stem = slice_stem(T)
        text = (tmp_path / "out" / (stem + ".csv")).read_text(encoding="utf-8")
        rows = [ln for ln in text.splitlines(keepends=True) if not ln.startswith("#")][1:]
        assert rows == [ln for ln in printed if ln.split(",")[0] == fmt_cell(T)]
        assert text == oracles.reference_emit("csv", oracles.SLICE_HEADER, ref_rows,
                                              {**meta, "T": fmt_cell(T)})
        assert (tmp_path / "out" / (stem + ".svg")).read_bytes() == \
            (ref / (stem + ".svg")).read_bytes()
