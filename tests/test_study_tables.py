"""Study tables built from array columns, byte for byte against the row-by-row writer.

tests/oracles.py keeps the writer that formatted every table as tuples of values,
one fmt_cell call per cell. Each study here is written by run_study and by that
reference, and every file must match, as must the partial records rows.
"""

import math
import os

import numpy as np
import pytest

import oracles
from vcterm import GridSpec, SimConfig, StudyConfig, run_study
from vcterm.experiments import (PARTIAL_RECORDS, CvSettings, _append_partial, _record_rows,
                                study_fingerprint)
from vcterm.io import fmt_cell, fmt_column

SIM = SimConfig(n=60, seed=11)
SLICES = GridSpec(kind="slices", slice_T=(8.0, 40.0), slice_t_step=2.0)  # T=40 always fails
RECT = GridSpec(kind="rect", rect_t=(1.0, 3.0), rect_s=(5.0, 50.0))  # s=50 always fails
POINTS = GridSpec(kind="points", points=((1.0, 9.0), (2.5, 5.5), (3.0, 60.0)))

STUDIES = {
    "slices": StudyConfig(sim=SIM, replications=2, h_policy="fixed", h_fixed=2.5, grid=SLICES),
    "rect": StudyConfig(sim=SIM, replications=3, h_policy="fixed", h_fixed=2.5, grid=RECT),
    "one-replication": StudyConfig(sim=SIM, replications=1, h_policy="fixed", h_fixed=2.5,
                                   grid=POINTS),
    "cv-once": StudyConfig(sim=SIM, replications=2, h_policy="cv-once", grid=SLICES,
                           cv=CvSettings(h_grid=(2.0, 4.0), folds=2)),
}


def _files(directory) -> dict:
    return {name: (directory / name).read_bytes() for name in sorted(os.listdir(directory))}


def _assert_partial_rows_match(result, tmp_path):
    points = result.config.grid.eval_points()
    new, ref = tmp_path / "new.partial.csv", tmp_path / "ref.partial.csv"
    for record in result.records:
        _append_partial(str(new), _record_rows(record, points))
        oracles.reference_append_partial(str(ref), record, points)
    assert new.read_bytes() == ref.read_bytes()


@pytest.mark.parametrize("name", sorted(STUDIES))
def test_every_study_file_matches_the_row_by_row_writer(tmp_path, name):
    cfg = STUDIES[name]
    result = run_study(cfg, out_dir=str(tmp_path / "out"))
    oracles.reference_write_study_artifacts(result, str(tmp_path / "ref"))
    if name in ("slices", "rect"):
        assert result.zero_valid_points > 0
    if name == "one-replication":
        assert np.isnan(result.emp_sd).all()
    got, want = _files(tmp_path / "out"), _files(tmp_path / "ref")
    assert sorted(got) == sorted(want) and PARTIAL_RECORDS not in got
    for file in want:
        assert got[file] == want[file], file
    _assert_partial_rows_match(result, tmp_path)


def test_a_resumed_study_matches_the_row_by_row_writer(tmp_path):
    cfg = STUDIES["slices"]
    full = run_study(cfg, out_dir=str(tmp_path / "full"))
    out = tmp_path / "resumed"
    out.mkdir()
    partial = out / PARTIAL_RECORDS
    partial.write_text(f"# fingerprint={study_fingerprint(cfg)}\n"
                       "rep,point,t,s,coef,h,estimate,se,status\n", encoding="utf-8")
    points = cfg.grid.eval_points()
    for record in full.records:
        oracles.reference_append_partial(str(partial), record, points)
    text = partial.read_text(encoding="utf-8")
    partial.write_text(text[:-7], encoding="utf-8")  # a crash cut the last row short
    resumed = run_study(cfg, out_dir=str(out))
    oracles.reference_write_study_artifacts(resumed, str(tmp_path / "ref"))
    assert _files(out) == _files(tmp_path / "ref") == _files(tmp_path / "full")


def _literal_cell(v) -> str:
    """fmt_cell's rule for a number, spelled out: 17 significant digits for a
    float, empty unless it is finite, and an int as str() writes it."""
    if isinstance(v, (float, np.floating)):
        return "%.17g" % v if math.isfinite(v) else ""
    return str(v)


def test_the_column_formatter_is_fmt_cell_on_every_value():
    edge = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
            np.finfo(float).max, -np.finfo(float).max, 0.1, 1.0, 1e16, 1e17, 2.0 ** 53]
    ints = [0, -1, 7, 10 ** 17, 2 ** 63, -(10 ** 30), np.int64(-(2 ** 63)),
            np.int64(2 ** 62), np.uint64(2 ** 64 - 1), np.int8(-5), np.intp(12)]
    rng = np.random.default_rng(20261020)  # a fixed draw, the same on every run
    bits = rng.integers(0, 2 ** 64, size=4000, dtype=np.uint64, endpoint=False)
    drawn = np.concatenate([bits.view(np.float64), rng.standard_normal(1000) * 1e5,
                            rng.uniform(-1, 1, 1000) * 1e-300])
    for values in (edge, ints, drawn.tolist(), list(drawn), np.array(edge).tolist()):
        want = [_literal_cell(v) for v in values]
        assert fmt_column(values) == want
        assert [fmt_cell(v) for v in values] == want
    assert fmt_column([]) == []
    assert fmt_column(["ok", "empty_support"]) == ["ok", "empty_support"]
