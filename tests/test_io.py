import csv
import dataclasses
import io
import math
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import vcterm.io as vcterm_io
from vcterm import DataError, Dataset, SimConfig, gen_dataset
from vcterm.io import (TRANSFORMS, IngestionReport, apply_transform, fmt_cell, json_text,
                       load_csv, read_cell, read_table, write_dataset_csv,
                       write_truth_csv)
from vcterm.simulate import TruthRecord

import oracles

HEADER = "subject_id,visit_time,response,followup_end,event_observed,x_2\n"


def _write(tmp_path, body, name="data.csv", header=HEADER):
    path = tmp_path / name
    path.write_text(header + body, encoding="utf-8")
    return str(path)


def test_round_trip_is_exact(tmp_path):
    ds, _ = gen_dataset(SimConfig(n=25, seed=13))
    path = tmp_path / "cohort.csv"
    write_dataset_csv(ds, str(path))
    back, report = load_csv(str(path))
    assert report.rows_rejected == 0
    assert report.subjects_dropped == 0
    assert back.n_subjects == ds.n_subjects
    for a, b in zip(ds.subjects, back.subjects):
        assert a.id == b.id
        np.testing.assert_array_equal(a.times, b.times)
        np.testing.assert_array_equal(a.covariates, b.covariates)
        np.testing.assert_array_equal(a.responses, b.responses)
        assert a.followup_end == b.followup_end
        assert a.event_observed == b.event_observed


def test_simulated_cohort_is_written_as_the_reference_writer_writes_it(tmp_path):
    ds, truths = gen_dataset(SimConfig(n=40, seed=29))
    for write, reference, value in ((write_dataset_csv, oracles.reference_write_dataset_csv, ds),
                                    (write_truth_csv, oracles.reference_write_truth_csv, truths)):
        write(value, str(tmp_path / "a.csv"))
        reference(value, str(tmp_path / "b.csv"))
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_truth_csv_round_trip_values(tmp_path):
    _, truths = gen_dataset(SimConfig(n=5, seed=3))
    path = tmp_path / "truth.csv"
    write_truth_csv(truths, str(path))
    meta, header, rows = read_table(str(path))
    assert header == ["subject_id", "x2", "x3_at_zero", "event_time",
                      "censor_time", "event_observed"]
    assert len(rows) == 5
    assert float(rows[0]["event_time"]) == truths[0].event_time


def test_log_transform_value(tmp_path):
    # ln(y/1000 + 1) at y=1000 is ln 2
    path = _write(tmp_path, "a,1.0,1000.0,5.0,1\na,2.0,0.0,5.0,1\n",
                  header="subject_id,visit_time,response,followup_end,event_observed\n")
    ds, _ = load_csv(path, "log1000")
    assert ds.subjects[0].responses[0] == pytest.approx(0.6931471805599453,
                                                        abs=1e-15)
    assert ds.subjects[0].responses[1] == 0.0


def test_log_transform_domain_error():
    with pytest.raises(DataError, match=r"response below -scale \(-1000\)"):
        apply_transform("log1000", np.array([-1000.0]))
    np.testing.assert_allclose(apply_transform("log1000", np.array([0.0, -999.0])),
                               [0.0, np.log(1e-3)], rtol=1e-12)


def test_transform_names():
    assert TRANSFORMS == ("none", "log1000")
    y = np.array([-5000.0, 0.0, 2.5])
    assert apply_transform("none", y).tobytes() == y.tobytes()
    assert apply_transform("log1000", y[1:]).tobytes() == np.log1p(y[1:] / 1000.0).tobytes()
    message = "unknown transform 'log10' (expected log1000 or none)"
    with pytest.raises(DataError, match=re.escape(message)):
        apply_transform("log10", y)
    # the name is checked before the file is opened
    with pytest.raises(DataError, match="unknown transform"):
        load_csv("/nonexistent/file.csv", "log10")


def test_missing_columns_fatal(tmp_path):
    path = _write(tmp_path, "a,1.0,2.0\n",
                  header="subject_id,visit_time,response\n")
    with pytest.raises(DataError):
        load_csv(path)


def test_row_rejections_are_counted_and_line_numbered(tmp_path):
    body = (
        "a,1.0,2.0,5.0,1,0.1\n"       # ok
        "a,oops,2.0,5.0,1,0.1\n"      # bad visit_time
        "a,2.0,2.0,5.0,1,bad\n"       # bad covariate
        "a,-1.0,2.0,5.0,1,0.1\n"      # negative time
        "a,7.0,2.0,5.0,1,0.1\n"       # after follow-up
        "a,1.0,9.0,5.0,1,0.4\n"       # duplicate time, first kept
        "a,3.0,1.0,5.0,1,0.2\n"       # ok
    )
    path = _write(tmp_path, body)
    ds, report = load_csv(path)
    assert report.rows_in == 7
    assert report.rows_kept == 2
    assert report.rows_rejected == 5
    assert report.rows_from_dropped_subjects == 0
    assert report.rows_in == (report.rows_kept + report.rows_rejected +
                              report.rows_from_dropped_subjects)
    assert ds.subjects[0].n_visits == 2
    np.testing.assert_array_equal(ds.subjects[0].times, [1.0, 3.0])
    assert ds.subjects[0].responses[0] == 2.0  # first duplicate wins
    text = "\n".join(report.diagnostics)
    assert "line 3" in text
    assert "duplicate" in text
    assert "after followup_end" in text


def test_subject_level_drop_counts_rows(tmp_path):
    body = (
        "a,1.0,2.0,5.0,1,0.1\n"
        "b,1.0,2.0,-3.0,1,0.1\n"      # nonpositive follow-up: drop subject b
        "b,2.0,2.0,-3.0,1,0.1\n"
        "c,1.0,2.0,5.0,2,0.1\n"       # bad event flag: drop subject c
    )
    path = _write(tmp_path, body)
    ds, report = load_csv(path)
    assert report.subjects_in == 3
    assert report.subjects_kept == 1
    assert report.subjects_dropped == 2
    assert report.rows_kept == 1
    assert report.rows_from_dropped_subjects == 2   # b's two parsed rows
    assert report.rows_rejected == 1                # c's unparsed row
    assert report.rows_in == (report.rows_kept + report.rows_rejected +
                              report.rows_from_dropped_subjects)
    assert [s.id for s in ds.subjects] == ["a"]


def test_inconsistent_followup_is_fatal(tmp_path):
    body = "a,1.0,2.0,5.0,1,0.1\na,2.0,2.0,6.0,1,0.1\n"
    with pytest.raises(DataError):
        load_csv(_write(tmp_path, body))
    body2 = "a,1.0,2.0,5.0,1,0.1\na,2.0,2.0,5.0,0,0.1\n"
    with pytest.raises(DataError):
        load_csv(_write(tmp_path, body2, name="d2.csv"))


def test_unsorted_input_is_sorted(tmp_path):
    body = "a,3.0,30.0,5.0,0,0.3\na,1.0,10.0,5.0,0,0.1\na,2.0,20.0,5.0,0,0.2\n"
    ds, _ = load_csv(_write(tmp_path, body))
    np.testing.assert_array_equal(ds.subjects[0].times, [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(ds.subjects[0].responses, [10.0, 20.0, 30.0])
    np.testing.assert_array_equal(ds.subjects[0].covariates[:, 1],
                                  [0.1, 0.2, 0.3])


def test_subject_with_no_valid_rows_dropped(tmp_path):
    body = "a,9.0,1.0,5.0,1,0.1\nb,1.0,1.0,5.0,1,0.1\n"
    ds, report = load_csv(_write(tmp_path, body))
    assert [s.id for s in ds.subjects] == ["b"]
    assert report.subjects_dropped == 1
    assert any("no valid visits" in d for d in report.diagnostics)


def test_intercept_injected_and_p_inferred(tmp_path):
    body = "a,1.0,2.0,5.0,1,0.5\n"
    ds, _ = load_csv(_write(tmp_path, body))
    assert ds.p == 2
    np.testing.assert_array_equal(ds.subjects[0].covariates, [[1.0, 0.5]])

    no_x = "subject_id,visit_time,response,followup_end,event_observed\n"
    ds2, _ = load_csv(_write(tmp_path, "a,1.0,2.0,5.0,1\n", name="nox.csv",
                             header=no_x))
    assert ds2.p == 1


def test_read_table_meta_and_rows(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text("# alpha=0.05\n# name=test\ncol_a,col_b\n1,2\n3,4\n",
                    encoding="utf-8")
    meta, header, rows = read_table(str(path))
    assert meta == {"alpha": "0.05", "name": "test"}
    assert header == ["col_a", "col_b"]
    assert rows[1]["col_b"] == "4"
    empty = tmp_path / "empty.csv"
    empty.write_text("# only=meta\n", encoding="utf-8")
    with pytest.raises(DataError):
        read_table(str(empty))


def test_fmt_cell_writes_missing_values_empty():
    for x in (np.nan, np.inf, -np.inf):
        assert fmt_cell(float(x)) == ""
        assert fmt_cell(np.float64(x)) == ""
    assert fmt_cell(None) == ""
    assert fmt_cell(True) == "1"
    assert fmt_cell(0.1) == "0.10000000000000001"
    assert fmt_cell(1) == "1"


def test_json_text_writes_missing_values_null():
    value = {"b": (0.1, np.nan, [np.inf, np.float64(-np.inf)]), "a": {2: None, 1: "x"}}
    assert json_text(value) == '{"a": {"1": "x", "2": null}, "b": [0.1, null, [null, null]]}'
    assert json_text({"k": np.nan}, indent=2) == '{\n  "k": null\n}'


def test_load_csv_missing_file():
    with pytest.raises(DataError):
        load_csv("/nonexistent/file.csv")


# -- writers against the reference writers, and back through load_csv ----------

# ids hold the characters that need quoting, spaces, % and # (which opens a
# comment line before a table's header), non-ASCII text, and any other
# character UTF-8 can encode; the loader rejects an empty id by design
ID = st.text(st.one_of(st.sampled_from([",", '"', "\r", "\n", " ", "%", "#", "é", "中"]),
                       st.characters(blacklist_categories=("Cs",))), min_size=1, max_size=5)
EDGE_FLOATS = [-0.0, 0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 0.1, 1e308, -1e308,
               1.7976931348623157e308]
FLOAT = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def cohorts(draw):
    """A valid cohort that load_csv keeps whole: times from -0.0 or 0 up to the follow-up."""
    p = draw(st.integers(1, 3))
    ids = draw(st.lists(ID, min_size=1, max_size=5, unique=True))
    counts, times, fups = [], [], []
    for _ in ids:
        fup = draw(st.one_of(st.sampled_from([5e-324, 1e-310, 1.0, 1e308]),
                             st.floats(min_value=5e-324, max_value=1e308)))
        t = sorted(draw(st.lists(st.floats(min_value=0.0, max_value=fup),
                                 min_size=1, max_size=4, unique=True)))
        if t[0] == 0.0 and draw(st.booleans()):
            t[0] = -0.0
        counts.append(len(t))
        times += t
        fups.append(fup)
    rows = len(times)
    x = draw(st.lists(st.lists(FLOAT, min_size=p - 1, max_size=p - 1),
                      min_size=rows, max_size=rows))
    y = draw(st.lists(FLOAT, min_size=rows, max_size=rows))
    events = draw(st.lists(st.booleans(), min_size=len(ids), max_size=len(ids)))
    covariates = np.column_stack([np.ones(rows), np.array(x, dtype=float).reshape(rows, p - 1)])
    return Dataset.from_columns(ids, counts, np.array(times), covariates, np.array(y), fups,
                                events)


def _written(write, value):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out.csv")
        write(value, path)
        with open(path, "rb") as fh:
            return fh.read()


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cohorts())
def test_dataset_writer_matches_reference_and_round_trips_exactly(dataset):
    text = _written(write_dataset_csv, dataset)
    assert text == _written(oracles.reference_write_dataset_csv, dataset)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cohort.csv")
        with open(path, "wb") as fh:
            fh.write(text)
        back, report = load_csv(path)
    n, rows = dataset.n_subjects, dataset.n_observations
    assert report == IngestionReport(rows_in=rows, rows_kept=rows, subjects_in=n,
                                     subjects_kept=n)
    assert back.ids == dataset.ids
    for name in ("counts", "times", "covariates", "responses", "followup_end",
                 "event_observed"):
        a, b = getattr(back, name), getattr(dataset, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name


TRUTH_HEADER = ["subject_id", "x2", "x3_at_zero", "event_time", "censor_time", "event_observed"]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(ID, FLOAT, FLOAT, FLOAT, FLOAT, st.booleans()), max_size=5))
def test_truth_writer_matches_reference(fields):
    truths = [TruthRecord(*f) for f in fields]
    text = _written(write_truth_csv, truths)
    assert text == _written(oracles.reference_write_truth_csv, truths)
    rows = list(csv.reader(io.StringIO(text.decode("utf-8"), newline="")))[1:]
    assert [(r[0], *map(float, r[1:5]), r[5] == "1") for r in rows] == [
        (f[0], *f[1:]) for f in fields]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "truth.csv")
        write_truth_csv(truths, path)
        meta, header, table = read_table(path)
    assert meta == {} and header == TRUTH_HEADER
    assert [tuple(r.values()) for r in table] == [tuple(r) for r in rows]


# a short row reads None past its end: each one here lacks a numeric cell, the
# event flag or the id, in blocks that also hold full rows of repeated texts
SHORT_ROWS = {  # header -> (rows, a diagnostic they must give)
    "subject_id,visit_time,response,followup_end,event_observed,x_2,x_3": ([
        "a,1.0,2.0,5.0,1,0.5,3", "a,2.0,2.5,5.0,1,0.5,4", "a,3.0,2.0,5.0,1,0.5",
        "a,4.0,1.0,5.0,1,0.5", "b,1.0,2.0,6.0,0,0.1,1", "b,2.0,2.0,6.0", "c,1.0,2.0",
        "c,2.0", "", "d", "e,1.5,2.0,7.0,1,0.2,1", "e,2.5,2.0,7.0,1,0.2,2"],
        "line 4: x_3 None is not numeric"),
    "visit_time,response,followup_end,event_observed,x_2,subject_id": ([
        "1.0,2.0,5.0,1,0.5,a", "2.0,2.0,5.0,1,0.5", "3.0,2.0,5.0,1,0.5,a",
        "1.0,2.0,5.0,1", "4.0,2.0,5.0,1,0.5,a", "1.0,3.0,6.0,0,0.5,b", "2.0,3.0,6.0,0,0.5,b"],
        "line 3: empty subject_id"),
}


def _loaded(loader, path):
    try:
        dataset, report = loader(path)
    except DataError as exc:
        return str(exc)
    arrays = (dataset.times, dataset.covariates, dataset.responses, dataset.followup_end,
              dataset.event_observed)
    return (dataset.ids, dataset.counts.tolist(), [a.tobytes() for a in arrays],
            dataclasses.asdict(report))


@pytest.mark.parametrize("block_rows", [1, 3, vcterm_io.BLOCK_ROWS])
@pytest.mark.parametrize("header", list(SHORT_ROWS))
def test_short_rows_load_as_the_reference_loader_loads_them(tmp_path, monkeypatch, header,
                                                            block_rows):
    path = tmp_path / "short.csv"
    rows, diagnostic = SHORT_ROWS[header]
    path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    monkeypatch.setattr(vcterm_io, "BLOCK_ROWS", block_rows)
    expected = _loaded(oracles.reference_load_csv, str(path))
    assert _loaded(load_csv, str(path)) == expected
    assert diagnostic in expected[3]["diagnostics"]


def test_read_cell_reads_what_fmt_cell_writes():
    for v in (0.1, -2.5e-300, 1e308, 3.0):
        assert read_cell(fmt_cell(v)) == v
    for missing in (math.nan, math.inf, None):
        assert math.isnan(read_cell(fmt_cell(missing)))
    with pytest.raises(ValueError):
        read_cell("abc")
    with pytest.raises(TypeError):  # the None that csv.DictReader gives a short row
        read_cell(None)
