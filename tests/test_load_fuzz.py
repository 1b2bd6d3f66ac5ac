"""Differential fuzz test: load_csv against the row-by-row reference loader.

Each generated file must give the same DataError message from both loaders,
or the same Dataset bits and the same IngestionReport, diagnostics in order.
"""

import csv
import dataclasses
import io
import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import vcterm.io as vcterm_io
from vcterm import DataError
from vcterm.io import load_csv

import oracles

REQUIRED = ["subject_id", "visit_time", "response", "followup_end", "event_observed"]
IDS = ["a", "b", "c", "d", "", " a"]
# (cells that parse, cells that do not); "7" and "1_0" fall after a follow-up of 5
TIMES = (["0", "-0.0", "0.0", "0.5", "1", "1.0", "2", "3", "5", "7", "-1", " 1.5 ",
          "1_0", "1e-320"], ["1e400", "nan", "inf", "-inf", "abc", ""])
RESPONSES = (["0", "1.5", "-2", "1000", "-999.5", " 7 ", "1e308", "-1000", "-2500"],
             ["-1e400", "NaN", "x", ""])
FOLLOWUPS = (["5", "5.0", " 5", "6", "0", "-0.0", "-3"], ["1e400", "nan", "five", ""])
FLAGS = (["0", "1", " 1", "1 "], ["2", "", "yes", "01"])
COVARIATES = (["0.1", "-2", "3e5", "0", "1_0", "  4"], ["inf", "1e400", "nan", "q", ""])


def _cell(draw, pools):
    good, bad = pools
    return draw(st.sampled_from(bad if draw(st.integers(0, 11)) == 0 else good))


@st.composite
def csv_text(draw):
    n_x = draw(st.integers(0, 2))
    header = REQUIRED + [f"x_{k}" for k in range(2, n_x + 2)]
    if draw(st.booleans()):
        header.append(draw(st.sampled_from(["x_2", "x_3", "x_{0}", "note"])))  # repeated or extra
    header = draw(st.permutations(header))
    if draw(st.integers(0, 49)) == 0:
        return ""  # no header at all
    if draw(st.integers(0, 19)) == 0:
        header = [c for c in header if c != draw(st.sampled_from(REQUIRED))]
    # a subject mostly repeats its own follow-up and flag; a change is fatal
    own = {sid: (_cell(draw, FOLLOWUPS), _cell(draw, FLAGS)) for sid in IDS}
    rows = []
    for _ in range(draw(st.integers(0, 16))):
        sid = draw(st.sampled_from(IDS))
        fup, flag = own[sid]
        if draw(st.integers(0, 14)) == 0:
            fup = _cell(draw, FOLLOWUPS)
        if draw(st.integers(0, 14)) == 0:
            flag = _cell(draw, FLAGS)
        cells = {"subject_id": sid, "visit_time": _cell(draw, TIMES),
                 "response": _cell(draw, RESPONSES), "followup_end": fup,
                 "event_observed": flag}
        row = [cells[c] if c in cells else _cell(draw, COVARIATES) for c in header]
        shape = draw(st.integers(0, 15))
        if shape == 0:
            row = row[:draw(st.integers(0, len(row)))]  # short
        elif shape == 1:
            row = row + ["9", "extra"]  # long
        elif shape == 2:
            row = []  # blank line
        elif shape == 3:
            row = [c if c is None else c + "\n" for c in row]  # quoted, multi-line
        rows.append(row)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator=draw(st.sampled_from(["\n", "\r\n"])))
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def _outcome(loader, path, transform):
    try:
        dataset, report = loader(path, transform)
    except DataError as exc:
        return "error", str(exc)
    arrays = [dataset.times, dataset.covariates, dataset.responses,
              dataset.followup_end, dataset.event_observed]
    subjects = [(s.id, s.times.tobytes(), s.covariates.tobytes(), s.responses.tobytes(),
                 s.followup_end, s.event_observed) for s in dataset.subjects]
    return ("ok", dataset.ids, dataset.counts.tolist(), dataset.p,
            [a.dtype.str + a.tobytes().hex() for a in arrays], subjects,
            dataclasses.asdict(report))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(csv_text(), st.sampled_from(["none", "log1000"]),
       st.sampled_from([1, 2, 5, vcterm_io.BLOCK_ROWS]))
def test_load_csv_matches_reference_loader(text, transform, block_rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.csv")
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
        expected = _outcome(oracles.reference_load_csv, path, transform)
        saved, vcterm_io.BLOCK_ROWS = vcterm_io.BLOCK_ROWS, block_rows  # state across blocks
        try:
            assert _outcome(load_csv, path, transform) == expected
        finally:
            vcterm_io.BLOCK_ROWS = saved


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(csv_text(), st.sampled_from([0, 1, 2, 5]), st.sampled_from([1, 2, vcterm_io.BLOCK_ROWS]))
def test_a_small_diagnostics_cap_keeps_the_first_ones_and_counts_all(text, cap, block_rows):
    """The stored messages are the first `cap` of the reference loader's, in its order,
    and n_diagnostics counts every one, across blocks and the follow-up checks."""
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        path = os.path.join(tmp, "data.csv")
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
        full = _outcome(oracles.reference_load_csv, path, "none")
        mp.setattr(vcterm_io, "BLOCK_ROWS", block_rows)
        mp.setattr(vcterm_io, "MAX_DIAGNOSTICS", cap)
        mp.setattr(oracles, "MAX_DIAGNOSTICS", cap)
        expected = _outcome(oracles.reference_load_csv, path, "none")
        assert _outcome(load_csv, path, "none") == expected
    if expected[0] == "ok":
        report, whole = expected[-1], full[-1]
        assert report["diagnostics"] == whole["diagnostics"][:cap]
        assert report["n_diagnostics"] == whole["n_diagnostics"] == len(whole["diagnostics"])


def _read_error_file(tmp_path, first_rows):
    """Rows, then a byte that is not UTF-8 one text-decoder chunk later."""
    body = first_rows + "".join(f"s{i},1.0,2.0,5.0,1\n" for i in range(800))
    path = tmp_path / "data.csv"
    path.write_bytes((",".join(REQUIRED) + "\n" + body).encode() + b"s9,\xff,1,5,1\n")
    return str(path)


def test_rows_before_a_read_error_are_checked_first(tmp_path):
    changed = _read_error_file(tmp_path, "a,1.0,2.0,5.0,1\na,2.0,2.0,6.0,1\n")
    for loader in (load_csv, oracles.reference_load_csv):
        with pytest.raises(DataError, match="line 3: followup_end changed"):
            loader(changed)
    plain = _read_error_file(tmp_path, "")
    for loader in (load_csv, oracles.reference_load_csv):
        with pytest.raises(UnicodeDecodeError):
            loader(plain)
