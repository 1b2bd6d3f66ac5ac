"""load_csv's tokenizer against csv.reader: the rows, and the line numbers of the
rows, that it hands to the row checks, on text that quotes and text that does not.

A block of lines with no quote is split at commas, and a block that quotes goes
through csv.reader; both must read every text as csv.reader reads it. The field
size limit is lowered to LIMIT while a draw is loaded, so that lines at and just
past it stay small.
"""

import csv

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import vcterm.io as vcterm_io
from vcterm import DataError
from vcterm.io import load_csv

HEADER = "subject_id,visit_time,response,followup_end,event_observed"
LIMIT = 16  # longer than every header name
ENDINGS = ["\n", "\r\n", "\r"]
# characters str.splitlines breaks at, and other controls, inside fields
ODD = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029", "\x00", "\t", " "]
FIELD = st.text(st.sampled_from(["a", "1", "-", "."] + ODD), max_size=5)
QUOTED = st.lists(st.sampled_from(["a", ",", '"', "\n", "\r", "\r\n", " "]), max_size=6).map(
    lambda parts: '"' + "".join(parts).replace('"', '""') + '"')


@st.composite
def unquoted_line(draw):
    kind = draw(st.integers(0, 9))
    if kind == 0:
        body = ""  # blank
    elif kind == 1:
        body = draw(st.sampled_from([" ", "\t", "  ", "\x0c"]))  # whitespace only
    elif kind == 2:  # one field at, under or just past the limit
        body = "x" * (LIMIT + draw(st.integers(-1, 1)))
    else:
        body = ",".join(draw(st.lists(FIELD, min_size=1, max_size=7)))
    return body + draw(st.sampled_from(ENDINGS))


@st.composite
def quoted_line(draw):
    fields = draw(st.lists(st.one_of(FIELD, QUOTED), min_size=1, max_size=4))
    return ",".join(fields) + draw(st.sampled_from(ENDINGS))


@st.composite
def body_text(draw):
    lines = draw(st.lists(st.one_of(unquoted_line(), quoted_line())
                          if draw(st.booleans()) else unquoted_line(), max_size=14))
    text = "".join(lines)
    if text and draw(st.booleans()):
        text = text.rstrip("\r\n")  # the last line has no terminator
    return text


def _tokenized(path, block_rows):
    """The (line, row) pairs load_csv hands to the row checks, and its DataError text."""
    seen = []

    def block(self, lines, rows):
        seen.extend(zip(np.asarray(lines).tolist(), rows))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(vcterm_io._Columns, "block", block)
        mp.setattr(vcterm_io._Columns, "finish", lambda self, transform: None)
        mp.setattr(vcterm_io, "BLOCK_ROWS", block_rows)
        try:
            load_csv(path)
        except DataError as exc:
            return seen, str(exc)
    return seen, None


def _read(path):
    """The same from csv.reader, with the message load_csv gives its csv.Error."""
    seen = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        try:
            for row in reader:
                if row:  # blank lines are skipped
                    seen.append((reader.line_num, row))
        except csv.Error as exc:
            return seen, f"{path} line {reader.line_num}: {exc}"
    return seen, None


def _check(tmp_path, text, block_rows):
    path = tmp_path / "data.csv"
    path.write_bytes((HEADER + "\n" + text).encode())
    saved = csv.field_size_limit(LIMIT)
    try:
        assert _tokenized(str(path), block_rows) == _read(str(path))
    finally:
        csv.field_size_limit(saved)


@settings(max_examples=400, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(body_text(), st.sampled_from([1, 2, 3, 5, 512]))
@example("a,1\r\nb,2\rc,3\n\r\n \n\x0c,\x85 \x1c\nd", 2)
@example("a,1\n" + "x" * LIMIT + "\n" + "y" * (LIMIT + 1) + "\nb,2\n", 1)
def test_tokenizer_reads_rows_and_lines_as_csv_reader(tmp_path, text, block_rows):
    _check(tmp_path, text, block_rows)


@pytest.mark.parametrize("block_rows", [1, 2, 3, 4])
def test_a_quoted_record_that_straddles_a_block_is_read_whole(tmp_path, block_rows):
    text = 'a,1\n"b\nc\r\nd",2\ne,"3\r"\nf,4\r\n\n"g"",\n",5\n'
    _check(tmp_path, text, block_rows)


@pytest.mark.parametrize("tail", ["", '"open\n' + "more\n" * 2000])
def test_a_read_error_keeps_the_rows_before_it(tmp_path, tail):
    """Whether the error falls inside a block, at its start or inside a quoted record;
    the record it cuts is not checked, as csv.reader never returns it."""
    body = "".join(f"s{i},1\n" for i in range(2000)) + tail
    path = tmp_path / "data.csv"
    path.write_bytes((HEADER + "\n" + body).encode() + b"\xff\n")
    want = []
    with open(path, newline="", encoding="utf-8") as fh, pytest.raises(UnicodeDecodeError):
        reader = csv.reader(fh)
        for row in reader:
            want.append((reader.line_num, row))
    assert len(want) > 1000
    for block_rows in (1, 7, 512):
        seen = []
        with pytest.MonkeyPatch.context() as mp, pytest.raises(UnicodeDecodeError):
            mp.setattr(vcterm_io._Columns, "block",
                       lambda self, lines, rows: seen.extend(zip(np.asarray(lines).tolist(),
                                                                 rows)))
            mp.setattr(vcterm_io, "BLOCK_ROWS", block_rows)
            load_csv(str(path))
        assert seen == want[1:]


@pytest.mark.parametrize("where", ["header", "unquoted", "quoted", "after a changed follow-up"])
def test_a_cell_past_the_field_size_limit_is_a_data_error(tmp_path, where):
    """At the default limit of 131,072 characters; the rows before it are checked first."""
    big = "x" * (csv.field_size_limit() + 1)
    header, rows = HEADER, ["a,1,2,5,1", "a,2,2,5,1", f"b,1,2,5,{big}"]
    if where == "header":
        header, rows = header + "," + big, rows[:2]
    elif where == "quoted":
        rows[2] = f'b,1,2,5,"{big}"'
    elif where == "after a changed follow-up":
        rows[1] = "a,2,2,6,1"
    path = tmp_path / "data.csv"
    path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    with pytest.raises(DataError) as exc:
        load_csv(str(path))
    if where == "after a changed follow-up":
        assert str(exc.value).startswith(f"{path} line 3: followup_end changed")
    else:
        line = 1 if where == "header" else 4
        assert str(exc.value) == f"{path} line {line}: field larger than field limit (131072)"
