"""Long-format CSV ingestion and emission, and result tables in CSV and JSON.

One row per visit with columns subject_id, visit_time, response,
followup_end, event_observed, and one x_-prefixed column per non-intercept
covariate. The intercept is injected on load. Numeric fields are written
with 17 significant digits, and an id holding , " CR or LF is quoted as the
csv module quotes it, so a write/load round trip is exact.

The writer fills one % template per subject. The loader converts each numeric
column with np.array, which reads a text as float() does, and maps
event_observed through a table of its distinct texts.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .errors import DataError

REQUIRED_COLUMNS = ("subject_id", "visit_time", "response", "followup_end",
                    "event_observed")
COVARIATE_PREFIX = "x_"

_FLOAT_FMT = "%.17g"


TRANSFORMS = ("none", "log1000")  # response transforms, by name


def apply_transform(name: str, y) -> np.ndarray:
    """The named response transform: "none", or "log1000", y -> ln(y / 1000 + 1)."""
    if name not in TRANSFORMS:
        raise DataError(f"unknown transform {name!r} (expected log1000 or none)")
    y = np.asarray(y, dtype=float)
    if name == "none":
        return y
    scaled = y / 1000.0
    if np.any(scaled <= -1.0):
        raise DataError("log transform undefined: response below -scale (-1000)")
    return np.log1p(scaled)


@dataclass
class IngestionReport:
    rows_in: int = 0
    rows_kept: int = 0
    rows_rejected: int = 0
    rows_from_dropped_subjects: int = 0
    subjects_in: int = 0
    subjects_kept: int = 0
    subjects_dropped: int = 0
    diagnostics: list = field(default_factory=list)


BLOCK_ROWS = 512  # rows parsed per block; only one block's strings are alive at once
_FLAGS = {"0": 0, "1": 1}  # event_observed text, stripped -> flag; any other reads -1


def _numbers(cells, padded: bool):
    """(float of each cell, mask of the cells that are not numbers; they read NaN).

    np.array(cells, dtype=float) reads every text as float() does, but it reads
    the None that pads a short row as NaN; padded cells take the per-cell path.
    """
    if not padded:
        try:
            return np.array(cells, dtype=float), np.zeros(len(cells), bool)
        except (TypeError, ValueError):
            pass
    values, notnum = np.full(len(cells), np.nan), np.zeros(len(cells), bool)
    for i, cell in enumerate(cells):
        try:
            values[i] = float(cell)
        except (TypeError, ValueError):
            notnum[i] = True
    return values, notnum


class _Columns:
    """A long-format CSV parsed block by block into per-row arrays.

    A row's stage is 0 for an empty subject_id, 1 for a bad followup_end or
    event_observed (its subject is dropped), 2 for a bad visit_time,
    response or covariate, and 3 when it parsed.
    """

    def __init__(self, path, header):
        self.path = path
        where = {name: j for j, name in enumerate(header)}  # a repeated name reads its last
        missing = [c for c in REQUIRED_COLUMNS if c not in where]
        if missing:
            raise DataError(f"{path}: missing required columns {missing}")
        self.names = list(REQUIRED_COLUMNS) + [c for c in header
                                               if c.startswith(COVARIATE_PREFIX)]
        self.cols = [where[c] for c in self.names]
        self.index = {None: -1, "": -1}  # subject id -> code, in order of first appearance
        # per-row arrays of each block; row diagnostics in file order; their lines
        self.blocks, self.notes, self.noted = [], [], []

    def block(self, lines, rows):
        """Parse rows read at these line numbers; each row keeps its first failing check."""
        B, width = len(rows), max(self.cols) + 1
        padded = min(map(len, rows), default=width) < width
        if padded:  # a short row reads None past its end
            rows = [r + [None] * (width - len(r)) for r in rows]
        cells = list(zip(*map(operator.itemgetter(*self.cols), rows))) or [()] * len(self.cols)
        for sid in dict.fromkeys(cells[0]):
            self.index.setdefault(sid, len(self.index) - 2)
        code = np.fromiter(map(self.index.__getitem__, cells[0]), np.intp, B)
        flag_of = {v: _FLAGS.get((v or "").strip(), -1) for v in dict.fromkeys(cells[4])}
        flag = np.fromiter(map(flag_of.__getitem__, cells[4]), np.int8, B)
        # (mask, diagnostic from column name and cell, column, cells) in reading order
        checks, numbers = [(code < 0, "empty subject_id", None, cells[0])], {}
        numeric = (3, 1, 2, *range(5, len(self.cols)))  # followup_end, visit_time, response, x
        for k in numeric:
            v, notnum = numbers.setdefault(self.cols[k], _numbers(cells[k], padded))
            checks += [(notnum, "{0} {1!r} is not numeric", self.names[k], cells[k]),
                       (~notnum & ~np.isfinite(v), "{0} must be finite, got {1!r}",
                        self.names[k], cells[k])]
        badflag = flag < 0
        flag_text = [(v or "").strip() for v in cells[4]] if badflag.any() else cells[4]
        checks.insert(3, (badflag, "{0} must be 0 or 1, got {1!r}", self.names[4], flag_text))
        fails = np.array([c[0] for c in checks])
        first = np.where(fails.any(axis=0), fails.argmax(axis=0), len(checks))
        rejected = np.flatnonzero(first < len(checks))
        for i in rejected.tolist():
            _, note, name, quoted = checks[first[i]]
            self.notes.append(f"line {lines[i]}: " + note.format(name, quoted[i]))
        line = np.array(lines, dtype=np.intp)
        self.noted.append(line[rejected])
        stage = np.searchsorted([1, 4, len(checks)], first, side="right").astype(np.int8)
        fup, t, y, *x = (numbers[self.cols[k]][0] for k in numeric)
        self.blocks.append((line, code, stage, flag, fup, t, y,
                            np.column_stack(x) if x else np.empty((B, 0))))

    def check(self):
        """Each subject's follow-up and flag come from its first row where both
        are valid; a later row that changes either is a fatal error."""
        line, code, stage, flag, fup, t, y, x = self.rows = [
            np.concatenate(c) for c in zip(*self.blocks)]
        n = len(self.index) - 2
        valid = np.flatnonzero(stage >= 2)
        _, at = np.unique(code[valid], return_index=True)
        seeds = valid[at]
        self.fup, self.flag = np.full(n, np.nan), np.zeros(n, np.int8)
        self.fup[code[seeds]], self.flag[code[seeds]] = fup[seeds], flag[seeds]
        vc = code[valid]
        off = np.flatnonzero((fup[valid] != self.fup[vc]) | (flag[valid] != self.flag[vc]))
        if off.size:
            i = valid[off[0]]
            where, sid = f"{self.path} line {line[i]}", list(self.index)[code[i] + 2]
            if fup[i] != self.fup[code[i]]:
                raise DataError(f"{where}: followup_end changed within subject {sid!r} "
                                f"({float(self.fup[code[i]])!r} -> {float(fup[i])!r})")
            raise DataError(f"{where}: event_observed changed within subject {sid!r}")
        nonpositive = seeds[fup[seeds] <= 0]
        texts = [f"line {ln}: followup_end must be positive"
                 for ln in line[nonpositive].tolist()] + self.notes
        # by line, and on one line the follow-up note before the row's own
        order = np.argsort(np.concatenate([line[nonpositive], *self.noted]), kind="stable")
        self.notes = [texts[i] for i in order.tolist()]
        self.bad = np.bincount(code[stage == 1], minlength=n) > 0
        self.bad[code[nonpositive]] = True

    def finish(self, transform: str) -> tuple[Dataset, IngestionReport]:
        """Reject negative, late and repeated visit times, then build the cohort."""
        line, code, stage, _, _, t, y, x = self.rows
        ids, n = list(self.index)[2:], self.bad.size
        report = IngestionReport(rows_in=line.size, subjects_in=n, diagnostics=self.notes)
        parsed = np.flatnonzero(stage == 3)
        dropped = self.bad[code[parsed]]
        report.rows_from_dropped_subjects = int(np.count_nonzero(dropped))
        report.rows_rejected = line.size - parsed.size
        rows = parsed[~dropped]
        rows = rows[np.lexsort((line[rows], t[rows], code[rows]))]
        line, code, t, y, x = line[rows], code[rows], t[rows], y[rows], x[rows]
        fup = self.fup[code]
        negative, late = t < 0, t > fup
        start = np.ones(t.size, bool)
        start[1:] = (code[1:] != code[:-1]) | (t[1:] != t[:-1])
        first_line = line[np.maximum.accumulate(np.where(start, np.arange(t.size), 0))]
        keep = start & ~negative & ~late
        kept = np.bincount(code[keep], minlength=n)
        empty = np.flatnonzero(~self.bad & (kept == 0))
        notes = []
        for i in np.flatnonzero(~keep).tolist():
            ti = float(t[i])
            if negative[i]:
                note = f"negative visit_time {ti!r}"
            elif late[i]:
                note = f"visit_time {ti!r} after followup_end {float(fup[i])!r}"
            else:
                note = f"duplicate visit_time {ti!r} (first at line {first_line[i]})"
            notes.append((code[i], i, f"line {line[i]}: {note}"))
        notes += [(c, t.size, f"subject {ids[c]!r}: no valid visits left, dropped")
                  for c in empty.tolist()]
        report.diagnostics += [m for _, _, m in sorted(notes)]
        report.rows_kept = int(np.count_nonzero(keep))
        report.rows_rejected += t.size - report.rows_kept
        report.subjects_dropped = int(np.count_nonzero(self.bad)) + empty.size
        report.subjects_kept = n - report.subjects_dropped
        subjects = np.flatnonzero(kept)
        dataset = Dataset.from_columns(
            [ids[c] for c in subjects.tolist()], kept[subjects], t[keep],
            np.column_stack([np.ones(report.rows_kept), x[keep]]),
            apply_transform(transform, y[keep]), self.fup[subjects], self.flag[subjects] == 1)
        return dataset, report


def load_csv(path: str, transform: str = "none") -> tuple[Dataset, IngestionReport]:
    """Parse and validate a long-format CSV; transform names one of TRANSFORMS.

    Row-level violations (bad numerics, visit after follow-up, duplicate or
    negative times) reject the row with a line-numbered diagnostic. Invalid
    subject-level fields drop the whole subject. A followup_end or
    event_observed value that changes within a subject is a hard error.
    Diagnostics list row-level problems in file order, then for each
    subject, in order of first appearance, its visit rejections in time
    order and the note that it was dropped.
    """
    apply_transform(transform, ())  # an unknown name fails before the file is opened
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DataError(f"{path}: empty file, no header")
        columns, lines, rows = _Columns(path, header), [], []
        try:
            for row in reader:
                if row:  # blank lines are skipped, as csv.DictReader skips them
                    lines.append(reader.line_num)
                    rows.append(row)
                    if len(rows) == BLOCK_ROWS:
                        columns.block(lines, rows)
                        lines, rows = [], []
        finally:  # a changed follow-up before a read error is reported instead
            columns.block(lines, rows)
            columns.check()
    return columns.finish(transform)


def fmt_cell(v) -> str:
    """A CSV cell: empty for None and for a NaN or infinite float (a missing
    value), 1/0 for a bool, 17 significant digits for any other float."""
    if v is None:
        return ""
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, (float, np.floating)):
        return _FLOAT_FMT % v if math.isfinite(v) else ""
    return str(v)


def read_cell(text: str) -> float:
    """fmt_cell's reader for a number cell: NaN for an empty one, else float(text)."""
    return math.nan if text == "" else float(text)


def json_text(obj, indent: int | None = None) -> str:
    """Strict JSON with sorted keys, fmt_cell's twin and with it the only writer of
    missing values: a NaN or infinite float reads null, and allow_nan=False
    refuses one that slips past."""
    return json.dumps(_json_value(obj), sort_keys=True, indent=indent, allow_nan=False)


def _json_value(v):
    if isinstance(v, float):
        return v if math.isfinite(v) else None
    if isinstance(v, dict):
        return {key: _json_value(x) for key, x in v.items()}
    return [_json_value(x) for x in v] if isinstance(v, (list, tuple)) else v


def _id_cell(sid: str) -> str:
    """A subject id as a CSV field. The csv module quotes one that holds , " CR
    or LF (QUOTE_MINIMAL, with CR a line break too, so that a reader keeps the
    row whole); any other id is written as it is."""
    if not any(c in sid for c in ',"\r\n'):
        return sid
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow((sid, ""))
    return buf.getvalue()[:-3]


def write_dataset_csv(dataset: Dataset, path: str):
    """Emit the long format; loading the file back is an exact round trip.

    A subject's row template holds its id and follow-up tail, formatted once,
    and is filled with all of its visits' floats in one % to give one string.
    """
    p = dataset.p
    headers = list(REQUIRED_COLUMNS) + [f"{COVARIATE_PREFIX}{k}" for k in range(2, p + 1)]
    values = np.column_stack([dataset.times, dataset.responses,
                              dataset.covariates[:, 1:]]).ravel().tolist()
    covariates = ("," + _FLOAT_FMT) * (p - 1) + "\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(headers) + "\n")
        end = 0
        for sid, count, fup, event in zip(dataset.ids, dataset.counts.tolist(),
                                          dataset.followup_end.tolist(),
                                          dataset.event_observed.tolist()):
            row = (f"{_id_cell(sid).replace('%', '%%')},{_FLOAT_FMT},{_FLOAT_FMT},"
                   f"{_FLOAT_FMT % fup},{int(event)}{covariates}")
            start, end = end, end + count * (p + 1)
            fh.write(row * count % tuple(values[start:end]))


def write_truth_csv(truths, path: str):
    """Generator-side record for simulated cohorts, one row per subject."""
    row = "%s," + ",".join([_FLOAT_FMT] * 4) + ",%d\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("subject_id,x2,x3_at_zero,event_time,censor_time,event_observed\n")
        for tr in truths:
            fh.write(row % (_id_cell(tr.subject_id), tr.x2, tr.x3_at_zero, tr.event_time,
                            tr.censor_time, tr.event_observed))


def write_rows(stream, rows):
    """CSV lines of rows, each cell through fmt_cell, in one write."""
    stream.write("".join(",".join(map(fmt_cell, row)) + "\n" for row in rows))


def write_table(stream, meta: dict, header, rows):
    """CSV with `# key=value` comment lines first, as read_table reads it."""
    for key in sorted(meta):
        stream.write(f"# {key}={meta[key]}\n")
    stream.write(",".join(header) + "\n")
    write_rows(stream, rows)


def save_table(path: str, meta: dict, header, rows):
    """write_table into a new file at path."""
    with open(path, "w", encoding="utf-8") as fh:
        write_table(fh, meta, header, rows)


def read_table(path: str) -> tuple[dict, list[str], list[dict]]:
    """Read a CSV with `# key=value` comment headers (study artifacts); only the
    lines before the header are comments, so a row may start with #."""
    meta = {}
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    with fh:
        for ln in fh:
            if not ln.startswith("#"):
                break
            key, eq, value = ln[1:].partition("=")
            if eq:
                meta[key.strip()] = value.strip()
        else:
            raise DataError(f"{path}: no table content")
        reader = csv.DictReader(itertools.chain([ln], fh))
        return meta, list(reader.fieldnames or []), list(reader)
