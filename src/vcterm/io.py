"""Long-format CSV ingestion and emission, and result tables in CSV and JSON.

One row per visit with columns subject_id, visit_time, response,
followup_end, event_observed, and one x_-prefixed column per non-intercept
covariate. The intercept is injected on load. Numeric fields are written
with 17 significant digits, and an id holding , " CR or LF is quoted as the
csv module quotes it, so a write/load round trip is exact.

The writer fills one % template per subject. The loader reads blocks of
BLOCK_ROWS physical lines: a block with no double quote is split at commas, a
block that quotes goes through csv.reader, and both read each text as
csv.reader does. It converts each numeric column with np.array, which reads a
text as float() does, and maps event_observed through a table of its distinct
texts. A cell past csv.field_size_limit() is a DataError naming the line.
"""

from __future__ import annotations

import contextlib
import csv
import errno
import io
import itertools
import json
import math
import os
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
    diagnostics: list = field(default_factory=list)  # the first MAX_DIAGNOSTICS, in order
    n_diagnostics: int = 0  # all of them


BLOCK_ROWS = 512  # physical lines read per block; only one block's strings are alive at once
MAX_DIAGNOSTICS = 100  # diagnostic messages kept; the report counts every one
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
    """A long-format CSV parsed block by block; only the rows that parsed are kept.

    A row's stage is 0 for an empty subject_id, 1 for a bad followup_end or
    event_observed (its subject is dropped), 2 for a bad visit_time,
    response or covariate, and 3 when it parsed. Each subject's follow-up and
    flag come from its first row of stage 2 or more, its seed; a later such row
    that changes either is a fatal error, found as its block arrives.
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
        # per subject code: the seed's follow-up, flag and line (0 before it has one), and
        # whether it is dropped (from a stage-1 row, until finish); grown by doubling
        self.fup, self.flag = np.empty(0), np.empty(0, np.int8)
        self.seed, self.bad = np.empty(0, np.intp), np.empty(0, bool)
        # the parsed rows of each block; the first row diagnostics in file order, their
        # lines, and the count of all of them
        self.n_rows, self.blocks, self.notes, self.noted, self.n_notes = 0, [], [], [], 0

    def block(self, lines, rows):
        """Parse rows read at these line numbers; each row keeps its first failing check."""
        B, width, line = len(rows), max(self.cols) + 1, np.asarray(lines, np.intp)
        every = list(zip(*rows)) or [()] * width  # the columns up to the shortest row
        padded = len(every) < width
        if padded:  # a short row reads None past its end
            every = list(zip(*[r + [None] * (width - len(r)) for r in rows]))
        cells = [every[j] for j in self.cols]
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
        self.n_notes += rejected.size
        rejected = rejected[:max(MAX_DIAGNOSTICS - len(self.notes), 0)]
        for i in rejected.tolist():
            _, note, name, quoted = checks[first[i]]
            self.notes.append(f"line {line[i]}: " + note.format(name, quoted[i]))
        self.noted.append(line[rejected])
        stage = np.searchsorted([1, 4, len(checks)], first, side="right").astype(np.int8)
        fup, t, y, *x = (numbers[self.cols[k]][0] for k in numeric)
        n, self.n_rows = len(self.index) - 2, self.n_rows + B
        if n > self.seed.size:
            self.fup, self.flag, self.seed, self.bad = (
                np.r_[a, np.full(2 * n - a.size, fill, a.dtype)] for a, fill in
                ((self.fup, np.nan), (self.flag, 0), (self.seed, 0), (self.bad, False)))
        self.bad[code[stage == 1]] = True
        valid = np.flatnonzero(stage >= 2)
        vc = code[valid]
        first_valid = valid[np.unique(vc, return_index=True)[1]]
        new = first_valid[self.seed[code[first_valid]] == 0]
        self.fup[code[new]], self.flag[code[new]] = fup[new], flag[new]
        self.seed[code[new]] = line[new]
        off = np.flatnonzero((fup[valid] != self.fup[vc]) | (flag[valid] != self.flag[vc]))
        if off.size:
            i = valid[off[0]]
            where, sid = f"{self.path} line {line[i]}", list(self.index)[code[i] + 2]
            if fup[i] != self.fup[code[i]]:
                raise DataError(f"{where}: followup_end changed within subject {sid!r} "
                                f"({float(self.fup[code[i]])!r} -> {float(fup[i])!r})")
            raise DataError(f"{where}: event_observed changed within subject {sid!r}")
        ok = stage == 3
        self.blocks.append((line[ok], code[ok], t[ok], y[ok],
                            np.column_stack(x)[ok] if x else np.empty((ok.sum(), 0))))

    def finish(self, transform: str) -> tuple[Dataset, IngestionReport]:
        """Drop the subjects with a stage-1 row or a follow-up that is not positive,
        reject negative, late and repeated visit times, then build the cohort."""
        ids, n = list(self.index)[2:], len(self.index) - 2
        seed_fup, seed_flag, bad = self.fup[:n], self.flag[:n], self.bad[:n]
        nonpositive = np.flatnonzero(seed_fup <= 0)
        bad[nonpositive] = True
        self.n_notes += nonpositive.size
        bad_fup = np.sort(self.seed[nonpositive])[:MAX_DIAGNOSTICS]
        texts = [f"line {ln}: followup_end must be positive"
                 for ln in bad_fup.tolist()] + self.notes
        # by line, and on one line the follow-up note before the row's own
        order = np.argsort(np.concatenate([bad_fup, *self.noted]), kind="stable")
        report = IngestionReport(rows_in=self.n_rows, subjects_in=n,
                                 diagnostics=[texts[i] for i in order[:MAX_DIAGNOSTICS].tolist()])
        line, code, t, y, x = (np.concatenate(c) for c in zip(*self.blocks))
        dropped = bad[code]
        report.rows_from_dropped_subjects = int(np.count_nonzero(dropped))
        report.rows_rejected = self.n_rows - code.size
        rows = np.flatnonzero(~dropped)
        rows = rows[np.lexsort((line[rows], t[rows], code[rows]))]
        line, code, t, y, x = line[rows], code[rows], t[rows], y[rows], x[rows]
        fup = seed_fup[code]
        negative, late = t < 0, t > fup
        start = np.ones(t.size, bool)
        start[1:] = (code[1:] != code[:-1]) | (t[1:] != t[:-1])
        first_line = line[np.maximum.accumulate(np.where(start, np.arange(t.size), 0))]
        keep = start & ~negative & ~late
        kept = np.bincount(code[keep], minlength=n)
        empty = np.flatnonzero(~bad & (kept == 0))
        # per subject its visit rejections in time order, then its drop note
        rejected = np.flatnonzero(~keep)
        report.n_diagnostics = self.n_notes + rejected.size + empty.size
        order = np.lexsort((np.r_[rejected, np.full(empty.size, t.size)],
                            np.r_[code[rejected], empty]))
        for k in order[:MAX_DIAGNOSTICS - len(report.diagnostics)].tolist():
            if k >= rejected.size:
                report.diagnostics.append(
                    f"subject {ids[empty[k - rejected.size]]!r}: no valid visits left, dropped")
                continue
            i = rejected[k]
            ti = float(t[i])
            if negative[i]:
                note = f"negative visit_time {ti!r}"
            elif late[i]:
                note = f"visit_time {ti!r} after followup_end {float(fup[i])!r}"
            else:
                note = f"duplicate visit_time {ti!r} (first at line {first_line[i]})"
            report.diagnostics.append(f"line {line[i]}: {note}")
        report.rows_kept = int(np.count_nonzero(keep))
        report.rows_rejected += t.size - report.rows_kept
        report.subjects_dropped = int(np.count_nonzero(bad)) + empty.size
        report.subjects_kept = n - report.subjects_dropped
        subjects = np.flatnonzero(kept)
        dataset = Dataset.from_columns(
            [ids[c] for c in subjects.tolist()], kept[subjects], t[keep],
            np.column_stack([np.ones(report.rows_kept), x[keep]]),
            apply_transform(transform, y[keep]), seed_fup[subjects], seed_flag[subjects] == 1)
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
        reader, done = csv.reader(fh), 0  # done: the physical lines before reader's first
        try:
            header = next(reader, None)
            if header is None:
                raise DataError(f"{path}: empty file, no header")
            columns, limit = _Columns(path, header), csv.field_size_limit()
            done, lines, rows = reader.line_num, [], []
            try:
                while True:
                    block, failed = [], None
                    try:  # list.extend keeps the lines read before a read error
                        block.extend(itertools.islice(fh, BLOCK_ROWS))
                    except (OSError, ValueError) as exc:
                        failed = exc
                    text = "".join(block)
                    if '"' not in text and (len(text) <= limit
                                            or max(map(len, block)) <= limit):
                        rows, lines = _split(block, done + 1)
                        done += len(block)
                    else:  # a quoted record may run past the block's last line
                        reader = csv.reader(itertools.chain(
                            block, _raising(failed) if failed else fh))
                        for row in reader:
                            if row:
                                lines.append(done + reader.line_num)
                                rows.append(row)
                            if reader.line_num >= len(block):
                                break
                        done += reader.line_num
                    if failed:
                        raise failed
                    if not block:
                        break
                    (lines, rows), full = ([], []), (lines, rows)
                    columns.block(*full)
            finally:  # a changed follow-up before a read error is reported instead
                columns.block(lines, rows)
        except csv.Error as exc:  # a field past the limit, in the header or a quoting block
            raise DataError(f"{path} line {done + reader.line_num}: {exc}") from None
    return columns.finish(transform)


def _split(block, first):
    """(rows, line numbers) of a block of physical lines that holds no quote and no
    line past the csv module's field size limit; its first line is numbered first.

    Read with newline="", a physical line ends at \n, \r or \r\n and holds no
    other CR or LF, so csv.reader's excel dialect reads such a line as its text
    split at commas once the terminator is stripped, and a bare terminator as a
    blank row, which is skipped as csv.DictReader skips it. (str.splitlines would
    also break at \x0b, \x0c, \x1c-\x1e, \x85, \u2028 and \u2029.)
    """
    rows = [ln.rstrip("\r\n").split(",") for ln in block]
    lines = np.arange(first, first + len(block), dtype=np.intp)
    if [""] in rows:
        keep = [row != [""] for row in rows]
        return list(itertools.compress(rows, keep)), lines[keep]
    return rows, lines


def _raising(exc):
    """An iterator that raises exc when it is first asked for an item."""
    raise exc
    yield


def fmt_column(values) -> list[str]:
    """The CSV cells of a column, as tolist() gives it: 17 significant digits for a
    float, empty for a NaN or infinite one (a missing value), str() of anything else."""
    return [(_FLOAT_FMT % v if math.isfinite(v) else "") if isinstance(v, (float, np.floating))
            else str(v) for v in values]


def fmt_cell(v) -> str:
    """A CSV cell: empty for None, 1/0 for a bool, fmt_column's cell for any other value."""
    if v is None:
        return ""
    if isinstance(v, bool):
        return "1" if v else "0"
    return fmt_column((v,))[0]


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


def _cells(*columns, cell=fmt_column) -> list[tuple]:
    """Rows of a (G, p) table, row (g, k) at g * p + k, each value rendered by cell, which
    takes a column's values as tolist() gives them: fmt_column's CSV cells, or the values
    themselves for JSON. Each column is rendered once; a (G, 1) column's cell fills its
    point's p rows, and any other column (a scalar, p cells, or (G, p) cells) is repeated
    in C order to fill the table. Columns of one dimension, n cells each, make n rows."""
    G, p = np.broadcast_shapes(*map(np.shape, columns), (1, 1))
    out = []
    for c in map(np.asarray, columns):
        cells = cell(c.ravel().tolist())
        out.append([x for x in cells for _ in range(p)] if c.shape == (G, 1)
                   else cells * (G * p // len(cells)))
    return list(zip(*out))


def _lines(rows) -> str:
    """CSV lines of rows of cells."""
    return "".join([",".join(row) + "\n" for row in rows])


def write_table(stream, meta: dict, header, chunks):
    """CSV as read_table reads it: `# key=value` comment lines, the header, then each
    chunk of CSV lines as it is, one write per chunk; chunks from a generator are held
    one at a time."""
    for key in sorted(meta):
        stream.write(f"# {key}={meta[key]}\n")
    stream.write(",".join(header) + "\n")
    stream.writelines(chunks)


def save_table(path: str, meta: dict, header, chunks):
    """A new file at path holding write_table's CSV."""
    with open(path, "w", encoding="utf-8") as fh:
        write_table(fh, meta, header, chunks)


@contextlib.contextmanager
def output_files():
    """All or none of a command's files: `with output_files() as temp:` gives each writer
    temp(path), a name in path's directory, renamed onto path once the block ends. A second
    file at one real path is a ValueError; a failure removes them all, and an OSError names
    the path, not its temporary name."""
    temps, targets = {}, set()  # temporary name -> path; each path's real path

    def temp(path: str) -> str:
        if os.path.isdir(path):  # checked before any rename: os.replace would refuse it
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        real = os.path.realpath(path)
        if real in targets:
            raise ValueError(f"two outputs at one path: {path}")
        targets.add(real)
        name = os.path.join(os.path.dirname(path), f".vcterm-{os.getpid()}-{len(temps)}.tmp")
        temps[name] = path
        return name

    try:
        yield temp
        for name, path in temps.items():
            os.replace(name, path)
    except BaseException as exc:
        for name in filter(os.path.exists, temps):
            os.remove(name)
        if isinstance(exc, OSError) and exc.filename in temps:
            exc.filename = temps[exc.filename]
        raise


def read_text(path: str) -> str:
    """The whole of a small text file, line ends untranslated; one that cannot be
    read or is not UTF-8 is a DataError that names it."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from None


def read_table(path: str) -> tuple[dict, list[str], list[dict]]:
    """Read a CSV with `# key=value` comment headers (study artifacts); only the
    lines before the header are comments, so a row may start with #."""
    meta = {}
    lines = io.StringIO(read_text(path), newline="")
    for ln in lines:
        if not ln.startswith("#"):
            break
        key, eq, value = ln[1:].partition("=")
        if eq:
            meta[key.strip()] = value.strip()
    else:
        raise DataError(f"{path}: no table content")
    reader = csv.DictReader(itertools.chain([ln], lines))
    return meta, list(reader.fieldnames or []), list(reader)
