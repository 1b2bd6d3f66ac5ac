"""Longitudinal data containers: subjects and validated datasets.

A subject carries repeated measurements up to a follow-up end that is
either the terminal event time (event_observed) or a censoring time.
Estimation only ever uses the complete-case subjects, i.e. those whose
event was observed.

A Dataset is its validated columns and nothing else; every fit reads them afresh.
A `Subject` is a plain row of one subject's fields. `Dataset(subjects, p)` copies
such rows into columns and checks them there, as `Dataset.from_columns` does, and
`Dataset.subjects` gives rows that view the current columns. The benchmark builds
and checks its cohort with these; no other module of the package reads them.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

# the subject rules, checked in this order; a subject reports its first failure
_RULES = ("needs at least one visit", "covariates must be (n_visits, p)",
          "responses must match visit count", "visit times must be strictly increasing",
          "followup_end must be positive", "visit time exceeds followup_end",
          "first covariate column must be 1 (intercept)",
          "non-finite covariate or response")


def check_subjects(ids, counts, times, covariates, responses, followup_end):
    """Raise ValueError for the first subject that breaks a subject rule.

    Subject k owns the next counts[k] rows of times, covariates and
    responses; the rules run once over the concatenated arrays.
    """
    counts = np.asarray(counts, dtype=np.intp)
    n = counts.size
    fails = np.zeros((len(_RULES), n), dtype=bool)
    fails[0] = (counts == 0) | (times.ndim != 1)
    fails[1] = (covariates.ndim != 2 or covariates.shape[0] != times.size
                or covariates.shape[1] == 0)
    fails[2] = responses.shape != (times.size,)
    if times.ndim == 1 and not fails[1:3].any():
        if counts.sum() != times.size:
            raise ValueError("subject row counts must add up to the number of rows")
        owner = np.repeat(np.arange(n), counts)
        step = np.flatnonzero(~(np.diff(times) > 0)) + 1
        fup = np.asarray(followup_end, dtype=float)

        def any_row(rows):
            return np.bincount(owner[rows], minlength=n) > 0

        fails[3] = any_row(step[owner[step] == owner[step - 1]])
        fails[4] = ~(fup > 0)
        fails[5] = times[np.maximum(np.cumsum(counts) - 1, 0)] > fup if times.size else False
        fails[6] = any_row(covariates[:, 0] != 1.0)
        fails[7] = any_row(~(np.isfinite(covariates).all(axis=1) & np.isfinite(responses)))
    bad = fails.any(axis=0)
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError(f"subject {ids[k]}: {_RULES[int(np.argmax(fails[:, k]))]}")


class Subject(namedtuple("Subject", "id times covariates responses followup_end event_observed")):
    """All visits of one subject plus its follow-up outcome, as given; Dataset checks it."""

    __slots__ = ()

    @property
    def n_visits(self) -> int:
        return len(self.times)


class Dataset:
    """Validated cohort with a common covariate dimension, stored as columns.

    Subject k owns the next counts[k] rows of times, covariates (intercept
    first) and responses; ids, counts, followup_end and event_observed hold
    one entry per subject.
    """

    def __init__(self, subjects, p: int | None = None):
        """Copy the subjects into columns; p defaults to the first subject's."""
        p, rows = None if p is None else int(p), []
        for s in subjects:
            t, X, y = (np.asarray(a, dtype=float) for a in s[1:4])
            if t.ndim != 1 or X.ndim != 2 or X.shape[0] != t.size or y.shape != t.shape:
                check_subjects([s.id], [t.size], t, X, y, [s.followup_end])  # raises, naming s
            p = X.shape[1] if p is None else p
            if X.shape[1] != p:
                raise ValueError(f"subject {s.id}: covariate dimension {X.shape[1]} != {p}")
            rows.append((s.id, t.size, t, X, y, s.followup_end, s.event_observed))
        if p is None:
            raise ValueError("empty dataset needs an explicit covariate dimension p")
        ids, counts, t, X, y, fup, flag = zip(*rows) if rows else [()] * 7
        self._store(ids, counts, np.concatenate((np.empty(0),) + t),
                    np.vstack((np.empty((0, p)),) + X), np.concatenate((np.empty(0),) + y),
                    fup, flag)

    @classmethod
    def from_columns(cls, ids, counts, times, covariates, responses, followup_end,
                     event_observed) -> "Dataset":
        """A cohort from concatenated subjects; p is covariates.shape[1].

        Raises the ValueError that Dataset(subjects) would raise for the same subjects.
        """
        self = object.__new__(cls)
        self._store(ids, counts, times, covariates, responses, followup_end, event_observed)
        return self

    def _store(self, ids, counts, times, covariates, responses, followup_end, event_observed):
        """Apply the subject rules once over the columns, reject repeated ids, and keep them."""
        ids = [str(i) for i in ids]
        times, covariates, responses = (np.asarray(a, dtype=float)
                                        for a in (times, covariates, responses))
        check_subjects(ids, counts, times, covariates, responses, followup_end)
        if len(set(ids)) != len(ids):
            seen = set()
            dup = next(i for i in ids if i in seen or seen.add(i))
            raise ValueError(f"duplicate subject id {dup!r}")
        self.ids = tuple(ids)
        self.counts = np.asarray(counts, dtype=np.intp).reshape(-1)
        self.times, self.covariates, self.responses = times, covariates, responses
        self.followup_end = np.asarray(followup_end, dtype=float).reshape(-1)
        self.event_observed = np.asarray(event_observed, dtype=bool).reshape(-1)
        self.p = int(covariates.shape[1])

    @property
    def subjects(self) -> tuple:
        """One Subject per id, built on each access as views of the current columns."""
        cuts = np.cumsum(self.counts)[:-1]
        return tuple(map(Subject._make, zip(
            self.ids, np.split(self.times, cuts), np.split(self.covariates, cuts),
            np.split(self.responses, cuts), self.followup_end.tolist(),
            self.event_observed.tolist())))

    @property
    def n_subjects(self) -> int:
        return len(self.ids)

    @property
    def n_complete_case(self) -> int:
        return int(np.count_nonzero(self.event_observed))

    @property
    def n_observations(self) -> int:
        return int(self.times.size)
