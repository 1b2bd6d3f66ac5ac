import numpy as np
import pytest

from vcterm.data import Dataset, Subject


def _subject(sid="a", times=(1.0, 2.0), complete=True, p=2, followup=3.0, check=True):
    times = np.asarray(times, dtype=float)
    m = len(times)
    X = np.column_stack([np.ones(m)] + [np.linspace(0, 1, m) + k
                                        for k in range(p - 1)])
    y = np.arange(m, dtype=float)
    return Subject(sid, times, X, y, followup, complete, check=check)


def test_subject_basic_properties():
    s = _subject()
    assert s.n_visits == 2
    assert s.p == 2
    assert s.event_time == 3.0
    s2 = _subject(complete=False)
    assert s2.event_time is None


@pytest.mark.parametrize("times,followup", [
    ((), 1.0),                 # no visits
    ((1.0, 1.0), 3.0),         # not strictly increasing
    ((2.0, 1.0), 3.0),         # decreasing
    ((1.0, 4.0), 3.0),         # visit after follow-up end
    ((1.0,), 0.0),             # nonpositive follow-up
    ((1.0,), -2.0),
])
def test_subject_time_validation(times, followup):
    with pytest.raises(ValueError):
        _subject(times=times, followup=followup)


def test_subject_requires_intercept_column():
    times = np.array([1.0, 2.0])
    X = np.column_stack([np.full(2, 2.0), np.ones(2)])
    with pytest.raises(ValueError):
        Subject("a", times, X, np.zeros(2), 3.0, True)


def test_subject_rejects_nonfinite():
    times = np.array([1.0, 2.0])
    X = np.column_stack([np.ones(2), np.array([1.0, np.nan])])
    with pytest.raises(ValueError):
        Subject("a", times, X, np.zeros(2), 3.0, True)
    y = np.array([0.0, np.inf])
    X_ok = np.column_stack([np.ones(2), np.zeros(2)])
    with pytest.raises(ValueError):
        Subject("a", times, X_ok, y, 3.0, True)


def test_dataset_counts_and_complete_case():
    a = _subject("a", complete=True)
    b = _subject("b", complete=False)
    c = _subject("c", times=(0.5, 1.0, 2.5), complete=True)
    ds = Dataset([a, b, c])
    assert ds.n_subjects == 3
    assert ds.n_complete_case == 2
    assert ds.n_observations == 7


def test_dataset_rejects_mixed_p():
    with pytest.raises(ValueError):
        Dataset([_subject("a", p=2), _subject("b", p=3)])


def test_dataset_rejects_duplicate_ids():
    with pytest.raises(ValueError):
        Dataset([_subject("a"), _subject("a")])


def test_dataset_rejects_empty():
    with pytest.raises(ValueError):
        Dataset([])


def test_dataset_p_override_must_match():
    with pytest.raises(ValueError):
        Dataset([_subject("a", p=2)], p=3)


def _columns(subjects):
    """from_columns arguments that concatenate these subjects."""
    return ([s.id for s in subjects], [s.n_visits for s in subjects],
            np.concatenate([s.times for s in subjects]),
            np.vstack([s.covariates for s in subjects]),
            np.concatenate([s.responses for s in subjects]),
            [s.followup_end for s in subjects], [s.event_observed for s in subjects])


def _rule_breaker(rule):
    """(times, covariates, responses, followup) breaking one Subject rule."""
    times, X, y = np.array([1.0, 2.0]), np.array([[1.0, 0.5], [1.0, 0.7]]), np.zeros(2)
    return {
        "no visits": (np.empty(0), np.empty((0, 2)), np.empty(0), 3.0),
        "repeated time": (np.array([1.0, 1.0]), X, y, 3.0),
        "decreasing": (np.array([2.0, 1.0]), X, y, 3.0),
        "followup zero": (times, X, y, 0.0),
        "followup nan": (times, X, y, np.nan),
        "after followup": (np.array([1.0, 4.0]), X, y, 3.0),
        "intercept": (times, np.array([[2.0, 0.5], [1.0, 0.7]]), y, 3.0),
        "nan covariate": (times, np.array([[1.0, np.nan], [1.0, 0.7]]), y, 3.0),
        "inf response": (times, X, np.array([0.0, np.inf]), 3.0),
        "two rules": (np.array([2.0, 1.0]), np.array([[2.0, 0.5], [1.0, 0.7]]), y, 0.0),
    }[rule]


@pytest.mark.parametrize("rule", ["no visits", "repeated time", "decreasing",
                                  "followup zero", "followup nan", "after followup",
                                  "intercept", "nan covariate", "inf response",
                                  "two rules"])
def test_from_columns_rejects_like_subject(rule):
    times, X, y, followup = _rule_breaker(rule)
    with pytest.raises(ValueError) as by_subject:
        Subject("b", times, X, y, followup, True)
    ids, counts, t, cov, resp, fup, flag = _columns([_subject("a"), _subject("c")])
    # b sits between two valid subjects; a later subject breaking a rule is not reported
    late = _subject("d", times=(2.0, 1.5), followup=3.0, check=False)
    _, d_counts, d_t, d_cov, d_resp, _, _ = _columns([late])
    with pytest.raises(ValueError) as by_columns:
        Dataset.from_columns(
            [ids[0], "b", ids[1], "d"], [counts[0], times.size, counts[1], 2],
            np.concatenate([t[:2], times, t[2:], d_t]), np.vstack([cov[:2], X, cov[2:], d_cov]),
            np.concatenate([resp[:2], y, resp[2:], d_resp]), [fup[0], followup, fup[1], 3.0],
            [True] * 4)
    assert str(by_columns.value) == str(by_subject.value)


def test_from_columns_rejects_shapes_and_duplicates_like_subject():
    a = _subject("a")
    with pytest.raises(ValueError) as by_subject:
        Subject("a", a.times, a.covariates[:1], a.responses, 3.0, True)
    with pytest.raises(ValueError) as by_columns:
        Dataset.from_columns(["a"], [2], a.times, a.covariates[:1], a.responses, [3.0], [True])
    assert str(by_columns.value) == str(by_subject.value)
    with pytest.raises(ValueError) as by_subject:
        Subject("a", a.times, a.covariates, a.responses[:1], 3.0, True)
    with pytest.raises(ValueError) as by_columns:
        Dataset.from_columns(["a"], [2], a.times, a.covariates, a.responses[:1], [3.0], [True])
    assert str(by_columns.value) == str(by_subject.value)
    with pytest.raises(ValueError) as by_dataset:
        Dataset([_subject("a"), _subject("b"), _subject("a")])
    with pytest.raises(ValueError) as by_columns:
        Dataset.from_columns(*_columns([_subject("a"), _subject("b"), _subject("a")]))
    assert str(by_columns.value) == str(by_dataset.value) == "duplicate subject id 'a'"


def test_from_columns_matches_subject_construction():
    rng = np.random.default_rng(11)
    subjects = []
    for i in range(40):
        m = int(rng.integers(1, 7))
        times = np.cumsum(rng.uniform(0.1, 1.0, size=m))
        X = np.column_stack([np.ones(m), rng.normal(size=(m, 2))])
        subjects.append(Subject(f"s{i}", times, X, rng.normal(size=m),
                                times[-1] + rng.uniform(0.0, 2.0), rng.random() < 0.6))
    by_subject = Dataset(subjects, p=3)
    by_columns = Dataset.from_columns(*_columns(subjects))
    for name in ("ids", "counts", "times", "covariates", "responses", "followup_end",
                 "event_observed"):
        a, b = np.asarray(getattr(by_subject, name)), np.asarray(getattr(by_columns, name))
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name
    assert by_columns.p == by_subject.p == 3
    for a, b in zip(by_subject.subjects, by_columns.subjects, strict=True):
        assert (a.id, a.followup_end, a.event_observed) == (b.id, b.followup_end,
                                                            b.event_observed)
        for x, y in ((a.times, b.times), (a.covariates, b.covariates),
                     (a.responses, b.responses)):
            assert x.shape == y.shape and x.tobytes() == y.tobytes()


def test_subjects_view_the_current_columns():
    subjects = [_subject("a", (1.0, 2.0)), _subject("b", (0.5, 1.5, 2.5))]
    by_subject = Dataset(subjects, p=2)
    before = by_subject.subjects
    by_subject.responses *= 2
    doubled = [[0.0, 2.0], [0.0, 2.0, 4.0]]
    assert [s.responses.tolist() for s in by_subject.subjects] == doubled
    assert [s.responses.tolist() for s in before] == doubled  # views, not copies
    assert subjects[1].responses.tolist() == [0.0, 1.0, 2.0]  # the caller's arrays are copied

    by_columns = Dataset.from_columns(*_columns(subjects))
    assert by_columns.subjects[0].responses.tolist() == [0.0, 1.0]
    by_columns.responses = by_columns.responses + 10.0
    assert [s.responses.tolist() for s in by_columns.subjects] == [[10.0, 11.0],
                                                                   [10.0, 11.0, 12.0]]
