import math

import numpy as np
import pytest

import vcterm.bandwidth as bw
from vcterm import Dataset, NumericalError, select_bandwidth, undersmoothing_factor
from vcterm.bandwidth import DEFAULT_H_GRID, cv_score, make_folds
from vcterm.data import Subject

import oracles

FACTOR_4000 = 0.6605367730498038
FACTOR_1000 = 0.7079457843841379


def test_default_h_grid_is_geometric():
    assert DEFAULT_H_GRID == (0.5, 1.0, 2.0, 4.0)
    assert DEFAULT_H_GRID == tuple(float(h) for h in np.geomspace(0.5, 4.0, 4))


def test_make_folds_partitions_complete_cases():
    rng = np.random.default_rng(5)
    data = oracles.make_tiny_dataset(rng, 20, 2)
    folds = make_folds(data, k=4, seed=9)
    assert folds.shape == (data.n_subjects,)
    np.testing.assert_array_equal(folds < 0, ~data.event_observed)
    assert set(folds[data.event_observed].tolist()) == {0, 1, 2, 3}
    sizes = np.bincount(folds[data.event_observed], minlength=4)
    assert sizes.max() - sizes.min() <= 1
    np.testing.assert_array_equal(make_folds(data, k=4, seed=9), folds)


def test_make_folds_argument_errors():
    rng = np.random.default_rng(7)
    data = oracles.make_tiny_dataset(rng, 6, 2, all_complete=True)
    with pytest.raises(ValueError):
        make_folds(data, k=1, seed=0)
    with pytest.raises(ValueError):
        make_folds(data, k=7, seed=0)


def test_a_negative_seed_is_a_value_error_that_names_it():
    data = oracles.make_tiny_dataset(np.random.default_rng(7), 6, 2, all_complete=True)
    with pytest.raises(ValueError, match="^seed must be non-negative, got -1$"):
        make_folds(data, 2, -1)
    with pytest.raises(ValueError, match="^seed must be non-negative, got -1$"):
        select_bandwidth(data, h_grid=(2.0,), k=2, seed=-1)


def test_cv_score_matches_dense_two_fold_oracle():
    rng = np.random.default_rng(13)
    data = oracles.make_tiny_dataset(rng, 6, 2, all_complete=True)
    folds = np.array([0, 0, 0, 1, 1, 1])
    assignment = dict(zip(data.ids, folds.tolist()))
    h = 4.0

    sq = []
    for test_fold in (0, 1):
        train = Dataset([s for s in data.subjects
                         if assignment[s.id] != test_fold], p=2)
        for s in data.subjects:
            if assignment[s.id] != test_fold:
                continue
            for tau, x, y in zip(s.times, s.covariates, s.responses):
                beta = oracles.dense_local_fit(
                    train, float(tau), float(s.followup_end - tau), h)
                sq.append(float(y - x @ beta) ** 2)
    want = math.fsum(sq) / len(sq)

    got, excluded = cv_score(data, folds, h)
    assert excluded == 0.0
    assert got == pytest.approx(want, rel=1e-10)


def test_cv_score_zero_on_noiseless_constant_data():
    from test_fit import _constant_dataset

    data, _ = _constant_dataset(n=10, p=2, seed=17)
    folds = make_folds(data, k=2, seed=0)
    score, excluded = cv_score(data, folds, 4.0)
    assert excluded == 0.0
    assert score <= 1e-20


def test_cv_score_infeasible_bandwidth():
    rng = np.random.default_rng(19)
    data = oracles.make_tiny_dataset(rng, 6, 2, all_complete=True)
    folds = make_folds(data, k=2, seed=0)
    score, excluded = cv_score(data, folds, 1e-6)
    assert math.isinf(score)
    assert excluded == 1.0


def test_cv_score_ignores_censored_subjects():
    rng = np.random.default_rng(23)
    data = oracles.make_tiny_dataset(rng, 8, 2, all_complete=True)
    folds = make_folds(data, k=2, seed=1)
    base = cv_score(data, folds, 3.0)

    extra = oracles.make_tiny_dataset(np.random.default_rng(99), 4, 2)
    censored = [Subject(f"z{j}", s.times, s.covariates, s.responses,
                        s.followup_end, False)
                for j, s in enumerate(extra.subjects)]
    bigger = Dataset(list(data.subjects) + censored, p=2)
    bigger_folds = make_folds(bigger, k=2, seed=1)
    np.testing.assert_array_equal(bigger_folds, np.concatenate([folds, [-1] * 4]))
    assert cv_score(bigger, bigger_folds, 3.0) == base
    # a censored subject's entry is never read
    assert cv_score(bigger, np.concatenate([folds, [0, 1, 0, 1]]), 3.0) == base


def test_cv_score_needs_one_fold_per_subject():
    data = oracles.make_tiny_dataset(np.random.default_rng(31), 8, 2)
    folds = make_folds(data, k=2, seed=0)
    for bad in (folds[:-1], folds[data.event_observed][:-1], folds[:, None]):
        with pytest.raises(ValueError, match="one entry per subject"):
            cv_score(data, bad, 3.0)


def test_cv_score_invariant_to_id_relabeling():
    rng = np.random.default_rng(29)
    data = oracles.make_tiny_dataset(rng, 8, 2, all_complete=True)
    folds = make_folds(data, k=3, seed=2)
    base = cv_score(data, folds, 3.0)

    renamed = Dataset([Subject("r" + s.id, s.times, s.covariates, s.responses,
                               s.followup_end, s.event_observed)
                       for s in data.subjects], p=2)
    np.testing.assert_array_equal(make_folds(renamed, k=3, seed=2), folds)
    assert cv_score(renamed, folds, 3.0) == base


def test_undersmoothing_factor_frozen_values():
    assert undersmoothing_factor(4000) == pytest.approx(FACTOR_4000, abs=1e-15)
    assert undersmoothing_factor(1000) == pytest.approx(FACTOR_1000, abs=1e-15)
    assert undersmoothing_factor(123, gamma=0.0) == 1.0
    with pytest.raises(ValueError):
        undersmoothing_factor(0)
    with pytest.raises(ValueError):
        undersmoothing_factor(100, gamma=-0.1)


def test_select_bandwidth_uses_total_cohort_size():
    rng = np.random.default_rng(31)
    data = oracles.make_tiny_dataset(rng, 16, 2)
    assert data.n_complete_case < data.n_subjects
    res = select_bandwidth(data, h_grid=(3.0, 4.0), k=2, seed=0)
    assert res.factor == pytest.approx(data.n_subjects ** -0.05, abs=1e-15)
    assert res.n_used == data.n_subjects
    assert res.h_selected in (3.0, 4.0)
    assert res.h_undersmoothed == pytest.approx(res.h_selected * res.factor)
    assert len(res.scores) == 2


@pytest.mark.parametrize("gamma", [math.nan, math.inf, 1000.0])
def test_unusable_gamma_fails_before_the_cv_passes(monkeypatch, gamma):
    rng = np.random.default_rng(31)
    data = oracles.make_tiny_dataset(rng, 16, 2)
    with pytest.raises(ValueError, match="gamma"):
        undersmoothing_factor(data.n_subjects, gamma)

    def no_score(*args, **kwargs):
        raise AssertionError("cv_score ran")

    monkeypatch.setattr(bw, "cv_score", no_score)
    with pytest.raises(ValueError, match="gamma"):
        select_bandwidth(data, h_grid=(3.0, 4.0), k=2, seed=0, gamma=gamma)


@pytest.mark.parametrize("bad", [math.inf, 0.0, 1e-160])
def test_unusable_candidate_fails_before_the_cv_passes(monkeypatch, bad):
    rng = np.random.default_rng(31)
    data = oracles.make_tiny_dataset(rng, 16, 2)
    calls = []
    monkeypatch.setattr(bw, "cv_score", lambda *a, **k: calls.append(a) or (1.0, 0.0))
    with pytest.raises(ValueError, match="bandwidth h"):
        select_bandwidth(data, h_grid=(0.5, 1.0, bad), k=2, seed=0)
    assert calls == []


def test_select_bandwidth_tie_breaks_to_smaller_h(monkeypatch):
    rng = np.random.default_rng(37)
    data = oracles.make_tiny_dataset(rng, 8, 2, all_complete=True)

    def fake_score(d, folds, h, kernel=None):
        table = {1.0: 0.5, 2.0: 0.25, 3.0: 0.25, 4.0: math.inf}
        return table[float(h)], 0.0 if table[float(h)] < math.inf else 1.0

    monkeypatch.setattr(bw, "cv_score", fake_score)
    res = select_bandwidth(data, h_grid=(3.0, 1.0, 4.0, 2.0), k=2, seed=0)
    assert res.h_selected == 2.0


def test_select_bandwidth_all_infeasible(monkeypatch):
    rng = np.random.default_rng(41)
    data = oracles.make_tiny_dataset(rng, 8, 2, all_complete=True)

    monkeypatch.setattr(bw, "cv_score", lambda *a, **k: (math.inf, 1.0))
    with pytest.raises(NumericalError):
        select_bandwidth(data, h_grid=(1.0, 2.0), k=2, seed=0)


def test_select_bandwidth_repeats_bit_for_bit():
    rng = np.random.default_rng(43)
    data = oracles.make_tiny_dataset(rng, 12, 2)
    a = select_bandwidth(data, h_grid=(2.0, 3.0, 4.0), k=3, seed=7)
    b = select_bandwidth(data, h_grid=(2.0, 3.0, 4.0), k=3, seed=7)
    assert a.scores == b.scores
    assert a.h_selected == b.h_selected


@pytest.mark.parametrize("k", [3, 4, 5])
def test_cv_score_matches_dense_kfold_oracle(k):
    rng = np.random.default_rng(100 + k)
    data = oracles.make_tiny_dataset(rng, 30, 2)
    # a complete-case subject far from the others: none of its held-out
    # fits has training support
    far = Subject("far", [40.0, 41.0], np.column_stack([np.ones(2), [0.3, -0.2]]),
                  [1.0, 2.0], 42.0, True)
    data = Dataset(list(data.subjects) + [far], p=2)
    folds = make_folds(data, k=k, seed=k)
    h = 1.5
    want, want_excluded = oracles.dense_kfold_cv(data, dict(zip(data.ids, folds)), h)
    got, excluded = cv_score(data, folds, h)
    assert 0.0 < excluded <= bw.MAX_EXCLUDED_FRACTION
    assert excluded == want_excluded
    assert got == pytest.approx(want, rel=1e-10)
