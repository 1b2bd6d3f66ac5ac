"""Both forms of a CV pass against the dense k-fold oracle: the masked pass over all
visits and the per-fold passes against the training subjects' View."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import vcterm.bandwidth as bw
from vcterm import DEFAULT_KERNEL, Dataset
from vcterm.bandwidth import cv_score
from vcterm.engine import View, solve

import oracles


@st.composite
def cv_problems(draw):
    """A small cohort, folds over its complete-case subjects and a bandwidth.

    Visit times and follow-ups are multiples of 0.25, so visits tie across
    subjects. The first k subjects are complete cases in folds 0 to k-1; h comes
    near the 2**20-cells cap, wider than the data, or in between; and in half the
    draws one visit's fold takes every subject within reach of it, so that the
    visit's held-out fit has no support.
    """
    p, k = draw(st.integers(1, 3)), draw(st.integers(2, 5))
    h = draw(st.one_of(st.sampled_from([2.3e-6, 2.4e-6, 50.0]), st.floats(0.2, 3.0)))
    ids, counts, times, fups, flags = [], [], [], [], []
    for j in range(draw(st.integers(k, 10))):
        ts = sorted(draw(st.sets(st.integers(0, 24), min_size=1, max_size=4)))
        ids.append(f"s{j}")
        counts.append(len(ts))
        times += [0.25 * t for t in ts]
        fups.append(0.25 * (ts[-1] + draw(st.integers(1, 16))))
        flags.append(j < k or draw(st.integers(0, 5)) > 0)
    n_rows = len(times)
    X = np.ones((n_rows, p))
    X[:, 1:] = np.reshape(draw(st.lists(st.integers(-2, 2), min_size=n_rows * (p - 1),
                                        max_size=n_rows * (p - 1))), (n_rows, p - 1))
    y = draw(st.lists(st.floats(-10, 10), min_size=n_rows, max_size=n_rows))
    data = Dataset.from_columns(ids, counts, np.array(times), X, np.array(y), fups, flags)
    cc = np.flatnonzero(data.event_observed)
    folds = np.full(data.n_subjects, -1)
    folds[cc] = list(range(k)) + draw(st.lists(st.integers(0, k - 1), min_size=cc.size - k,
                                               max_size=cc.size - k))
    if draw(st.booleans()):
        view = View(data)
        j = draw(st.integers(0, view.n_obs - 1))
        reach = 1.01 * DEFAULT_KERNEL.truncation_radius * h
        near = (view.t - view.t[j]) ** 2 + (view.s - view.s[j]) ** 2 <= reach ** 2
        folds[cc[view.subj[near]]] = folds[cc[view.subj[j]]]
    return data, folds, h


@settings(max_examples=60, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(cv_problems())
def test_both_cv_pass_forms_match_the_dense_oracle_and_per_fold_fits_are_training_fits(problem):
    data, folds, h = problem
    want, want_excluded = oracles.dense_kfold_cv(data, dict(zip(data.ids, folds.tolist())), h)
    held_out = bw._held_out_residuals
    for per_fold in (False, True):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bw, "_held_out_residuals",
                       lambda data, view, folds, h, _: held_out(data, view, folds, h, per_fold))
            got, excluded = cv_score(data, folds, h)
        assert excluded == want_excluded
        assert got == pytest.approx(want, rel=1e-10)
    # the per-fold form's residual at each visit is y - x'beta of local_fit's one-target
    # solve on the Dataset of the other folds' subjects, bit for bit (local_fit itself
    # adds a sandwich, which underflows on draws with responses near 1e-200)
    view = View(data)
    obs_fold = folds[data.event_observed][view.subj]
    resid, valid = held_out(data, view, folds, h, True)
    for f in np.unique(obs_fold).tolist():
        train = View(Dataset([s for s, g in zip(data.subjects, folds) if g != f], p=data.p))
        for j in np.flatnonzero(obs_fold == f).tolist():
            sol = solve(train, view.t[j:j + 1], view.s[j:j + 1], h)
            assert valid[j] == (sol.status[0] == 0)
            if valid[j]:
                fitted = np.matmul(view.X[j][None, None, :], sol.beta[:, :, None])
                assert resid[j].tobytes() == (view.y[j] - fitted[0, 0, 0]).tobytes()
