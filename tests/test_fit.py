import re
import warnings

import numpy as np
import pytest

from vcterm import (
    DEFAULT_KERNEL,
    Dataset,
    FitError,
    confidence_interval,
    fit_grid,
    kernel_eval,
    local_fit,
    residuals,
    sandwich_variance,
)
from vcterm import fit as fit_module
from vcterm.bandwidth import cv_score, make_folds
from vcterm.data import Subject
from vcterm.fit import (STATUS_EMPTY, STATUS_OK, STATUS_SINGULAR, FitPoint, normal_quantile,
                        standard_errors)

import oracles

H_WIDE = 4.0  # covers the whole [0, 3] x [0, 4] support of the tiny datasets


def _constant_dataset(n=12, p=3, seed=3, noise=0.0):
    """Responses exactly X beta for a fixed beta, optionally plus noise."""
    rng = np.random.default_rng(seed)
    beta = np.array([2.0, -1.0, 0.5][:p])
    subjects = []
    for i in range(n):
        m = int(rng.integers(2, 6))
        times = np.sort(rng.uniform(0.0, 3.0, size=m))
        while np.any(np.diff(times) <= 0):
            times = np.sort(rng.uniform(0.0, 3.0, size=m))
        X = np.column_stack([np.ones(m)] + [rng.normal(size=m)
                                            for _ in range(p - 1)])
        y = X @ beta + noise * rng.normal(size=m)
        subjects.append(Subject(f"c{i:03d}", times, X, y,
                                float(times[-1] + 0.5), True))
    return Dataset(subjects, p=p), beta


def test_local_fit_matches_dense_oracle_many():
    rng = np.random.default_rng(11)
    for trial in range(25):
        p = int(rng.integers(2, 4))
        data = oracles.make_tiny_dataset(rng, int(rng.integers(6, 14)), p)
        t0, s0 = oracles.interior_target(data, rng)
        fit = local_fit(data, t0, s0, H_WIDE)
        assert fit.status == STATUS_OK
        want = oracles.dense_local_fit(data, t0, s0, H_WIDE)
        np.testing.assert_allclose(fit.beta_hat, want, atol=1e-10, rtol=0)


def test_sandwich_matches_dense_oracle():
    rng = np.random.default_rng(23)
    for trial in range(5):
        data = oracles.make_tiny_dataset(rng, 8, 2, all_complete=True)
        t0, s0 = oracles.interior_target(data, rng)
        resid_map = oracles.dense_residual_map(data, H_WIDE)
        want = oracles.dense_sandwich(data, t0, s0, H_WIDE, resid_map)
        got = sandwich_variance(data, t0, s0, H_WIDE)
        np.testing.assert_allclose(got, want, atol=1e-10, rtol=0)


def test_sandwich_symmetric_psd():
    rng = np.random.default_rng(29)
    data = oracles.make_tiny_dataset(rng, 10, 3)
    t0, s0 = oracles.interior_target(data, rng)
    V = sandwich_variance(data, t0, s0, H_WIDE)
    np.testing.assert_array_equal(V, V.T)
    evals = np.linalg.eigvalsh(V)
    assert evals.min() >= -1e-12 * max(evals.max(), 1.0)


def test_residuals_match_dense_oracle():
    rng = np.random.default_rng(37)
    data = oracles.make_tiny_dataset(rng, 8, 2, all_complete=True)
    table = residuals(data, H_WIDE)
    assert table.valid.all() and table.resid.shape == data.times.shape
    want_map = oracles.dense_residual_map(data, H_WIDE)
    want = [want_map[(s.id, j)] for s in data.subjects for j in range(s.n_visits)]
    np.testing.assert_allclose(table.resid, want, atol=1e-10, rtol=0)


def test_noiseless_constant_recovery_and_zero_residuals():
    data, beta = _constant_dataset()
    t0, s0 = 1.5, 1.0
    fit = local_fit(data, t0, s0, H_WIDE)
    np.testing.assert_allclose(fit.beta_hat, beta, atol=1e-10)
    table = residuals(data, H_WIDE)
    assert table.valid.all() and table.resid.shape == data.times.shape
    assert np.abs(table.resid).max() <= 1e-10
    V = sandwich_variance(data, t0, s0, H_WIDE)
    assert np.abs(V).max() <= 1e-16


def test_residuals_mark_censored_rows_invalid():
    rng = np.random.default_rng(41)
    data = oracles.make_tiny_dataset(rng, 12, 2)
    complete = np.repeat(data.event_observed, data.counts)
    assert not complete.all()
    table = residuals(data, H_WIDE)
    np.testing.assert_array_equal(table.valid, complete)
    assert np.isnan(table.resid[~complete]).all()
    assert np.isfinite(table.resid[complete]).all()
    only = Dataset([s for s in data.subjects if s.event_observed], p=2)
    np.testing.assert_array_equal(table.resid[complete], residuals(only, H_WIDE).resid)


def test_confidence_interval_frozen_values():
    # beta 0, unit variance, n=100, h=1: bounds are +/- z_{0.025} / 10
    fit = FitPoint(1.0, 1.0, 1.0, np.zeros(2), np.eye(2), 50, STATUS_OK, n_cc=100)
    ci = confidence_interval(fit)
    want = 0.19599639845400536
    np.testing.assert_allclose(ci[:, 0], [-want, -want], atol=1e-12, rtol=0)
    np.testing.assert_allclose(ci[:, 1], [want, want], atol=1e-12, rtol=0)


def test_confidence_interval_nesting_and_se():
    rng = np.random.default_rng(43)
    data = oracles.make_tiny_dataset(rng, 10, 2)
    t0, s0 = oracles.interior_target(data, rng)
    fit = local_fit(data, t0, s0, H_WIDE)
    fit.v_hat = sandwich_variance(data, t0, s0, H_WIDE)
    assert fit.n_cc == data.n_complete_case
    wide = confidence_interval(fit, alpha=0.01)
    narrow = confidence_interval(fit, alpha=0.05)
    assert np.all(wide[:, 0] <= narrow[:, 0])
    assert np.all(wide[:, 1] >= narrow[:, 1])
    se = standard_errors(fit)
    half = (narrow[:, 1] - narrow[:, 0]) / 2.0
    np.testing.assert_allclose(half, 1.9599639845400536 * se, rtol=1e-12)


def test_every_fit_carries_the_complete_case_count():
    rng = np.random.default_rng(41)
    data = oracles.make_tiny_dataset(rng, 12, 2)
    assert 0 < data.n_complete_case < data.n_subjects
    fits = fit_grid(data, [oracles.interior_target(data, rng), (1e6, 1e6)], H_WIDE)
    assert [fp.status for fp in fits] == [STATUS_OK, STATUS_EMPTY]
    fits.append(local_fit(data, *oracles.interior_target(data, rng), H_WIDE))
    assert [fp.n_cc for fp in fits] == [data.n_complete_case] * 3


def test_confidence_interval_argument_errors():
    fit = FitPoint(1.0, 1.0, 1.0, np.zeros(2), np.eye(2), 50, STATUS_OK, n_cc=100)
    with pytest.raises(ValueError):
        confidence_interval(fit, alpha=0.0)
    for n_cc in (0, -1):
        fit.n_cc = n_cc
        with pytest.raises(ValueError, match="^n_cc must be positive$"):
            confidence_interval(fit)
        with pytest.raises(ValueError, match="^n_cc must be positive$"):
            standard_errors(fit)
    bare = FitPoint(1.0, 1.0, 1.0, np.zeros(2), None, 50, STATUS_OK, n_cc=100)
    with pytest.raises(ValueError):
        confidence_interval(bare)
    failed = FitPoint(1.0, 1.0, 1.0, None, None, 1, STATUS_EMPTY, n_cc=100)
    with pytest.raises(FitError):
        confidence_interval(failed)


@pytest.mark.parametrize("alpha", [1e-300, 1e-16])
def test_alpha_whose_quantile_rounds_away_is_named(alpha):
    # 1 - alpha/2 rounds to 1, where the normal quantile is infinite
    with pytest.raises(ValueError, match=re.escape(f"alpha={alpha!r} is too small")):
        normal_quantile(alpha)


def test_censored_subjects_do_not_affect_fit():
    rng = np.random.default_rng(53)
    data = oracles.make_tiny_dataset(rng, 10, 2)
    t0, s0 = oracles.interior_target(data, rng)
    fit = local_fit(data, t0, s0, H_WIDE)

    perturbed = []
    for s in data.subjects:
        if s.event_observed:
            perturbed.append(s)
        else:
            perturbed.append(Subject(s.id, s.times, s.covariates,
                                     s.responses + 1e6, s.followup_end, False))
    data2 = Dataset(perturbed, p=2)
    fit2 = local_fit(data2, t0, s0, H_WIDE)
    np.testing.assert_array_equal(fit2.beta_hat, fit.beta_hat)
    V1 = sandwich_variance(data, t0, s0, H_WIDE)
    V2 = sandwich_variance(data2, t0, s0, H_WIDE)
    np.testing.assert_array_equal(V1, V2)


def test_intercept_only_fit_is_weighted_mean():
    rng = np.random.default_rng(59)
    subjects = []
    for i in range(6):
        m = 3
        times = np.sort(rng.uniform(0.0, 3.0, size=m))
        X = np.ones((m, 1))
        y = rng.normal(size=m)
        subjects.append(Subject(f"w{i}", times, X, y, float(times[-1] + 0.4),
                                True))
    data = Dataset(subjects, p=1)
    t0, s0 = 1.5, 0.8
    fit = local_fit(data, t0, s0, 2.5)
    num, den = 0.0, 0.0
    for s in subjects:
        for tau, yy in zip(s.times, s.responses):
            w = oracles.kernel_scalar((tau - t0) / 2.5,
                                      (s.followup_end - tau - s0) / 2.5)
            num += w * yy
            den += w
    assert fit.beta_hat[0] == pytest.approx(num / den, abs=1e-12)


def test_empty_support_status():
    rng = np.random.default_rng(61)
    data = oracles.make_tiny_dataset(rng, 6, 2)
    fit = local_fit(data, 1000.0, 1000.0, 1.0)
    assert fit.status == STATUS_EMPTY
    assert fit.beta_hat is None
    assert fit.n_eff == 0
    with pytest.raises(FitError) as err:
        sandwich_variance(data, 1000.0, 1000.0, 1.0)
    assert err.value.status == STATUS_EMPTY
    assert err.value.exit_code == 4


def test_singular_status_on_collinear_covariates():
    subjects = []
    rng = np.random.default_rng(67)
    for i in range(5):
        times = np.sort(rng.uniform(0.0, 3.0, size=4))
        X = np.column_stack([np.ones(4), np.ones(4)])  # second column collinear
        y = rng.normal(size=4)
        subjects.append(Subject(f"s{i}", times, X, y, float(times[-1] + 0.3),
                                True))
    data = Dataset(subjects, p=2)
    fit = local_fit(data, 1.5, 0.5, H_WIDE)
    assert fit.status == STATUS_SINGULAR
    assert fit.beta_hat is None


def test_bandwidth_must_be_positive():
    rng = np.random.default_rng(71)
    data = oracles.make_tiny_dataset(rng, 5, 2)
    with pytest.raises(ValueError):
        local_fit(data, 1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        residuals(data, -1.0)


@pytest.mark.parametrize("h", [1e-170, 1e200])
def test_bandwidth_whose_square_is_zero_or_inf_is_rejected(h):
    # at 1e-170 h*h is 0, and an own-visit fit would divide 0 by 0; at 1e200 it
    # is inf, and every visit would get weight 0 although all lie in the disk
    data = _cohort()
    t, s = _visits(data)
    assert h * h in (0.0, np.inf)
    for call in (lambda: local_fit(data, float(t[0]), float(s[0]), h),
                 lambda: fit_grid(data, [(2.0, 6.0)], h),
                 lambda: residuals(data, h)):
        with pytest.raises(ValueError, match="bandwidth h must be positive and finite"):
            call()


@pytest.mark.parametrize("h", [1e-160, 1e-156, 3e-155])
def test_bandwidth_whose_kernel_weight_overflows_is_rejected(h):
    # h * h is subnormal and positive, and K(0, 0) / h^2 exceeds the largest float
    data = _cohort()
    t, s = _visits(data)
    assert 0 < h * h < 1e-308
    calls = (lambda: local_fit(data, float(t[0]), float(s[0]), h),
             lambda: fit_grid(data, [(2.0, 6.0)], h),
             lambda: residuals(data, h),
             lambda: cv_score(data, make_folds(data, 2, 0), h))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(ValueError, match=re.escape(f"bandwidth h={h!r} is too small")):
                call()


def test_bandwidth_whose_moments_overflow_is_rejected_without_a_warning():
    data = _cohort()
    t, s = _visits(data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape("moments overflow at bandwidth "
                                                       "h=3.1e-155")):
            local_fit(data, float(t[0]), float(s[0]), 3.1e-155)
        # the smallest decade whose weights and moments stay finite here
        fit = local_fit(data, float(t[0]), float(s[0]), 1e-154)
    assert fit.status == STATUS_EMPTY and fit.n_eff == 1


@pytest.mark.parametrize("t0, s0", [(1e307, 6.0), (-1e307, 6.0), (2.0, 1.7e308),
                                     (-1.7e308, -1.7e308)])
def test_target_far_outside_the_data_is_empty_support_without_a_warning(t0, s0):
    # (t0 - min t) / cell side overflows to inf: the target's cell has no data neighbours
    data = _cohort()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = local_fit(data, t0, s0, 0.01)
        grid = fit_grid(data, [(t0, s0), (2.0, 6.0)], 0.01)
    assert fit.status == STATUS_EMPTY and fit.n_eff == 0
    assert grid[0].status == STATUS_EMPTY and grid[1] == fit_grid(data, [(2.0, 6.0)], 0.01)[0]


def test_data_whose_moments_overflow_at_an_ordinary_bandwidth_is_rejected():
    data = _cohort()
    data.covariates[:, 1] = 1.3e154  # x2^2 is finite, its weighted sum is not
    t, s = _visits(data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="h is too small or the covariates and "
                                             "responses too large"):
            local_fit(data, float(t[0]), float(s[0]), 2.0)


def test_fit_grid_matches_pointwise_and_repeats_bit_for_bit():
    rng = np.random.default_rng(73)
    data = oracles.make_tiny_dataset(rng, 10, 2)
    grid = [(0.5, 0.5), (1.0, 1.0), (1.5, 0.8), (2.0, 1.2), (2.5, 0.6)]
    first = fit_grid(data, grid, H_WIDE)
    second = fit_grid(data, grid, H_WIDE)
    assert len(first) == len(grid)
    for a, b, pt in zip(first, second, grid):
        assert (a.t0, a.s0) == pt
        np.testing.assert_array_equal(a.beta_hat, b.beta_hat)
        np.testing.assert_array_equal(a.v_hat, b.v_hat)
        single = local_fit(data, pt[0], pt[1], H_WIDE)
        np.testing.assert_array_equal(a.beta_hat, single.beta_hat)


def test_local_fit_carries_the_sandwich_variance():
    rng = np.random.default_rng(83)
    data = oracles.make_tiny_dataset(rng, 10, 2)
    fp = local_fit(data, 1.0, 1.0, H_WIDE)
    plain = fit_grid(data, [(1.0, 1.0)], H_WIDE)[0]
    assert fp.v_hat.tobytes() == plain.v_hat.tobytes()
    assert fp.beta_hat.tobytes() == plain.beta_hat.tobytes()
    assert fp.v_hat.tobytes() == sandwich_variance(data, 1.0, 1.0, H_WIDE).tobytes()
    far = local_fit(data, 500.0, 500.0, H_WIDE)
    assert far.status == STATUS_EMPTY and far.v_hat is None


def test_fit_grid_survives_unsupported_points():
    rng = np.random.default_rng(79)
    data = oracles.make_tiny_dataset(rng, 8, 2)
    grid = [(1.0, 1.0), (500.0, 500.0)]
    out = fit_grid(data, grid, H_WIDE)
    assert out[0].status == STATUS_OK
    assert out[0].v_hat is not None
    assert out[1].status == STATUS_EMPTY
    assert out[1].v_hat is None


def _cohort():
    from vcterm import SimConfig, gen_dataset

    data, _ = gen_dataset(SimConfig(n=80, seed=5))
    return data


def test_in_place_edit_is_seen_by_the_next_fit():
    from vcterm.bandwidth import cv_score, make_folds

    data = _cohort()
    before = local_fit(data, 2.0, 6.0, 0.7)
    data.responses *= 2.0
    fresh = Dataset.from_columns(data.ids, data.counts, data.times, data.covariates,
                                 data.responses, data.followup_end, data.event_observed)
    fit, ref = local_fit(data, 2.0, 6.0, 0.7), local_fit(fresh, 2.0, 6.0, 0.7)
    np.testing.assert_array_equal(fit.beta_hat, 2.0 * before.beta_hat)
    np.testing.assert_array_equal(fit.beta_hat, ref.beta_hat)
    np.testing.assert_array_equal(fit.v_hat, ref.v_hat)
    table, ref_table = residuals(data, 0.7), residuals(fresh, 0.7)
    np.testing.assert_array_equal(table.resid, ref_table.resid)
    np.testing.assert_array_equal(table.valid, ref_table.valid)
    folds = make_folds(data, 5, 0)
    assert cv_score(data, folds, 1.0) == cv_score(fresh, folds, 1.0)


@pytest.mark.parametrize("h", [0.7, 2.0])
def test_residuals_bit_equal_to_pointwise_fits(h):
    data = _cohort()
    table = residuals(data, h)
    end = np.repeat(data.followup_end, data.counts)
    complete = np.repeat(data.event_observed, data.counts)
    checked = 0
    for row in np.flatnonzero(complete):
        tau, r, ok = data.times[row], table.resid[row], table.valid[row]
        fit = local_fit(data, tau, end[row] - tau, h)
        assert ok == (fit.status == STATUS_OK)
        if ok:
            assert r == data.responses[row] - data.covariates[row] @ fit.beta_hat
            checked += 1
    assert checked > 0.9 * np.count_nonzero(complete)


def test_fit_grid_results_do_not_depend_on_the_batch():
    data = _cohort()
    rng = np.random.default_rng(89)
    base = [(float(t), float(12.0 - t)) for t in range(1, 12)] + [(50.0, 1.0)]
    # a shuffled grid that repeats points, more than one block's worth in a cell
    grid = [base[i] for i in rng.integers(len(base), size=90)] + [base[3]] * 40
    rng.shuffle(grid)
    want = {(fp.t0, fp.s0): fp for fp in fit_grid(data, base, 1.0)}
    got = fit_grid(data, grid, 1.0)
    assert [(fp.t0, fp.s0) for fp in got] == grid
    for fp in got:
        ref = want[(fp.t0, fp.s0)]
        assert (fp.status, fp.n_eff) == (ref.status, ref.n_eff)
        if fp.status == STATUS_OK:
            np.testing.assert_array_equal(fp.beta_hat, ref.beta_hat)
            np.testing.assert_array_equal(fp.v_hat, ref.v_hat)
            np.testing.assert_array_equal(
                fp.v_hat, sandwich_variance(data, fp.t0, fp.s0, 1.0))
    assert want[(50.0, 1.0)].status == STATUS_EMPTY


def _visits(data):
    """(t, s) of every complete-case visit, as two arrays."""
    cc = [s for s in data.subjects if s.event_observed]
    t = np.concatenate([s.times for s in cc])
    return t, np.concatenate([s.followup_end - s.times for s in cc])


def _kernel_weights(t, s, t0, s0, h):
    return kernel_eval(DEFAULT_KERNEL, (t - t0) / h, (s - s0) / h)


def test_residual_pass_covers_only_the_weighted_visits(monkeypatch):
    data = _cohort()
    batches = []
    real = fit_module.solve

    def recording(view, t0, s0, *args, **kwargs):
        batches.append((np.array(t0, dtype=float), np.array(s0, dtype=float)))
        return real(view, t0, s0, *args, **kwargs)

    monkeypatch.setattr(fit_module, "solve", recording)
    t, s = _visits(data)
    fp = local_fit(data, 2.0, 6.0, 0.7)
    assert fp.status == STATUS_OK and fp.v_hat is not None
    assert len(batches) == 2
    weighed = _kernel_weights(t, s, 2.0, 6.0, 0.7) != 0
    pass_t, pass_s = batches[1]
    assert pass_t.size == np.count_nonzero(weighed) < t.size
    assert set(zip(pass_t, pass_s)) == set(zip(t[weighed], s[weighed]))

    batches.clear()
    far = local_fit(data, 50.0, 1.0, 0.7)
    assert far.status == STATUS_EMPTY and far.v_hat is None
    assert len(batches) == 1


def test_lazy_residuals_bit_equal_with_invalid_residuals():
    # at h=0.4 some visits fail their own fits, and some of them lie inside
    # the disks of ok targets, where they must count as zero residuals
    data, h = _cohort(), 0.4
    t, s = _visits(data)
    table = residuals(data, h)
    bad = ~table.valid & np.repeat(data.event_observed, data.counts)
    assert bad.any()
    bad_t = data.times[bad]
    bad_s = np.repeat(data.followup_end, data.counts)[bad] - bad_t
    grid = [(float(a), float(12.0 - a)) for a in range(1, 12)] + list(zip(t.tolist(), s.tolist()))
    ok = [fp for fp in fit_grid(data, grid, h) if fp.status == STATUS_OK]
    assert any((_kernel_weights(bad_t, bad_s, fp.t0, fp.s0, h) != 0).any() for fp in ok)
    for fp in ok:
        single = local_fit(data, fp.t0, fp.s0, h)
        assert fp.beta_hat.tobytes() == single.beta_hat.tobytes()
        assert np.isfinite(fp.v_hat).all()
        assert fp.v_hat.tobytes() == single.v_hat.tobytes()


def _v_hat_bits(fits):
    return [None if fp.v_hat is None else fp.v_hat.tobytes() for fp in fits]


def _reference_bits(data, grid, h):
    return [None if v is None else v.tobytes() for v in oracles.reference_sandwich(data, grid, h)]


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("grid", ["single", "slices", "mixed"])
def test_fit_grid_v_hat_bit_equal_to_per_point_sandwich(p, grid):
    from vcterm import SimConfig, gen_dataset
    from vcterm.experiments import GridSpec

    data, _ = gen_dataset(SimConfig(n=120, p=p, seed=31))
    points = [(2.0, 6.0)] if grid == "single" else GridSpec().eval_points()
    if grid == "mixed":
        # a subject far from the cohort whose visits share one covariate row: at
        # its visits the Gram matrix has rank 1, singular unless p = 1
        times = np.array([30.0, 30.1, 30.2, 30.3])
        far = Subject("far", times, np.tile([1.0, 0.5, -0.5][:p], (4, 1)),
                      np.arange(4.0), 36.0, True)
        data = Dataset([*data.subjects, far], p=p)
        points = points[:10] + [(50.0, 1.0), (30.1, 5.9)] + points[10:]
    fits = fit_grid(data, points, 1.0)
    assert _v_hat_bits(fits) == _reference_bits(data, points, 1.0)
    statuses = [fp.status for fp in fits]
    if grid != "single":
        assert len(points) > fit_module.SANDWICH_CHUNK
    if grid == "mixed":
        assert statuses[10:12] == [STATUS_EMPTY, STATUS_SINGULAR if p > 1 else STATUS_OK]
        statuses[10:12] = []
    assert set(statuses) == {STATUS_OK}


@pytest.mark.parametrize("chunk", [1, 5, 64])
def test_fit_grid_v_hat_does_not_depend_on_the_sandwich_chunk(chunk, monkeypatch):
    data = _cohort()
    t, s = _visits(data)
    points = [(50.0, 1.0)] + list(zip(t.tolist(), s.tolist()))[::7]
    want = _v_hat_bits(fit_grid(data, points, 0.5))
    monkeypatch.setattr(fit_module, "SANDWICH_CHUNK", chunk)
    assert _v_hat_bits(fit_grid(data, points, 0.5)) == want


def _cluster_dataset():
    """Intercept-only cohort in three clusters of the (t, s) plane, far apart at
    h=0.5: responses of +-1e-170 at (1, 5), whose sandwich underflows, +-1e200 at
    (10, 5), whose sandwich overflows, and ordinary ones at (5, 5)."""
    subjects = []
    for c, (t0, y) in enumerate(((1.0, 1e-170), (10.0, 1e200), (5.0, 1.0))):
        for i in range(6):
            times = t0 + np.array([-0.2, 0.0, 0.2]) + 0.01 * i
            signs = np.array([1.0, -1.0, 1.0]) * (-1.0) ** i
            subjects.append(Subject(f"c{c}s{i}", times, np.ones((3, 1)), y * signs,
                                    t0 + 5.0, True))
    return Dataset(subjects, p=1)


@pytest.mark.parametrize("padding", [0, 20])
@pytest.mark.parametrize("order, what", [("under-over", "underflows"),
                                         ("over-under", "overflows")])
@pytest.mark.filterwarnings("error")
def test_first_failing_sandwich_point_raises_first(order, what, padding):
    data, under, over = _cluster_dataset(), (1.0, 5.0), (10.0, 5.0)
    assert fit_grid(data, [(5.0, 5.0)], 0.5)[0].v_hat is not None
    first, last = (under, over) if order == "under-over" else (over, under)
    grid = [(5.0, 5.0), first] + [(5.0, 5.0)] * padding + [last]
    message = f"^the sandwich variance {what} at bandwidth h=0.5: "
    with pytest.raises(ValueError, match=message):
        oracles.reference_sandwich(data, grid, 0.5)
    with pytest.raises(ValueError, match=message):
        fit_grid(data, grid, 0.5)
