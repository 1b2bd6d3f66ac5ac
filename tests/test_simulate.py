import dataclasses
import hashlib
import math
import re
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

import vcterm.simulate as simulate
from vcterm.simulate import (
    BLOCK_SUBJECTS,
    MAX_CELLS,
    NU_MIN,
    SimConfig,
    beta_value,
    covariate_covariance,
    error_covariance,
    gen_dataset,
    spawn_stateless,
    true_beta,
    trunc_exp_inverse,
)
from vcterm.errors import NumericalError
from vcterm.simulate import _chol_with_jitter, _cholesky, _correlate, _errors, _event_times

import oracles


def test_true_beta_frozen_values():
    assert true_beta(1, 5.0, 5.0) == pytest.approx(0.7581633246407917, abs=1e-15)
    assert true_beta(2, 5.0, 5.0) == pytest.approx(
        0.5 * (math.sin(2.0) - math.sin(2.5)), abs=1e-15)
    assert true_beta(3, 0.0, 0.0) == 1.0
    assert true_beta(1, 0.0, 7.0) == 0.0
    with pytest.raises(ValueError):
        true_beta(4, 0.0, 0.0)


def test_true_beta_vectorized_and_bounded():
    x, y = np.meshgrid(np.linspace(0, 20, 41), np.linspace(0, 20, 41))
    for k, bound in ((1, 5.0), (2, 1.0), (3, 1.0)):
        vals = true_beta(k, x, y)
        assert vals.shape == x.shape
        assert np.abs(vals).max() <= bound + 1e-12


def test_beta_value_constant_mode():
    cfg = SimConfig(n=5, beta_mode="constant", constant_beta=(2.0, -1.0, 0.5))
    assert beta_value(cfg, 1, 3.0, 4.0) == 2.0
    assert beta_value(cfg, 3, 0.0, 0.0) == 0.5
    arr = beta_value(cfg, 2, np.zeros(4), np.ones(4))
    np.testing.assert_array_equal(arr, np.full(4, -1.0))
    with pytest.raises(ValueError):
        beta_value(cfg, 4, 0.0, 0.0)


def test_beta_interarrival_params():
    # the reference generator's Beta parameters, which gen_dataset matches bit for bit
    a, b = oracles.beta_interarrival_params(0.5, 0.01)
    assert a == pytest.approx(1250.0)
    assert b == pytest.approx(1250.0)
    a2, b2 = oracles.beta_interarrival_params(0.25, 0.01)
    assert a2 == pytest.approx(625.0)
    assert b2 == pytest.approx(1875.0)


def test_gen_visit_times_layout():
    # a follow-up of at least 25 years keeps all 20 visits of every subject
    ds, _ = gen_dataset(SimConfig(n=50, seed=3, shift=25.0))
    assert (ds.counts == 20).all()
    j = np.arange(20)
    for s in ds.subjects:
        t = s.times
        assert 0.0 < t[0] < 1.0
        assert np.all(np.diff(t) > 0)
        assert np.all(t > j - 1e-12)
        assert np.all(t < j + 1.0)
        gaps = np.diff(t)
        assert gaps.min() > 0.9
        assert gaps.max() < 1.1


def test_gen_visit_times_validation():
    # SimConfig is what keeps gen_dataset's visit draws to m >= 1 and nu in (0, 0.5]
    with pytest.raises(ValueError, match="m must be at least 1"):
        SimConfig(n=5, m=0)
    with pytest.raises(ValueError, match=re.escape("nu must be in (0, 0.5]")):
        SimConfig(n=5, nu=0.0)


def test_covariate_covariance_closed_form():
    sigma = covariate_covariance([0.0, 1.0, 2.0])
    assert sigma.shape == (4, 4)
    assert sigma[0, 0] == 1.0
    assert sigma[0, 1] == pytest.approx(0.8)
    assert sigma[0, 2] == pytest.approx(0.8 * math.exp(-1.0))
    assert sigma[0, 3] == pytest.approx(0.8 * math.exp(-4.0))
    assert sigma[1, 1] == 1.0
    assert sigma[1, 2] == pytest.approx(math.exp(-1.0))
    assert sigma[1, 3] == pytest.approx(math.exp(-4.0))
    np.testing.assert_array_equal(sigma, sigma.T)


def test_correlated_covariate_moments():
    rng = np.random.default_rng(7)
    draws = _correlate(covariate_covariance([0.0]), rng.standard_normal((20000, 2)))
    x2, x3_0 = draws.T
    assert np.var(x2) == pytest.approx(1.0, abs=0.05)
    assert np.var(x3_0) == pytest.approx(1.0, abs=0.05)
    corr = np.corrcoef(x2, x3_0)[0, 1]
    assert corr == pytest.approx(0.8, abs=0.02)


def test_chol_jitter_on_near_singular_matrix():
    sigma = covariate_covariance([0.0, 1e-9, 2e-9])
    L, jitter = _chol_with_jitter(sigma)
    assert jitter <= 1e-6
    err = np.abs(sigma - L @ L.T).max()
    assert err <= jitter + 1e-12


def test_chol_zero_jitter_when_well_conditioned():
    sigma = covariate_covariance([0.0, 1.0, 5.0])
    L, jitter = _chol_with_jitter(sigma)
    assert jitter == 0.0
    np.testing.assert_allclose(L @ L.T, sigma, atol=1e-14)


def test_stacked_cholesky_falls_back_per_matrix():
    good = covariate_covariance([0.0, 1.0, 5.0])
    bad = covariate_covariance([0.0, 1e-9, 2e-9])  # needs jitter
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(bad)
    L = _cholesky(np.stack([good, bad]))
    assert L.shape == (2, 4, 4)
    assert L[0].tobytes() == np.linalg.cholesky(good).tobytes()
    assert L[1].tobytes() == _chol_with_jitter(bad)[0].tobytes()
    hopeless = -np.eye(4)
    with pytest.raises(NumericalError,
                       match=r"^covariance factorization failed after jitter up to 1e-06 \(dim=4\)$"):
        _cholesky(np.stack([good, hopeless, bad]))


def test_trunc_exp_inverse_against_root_finder():
    def cdf(x, rate, upper):
        return -math.expm1(-rate * x) / -math.expm1(-rate * upper)

    for rate in (math.exp(-5.0), 0.1, 1.0, 20.0):
        for u in (0.01, 0.3, 0.5, 0.9, 0.999):
            got = trunc_exp_inverse(u, rate, 15.0)
            want = brentq(lambda x: cdf(x, rate, 15.0) - u, 0.0, 15.0,
                          xtol=1e-13)
            assert got == pytest.approx(want, abs=1e-9)
            assert 0.0 <= got <= 15.0


def test_trunc_exp_inverse_endpoints():
    assert trunc_exp_inverse(0.0, 0.3, 15.0) == 0.0
    assert trunc_exp_inverse(1.0, 0.3, 15.0) == pytest.approx(15.0, abs=1e-9)


def test_event_times_range():
    cfg = SimConfig(n=1)
    rng = np.random.default_rng(11)
    covariates = _correlate(covariate_covariance([0.0]), rng.standard_normal((200, 2)))
    for (x2, x3_0), (u_t, u_c) in zip(covariates.tolist(), rng.uniform(size=(200, 2)).tolist()):
        t, c = _event_times(u_t, u_c, x2, x3_0, cfg)
        assert cfg.shift <= t <= cfg.shift + cfg.truncation
        assert cfg.shift <= c <= cfg.shift + cfg.truncation


def test_error_covariance_closed_form():
    cfg = SimConfig(n=1)
    sigma = error_covariance([0.0, 1.0], cfg)
    assert sigma[0, 0] == pytest.approx(math.e, rel=1e-12)
    assert sigma[1, 1] == pytest.approx(math.exp(0.9), rel=1e-12)
    assert sigma[0, 1] == pytest.approx(0.5 * math.exp(0.95), rel=1e-12)
    assert sigma[1, 0] == sigma[0, 1]


def test_errors_total_variance():
    # correlated component variance e at t=0 plus unit white noise
    cfg = SimConfig(n=1)
    rng = np.random.default_rng(13)
    draws = _errors([0.0], rng.standard_normal((50000, 1)), rng.standard_normal((50000, 1)), cfg)
    assert np.var(draws) == pytest.approx(math.e + 1.0, rel=0.05)
    assert abs(np.mean(draws)) < 0.05


def test_zero_errors_give_responses_x_beta():
    cfg = SimConfig(n=40, seed=17, zero_errors=True)
    ds, truths = gen_dataset(cfg)
    t_event = {tr.subject_id: tr.event_time for tr in truths}
    s_axis = np.repeat([t_event[i] for i in ds.ids], ds.counts) - ds.times
    want = np.zeros(ds.n_observations)
    for k in range(1, cfg.p + 1):
        want += ds.covariates[:, k - 1] * beta_value(cfg, k, ds.times, s_axis)
    assert ds.responses.tobytes() == want.tobytes()


def test_spawn_stateless_is_repeatable_and_matches_spawn():
    seq = np.random.SeedSequence(12345)
    a = spawn_stateless(seq, 3)
    b = spawn_stateless(seq, 3)
    for x, y in zip(a, b):
        assert x.entropy == y.entropy
        assert x.spawn_key == y.spawn_key
    spawned = np.random.SeedSequence(12345).spawn(3)
    for x, y in zip(a, spawned):
        assert np.random.default_rng(x).random() == np.random.default_rng(y).random()


def test_gen_dataset_deterministic():
    cfg = SimConfig(n=30, seed=99)
    ds1, truth1 = gen_dataset(cfg)
    ds2, truth2 = gen_dataset(cfg)
    assert truth1 == truth2
    for a, b in zip(ds1.subjects, ds2.subjects):
        assert a.id == b.id
        np.testing.assert_array_equal(a.times, b.times)
        np.testing.assert_array_equal(a.covariates, b.covariates)
        np.testing.assert_array_equal(a.responses, b.responses)
        assert a.followup_end == b.followup_end
        assert a.event_observed == b.event_observed

    ds3, _ = gen_dataset(cfg, seed_seq=np.random.SeedSequence(99))
    for a, b in zip(ds1.subjects, ds3.subjects):
        np.testing.assert_array_equal(a.responses, b.responses)

    ds4, _ = gen_dataset(SimConfig(n=30, seed=100))
    assert any(not np.array_equal(a.responses, b.responses)
               for a, b in zip(ds1.subjects, ds4.subjects))


def test_gen_dataset_arrays_match_recorded_digest():
    # recorded with the subject-by-subject generator that from_columns replaced
    ds, truths = gen_dataset(SimConfig(n=200, seed=20260815))
    digest = hashlib.sha256("\n".join(ds.ids).encode())
    for arr in (ds.counts.astype(np.int64), ds.times, ds.covariates, ds.responses,
                ds.followup_end, ds.event_observed.astype(np.uint8),
                np.array([[t.x2, t.x3_at_zero, t.event_time, t.censor_time] for t in truths])):
        digest.update(np.ascontiguousarray(arr).tobytes())
    assert digest.hexdigest() == \
        "6cb013b0eb981238a65d330cfb9eaec154492c833a952f5de84c840dd8a852ff"


def _cohort_bits(dataset, truths):
    arrays = (dataset.counts.astype(np.int64), dataset.times, dataset.covariates,
              dataset.responses, dataset.followup_end, dataset.event_observed)
    return (dataset.ids, dataset.p, [a.dtype.str + a.tobytes().hex() for a in arrays],
            [tuple((type(v).__name__, v.hex() if isinstance(v, float) else v)
                   for v in dataclasses.astuple(t)) for t in truths])


BLOCK = simulate.BLOCK_SUBJECTS
REFERENCE_CASES = [
    dict(n=40, seed=1),
    dict(n=40, seed=2, p=1),
    dict(n=33, seed=3, p=2, m=7, shift=0.5),
    dict(n=25, seed=4, m=1),
    dict(n=20, seed=5, zero_errors=True),
    dict(n=20, seed=6, beta_mode="constant"),
    dict(n=20, seed=7, zero_errors=True, beta_mode="constant", p=2),
    dict(n=50, seed=5, shift=0.0, truncation=0.5),  # some subjects keep no visit
    dict(n=1, seed=8),
    dict(n=6, seed=9),
    dict(n=8, seed=10),
    dict(n=BLOCK - 1, seed=11),
    dict(n=BLOCK + 1, seed=12),
]


@pytest.mark.parametrize("block", [1, 7, BLOCK], ids=lambda b: f"block{b}")
@pytest.mark.parametrize("case", REFERENCE_CASES, ids=lambda c: "-".join(
    f"{k}={v}" for k, v in c.items()))
def test_gen_dataset_matches_reference_generator(case, block, monkeypatch):
    monkeypatch.setattr(simulate, "BLOCK_SUBJECTS", block)
    cfg = SimConfig(**case)
    ds, truths = gen_dataset(cfg)
    assert _cohort_bits(ds, truths) == _cohort_bits(*oracles.reference_gen_dataset(cfg))
    if cfg.shift == 0.0:
        assert 0 < ds.n_subjects < cfg.n


def test_gen_dataset_matches_reference_with_explicit_seed_seq():
    cfg = SimConfig(n=BLOCK + 5, seed=0, p=2)
    for seq in (np.random.SeedSequence(2024, spawn_key=(3, 1)),
                np.random.SeedSequence(2**128 - 1, spawn_key=(1, 2)),
                np.random.SeedSequence([1, 2, 3, 4, 5, 6]),
                np.random.SeedSequence(np.array([7, 8], dtype=np.uint32), spawn_key=(3,),
                                       pool_size=8)):
        assert _cohort_bits(*gen_dataset(cfg, seed_seq=seq)) == \
            _cohort_bits(*oracles.reference_gen_dataset(cfg, seed_seq=seq))


@pytest.mark.parametrize("entropy", [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**128 - 1,
                                     [1, 2, 3, 4, 5, 6], np.array([7, 8], dtype=np.uint32),
                                     ["0x10", "7"]],
                         ids=["0", "1", "2^32-1", "2^32", "2^64+5", "2^128-1", "list6",
                              "uint32x2", "strings"])
def test_child_states_match_numpy_seeding(entropy):
    for spawn_key in ((), (3,), (1, 2)):
        for pool_size in (4, 8):
            seq = np.random.SeedSequence(entropy, spawn_key=spawn_key, pool_size=pool_size)
            for count in (0, 1, 33):
                want = [np.random.PCG64(c).state["state"] for c in spawn_stateless(seq, count)]
                got = simulate._child_states(seq, count)
                assert got == [(w["state"], w["inc"]) for w in want]


@pytest.mark.parametrize("subject", [0, 4])
def test_gen_dataset_rejects_a_derived_state_that_differs_from_numpy(subject, monkeypatch):
    derive = simulate._child_states

    def tampered(seq, count):
        states = derive(seq, count)
        state, inc = states[subject]
        states[subject] = (state ^ 1, inc)
        return states

    monkeypatch.setattr(simulate, "_child_states", tampered)
    with pytest.raises(RuntimeError, match=f"PCG64 state of subject {subject} differs"):
        gen_dataset(SimConfig(n=5, seed=3))


def test_gen_dataset_truth_consistency():
    cfg = SimConfig(n=40, seed=7)
    ds, truths = gen_dataset(cfg)
    assert len(truths) == 40
    by_id = {t.subject_id: t for t in truths}
    for s in ds.subjects:
        t = by_id[s.id]
        assert s.followup_end == min(t.event_time, t.censor_time)
        assert s.event_observed == t.event_observed
        assert t.event_observed == (t.event_time <= t.censor_time)
        assert np.all(s.times <= s.followup_end)


def test_gen_dataset_noiseless_constant_exact():
    cfg = SimConfig(n=15, seed=3, zero_errors=True, beta_mode="constant",
                    constant_beta=(2.0, -1.0, 0.5))
    ds, _ = gen_dataset(cfg)
    beta = np.array([2.0, -1.0, 0.5])
    for s in ds.subjects:
        np.testing.assert_allclose(s.responses, s.covariates @ beta,
                                   atol=1e-13)


def test_gen_dataset_surfaces_responses():
    cfg = SimConfig(n=10, seed=21, zero_errors=True)
    ds, truths = gen_dataset(cfg)
    by_id = {t.subject_id: t for t in truths}
    for s in ds.subjects:
        T = by_id[s.id].event_time
        want = np.zeros(s.n_visits)
        for k in range(1, 4):
            want += s.covariates[:, k - 1] * true_beta(k, s.times, T - s.times)
        np.testing.assert_allclose(s.responses, want, atol=1e-12)


def test_gen_dataset_skips_unobservable_subjects():
    # with no shift some subjects fail before their first visit; they are
    # dropped from the dataset but keep a truth row
    cfg = SimConfig(n=50, seed=5, shift=0.0, truncation=0.5)
    ds, truths = gen_dataset(cfg)
    assert len(truths) == 50
    assert 0 < ds.n_subjects < 50


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(n=0)
    with pytest.raises(ValueError):
        SimConfig(n=5, p=4)
    with pytest.raises(ValueError):
        SimConfig(n=5, nu=0.6)
    with pytest.raises(ValueError):
        SimConfig(n=5, beta_mode="step")
    with pytest.raises(ValueError):
        SimConfig(n=5, event_coefs=(1.0, 2.0))
    for params in ((), (1.0,), (1.0, -0.1, 0.0)):
        with pytest.raises(ValueError, match="error_var_params must have 2 entries"):
            SimConfig(n=5, error_var_params=params)
    with pytest.raises(ValueError):
        SimConfig(n=5, truncation=0.0)


@pytest.mark.parametrize("key, coefs, rate", [
    ("censor_coefs", (1.0, 3.0, 800.0), "inf"),
    ("censor_coefs", (1.0, 3.0, -800.0), "0.0"),
    ("event_coefs", (3.0, 1.0, 800.0), "inf"),
    ("event_coefs", (1e308, 1e308, 0.0), None),
])
def test_rate_that_over_or_underflows_names_its_config_key(key, coefs, rate):
    with pytest.raises(NumericalError, match=f"^config key {key}: the rate exp") as info:
        gen_dataset(SimConfig(n=5, seed=0, **{key: coefs}))
    if rate is not None:
        assert f" is {rate} at X2=" in str(info.value)


@pytest.mark.parametrize("nu", [1e-300, 1e-160])
def test_nu_below_its_floor_is_rejected(nu):
    # 1e-300 made the visit-time Beta draw divide by zero; at 1e-160 it drew NaN,
    # which silently dropped every visit after the first
    with pytest.raises(ValueError, match=re.escape(f"nu must be at least {NU_MIN:g}")):
        SimConfig(n=50, seed=1, nu=nu)


def test_nu_at_its_floor_keeps_every_visit():
    ds, _ = gen_dataset(SimConfig(n=50, seed=1, nu=NU_MIN))
    assert np.isfinite(ds.times).all()
    assert ds.n_observations == 511  # as at the default nu; 1e-160 kept only 50


def test_size_cap_holds_at_its_boundary():
    # SimConfig alone: no config on the far side of the cap reaches gen_dataset
    n = MAX_CELLS // 22  # draw arrays of n * (m + 2) numbers at m = 20
    assert SimConfig(n=n).n == n
    with pytest.raises(ValueError, match=f"at most {MAX_CELLS} are allowed"):
        SimConfig(n=n + 1)
    m = math.isqrt(MAX_CELLS // BLOCK_SUBJECTS) - 2  # a block of covariances, 32 * (m + 2)**2
    assert SimConfig(n=1, m=m).m == m
    with pytest.raises(ValueError, match=f"at most {MAX_CELLS} are allowed"):
        SimConfig(n=1, m=m + 1)


@pytest.mark.parametrize("overrides, keys", [
    (dict(shift=1e300), "keys shift and truncation"),
    (dict(error_var_params=(1e300, 1e300)), "key error_var_params"),
    (dict(beta_mode="constant", constant_beta=(1e308, 1e308, 1e308)), "key constant_beta"),
])
def test_non_finite_responses_name_their_config_keys_without_a_warning(overrides, keys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError,
                           match=f"^config {keys}: the simulated responses are not finite"):
            gen_dataset(SimConfig(n=20, seed=1, **overrides))
