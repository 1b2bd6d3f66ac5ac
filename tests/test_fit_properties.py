"""fit_grid, residuals() and the sandwich against the dense oracles of tests/oracles.py on
small degenerate cohorts, and the invariances of their bits."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vcterm import DEFAULT_KERNEL, Dataset, fit_grid, residuals, sandwich_variance
from vcterm.engine import RCOND_MIN

import oracles

STATUS = {0: "ok", 1: "singular", 2: "empty_support"}


@st.composite
def cohorts(draw):
    """A small cohort, a bandwidth and a grid of targets.

    Visit times and follow-ups are multiples of 0.25, so visits tie across subjects, and a
    subject may have one visit. The first subject is a complete case. With p = 3 the last
    covariate may copy the second, a collinear design. h comes near the 2**20-cells cap,
    wider than the data, or in between; targets sit on visits, between them and off the
    support. A lone visit 1.5 reaches from another often lacks the support of an ok fit of
    its own, which leaves an invalid residual in the disk of a target midway.
    """
    p = draw(st.integers(1, 3))
    h = draw(st.one_of(st.sampled_from([2.3e-6, 2.4e-6, 50.0]), st.floats(0.3, 3.0)))
    ids, counts, times, fups, flags = [], [], [], [], []
    for j in range(draw(st.integers(1, 8))):
        ts = sorted(draw(st.sets(st.integers(0, 24), min_size=1, max_size=4)))
        ids.append(f"s{j}")
        counts.append(len(ts))
        times += [0.25 * t for t in ts]
        fups.append(0.25 * (ts[-1] + draw(st.integers(1, 16))))
        flags.append(j == 0 or draw(st.integers(0, 4)) > 0)
    grid = []
    if draw(st.booleans()):  # a lone visit 1.5 reaches from another, and a target midway
        j = draw(st.integers(0, len(times) - 1))
        owner = int(np.searchsorted(np.cumsum(counts), j, side="right"))
        reach, s_j = DEFAULT_KERNEL.truncation_radius * h, fups[owner] - times[j]
        ids.append("lone")
        counts.append(1)
        times.append(times[j] + 1.5 * reach)
        fups.append(times[-1] + s_j)
        flags.append(True)
        grid.append((times[j] + 0.75 * reach, s_j))
    n_rows = len(times)
    X = np.ones((n_rows, p))
    X[:, 1:] = np.reshape(draw(st.lists(st.integers(-2, 2), min_size=n_rows * (p - 1),
                                        max_size=n_rows * (p - 1))), (n_rows, p - 1))
    if p == 3 and draw(st.booleans()):
        X[:, 2] = X[:, 1]
    # responses near 1e-160 underflow the sandwich by design (tests/test_cli.py)
    y = draw(st.lists(st.floats(-10, 10).filter(lambda v: v == 0 or abs(v) > 1e-100),
                      min_size=n_rows, max_size=n_rows))
    data = Dataset.from_columns(ids, counts, np.array(times), X, np.array(y), fups, flags)
    t, s = data.times, np.repeat(data.followup_end, data.counts) - data.times
    on = draw(st.lists(st.integers(0, n_rows - 1), min_size=1, max_size=6))
    grid += [(float(t[r]), float(s[r])) for r in on]
    grid += draw(st.lists(st.tuples(st.floats(0, 7), st.floats(0, 5)), max_size=3))
    grid += [(-50.0, 1.0), (1e3, 1.0)]
    return data, h, grid


def _dense_fit(data, t0, s0, h):
    """(status code, n_eff, beta or None) from the dense weight matrices of the oracles."""
    p, A, n_eff = data.p, np.zeros((data.p, data.p)), 0
    for subject in data.subjects:
        if subject.event_observed:
            K = oracles.weight_matrix(subject, t0, s0, h)
            n_eff += np.count_nonzero(np.diag(K))
            A += subject.covariates.T @ K @ subject.covariates
    if n_eff < p:
        return 2, n_eff, None
    evals = np.linalg.eigvalsh(A)
    if not (evals[-1] > 0 and evals[0] >= RCOND_MIN * evals[-1]):
        return 1, n_eff, None
    return 0, n_eff, oracles.dense_local_fit(data, t0, s0, h)


def _dense_residuals(data, h):
    """(subject id, visit) -> residual against the visit's own dense fit, NaN unless it is ok."""
    out = {}
    for subject in data.subjects:
        if subject.event_observed:
            for j, tau in enumerate(subject.times.tolist()):
                beta = _dense_fit(data, tau, subject.followup_end - tau, h)[2]
                out[(subject.id, j)] = (np.nan if beta is None else
                                        float(subject.responses[j] - subject.covariates[j] @ beta))
    return out


def _bits(fits):
    return [(f.t0, f.s0, f.n_eff, f.status,
             None if f.beta_hat is None else f.beta_hat.tobytes(),
             None if f.v_hat is None else f.v_hat.tobytes()) for f in fits]


def _close(got, want):
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-10)


@settings(max_examples=70, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(cohorts())
def test_fits_residuals_and_sandwich_match_the_dense_oracles(problem):
    data, h, grid = problem
    fits = fit_grid(data, grid, h)
    resid_map = _dense_residuals(data, h)
    table = residuals(data, h)
    rows = iter(range(data.n_observations))
    for subject in data.subjects:
        for j in range(subject.n_visits):
            r = next(rows)
            want = resid_map.get((subject.id, j), np.nan)
            assert table.valid[r] == (not np.isnan(want))
            if table.valid[r]:
                _close(table.resid[r], want)
            else:
                assert np.isnan(table.resid[r])
    # the sandwich weighs an invalid residual as zero
    eps = {key: 0.0 if np.isnan(e) else e for key, e in resid_map.items()}
    v_ref = oracles.reference_sandwich(data, grid, h)
    for fp, (t0, s0), v_bits in zip(fits, grid, v_ref):
        status, n_eff, beta = _dense_fit(data, t0, s0, h)
        assert (fp.status, fp.n_eff) == (STATUS[status], n_eff)
        assert (fp.v_hat is None) == (v_bits is None) == (beta is None)
        if beta is None:
            assert fp.beta_hat is None
            continue
        _close(fp.beta_hat, beta)
        assert fp.v_hat.tobytes() == v_bits.tobytes()
        want = oracles.dense_sandwich(data, t0, s0, h, eps)
        _close(fp.v_hat, 0.5 * (want + want.T))
        np.testing.assert_array_equal(sandwich_variance(data, t0, s0, h), fp.v_hat)


@settings(max_examples=40, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(cohorts(), st.randoms(use_true_random=False))
def test_grid_batches_relabelled_ids_and_censored_subjects_leave_the_bits(problem, rnd):
    data, h, grid = problem
    want = _bits(fit_grid(data, grid, h))
    order = list(range(len(grid)))
    rnd.shuffle(order)
    assert _bits(fit_grid(data, [grid[i] for i in order], h)) == [want[i] for i in order]
    assert _bits(fit_grid(data, grid + grid, h)) == want + want
    cut = rnd.randrange(1, len(grid))
    assert _bits(fit_grid(data, grid[:cut], h)) + _bits(fit_grid(data, grid[cut:], h)) == want
    # other ids in the same order, and censored subjects before, between and after the rest
    subjects = [s._replace(id=f"r{len(data.ids) - k}") for k, s in enumerate(data.subjects)]
    censored = [s._replace(id=f"c{k}", event_observed=False,
                           responses=s.responses + 1e3) for k, s in enumerate(subjects)]
    mixed = [x for pair in zip(censored, subjects) for x in pair] + [censored[0]._replace(id="c")]
    relabelled = Dataset(subjects, p=data.p)
    padded = Dataset(mixed, p=data.p)
    assert _bits(fit_grid(relabelled, grid, h)) == want
    assert _bits(fit_grid(padded, grid, h)) == want
    table = residuals(data, h)
    for other in (relabelled, padded):
        got = residuals(other, h)
        mine = np.repeat([not i.startswith("c") for i in other.ids], other.counts)
        assert got.resid[mine].tobytes() == table.resid.tobytes()
        assert got.valid[mine].tobytes() == table.valid.tobytes()
