"""The batched engine: its kernel weights, its exact offsets, and a target's bits
wherever it sits in a batch, against a dense per-target loop."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vcterm import DEFAULT_KERNEL, SimConfig, gen_dataset, kernel_eval
from vcterm.data import Dataset
from vcterm.engine import CHUNK, RCOND_MIN, View, _offset_factors, solve

H = 2.0
R = DEFAULT_KERNEL.truncation_radius


def _shape(view, t0, s0, h):
    """The kernel's shape exp(-r^2/2) 1{r <= R} at every visit's offsets from (t0, s0)
    times 1 / h, the weights that the engine's constant-free kernel gives."""
    u, v = (view.t - t0) * (1.0 / h), (view.s - s0) * (1.0 / h)
    r2 = u * u + v * v
    return np.exp(-0.5 * r2) * (r2 <= R**2)


@pytest.fixture(scope="module")
def view():
    data, _ = gen_dataset(SimConfig(n=80, seed=5))
    return View(data)


@pytest.mark.parametrize("with_fold", [False, True])
def test_weights_equal_the_kernel_shape_at_offsets_times_inverse_h(view, with_fold):
    rng = np.random.default_rng(3)
    j = view.n_obs // 2
    # targets within 4e-6 of one visit: whichever lattice cells they fall in, one
    # holds more than 2 * CHUNK of them, and its last chunk is a partial one
    n = 4 * CHUNK + 3
    t0 = view.t[j] + 1e-7 * np.arange(n)
    s0 = np.full(n, view.s[j])
    fold = (rng.integers(0, 3, n), rng.integers(0, 3, view.n_obs)) if with_fold else None
    weights = {}
    sol = solve(view, t0, s0, H, fold=fold, weights=weights)
    assert sorted(weights) == list(range(n))
    for i in range(n):
        w = _shape(view, t0[i], s0[i], H)
        if with_fold:
            w *= fold[0][i] != fold[1]
        idx, got = weights[i]
        order = np.argsort(idx)
        assert idx[order].tolist() == np.flatnonzero(w).tolist()
        assert got[order].tobytes() == w[w != 0].tobytes()
        assert sol.n_eff[i] == idx.size > 0
    if with_fold:
        assert len({weights[i][0].size for i in range(n)}) > 1


def test_a_target_has_the_same_bits_in_every_row_of_every_chunk(view):
    j = view.n_obs // 2
    one = solve(view, view.t[j:j + 1], view.s[j:j + 1], H)
    assert one.status[0] == 0
    for n in (2, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK, 2 * CHUNK + 1, 4 * CHUNK + 3):
        sol = solve(view, np.full(n, view.t[j]), np.full(n, view.s[j]), H)
        for i in range(n):
            assert sol.beta[i].tobytes() == one.beta[0].tobytes()
            assert sol.evals[i].tobytes() == one.evals[0].tobytes()


def _adversarial(rng, n):
    """Finite doubles from 1e-300 to 1e300 in magnitude with mixed signs, with
    subnormals, zeros of both signs and values near the largest double."""
    x = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-300, 300, n)
    special = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-308, 1.7e308, -1.7e308,
                        1.0, -1.0, 3.0, 2.0**-1074 * 3])
    pick = rng.random(n) < 0.2
    x[pick] = rng.choice(special, pick.sum())
    return x


def _same_bits(got, want):
    """Bit for bit, apart from the sign of a zero: adding +0.0 maps -0.0 to +0.0 and
    leaves every other double, subnormals and infinities included, as it is."""
    return (got + 0.0).tobytes() == (want + 0.0).tobytes()


@pytest.mark.parametrize("n_cand", [1, 2, 7, 100, 3000, 20000])
def test_offset_product_equals_subtract_bit_for_bit(n_cand):
    """(A @ B)[q] = xc - x0 in one rounding for every slab height, in whichever part of a
    batch the slab and the candidates sit. 16 x 20,000 x 2 = 640,000 multiply-adds per
    plane is past the 262,144 up to which OpenBLAS keeps a GEMM on one thread."""
    rng = np.random.default_rng(n_cand)
    x0 = [_adversarial(rng, 3 * CHUNK) for _ in range(2)]
    xc = [_adversarial(rng, n_cand + 5) for _ in range(2)]
    xc[0][:min(n_cand, 3 * CHUNK)] = x0[0][:min(n_cand, 3 * CHUNK)]  # equal values
    xc[1][-1], x0[1][-1] = 1.7e308, -1.7e308  # a difference that overflows to +inf
    xc[1][-2], x0[1][-2] = -1.7e308, 1.7e308  # and to -inf
    A, B = _offset_factors(x0, xc)
    overflow = 0
    for r in range(1, 2 * CHUNK + 1):
        for k in (0, 3 * CHUNK - r):
            for i, j in ((0, n_cand), (5, n_cand + 5)):
                with np.errstate(over="ignore"):
                    got = np.matmul(A[:, k:k + r], B[:, :, i:j])
                    want = [np.subtract(x[i:j], y[k:k + r, None]) for x, y in zip(xc, x0)]
                for q in range(2):
                    assert _same_bits(got[q], want[q])
                    overflow += np.isinf(want[q]).sum()
    assert overflow > 0


@pytest.mark.parametrize("base", [0, 2**31 - 3, 2**31])
def test_fold_plane_is_the_exact_fold_difference(base):
    rng = np.random.default_rng(base % 97)
    f0 = base + rng.integers(0, 3, 2 * CHUNK)
    fc = base + rng.integers(0, 3, 3000)
    A, B = _offset_factors([f0], [fc])
    for r in range(1, 2 * CHUNK + 1):
        got = np.matmul(A[:, :r], B)[0]
        assert got.tobytes() == (fc - f0[:r, None]).astype(float).tobytes()
        assert ((got != 0) == (fc != f0[:r, None])).all()


@pytest.mark.parametrize("base", [0, 2**31 - 1, 2**31])
def test_a_same_fold_visit_at_the_target_weighs_zero(view, base):
    """Each target sits on a visit of its own fold: that visit and every other one of its
    fold get weight exactly 0 and no n_eff count; folds one apart still count."""
    rng = np.random.default_rng(7)
    rows = np.arange(0, view.n_obs, 3)
    fold_obs = base + rng.integers(0, 2, view.n_obs)
    weights = {}
    sol = solve(view, view.t[rows], view.s[rows], H, fold=(fold_obs[rows], fold_obs),
                weights=weights)
    open_ = solve(view, view.t[rows], view.s[rows], H)
    for i, r in enumerate(rows.tolist()):
        idx, w = weights[i]
        assert r not in idx.tolist() and (w != 0).all()
        assert (fold_obs[idx] != fold_obs[r]).all()
        w_all = kernel_eval(DEFAULT_KERNEL, (view.t - view.t[r]) / H,
                            (view.s - view.s[r]) / H)
        assert sol.n_eff[i] == np.count_nonzero(w_all * (fold_obs != fold_obs[r])) == idx.size
        assert open_.n_eff[i] > sol.n_eff[i] > 0


# -- property test: solve against a dense per-target loop ---------------------------


def _dense(view, t0, s0, h, fold):
    """Per target: (weights over all observations, n_eff, status code, beta)."""
    p = view.p
    out = []
    for i in range(t0.size):
        # the engine scales offsets by 1 / h, which decides a visit on the disk's edge
        w = kernel_eval(DEFAULT_KERNEL, (view.t - t0[i]) * (1.0 / h),
                        (view.s - s0[i]) * (1.0 / h)) / (h * h)
        if fold is not None:
            w = w * (fold[0][i] != fold[1])
        n_eff = np.count_nonzero(w)
        mom = w @ view.F
        G, b = mom[:p * p].reshape(p, p), mom[p * p:]
        evals = np.linalg.eigvalsh(G)
        if n_eff < p:
            out.append((w, n_eff, 2, None))
        elif not (evals[-1] > 0 and evals[0] >= RCOND_MIN * evals[-1]):
            out.append((w, n_eff, 1, None))
        else:
            out.append((w, n_eff, 0, np.linalg.solve(G, b)))
    return out


def _edge_visit(h):
    """(h', x) with h <= h' < 3 h: a visit at x, a few ulps below R * h', lies in the
    kernel disk of a target at 2 * (R * h'), at the same s. Cells of side exactly R * h'
    from 0 would put the two two cells apart; some h in every few hundred steps of 0.1%
    has such an x."""
    for _ in range(1000):
        x = R * h
        for _ in range(8):
            x = np.nextafter(x, 0.0)
            if kernel_eval(DEFAULT_KERNEL, (x - 2 * (R * h)) * (1.0 / h), 0.0) > 0:
                return h, float(x)
        h *= 1.001
    raise AssertionError("no edge visit near h")


@st.composite
def problems(draw):
    """A small cohort, a bandwidth, targets and per-observation folds.

    Visit times are multiples of 0.25, so they tie across subjects; the first visit is at
    0, so the lattice starts there, and with `edge` the cohort gets an _edge_visit and
    its target.
    """
    p = draw(st.integers(1, 3))
    h = draw(st.one_of(st.sampled_from([0.5, 1.0, 2.0, 50.0, 2.3e-6, 2.4e-6]),
                       st.floats(0.2, 3.0)))
    ids, counts, times, fups, flags = [], [], [], [], []
    for k in range(draw(st.integers(1, 8))):
        ts = sorted(draw(st.sets(st.integers(0, 24), min_size=1, max_size=4)))
        ts = [0.25 * t for t in ts]
        if k == 0:
            ts[0] = 0.0
        ids.append(f"s{k}")
        counts.append(len(ts))
        times += ts
        fups.append(ts[-1] + 0.25 * draw(st.integers(1, 16)))
        flags.append(k == 0 or draw(st.integers(0, 5)) > 0)
    edge = draw(st.booleans())
    if edge:
        h, x = _edge_visit(h)
        ids.append("edge")
        counts.append(1)
        times.append(x)
        fups.append(x + 1.0)
        flags.append(True)
    n_rows = len(times)
    X = np.ones((n_rows, p))
    X[:, 1:] = draw(st.lists(st.integers(-2, 2), min_size=n_rows * (p - 1),
                             max_size=n_rows * (p - 1)).map(
                                 lambda v: np.reshape(v, (n_rows, p - 1))))
    y = np.array(draw(st.lists(st.floats(-10, 10), min_size=n_rows, max_size=n_rows)))
    data = Dataset.from_columns(ids, counts, np.array(times), X, y, fups, flags)
    view = View(data)
    # targets on visits, between them, off the support, and on a lattice edge
    on = draw(st.lists(st.integers(0, view.n_obs - 1), max_size=12))
    t0 = [float(view.t[j]) for j in on]
    s0 = [float(view.s[j]) for j in on]
    between = draw(st.lists(st.tuples(st.floats(-1, 8), st.floats(-1, 8)), max_size=4))
    t0 += [t for t, _ in between] + [-50.0, 1e3]
    s0 += [s for _, s in between] + [1.0, 1.0]
    if edge:
        t0.append(2 * (R * h))
        s0.append(float(view.s[np.flatnonzero(view.row == n_rows - 1)[0]]))
    t0, s0 = np.array(t0), np.array(s0)
    base = draw(st.sampled_from([0, 2**31 - 2]))
    fold_obs = base + np.array(draw(st.lists(st.integers(0, 3), min_size=view.n_obs,
                                             max_size=view.n_obs)), dtype=np.int64)
    fold_t = base + np.array(draw(st.lists(st.integers(0, 3), min_size=t0.size,
                                           max_size=t0.size)), dtype=np.int64)
    if on:  # the first target's fold holds its whole support
        near = (view.t - t0[0]) ** 2 + (view.s - s0[0]) ** 2 <= (1.01 * R * h) ** 2
        fold_obs[near] = fold_t[0]
    return view, t0, s0, h, (fold_t, fold_obs)


def _check_against_dense(view, t0, s0, h, fold):
    weights = {}
    sol = solve(view, t0, s0, h, fold=fold, weights=weights)
    for i, (w, n_eff, status, beta) in enumerate(_dense(view, t0, s0, h, fold)):
        assert sol.n_eff[i] == n_eff and sol.status[i] == status
        idx, got = weights.get(i, (np.empty(0, np.intp), np.empty(0)))
        order = np.argsort(idx)
        assert idx[order].tolist() == np.flatnonzero(w).tolist()
        shape = _shape(view, t0[i], s0[i], h)
        if fold is not None:
            shape *= fold[0][i] != fold[1]
        assert got[order].tobytes() == shape[w != 0].tobytes()
        if status == 0:
            np.testing.assert_allclose(sol.beta[i], beta, rtol=1e-10, atol=1e-10)
        else:
            assert np.isnan(sol.beta[i]).all()
    return sol


def _same(a, b):
    return all(x.tobytes() == y.tobytes() for x, y in zip(a, b))


def _pick(sol, idx):
    return [np.asarray(x)[idx] for x in sol]


@settings(max_examples=100, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(problems())
def test_solve_matches_a_dense_loop_and_every_batch_gives_the_same_bits(problem):
    view, t0, s0, h, fold = problem
    for f in (None, fold):
        sol = _check_against_dense(view, t0, s0, h, f)
        n = t0.size
        perm = np.random.default_rng(n).permutation(n)
        permuted = solve(view, t0[perm], s0[perm], h,
                         fold=None if f is None else (f[0][perm], f[1]))
        assert _same(permuted, _pick(sol, perm))
        cut = n // 2
        parts = [solve(view, t0[sl], s0[sl], h, fold=None if f is None else (f[0][sl], f[1]))
                 for sl in (slice(0, cut), slice(cut, n))]
        assert _same([np.concatenate(x) for x in zip(*parts)], sol)
        twice = np.r_[np.arange(n), np.arange(n)]
        doubled = solve(view, t0[twice], s0[twice], h,
                        fold=None if f is None else (f[0][twice], f[1]))
        assert _same(doubled, _pick(sol, twice))
