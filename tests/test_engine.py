"""The batched engine: its kernel weights, and a target's bits wherever it sits in a batch."""

import numpy as np
import pytest

from vcterm import DEFAULT_KERNEL, SimConfig, gen_dataset, kernel_eval
from vcterm.engine import CHUNK, View, solve

H = 2.0


@pytest.fixture(scope="module")
def view():
    data, _ = gen_dataset(SimConfig(n=80, seed=5))
    return View(data)


@pytest.mark.parametrize("with_fold", [False, True])
def test_weights_equal_kernel_eval_over_h_squared(view, with_fold):
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
        w = kernel_eval(DEFAULT_KERNEL, (view.t - t0[i]) / H, (view.s - s0[i]) / H) / (H * H)
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
