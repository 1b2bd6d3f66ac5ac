"""End-to-end checks of the package's stated numerical guarantees.

One test per criterion; each registers a single PASS/FAIL line that the
terminal summary echoes. Criteria 7, 8, and 9 share one module-scoped
replication study (n = 1000, 200 replications) so the expensive part
runs once.
"""

import math
import time

import numpy as np
import pytest

from vcterm import (
    DEFAULT_KERNEL,
    GridSpec,
    SimConfig,
    StudyConfig,
    fit_grid,
    gen_dataset,
    kernel_moments,
    local_fit,
    residuals,
    run_study,
    sandwich_variance,
    slice_summary,
    undersmoothing_factor,
)
from vcterm.cli import main

import oracles
from conftest import record_acceptance

INTERIOR_MIN = 3.0  # points with t >= 3 and s >= 3 count as interior


def _verdict(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


def _tiny_datasets(count=25):
    """Randomized small cohorts: at most 10 subjects, p at most 3."""
    rng = np.random.default_rng(20260815)
    out = []
    for _ in range(count):
        p = int(rng.integers(2, 4))
        n = int(rng.integers(4, 11))
        data = oracles.make_tiny_dataset(rng, n, p)
        t0, s0 = oracles.interior_target(data, rng)
        out.append((data, t0, s0))
    return out


def test_criterion_01_pointwise_estimator_matches_dense_oracle():
    start = time.perf_counter()
    worst = 0.0
    for data, t0, s0 in _tiny_datasets():
        fit = local_fit(data, t0, s0, 4.0)
        assert fit.status == "ok"
        want = oracles.dense_local_fit(data, t0, s0, 4.0)
        worst = max(worst, float(np.abs(fit.beta_hat - want).max()))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 1.0
    record_acceptance(
        f"criterion 01 estimator vs dense oracle: {_verdict(ok)} "
        f"(max abs diff {worst:.2e}, {elapsed:.2f}s)"
    )
    assert worst <= 1e-10
    assert elapsed < 1.0


def test_criterion_02_sandwich_matches_brute_force():
    start = time.perf_counter()
    worst = 0.0
    min_eig = math.inf
    max_asym = 0.0
    for data, t0, s0 in _tiny_datasets():
        resid_map = oracles.dense_residual_map(data, 4.0)
        want = oracles.dense_sandwich(data, t0, s0, 4.0, resid_map)
        got = sandwich_variance(data, t0, s0, 4.0)
        worst = max(worst, float(np.abs(got - want).max()))
        max_asym = max(max_asym, float(np.abs(got - got.T).max()))
        scale = max(float(np.abs(got).max()), 1.0)
        min_eig = min(min_eig, float(np.linalg.eigvalsh(got).min()) / scale)
    elapsed = time.perf_counter() - start
    psd_ok = min_eig >= -1e-12 and max_asym == 0.0
    ok = worst <= 1e-10 and psd_ok and elapsed < 1.0
    record_acceptance(
        f"criterion 02 sandwich vs brute force: {_verdict(ok)} "
        f"(max abs diff {worst:.2e}, symmetric PSD {psd_ok}, {elapsed:.2f}s)"
    )
    assert worst <= 1e-10
    assert psd_ok
    assert elapsed < 1.0


def test_criterion_03_noiseless_constant_recovery():
    start = time.perf_counter()
    cfg = SimConfig(n=150, seed=7, zero_errors=True, beta_mode="constant",
                    constant_beta=(2.0, -1.0, 0.5))
    data, _ = gen_dataset(cfg)
    beta = np.array([2.0, -1.0, 0.5])
    grid = [(float(t), float(s)) for t in (1.0, 2.0, 3.0)
            for s in (3.0, 4.0, 5.0)]
    fits = fit_grid(data, grid, 3.0)
    worst_beta = 0.0
    for fp in fits:
        assert fp.status == "ok"
        worst_beta = max(worst_beta, float(np.abs(fp.beta_hat - beta).max()))
    table = residuals(data, 3.0)
    worst_resid = float(np.abs(table.resid[table.valid]).max())
    elapsed = time.perf_counter() - start
    ok = worst_beta <= 1e-8 and worst_resid <= 1e-8 and elapsed < 5.0
    record_acceptance(
        f"criterion 03 noiseless exact recovery: {_verdict(ok)} "
        f"(max beta err {worst_beta:.2e}, max residual {worst_resid:.2e}, "
        f"{elapsed:.2f}s)"
    )
    assert worst_beta <= 1e-8
    assert worst_resid <= 1e-8
    assert elapsed < 5.0


def test_criterion_04_kernel_moment_diagnostics():
    start = time.perf_counter()
    m = kernel_moments(DEFAULT_KERNEL)
    elapsed = time.perf_counter() - start
    mass_err = abs(m.mass - 1.0)
    mu1_err = max(abs(m.mu1[0]), abs(m.mu1[1]))
    mu0_err = abs(m.mu0 - 0.08795)
    mu2_err = max(abs(m.mu2[0, 0] - 0.84233), abs(m.mu2[1, 1] - 0.84233))
    ok = (mass_err <= 1e-6 and mu1_err <= 1e-8 and mu0_err <= 1e-4
          and mu2_err <= 1e-4 and elapsed < 1.0)
    record_acceptance(
        f"criterion 04 kernel moments: {_verdict(ok)} "
        f"(mass err {mass_err:.2e}, mu1 {mu1_err:.2e}, mu0 err {mu0_err:.2e}, "
        f"mu2 err {mu2_err:.2e}, {elapsed:.2f}s)"
    )
    assert mass_err <= 1e-6
    assert mu1_err <= 1e-8
    assert mu0_err <= 1e-4
    assert mu2_err <= 1e-4
    assert elapsed < 1.0


def test_criterion_05_generator_fidelity():
    start = time.perf_counter()
    cfg = SimConfig(n=4000, seed=20260815)
    data, truths = gen_dataset(cfg)
    elapsed = time.perf_counter() - start

    censored = sum(1 for t in truths if not t.event_observed) / len(truths)
    events = np.array([t.event_time for t in truths])
    cens = np.array([t.censor_time for t in truths])
    times_ok = bool(events.min() >= 5.0 and events.max() <= 20.0
                    and cens.min() >= 5.0 and cens.max() <= 20.0)

    # interarrival gaps pooled over subjects with at least two visits
    gaps = np.concatenate([np.diff(s.times) for s in data.subjects
                           if s.n_visits > 1])
    gaps_ok = bool(gaps.min() >= 0.0 and gaps.max() <= 2.0
                   and 0.95 <= gaps.mean() <= 1.05)

    x2 = np.array([t.x2 for t in truths])
    x3 = np.array([t.x3_at_zero for t in truths])
    corr = float(np.corrcoef(x2, x3)[0, 1])

    ok = (0.45 <= censored <= 0.55 and times_ok and gaps_ok
          and abs(corr - 0.8) <= 0.05 and elapsed < 30.0)
    record_acceptance(
        f"criterion 05 generator fidelity (n=4000): {_verdict(ok)} "
        f"(censoring {censored:.3f}, times in range {times_ok}, "
        f"gap mean {gaps.mean():.4f}, corr {corr:.4f}, {elapsed:.1f}s)"
    )
    assert 0.45 <= censored <= 0.55
    assert times_ok
    assert gaps_ok
    assert abs(corr - 0.8) <= 0.05
    assert elapsed < 30.0


def test_criterion_06_undersmoothing_constant():
    factor = undersmoothing_factor(4000, 1.0 / 20.0)
    err = abs(factor - 0.6605)
    ok = err <= 1e-4
    record_acceptance(
        f"criterion 06 undersmoothing factor: {_verdict(ok)} "
        f"(4000^(-1/20) = {factor:.10f}, |diff from 0.6605| = {err:.2e})"
    )
    assert err <= 1e-4


@pytest.fixture(scope="module")
def coverage_study():
    cfg = StudyConfig(
        sim=SimConfig(n=1000, seed=20260815),
        replications=200,
        h_policy="cv-once",
        grid=GridSpec(kind="slices", slice_T=(8.0, 12.0, 16.0),
                      slice_t_step=1.0),
    )
    start = time.perf_counter()
    result = run_study(cfg)
    elapsed = time.perf_counter() - start
    return result, elapsed


def _interior_mask(points):
    return (points[:, 0] >= INTERIOR_MIN) & (points[:, 1] >= INTERIOR_MIN)


def test_criterion_07_interval_coverage(coverage_study):
    result, elapsed = coverage_study
    interior = _interior_mask(result.points)
    assert interior.sum() >= 8
    counts = []
    worst = []
    for k in range(3):
        cov = result.coverage[interior, k]
        in_band = np.count_nonzero((cov >= 0.88) & (cov <= 0.99))
        counts.append(int(in_band))
        worst.append((float(np.nanmin(cov)), float(np.nanmax(cov))))
    ok = all(c >= 8 for c in counts) and elapsed < 1800.0
    record_acceptance(
        f"criterion 07 interval coverage (n=1000, R=200): {_verdict(ok)} "
        f"(interior points in [0.88, 0.99]: b1 {counts[0]}/{interior.sum()}, "
        f"b2 {counts[1]}/{interior.sum()}, b3 {counts[2]}/{interior.sum()}; "
        f"h = {result.h_values[0]:.3f}; {elapsed:.0f}s)"
    )
    for k, c in enumerate(counts, start=1):
        assert c >= 8, (f"coefficient {k}: only {c} interior points inside "
                        f"[0.88, 0.99], ranges {worst[k - 1]}")
    assert elapsed < 1800.0


def test_criterion_08_bias_negligible_on_t8_slice(coverage_study):
    result, _ = coverage_study
    table = slice_summary(result, 8.0)
    interior = (table.t >= INTERIOR_MIN) & (table.s >= INTERIOR_MIN)
    assert interior.sum() >= 3
    bias = np.abs(table.mean_estimate[interior] - table.truth[interior])
    bound = 0.5 * table.emp_sd[interior]
    worst_ratio = float(np.max(bias / table.emp_sd[interior]))
    ok = bool(np.all(bias <= bound))
    record_acceptance(
        f"criterion 08 bias within half an SD (T=8 interior): {_verdict(ok)} "
        f"(max |bias|/SD = {worst_ratio:.3f})"
    )
    assert ok, f"max |bias| / empirical SD = {worst_ratio:.3f} exceeds 0.5"


def test_criterion_09_se_calibration_on_t8_slice(coverage_study):
    result, _ = coverage_study
    table = slice_summary(result, 8.0)
    interior = (table.t >= INTERIOR_MIN) & (table.s >= INTERIOR_MIN)
    ratio = table.mean_se[interior] / table.emp_sd[interior]
    worst = float(np.abs(ratio - 1.0).max())
    ok = worst <= 0.25
    record_acceptance(
        f"criterion 09 SE calibration (T=8 interior): {_verdict(ok)} "
        f"(max |SE/SD - 1| = {worst:.3f})"
    )
    assert ok, f"estimated SE off by {worst:.1%} relative to empirical SD"


def test_criterion_10_pipeline_byte_determinism(tmp_path, capsys):
    sim_text = "n = 80\nseed = 17\n"
    study_text = (
        "n = 80\nseed = 17\nreplications = 3\nh_policy = cv-once\n"
        "cv_h_grid = 1.5,2.5\ncv_folds = 3\n"
        "grid = points\npoints = 1:8;2:7\n"
    )
    sim_conf = tmp_path / "sim.conf"
    sim_conf.write_text(sim_text, encoding="utf-8")
    study_conf = tmp_path / "study.conf"
    study_conf.write_text(study_text, encoding="utf-8")

    snapshots = []
    for run, threads in (("a", 1), ("b", 1), ("c", 4)):
        base = tmp_path / run
        base.mkdir()
        data = base / "data.csv"
        truth = base / "truth.csv"
        assert main(["simulate", "--config", str(sim_conf), "--out",
                     str(data), "--truth-out", str(truth)]) == 0
        capsys.readouterr()
        assert main(["cv", "--data", str(data), "--h-grid", "1.5,2.5",
                     "--folds", "3", "--threads", str(threads)]) == 0
        cv_stdout = capsys.readouterr().out
        out_dir = base / "study"
        assert main(["study", "--config", str(study_conf), "--out-dir",
                     str(out_dir), "--threads", str(threads)]) == 0
        capsys.readouterr()
        artifacts = {name: (out_dir / name).read_bytes()
                     for name in sorted(p.name for p in out_dir.iterdir())}
        snapshots.append((data.read_bytes(), truth.read_bytes(), cv_stdout,
                          artifacts))

    same_runs = snapshots[0] == snapshots[1]
    same_threads = snapshots[0] == snapshots[2]
    ok = same_runs and same_threads
    record_acceptance(
        f"criterion 10 pipeline byte determinism: {_verdict(ok)} "
        f"(repeat run identical {same_runs}, threads 1 vs 4 identical "
        f"{same_threads})"
    )
    assert same_runs
    assert same_threads
