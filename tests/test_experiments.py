import json
import math
import os

import numpy as np
import pytest

from vcterm import (
    DataError,
    GridSpec,
    SimConfig,
    StudyConfig,
    fit_grid,
    gen_dataset,
    run_study,
    slice_summary,
)
from vcterm.experiments import (
    PARTIAL_RECORDS,
    CvSettings,
    _append_partial,
    _record_rows,
    aggregate_records,
    coverage_heatmap,
    replication_seed_sequences,
    study_fingerprint,
    truth_matrix,
    write_study_artifacts,
)
from vcterm.fit import standard_errors
from vcterm.io import read_table
from vcterm.simulate import true_beta


SMALL_SIM = SimConfig(n=60, seed=11)
POINTS_GRID = GridSpec(kind="points", points=((1.0, 9.0), (2.0, 8.0)))


def _small_study(replications=3, grid=POINTS_GRID, sim=SMALL_SIM, h=2.5,
                 **kw):
    return StudyConfig(sim=sim, replications=replications, h_policy="fixed",
                       h_fixed=h, grid=grid, **kw)


def test_grid_spec_slices_points():
    g = GridSpec(kind="slices", slice_T=(8.0,), slice_t_step=1.0)
    pts = g.eval_points()
    assert pts == [(float(i), 8.0 - i) for i in range(1, 8)]
    g3 = GridSpec(kind="slices", slice_T=(8.0, 12.0, 16.0), slice_t_step=1.0)
    assert len(g3.eval_points()) == 7 + 11 + 15
    assert g3.slices() == {8.0: slice(0, 7), 12.0: slice(7, 18), 16.0: slice(18, 33)}
    assert list(GridSpec(slice_T=(12, 8.5)).slices()) == [12.0, 8.5]
    assert GridSpec(kind="rect", rect_t=(1.0,), rect_s=(2.0,)).slices() == {}


def test_grid_spec_rect_and_points():
    g = GridSpec(kind="rect", rect_t=(1.0, 2.0), rect_s=(3.0, 4.0, 5.0))
    assert len(g.eval_points()) == 6
    assert (2.0, 5.0) in g.eval_points()
    g2 = GridSpec(kind="points", points=((0.5, 1.5),))
    assert g2.eval_points() == [(0.5, 1.5)]


def test_grid_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(kind="mesh")
    with pytest.raises(ValueError):
        GridSpec(kind="slices", slice_T=())
    with pytest.raises(ValueError):
        GridSpec(kind="slices", slice_t_step=0.0)
    with pytest.raises(ValueError):
        GridSpec(kind="rect", rect_t=(1.0,), rect_s=())
    with pytest.raises(ValueError):
        GridSpec(kind="points", points=())
    for Ts in ((8.0, 8.0), (8, 12.0, 8.0), (8.0, 8.0000001)):  # each T names its own table
        with pytest.raises(ValueError, match="two slice totals share the table name slice_T8$"):
            GridSpec(kind="slices", slice_T=Ts)


def test_study_config_validation():
    with pytest.raises(ValueError):
        StudyConfig(sim=SMALL_SIM, replications=0)
    with pytest.raises(ValueError):
        StudyConfig(sim=SMALL_SIM, replications=1, h_policy="adaptive")
    with pytest.raises(ValueError):
        StudyConfig(sim=SMALL_SIM, replications=1, h_policy="fixed")
    with pytest.raises(ValueError):
        StudyConfig(sim=SMALL_SIM, replications=1, alpha=1.0)
    with pytest.raises(ValueError):
        StudyConfig(sim=SMALL_SIM, replications=1,
                    grid=GridSpec(kind="points", points=((-1.0, 2.0),)))


def test_study_config_rejects_what_would_fail_mid_run():
    with pytest.raises(ValueError, match="rect_t and rect_s must not repeat a value"):
        _small_study(grid=GridSpec(kind="rect", rect_t=(1.0, 1.0, 2.0), rect_s=(4.0, 6.0)))
    _small_study(grid=GridSpec(kind="rect", rect_t=(1.0, 2.0), rect_s=(4.0, 6.0)))
    for h in (1e-170, 1e-156, 1e200, -2.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="positive h_fixed"):
            _small_study(h=h)


def test_replication_seed_sequences_stable():
    a = replication_seed_sequences(7, 4)
    b = replication_seed_sequences(7, 4)
    for i, (x, y) in enumerate(zip(a, b)):
        assert x.spawn_key == (i,)
        assert x.entropy == y.entropy


def test_truth_matrix_matches_surfaces():
    pts = [(1.0, 7.0), (3.0, 5.0)]
    truth = truth_matrix(SMALL_SIM, pts)
    assert truth.shape == (2, 3)
    for g, (t, s) in enumerate(pts):
        for k in range(1, 4):
            assert truth[g, k - 1] == pytest.approx(true_beta(k, t, s))


def test_single_replication_equals_direct_fit():
    cfg = _small_study(replications=1)
    result = run_study(cfg)
    seqs = replication_seed_sequences(cfg.sim.seed, 1)
    ds, _ = gen_dataset(cfg.sim, seed_seq=seqs[0])
    fits = fit_grid(ds, cfg.grid.eval_points(), cfg.h_fixed)
    rec = result.records[0]
    for g, fp in enumerate(fits):
        assert fp.status == "ok"
        np.testing.assert_array_equal(rec.estimate[g], fp.beta_hat)
        assert fp.n_cc == ds.n_complete_case
        np.testing.assert_array_equal(rec.se[g], standard_errors(fp))
    np.testing.assert_array_equal(result.mean_estimate, rec.estimate)
    assert result.h_values == (2.5,)


def test_zero_noise_constant_study_has_no_bias():
    sim = SimConfig(n=40, seed=2, zero_errors=True, beta_mode="constant",
                    constant_beta=(2.0, -1.0, 0.5))
    cfg = _small_study(replications=3, sim=sim,
                       grid=GridSpec(kind="points",
                                     points=((1.0, 6.0), (2.0, 5.0))), h=3.0)
    result = run_study(cfg)
    assert result.valid.tolist() == [3, 3]
    assert np.abs(result.bias).max() <= 1e-10
    assert np.nanmax(result.emp_sd) <= 1e-10
    np.testing.assert_allclose(result.truth,
                               np.tile([2.0, -1.0, 0.5], (2, 1)))


def test_aggregates_match_numpy_oracle():
    cfg = _small_study(replications=6)
    result = run_study(cfg)
    z = 1.9599639845400536
    est = np.stack([r.estimate for r in result.records])  # (R, G, p)
    se = np.stack([r.se for r in result.records])
    assert not np.isnan(est).any()
    np.testing.assert_allclose(result.mean_estimate, est.mean(axis=0),
                               atol=1e-12)
    np.testing.assert_allclose(result.emp_sd, est.std(axis=0, ddof=1),
                               atol=1e-12)
    np.testing.assert_allclose(result.mean_se, se.mean(axis=0), atol=1e-12)
    hits = (np.abs(est - result.truth[None]) <= z * se).mean(axis=0)
    np.testing.assert_allclose(result.coverage, hits, atol=1e-12)
    np.testing.assert_allclose(
        result.coverage_mc_se,
        np.sqrt(result.coverage * (1 - result.coverage) / 6), atol=1e-12)


def test_run_study_repeats_byte_identical(tmp_path):
    grid = GridSpec(kind="slices", slice_T=(8.0,), slice_t_step=2.0)
    cfg = _small_study(replications=4, grid=grid)
    dir1 = tmp_path / "first"
    dir2 = tmp_path / "second"
    r1 = run_study(cfg, out_dir=str(dir1))
    r2 = run_study(cfg, out_dir=str(dir2))
    np.testing.assert_array_equal(r1.mean_estimate, r2.mean_estimate)
    np.testing.assert_array_equal(r1.coverage, r2.coverage)
    names1 = sorted(os.listdir(dir1))
    assert names1 == sorted(os.listdir(dir2))
    assert PARTIAL_RECORDS not in names1
    for name in names1:
        assert (dir1 / name).read_bytes() == (dir2 / name).read_bytes()


def test_run_study_resume_matches_uninterrupted(tmp_path):
    cfg = _small_study(replications=4)
    full_dir = tmp_path / "full"
    result = run_study(cfg, out_dir=str(full_dir))

    resume_dir = tmp_path / "resumed"
    os.makedirs(resume_dir)
    partial = resume_dir / PARTIAL_RECORDS
    fingerprint = study_fingerprint(cfg)
    with open(partial, "w", encoding="utf-8") as fh:
        fh.write(f"# fingerprint={fingerprint}\n")
        fh.write("rep,point,t,s,coef,h,estimate,se,status\n")
    points = cfg.grid.eval_points()
    for rec in result.records[:2]:
        _append_partial(str(partial), _record_rows(rec, points))

    resumed = run_study(cfg, out_dir=str(resume_dir), resume=True)
    np.testing.assert_array_equal(resumed.mean_estimate, result.mean_estimate)
    for name in sorted(os.listdir(full_dir)):
        assert (resume_dir / name).read_bytes() == (full_dir / name).read_bytes()


def test_resume_after_crash_that_left_an_empty_partial(tmp_path, monkeypatch):
    # a crash right after the partial file was created leaves it empty; the
    # next run starts it afresh, so a second interruption still resumes
    import vcterm.experiments as experiments

    cfg = _small_study(replications=4)
    full_dir = tmp_path / "full"
    run_study(cfg, out_dir=str(full_dir))

    out = tmp_path / "out"
    os.makedirs(out)
    (out / PARTIAL_RECORDS).write_bytes(b"")
    run_replication = experiments._run_replication

    def crash_at_rep_2(config, rep, *args):
        if rep == 2:
            raise RuntimeError("crash")
        return run_replication(config, rep, *args)

    monkeypatch.setattr(experiments, "_run_replication", crash_at_rep_2)
    with pytest.raises(RuntimeError, match="crash"):
        run_study(cfg, out_dir=str(out))
    monkeypatch.setattr(experiments, "_run_replication", run_replication)
    run_study(cfg, out_dir=str(out))
    assert sorted(os.listdir(out)) == sorted(os.listdir(full_dir))
    for name in sorted(os.listdir(full_dir)):
        assert (out / name).read_bytes() == (full_dir / name).read_bytes()


def test_run_study_rejects_foreign_partial(tmp_path):
    cfg = _small_study(replications=2)
    out = tmp_path / "out"
    os.makedirs(out)
    with open(out / PARTIAL_RECORDS, "w", encoding="utf-8") as fh:
        fh.write("# fingerprint=deadbeefdeadbeef\n")
    with pytest.raises(DataError):
        run_study(cfg, out_dir=str(out), resume=True)


def test_run_study_refuses_foreign_partial_before_the_cv_selection(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr("vcterm.bandwidth.cv_score",
                        lambda *a, **k: calls.append(a) or (1.0, 0.0))
    cfg = StudyConfig(sim=SimConfig(n=200, seed=11), replications=2, h_policy="cv-once",
                      grid=POINTS_GRID, cv=CvSettings(h_grid=(1.0, 2.0), folds=3))
    out = tmp_path / "out"
    os.makedirs(out)
    (out / PARTIAL_RECORDS).write_text("# fingerprint=deadbeefdeadbeef\n", encoding="utf-8")
    with pytest.raises(DataError, match="different study configuration"):
        run_study(cfg, out_dir=str(out))
    assert calls == []

    def failed_score(*args, **kwargs):
        raise DataError("cv_score failed")

    # a selection that fails still leaves no output directory
    monkeypatch.setattr("vcterm.bandwidth.cv_score", failed_score)
    with pytest.raises(DataError, match="cv_score failed"):
        run_study(cfg, out_dir=str(tmp_path / "fresh"))
    assert not (tmp_path / "fresh").exists()


def test_unreachable_point_missing_not_zero(tmp_path):
    grid = GridSpec(kind="rect", rect_t=(1.0, 50.0), rect_s=(8.0,))
    cfg = _small_study(replications=2, grid=grid)
    result = run_study(cfg, out_dir=str(tmp_path))
    assert result.valid.tolist() == [2, 0]
    assert result.zero_valid_points == 1
    assert math.isnan(result.coverage[1, 0])
    rows = coverage_heatmap(result, 1)
    assert [(t, s, valid) for t, s, _, valid in rows] == [(1.0, 8.0, 2), (50.0, 8.0, 0)]
    assert not math.isnan(rows[0][2])
    assert math.isnan(rows[1][2])
    _, _, cells = read_table(str(tmp_path / "coverage_b1.csv"))
    assert [c["valid"] for c in cells] == ["2", "0"]
    assert cells[0]["coverage"] != ""
    assert cells[1]["coverage"] == ""
    with pytest.raises(ValueError, match="no evaluation points"):  # (1, 8) lies on no slice
        slice_summary(result, 9.0)


def test_coverage_heatmap_rejects_non_rectangular():
    grid = GridSpec(kind="slices", slice_T=(8.0, 12.0), slice_t_step=2.0)
    cfg = _small_study(replications=2, grid=grid)
    result = run_study(cfg)
    with pytest.raises(ValueError):
        coverage_heatmap(result, 1)
    with pytest.raises(ValueError):
        coverage_heatmap(result, 5)


def test_slice_summary_layout():
    grid = GridSpec(kind="slices", slice_T=(8.0,), slice_t_step=1.0)
    cfg = _small_study(replications=2, grid=grid)
    result = run_study(cfg)
    table = slice_summary(result, 8.0)
    np.testing.assert_array_equal(table.t, np.arange(1.0, 8.0))
    np.testing.assert_allclose(table.t + table.s, 8.0)
    for i, t in enumerate(table.t):
        for k in range(3):
            assert table.truth[i, k] == pytest.approx(
                true_beta(k + 1, t, 8.0 - t))
    half_emp = table.upper_emp - table.mean_estimate
    np.testing.assert_allclose(half_emp, 1.9599639845400536 * table.emp_sd,
                               atol=1e-12)
    for T in (9.25, 8.0 + 1e-10):  # a slice is looked up by its total exactly
        with pytest.raises(ValueError, match="no evaluation points"):
            slice_summary(result, T)


def test_cv_once_policy_single_selection():
    sim = SimConfig(n=40, seed=31)
    cfg = StudyConfig(sim=sim, replications=2, h_policy="cv-once",
                      grid=POINTS_GRID,
                      cv=CvSettings(h_grid=(2.0, 3.0), folds=2, seed=0))
    result = run_study(cfg)
    assert result.cv is not None
    assert result.cv.h_selected in (2.0, 3.0)
    want = result.cv.h_undersmoothed
    assert result.h_values == (want, want)
    assert result.cv.factor == pytest.approx(40 ** -0.05)


def test_cv_per_rep_policy():
    sim = SimConfig(n=40, seed=37)
    cfg = StudyConfig(sim=sim, replications=2, h_policy="cv-per-rep",
                      grid=POINTS_GRID,
                      cv=CvSettings(h_grid=(2.0, 3.0), folds=2, seed=0))
    result = run_study(cfg)
    assert result.cv is None
    assert len(result.h_values) == 2
    assert all(h > 0 for h in result.h_values)


def test_artifact_files_parse(tmp_path):
    grid = GridSpec(kind="slices", slice_T=(8.0,), slice_t_step=2.0)
    cfg = _small_study(replications=3, grid=grid)
    out = tmp_path / "artifacts"
    result = run_study(cfg, out_dir=str(out))

    meta, header, rows = read_table(str(out / "summary.csv"))
    assert meta["fingerprint"] == study_fingerprint(cfg)
    assert len(rows) == len(cfg.grid.eval_points()) * 3

    _, rheader, rrows = read_table(str(out / "records.csv"))
    assert list(rheader) == ["rep", "point", "t", "s", "coef", "h",
                             "estimate", "se", "status"]
    keys = [(int(r["rep"]), int(r["point"]), int(r["coef"])) for r in rrows]
    assert keys == sorted(keys)
    assert {r["status"] for r in rrows} <= {"ok", "singular", "empty_support"}

    with open(out / "metadata.json", encoding="utf-8") as fh:
        metadata = json.load(fh)
    assert metadata["fingerprint"] == study_fingerprint(cfg)
    assert len(metadata["h_values"]) == 3
    assert metadata["config"]["sim"]["n"] == 60
    assert (out / "slice_T8.csv").exists()


def test_aggregate_records_reorders_by_rep():
    cfg = _small_study(replications=3)
    result = run_study(cfg)
    shuffled = [result.records[2], result.records[0], result.records[1]]
    again = aggregate_records(cfg, shuffled)
    np.testing.assert_array_equal(again.points, result.points)
    np.testing.assert_array_equal(again.truth, result.truth)
    np.testing.assert_array_equal(again.mean_estimate, result.mean_estimate)
    np.testing.assert_array_equal(again.emp_sd, result.emp_sd)
    assert again.h_values == result.h_values


def test_resume_skips_line_torn_inside_status(tmp_path):
    cfg = _small_study(replications=3)
    full_dir = tmp_path / "full"
    result = run_study(cfg, out_dir=str(full_dir))

    resume_dir = tmp_path / "resumed"
    os.makedirs(resume_dir)
    partial = resume_dir / PARTIAL_RECORDS
    points = cfg.grid.eval_points()
    rows0 = _record_rows(result.records[0], points)
    rows1 = _record_rows(result.records[1], points)
    with open(partial, "w", encoding="utf-8") as fh:
        fh.write(f"# fingerprint={study_fingerprint(cfg)}\n")
        fh.write("rep,point,t,s,coef,h,estimate,se,status\n")
    _append_partial(str(partial), rows0 + rows1)
    # the crash cut rep 1's last row inside its status field: "...,o"
    text = partial.read_text(encoding="utf-8")
    partial.write_text(text[:text.rindex(",ok") + 2], encoding="utf-8")

    resumed = run_study(cfg, out_dir=str(resume_dir), resume=True)
    np.testing.assert_array_equal(resumed.mean_estimate, result.mean_estimate)
    for name in sorted(os.listdir(full_dir)):
        assert (resume_dir / name).read_bytes() == (full_dir / name).read_bytes()


def test_resume_twice_after_torn_line(tmp_path):
    # rows appended after a torn line start on their own line, so a second
    # interruption still finds every replication finished since the first
    from vcterm.experiments import _load_partial

    cfg = _small_study(replications=3)
    result = run_study(cfg)
    points = cfg.grid.eval_points()
    partial = tmp_path / PARTIAL_RECORDS
    with open(partial, "w", encoding="utf-8") as fh:
        fh.write(f"# fingerprint={study_fingerprint(cfg)}\n")
        fh.write("rep,point,t,s,coef,h,estimate,se,status\n")
    _append_partial(str(partial), _record_rows(result.records[0], points))
    with open(partial, "a", encoding="utf-8") as fh:
        fh.write("1,0,1,9,1,2.5,0.1")  # torn inside the estimate field
    G, p = len(points), cfg.sim.p
    assert sorted(_load_partial(str(partial), study_fingerprint(cfg), G, p)) == [0]
    for rec in result.records[1:]:
        _append_partial(str(partial), _record_rows(rec, points))
    loaded = _load_partial(str(partial), study_fingerprint(cfg), G, p)
    assert sorted(loaded) == [0, 1, 2]
    for rec in result.records:
        np.testing.assert_array_equal(loaded[rec.rep].estimate, rec.estimate)
        np.testing.assert_array_equal(loaded[rec.rep].se, rec.se)


def test_fingerprint_is_pinned():
    # partial files and artifacts written before carry this fingerprint
    assert study_fingerprint(_small_study()) == "b2dfd454ae3f6f82"


def test_status_codes_in_metadata_and_resume(tmp_path):
    from vcterm.experiments import RepRecord, _load_partial

    cfg = _small_study(replications=1)
    run_study(cfg, out_dir=str(tmp_path / "out"))
    meta = json.loads((tmp_path / "out" / "metadata.json").read_text(encoding="utf-8"))
    assert meta["status_codes"] == {"0": "ok", "1": "singular", "2": "empty_support"}

    points = [(1.0, 9.0), (2.0, 8.0), (45.0, 45.0)]
    est = np.full((3, cfg.sim.p), np.nan)
    est[0] = 1.0
    record = RepRecord(rep=0, h=2.5, estimate=est, se=est, status=np.array([0, 1, 2], np.int8))
    rows = _record_rows(record, points)
    assert [row[-1] for row in rows[::cfg.sim.p]] == ["ok", "singular", "empty_support"]
    partial = tmp_path / PARTIAL_RECORDS
    partial.write_text("# fingerprint=f\nrep,point,t,s,coef,h,estimate,se,status\n",
                       encoding="utf-8")
    _append_partial(str(partial), rows)
    loaded = _load_partial(str(partial), "f", len(points), cfg.sim.p)[0]
    np.testing.assert_array_equal(loaded.status, record.status)
    np.testing.assert_array_equal(loaded.estimate, est)
