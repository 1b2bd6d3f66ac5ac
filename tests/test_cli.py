import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import threading
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import vcterm
from vcterm import fit_grid, gen_dataset, local_fit
from vcterm.bandwidth import cv_score, make_folds
from vcterm.cli import build_parser, main, run
from vcterm.fit import standard_errors
from vcterm.io import write_dataset_csv
from vcterm.simulate import SimConfig

NOISELESS_CONFIG = """\
n = 60
seed = 4
zero_errors = true
beta_mode = constant
constant_beta = 2,-1,0.5
"""

STUDY_CONFIG = """\
n = 40
seed = 6
replications = 2
h_policy = fixed
h_fixed = 2.5
grid = points
points = 1:8;2:7
"""


def _parse_table(text: str):
    meta = {}
    lines = []
    for ln in text.splitlines():
        if ln.startswith("#"):
            key, value = ln[1:].strip().split("=", 1)
            meta[key.strip()] = value.strip()
        elif ln:
            lines.append(ln)
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    return meta, header, rows


@pytest.fixture
def noiseless_csv(tmp_path):
    cfg = tmp_path / "sim.conf"
    cfg.write_text(NOISELESS_CONFIG, encoding="utf-8")
    out = tmp_path / "data.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    return str(out)


def test_kernel_moments_csv(capsys):
    assert main(["kernel-moments"]) == 0
    meta, header, rows = _parse_table(capsys.readouterr().out)
    assert header == ["moment", "value"]
    values = {r["moment"]: float(r["value"]) for r in rows}
    assert values["mass"] == pytest.approx(1.0, abs=1e-6)
    assert values["mu0"] == pytest.approx(0.08795404749815268, abs=1e-8)
    assert values["mu2_xx"] == pytest.approx(0.8423298803392634, abs=1e-8)
    assert abs(values["mu1_x"]) < 1e-8
    assert abs(values["mu2_xy"]) < 1e-8
    assert float(meta["normalizer"]) == pytest.approx(1.0 / 0.95)


def test_kernel_moments_json(capsys):
    assert main(["kernel-moments", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    rows = {r["moment"]: r["value"] for r in payload["rows"]}
    assert rows["mass"] == pytest.approx(1.0, abs=1e-6)
    assert payload["meta"]["quadrature_n"] == 256


def test_simulate_reports_and_writes_truth(tmp_path, capsys):
    cfg = tmp_path / "sim.conf"
    cfg.write_text(NOISELESS_CONFIG, encoding="utf-8")
    out = tmp_path / "data.csv"
    truth = tmp_path / "truth.csv"
    rc = main(["simulate", "--config", str(cfg), "--out", str(out),
               "--truth-out", str(truth)])
    assert rc == 0
    err = capsys.readouterr().err
    assert "simulated 60 subjects" in err
    assert truth.exists()
    with open(truth, encoding="utf-8") as fh:
        assert len(fh.readlines()) == 61  # header + one row per subject


@pytest.mark.parametrize("truth_name", ["data.csv", "link.csv"])
def test_simulate_refuses_two_outputs_at_one_path(tmp_path, capsys, truth_name):
    """A --truth-out at the real path of --out, itself or a link to it, would replace the
    cohort with the truth table."""
    cfg = tmp_path / "sim.conf"
    cfg.write_text(NOISELESS_CONFIG, encoding="utf-8")
    out = tmp_path / "data.csv"
    (tmp_path / "link.csv").symlink_to(out)
    before = sorted(os.listdir(tmp_path))
    assert main(["simulate", "--config", str(cfg), "--out", str(out),
                 "--truth-out", str(tmp_path / truth_name)]) == 2
    assert json.loads(capsys.readouterr().err) == {
        "error": f"two outputs at one path: {tmp_path / truth_name}", "code": 2}
    assert sorted(os.listdir(tmp_path)) == before and not out.exists()


def test_simulate_seed_override_changes_data(tmp_path):
    cfg = tmp_path / "sim.conf"
    cfg.write_text(NOISELESS_CONFIG, encoding="utf-8")
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    c = tmp_path / "c.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(a)]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(b)]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(c),
                 "--seed", "11"]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


@pytest.mark.parametrize("line, code, message", [
    ("censor_coefs = 1,3,800", 4, "config key censor_coefs: the rate exp(a*X2 + b*X3(0) + c) "
                                  "is inf at X2="),
    ("error_var_params = 1", 3, "invalid simulation config: error_var_params must have 2 entries"),
])
@pytest.mark.parametrize("sub", ["simulate", "study"])
def test_config_that_cannot_simulate_exits_with_its_code(tmp_path, capsys, sub, line, code,
                                                         message):
    cfg = tmp_path / "sim.conf"
    cfg.write_text(f"n = 5\nreplications = 1\nh_policy = fixed\nh_fixed = 2\n{line}\n",
                   encoding="utf-8")
    out = str(tmp_path / "out")
    args = ["--out", out] if sub == "simulate" else ["--out-dir", out]
    assert main([sub, "--config", str(cfg), *args]) == code
    err_line = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert err_line["code"] == code and err_line["error"].startswith(message)
    assert not os.path.exists(out + "/records.csv") and not os.path.isfile(out)


EXTREME_BASE = {"n": "40", "seed": "1", "replications": "2", "h_policy": "fixed",
                "h_fixed": "2.5", "grid": "points", "points": "1:8;2:7"}
# (values over EXTREME_BASE, exit code of simulate, exit code of study); simulate
# ignores the study keys
EXTREME_VALUES = [
    ({"nu": "1e-300"}, 3, 3),
    ({"nu": "1e-160"}, 3, 3),
    ({"nu": "5e-324"}, 3, 3),
    ({"n": "1000000000000"}, 3, 3),
    ({"m": "100000"}, 3, 3),
    ({"shift": "1e300"}, 4, 4),
    ({"error_var_params": "1e300,1e300"}, 4, 4),
    ({"beta_mode": "constant", "constant_beta": "1e308,1e308,1e308"}, 4, 4),
    ({"alpha": "1e-300"}, 0, 3),
    ({"grid": "slices", "slice_t_step": "1e300"}, 0, 3),
    ({"points": "1e308:1e308"}, 0, 3),
    ({"nu": "0.5"}, 0, 0),
    ({"m": "1"}, 0, 0),
    ({"truncation": "1e308"}, 0, 0),
    ({"truncation": "5e-324"}, 0, 0),
    ({"white_noise_var": "1e308"}, 0, 2),
    ({"white_noise_var": "5e-324"}, 0, 0),
    ({"error_corr_base": "5e-324"}, 0, 0),
    ({"event_coefs": "1e308,1e308,1e308"}, 4, 4),
    ({"replications": "0"}, 0, 3),
    ({"h_policy": "cv-once", "gamma": "1e308"}, 0, 3),
    ({"h_fixed": "5e-324"}, 0, 3),
    ({"h_fixed": "1e308"}, 0, 3),
    ({"h_policy": "cv-once", "cv_folds": "1"}, 0, 3),
    ({"h_policy": "cv-once", "cv_folds": "1000"}, 0, 2),
    ({"h_policy": "cv-once", "cv_h_grid": "1e-300"}, 0, 3),
    ({"points": "-1:5"}, 0, 3),
    ({"grid": "slices", "slice_T": "0.5,8"}, 0, 3),
    ({"grid": "slices", "slice_T": "8,8"}, 0, 3),
    ({"grid": "slices", "slice_T": "8,8.0000000005"}, 0, 3),
    ({"grid": "slices", "slice_T": "1e300", "slice_t_step": "1e-300"}, 0, 3),
    ({"grid": "slices", "slice_t_step": "1e-300"}, 0, 3),
    ({"grid": "rect", "rect_t": ",".join(map(str, range(257))),
      "rect_s": ",".join(map(str, range(1, 257)))}, 0, 3),
    ({"replications": "1000000000000"}, 0, 3),
    ({"h_policy": "cv-per-rep", "cv_folds": "1"}, 0, 3),
    ({"grid": "slices", "slice_T": "-1e308", "slice_t_step": "5e-324"}, 0, 3),
]


@pytest.fixture
def bounded_work(monkeypatch):
    """Fail, rather than start, the building of a grid of more than 2**16 points or of
    seed sequences for more than 10**5 replications."""
    from vcterm import experiments

    real_points = experiments.GridSpec.eval_points
    real_seqs = experiments.replication_seed_sequences

    def eval_points(grid):
        size = len(grid.rect_t) * len(grid.rect_s) if grid.kind == "rect" else len(grid.points)
        if grid.kind == "slices":
            size = sum(min((float(T) - 1e-9) / grid.slice_t_step, 2.0**17) for T in grid.slice_T)
        assert size <= 2**16, f"asked to build about {size:g} grid points"
        return real_points(grid)

    def seed_sequences(seed, replications):
        assert replications <= 10**5, f"asked for {replications} seed sequences"
        return real_seqs(seed, replications)

    monkeypatch.setattr(experiments.GridSpec, "eval_points", eval_points)
    monkeypatch.setattr(experiments, "replication_seed_sequences", seed_sequences)


@pytest.mark.parametrize("values, sim_code, study_code", EXTREME_VALUES)
@pytest.mark.parametrize("sub", ["simulate", "study"])
def test_extreme_config_value_exits_with_a_documented_code(tmp_path, capsys, bounded_work, sub,
                                                           values, sim_code, study_code):
    cfg = tmp_path / "extreme.conf"
    cfg.write_text("".join(f"{key} = {value}\n"
                           for key, value in {**EXTREME_BASE, **values}.items()),
                   encoding="utf-8")
    out = str(tmp_path / "out")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main([sub, "--config", str(cfg), "--out" if sub == "simulate" else "--out-dir",
                     out])
    assert code in (0, 2, 3, 4)
    assert code == (sim_code if sub == "simulate" else study_code)
    errors = [json.loads(ln) for ln in capsys.readouterr().err.splitlines() if ln.startswith("{")]
    assert [e["code"] for e in errors] == ([] if code == 0 else [code])
    if code == 3:
        assert not os.path.exists(out)


def test_fit_alpha_whose_quantile_rounds_away_is_a_usage_error(noiseless_csv, capsys):
    assert main(["fit", "--data", noiseless_csv, "--t0", "1", "--s0", "6", "--h", "3",
                 "--alpha", "1e-300"]) == 2
    assert json.loads(capsys.readouterr().err.splitlines()[-1]) == {
        "error": "alpha=1e-300 is too small: 1 - alpha/2 rounds to 1", "code": 2}


def test_load_warnings_print_twenty_and_count_the_rest(noiseless_csv, tmp_path, capsys):
    """250 rejected rows past the stored MAX_DIAGNOSTICS: the last warning line counts
    every message that was not printed."""
    with open(noiseless_csv, encoding="utf-8") as fh:
        text = fh.read()
    path = tmp_path / "bad.csv"
    path.write_text(text + "".join(f"bad{i},x,1,5,1\n" for i in range(250)), encoding="utf-8")
    assert main(["fit", "--data", str(path), "--t0", "1", "--s0", "6", "--h", "3"]) == 0
    warned = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("warning:")]
    assert len(warned) == 21
    assert warned[-1] == "warning: ... and 480 more"  # 250 rows, 250 subjects dropped


def test_fit_recovers_constant_coefficients(noiseless_csv, capsys):
    rc = main(["fit", "--data", noiseless_csv, "--t0", "1", "--s0", "6",
               "--h", "3"])
    assert rc == 0
    captured = capsys.readouterr()
    meta, header, rows = _parse_table(captured.out)
    assert meta["status"] == "ok"
    assert header == ["coef", "estimate", "se", "lower", "upper"]
    est = {int(r["coef"]): float(r["estimate"]) for r in rows}
    assert est[1] == pytest.approx(2.0, abs=1e-6)
    assert est[2] == pytest.approx(-1.0, abs=1e-6)
    assert est[3] == pytest.approx(0.5, abs=1e-6)
    for r in rows:
        assert float(r["lower"]) <= float(r["estimate"]) <= float(r["upper"])
    assert "loaded 60 subjects" in captured.err


def test_fit_json_format(noiseless_csv, capsys):
    rc = main(["fit", "--data", noiseless_csv, "--t0", "1", "--s0", "6",
               "--h", "3", "--format", "json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["meta"]["status"] == "ok"
    assert len(payload["rows"]) == 3
    assert payload["rows"][0]["coef"] == 1


def _strict_json(text: str):
    def refuse(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("argv, columns", [
    (["slice", "--T", "8", "--T", "400", "--t-step", "4", "--h", "3"],
     ("estimate", "se", "lower", "upper")),
    (["cv", "--h-grid", "0.05,3", "--folds", "2"], ("score",)),
])
def test_missing_values_are_null_in_json_and_empty_in_csv(noiseless_csv, capsys, argv,
                                                            columns):
    argv = argv + ["--data", noiseless_csv]
    assert main(argv + ["--format", "json"]) == 0
    rows = _strict_json(capsys.readouterr().out)["rows"]
    assert main(argv) == 0
    _, _, csv_rows = _parse_table(capsys.readouterr().out)
    missing = [i for i, r in enumerate(rows) if r[columns[0]] is None]
    assert missing and len(missing) < len(rows)
    for i in missing:
        assert all(rows[i][c] is None and csv_rows[i][c] == "" for c in columns)


def test_fit_exit_codes(noiseless_csv, tmp_path, capsys):
    assert main(["fit"]) == 2  # missing required arguments
    capsys.readouterr()

    rc = main(["fit", "--data", str(tmp_path / "nope.csv"), "--t0", "1",
               "--s0", "6", "--h", "3"])
    assert rc == 3
    err_line = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert err_line["code"] == 3

    rc = main(["fit", "--data", noiseless_csv, "--t0", "500", "--s0", "500",
               "--h", "3"])
    assert rc == 4
    err_line = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert err_line["code"] == 4
    assert "empty_support" in err_line["error"]

    rc = main(["fit", "--data", noiseless_csv, "--t0", "1", "--s0", "6",
               "--h", "-1"])
    assert rc == 2  # ValueError from bandwidth validation
    capsys.readouterr()


def test_fit_requires_complete_cases(tmp_path, capsys):
    path = tmp_path / "cens.csv"
    path.write_text(
        "subject_id,visit_time,response,followup_end,event_observed,x_2\n"
        "a,1.0,2.0,5.0,0,0.1\n"
        "b,2.0,1.0,6.0,0,0.3\n",
        encoding="utf-8",
    )
    rc = main(["fit", "--data", str(path), "--t0", "1", "--s0", "4",
               "--h", "3"])
    assert rc == 3
    err_line = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert "complete-case" in err_line["error"]


def test_transform_option_runs(noiseless_csv, capsys):
    rc = main(["fit", "--data", noiseless_csv, "--t0", "1", "--s0", "6",
               "--h", "3", "--transform", "log1000"])
    assert rc == 0
    meta, _, rows = _parse_table(capsys.readouterr().out)
    assert meta["status"] == "ok"
    est = {int(r["coef"]): float(r["estimate"]) for r in rows}
    assert est[1] != pytest.approx(2.0, abs=1e-3)  # transform changed the scale

    assert main(["fit", "--data", noiseless_csv, "--t0", "1", "--s0", "6",
                 "--h", "3", "--transform", "sqrt"]) == 2
    capsys.readouterr()


def test_cv_outputs_selection_metadata(noiseless_csv, capsys):
    rc = main(["cv", "--data", noiseless_csv, "--h-grid", "2,3",
               "--folds", "2"])
    assert rc == 0
    meta, header, rows = _parse_table(capsys.readouterr().out)
    assert header == ["h", "score", "excluded_fraction"]
    assert len(rows) == 2
    assert float(meta["h_selected"]) in (2.0, 3.0)
    assert float(meta["factor"]) == pytest.approx(60 ** -0.05, abs=1e-12)
    assert int(meta["n_used"]) == 60
    assert float(meta["h_undersmoothed"]) == pytest.approx(
        float(meta["h_selected"]) * float(meta["factor"]))
    for r in rows:
        assert float(r["score"]) < 1e-12  # noiseless data predicts exactly


def test_slice_stdout_and_artifacts(noiseless_csv, tmp_path, capsys):
    rc = main(["slice", "--data", noiseless_csv, "--T", "8", "--t-step", "2",
               "--h", "3"])
    assert rc == 0
    meta, header, rows = _parse_table(capsys.readouterr().out)
    assert header == ["T", "t", "s", "coef", "estimate", "se", "lower",
                      "upper", "n_eff", "status"]
    assert len(rows) == 3 * 3  # t in {2, 4, 6}, three coefficients
    assert {r["status"] for r in rows} == {"ok"}

    out_dir = tmp_path / "slices"
    rc = main(["slice", "--data", noiseless_csv, "--T", "8", "--T", "12",
               "--t-step", "2", "--h", "3", "--out-dir", str(out_dir),
               "--svg"])
    assert rc == 0
    capsys.readouterr()
    names = sorted(os.listdir(out_dir))
    assert names == ["slice_T12.csv", "slice_T12.svg", "slice_T8.csv",
                     "slice_T8.svg"]
    root = ET.fromstring((out_dir / "slice_T8.svg").read_text())
    assert root.tag.endswith("svg")
    smeta, _, srows = _parse_table((out_dir / "slice_T8.csv").read_text())
    assert smeta["T"] == "8"
    assert len(srows) == 9

    # all slices fit in one batch and print their rows in --T order
    single = []
    for T in ("12", "8"):
        assert main(["slice", "--data", noiseless_csv, "--T", T, "--t-step", "2",
                     "--h", "3"]) == 0
        single += _parse_table(capsys.readouterr().out)[2]
    assert main(["slice", "--data", noiseless_csv, "--T", "12", "--T", "8",
                 "--t-step", "2", "--h", "3"]) == 0
    assert _parse_table(capsys.readouterr().out)[2] == single

    # each slice total names its own table: a repeat, or a total of the same name, is a
    # usage error that writes nothing
    for Ts in (("8", "12", "8"), ("8", "8.0000001")):
        rep_dir = tmp_path / "repeated"
        argv = ["slice", "--data", noiseless_csv, *(a for T in Ts for a in ("--T", T)),
                "--t-step", "2", "--h", "3", "--out-dir", str(rep_dir), "--svg"]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and json.loads(err.splitlines()[-1]) == {
            "error": "two slice totals share the table name slice_T8", "code": 2}
        assert not rep_dir.exists()


@pytest.mark.parametrize("argv, error", [
    (["slice", "--T", "8", "--T", "8", "--h", "2"],
     "two slice totals share the table name slice_T8"),
    (["fit", "--t0", "2", "--s0", "6", "--h", "2", "--alpha", "1e-300"],
     "alpha=1e-300 is too small: 1 - alpha/2 rounds to 1"),
    (["cv", "--h-grid", "1,0"], "bandwidth h must be positive and finite, and so must h*h"),
    (["cv", "--folds", "1"], "need at least 2 folds"),
    (["cv", "--gamma", "-1"], "gamma must be nonnegative and finite"),
])
def test_a_bad_command_line_fails_before_the_cohort_is_loaded(noiseless_csv, capsys,
                                                              monkeypatch, argv, error):
    def no_load(*args, **kwargs):
        raise AssertionError("load_csv ran")

    monkeypatch.setattr(vcterm.io, "load_csv", no_load)
    assert main(argv + ["--data", noiseless_csv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "loaded" not in err
    assert err.splitlines() == [json.dumps({"error": error, "code": 2})]


def test_slice_validation_errors(noiseless_csv, capsys):
    assert main(["slice", "--data", noiseless_csv, "--T", "0.5",
                 "--t-step", "2", "--h", "3"]) == 3
    capsys.readouterr()
    assert main(["slice", "--data", noiseless_csv, "--T", "8", "--h", "3",
                 "--svg"]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("T", ["-1e308", "-8", "0"])
def test_slice_at_a_total_time_not_above_zero_has_no_points(noiseless_csv, capsys, T):
    """(T - 1e-9) / step is -inf at T=-1e308 and the smallest step; it counts no points."""
    assert main(["slice", "--data", noiseless_csv, f"--T={T}", "--t-step", "5e-324",
                 "--h", "3"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err.splitlines()[-1]) == {
        "error": f"slice T={float(T):g} leaves no interior points at step 4.94066e-324",
        "code": 3}


def test_study_cli_thread_invariant(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "study.conf"
    cfg.write_text(STUDY_CONFIG, encoding="utf-8")
    dir1 = tmp_path / "out1"
    dir2 = tmp_path / "out2"
    assert main(["study", "--config", str(cfg), "--out-dir", str(dir1)]) == 0

    def no_threads(self):
        raise AssertionError("study started a thread")

    # --threads is accepted but every replication runs in the calling thread
    monkeypatch.setattr(threading.Thread, "start", no_threads)
    assert main(["study", "--config", str(cfg), "--out-dir", str(dir2),
                 "--threads", "2"]) == 0
    monkeypatch.undo()
    capsys.readouterr()
    names = sorted(os.listdir(dir1))
    assert names == sorted(os.listdir(dir2))
    assert "summary.csv" in names
    assert "records.csv" in names
    assert "metadata.json" in names
    for name in names:
        assert (dir1 / name).read_bytes() == (dir2 / name).read_bytes()


def test_study_cli_unreachable_point_exits_4(tmp_path, capsys):
    cfg = tmp_path / "study.conf"
    cfg.write_text(STUDY_CONFIG.replace("points = 1:8;2:7",
                                        "points = 1:8;45:45"),
                   encoding="utf-8")
    out = tmp_path / "out"
    rc = main(["study", "--config", str(cfg), "--out-dir", str(out)])
    assert rc == 4
    capsys.readouterr()
    assert (out / "summary.csv").exists()  # artifacts written before the error


def test_heatmap_renders_svg(tmp_path, capsys):
    cov = tmp_path / "coverage.csv"
    cov.write_text(
        "# coefficient=1\nt,s,coverage,valid\n"
        "1,5,0.94,100\n2,5,,0\n1,6,0.9,100\n2,6,0.96,100\n",
        encoding="utf-8",
    )
    out = tmp_path / "cov.svg"
    assert main(["heatmap", "--coverage", str(cov), "--out", str(out)]) == 0
    capsys.readouterr()
    root = ET.fromstring(out.read_text())
    assert root.tag.endswith("svg")

    bad = tmp_path / "bad.csv"
    bad.write_text("t,s,coverage\n1,5,0.9\n2,6,0.8\n", encoding="utf-8")
    assert main(["heatmap", "--coverage", str(bad),
                 "--out", str(tmp_path / "bad.svg")]) == 3
    capsys.readouterr()
    short = tmp_path / "short.csv"  # a row without its coverage cell is not a missing value
    short.write_text("t,s,coverage\n1,5,0.9\n1,6\n", encoding="utf-8")
    assert main(["heatmap", "--coverage", str(short),
                 "--out", str(tmp_path / "short.svg")]) == 3
    assert "malformed numeric fields" in capsys.readouterr().err


def test_heatmap_rejects_a_repeated_point(tmp_path, capsys):
    cov = tmp_path / "coverage.csv"
    cov.write_text("t,s,coverage\n1,5,0.9\n1,5,0.8\n", encoding="utf-8")
    out = tmp_path / "cov.svg"
    assert main(["heatmap", "--coverage", str(cov), "--out", str(out)]) == 3
    err_line = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert err_line == {"error": f"{cov}: grid is not rectangular", "code": 3}
    assert not out.exists()


# the required arguments of each subcommand, with values argparse accepts
REQUIRED_ARGS = {
    "fit": ["--data", "missing.csv", "--t0", "1", "--s0", "6", "--h", "3"],
    "slice": ["--data", "missing.csv", "--T", "8", "--h", "3"],
    "cv": ["--data", "missing.csv"],
    "simulate": ["--config", "missing.conf", "--out", "out.csv"],
    "study": ["--config", "missing.conf", "--out-dir", "out"],
    "kernel-moments": [],
    "heatmap": ["--coverage", "missing.csv", "--out", "out.svg"],
}
OPTION_VALUES = {"--seed": "3", "--threads": "2", "--transform": "log1000", "--format": "json"}
KEPT_OPTIONS = {
    "fit": ("--transform", "--format"),
    "slice": ("--transform", "--format"),
    "cv": ("--seed", "--threads", "--transform", "--format"),
    "simulate": ("--seed",),
    "study": ("--seed", "--threads"),
    "kernel-moments": ("--format",),
    "heatmap": (),
}
KEPT = [(sub, opt) for sub, opts in KEPT_OPTIONS.items() for opt in opts]
REMOVED = [(sub, opt) for sub, opts in KEPT_OPTIONS.items() for opt in OPTION_VALUES
           if opt not in opts]


@pytest.mark.parametrize("sub,option", REMOVED)
def test_shared_option_a_subcommand_ignores_is_usage_error(tmp_path, monkeypatch, capsys,
                                                           sub, option):
    monkeypatch.chdir(tmp_path)
    argv = [sub, *REQUIRED_ARGS[sub], option, OPTION_VALUES[option]]
    assert main(argv) == 2
    assert f"unrecognized arguments: {option}" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("sub,option", KEPT)
def test_shared_option_a_subcommand_reads_is_accepted(sub, option):
    args = build_parser().parse_args([sub, *REQUIRED_ARGS[sub], option, OPTION_VALUES[option]])
    dest = {"--format": "fmt"}.get(option, option[2:])
    assert str(getattr(args, dest)) == OPTION_VALUES[option]


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv, message", [
    ([], "vcterm: the following arguments are required: command"),
    (["fit"], "vcterm fit: the following arguments are required: --t0, --s0, --h"),
    (["fit", "--t0", "2", "--s0", "6", "--h", "-1e308"],
     "vcterm fit: argument --h: expected one argument"),
    (["fit", "--t0", "2", "--s0", "6", "--h", "abc"],
     "vcterm fit: argument --h: invalid float value: 'abc'"),
    (["cv", "--h-grid", "-1e308"], "vcterm cv: argument --h-grid: expected one argument"),
    (["cv", "--format", "xml"], "vcterm cv: argument --format: invalid choice: 'xml' "
                                "(choose from 'csv', 'json')"),
    (["fit", "--t0", "2", "--s0", "6", "--h", "1", "--seed", "3"],
     "vcterm: unrecognized arguments: --seed 3"),
])
def test_argparse_usage_errors_print_one_json_line(noiseless_csv, capsys, argv, message):
    """A negative number in exponent form given as its own argument reads as an
    option, as argparse reads it; --h=-1e308 passes it as a value."""
    if argv:
        argv = [argv[0], "--data", noiseless_csv, *argv[1:]]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert json.loads(err) == {"error": message, "code": 2}


def test_a_negative_bandwidth_given_with_equals_reads_as_a_number(noiseless_csv, capsys):
    assert main(["fit", "--data", noiseless_csv, "--t0", "2", "--s0", "6",
                 "--h=-1e308"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert json.loads(err[-1])["error"].startswith("bandwidth h must be positive")


@pytest.mark.parametrize("body, message", [
    (b"a,1,2,5,\xff\n", "{path}: not UTF-8 text: 'utf-8' codec can't decode byte 0xff"),
    ("a,1,2,5,{0}\n".format("x" * 131073).encode(),
     "{path} line 2: field larger than field limit (131072)"),
], ids=["not-utf-8", "past-the-field-limit"])
def test_unreadable_cohort_text_is_a_data_error(tmp_path, capsys, body, message):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"subject_id,visit_time,response,followup_end,event_observed\n" + body)
    for sub, extra in (("fit", ["--t0", "1", "--s0", "6", "--h", "3"]), ("cv", [])):
        assert main([sub, "--data", str(path), *extra]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        error = json.loads(err)
        assert error["code"] == 3 and error["error"].startswith(message.format(path=path))


def _one_error(capsys):
    """The one JSON error line, the last line of stderr; nothing on stdout."""
    out, err = capsys.readouterr()
    errors = [ln for ln in err.splitlines() if ln.startswith("{")]
    assert out == "" and len(errors) == 1 and err.endswith(errors[0] + "\n")
    return json.loads(errors[0])


COVERAGE = "# coefficient=1\nt,s,coverage,valid\n1,5,0.9,9\n2,5,0.8,9\n1,6,0.9,9\n2,6,1,9\n"


@pytest.mark.parametrize("case", ["simulate-out", "simulate-truth-out", "slice-out-dir-is-a-file",
                                  "study-out-dir-under-a-file", "study-partial-is-a-directory",
                                  "study-no-resume-partial-is-a-directory", "heatmap-out"])
def test_a_file_the_cli_cannot_write_is_a_data_error(noiseless_csv, tmp_path, capsys, case):
    sim, study, cov = tmp_path / "sim.conf", tmp_path / "study.conf", tmp_path / "cov.csv"
    study.write_text(STUDY_CONFIG, encoding="utf-8")
    cov.write_text(COVERAGE, encoding="utf-8")
    a_file, missing, study_dir = tmp_path / "a_file", tmp_path / "missing", tmp_path / "study"
    a_file.write_text("", encoding="utf-8")
    (study_dir / "records.partial.csv").mkdir(parents=True)
    capsys.readouterr()
    argv, path = {
        "simulate-out": (["simulate", "--config", sim, "--out", missing / "c.csv"],
                         missing / "c.csv"),
        "simulate-truth-out": (["simulate", "--config", sim, "--out", tmp_path / "c.csv",
                                "--truth-out", missing / "t.csv"], missing / "t.csv"),
        "slice-out-dir-is-a-file": (["slice", "--data", noiseless_csv, "--T", "8", "--h", "3",
                                     "--out-dir", a_file], a_file),
        "study-out-dir-under-a-file": (["study", "--config", study, "--out-dir", a_file / "x"],
                                       a_file / "x"),
        "study-partial-is-a-directory": (["study", "--config", study, "--out-dir", study_dir],
                                         study_dir / "records.partial.csv"),
        "study-no-resume-partial-is-a-directory": (
            ["study", "--config", study, "--out-dir", study_dir, "--no-resume"],
            study_dir / "records.partial.csv"),
        "heatmap-out": (["heatmap", "--coverage", cov, "--out", missing / "h.svg"],
                        missing / "h.svg"),
    }[case]
    assert main([str(a) for a in argv]) == 3
    error = _one_error(capsys)
    assert error["code"] == 3 and str(path) in error["error"]


def _tree(directory) -> dict:
    """Every entry under directory, hidden ones included: a file's bytes, None for a directory."""
    return {path: None if path.is_dir() else path.read_bytes() for path in directory.rglob("*")}


@pytest.mark.parametrize("case", ["slice-csv", "slice-svg", "simulate-truth-out",
                                  "simulate-truth-out-is-a-directory"])
def test_a_failed_write_leaves_none_of_the_commands_files(noiseless_csv, tmp_path, capsys, case):
    """A command's first file is written before a later one fails; none stays, a file
    of the same name from before is left as it was, and the error names the target."""
    work = tmp_path / "work"
    (work / "D").mkdir(parents=True)
    sim = work / "sim.conf"
    sim.write_text("n = 20\nseed = 3\n", encoding="utf-8")
    (work / "D" / "slice_T12.csv").write_text("from before\n", encoding="utf-8")
    slices = ["slice", "--data", noiseless_csv, "--T", "12", "--T", "8", "--h", "2",
              "--out-dir", work / "D"]
    simulate = ["simulate", "--config", sim, "--out", work / "c2.csv", "--truth-out"]
    argv, failing = {
        "slice-csv": (slices, work / "D" / "slice_T8.csv"),
        "slice-svg": (slices + ["--svg"], work / "D" / "slice_T8.svg"),
        "simulate-truth-out": (simulate + [work / "nodir" / "t.csv"], work / "nodir" / "t.csv"),
        "simulate-truth-out-is-a-directory": (simulate + [work / "D"], work / "D"),
    }[case]
    if case.startswith("slice"):
        failing.mkdir()
    before = _tree(work)
    capsys.readouterr()
    assert main([str(a) for a in argv]) == 3
    error = _one_error(capsys)
    assert error["code"] == 3 and str(failing) in error["error"]
    assert _tree(work) == before


def test_an_os_error_that_names_no_file_is_not_a_data_error(monkeypatch, capsys):
    def broken_pipe(*args, **kwargs):
        raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr("vcterm.cli.kernel_moments", broken_pipe)
    with pytest.raises(BrokenPipeError):
        main(["kernel-moments"])
    assert capsys.readouterr().err == ""


def test_a_closed_stdout_exits_1_without_a_traceback(noiseless_csv):
    """`vcterm slice ... | head -1`: the slices' 2,151 rows outrun the pipe's buffer."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(vcterm.__file__)))
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    child = subprocess.Popen([sys.executable, "-m", "vcterm.cli", "slice", "--data",
                              noiseless_csv, "--T", "8", "--T", "12", "--T", "16",
                              "--t-step", "0.05", "--h", "2"],
                             env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert child.stdout.readline().startswith(b"#")
    child.stdout.close()
    err = child.stderr.read().decode()
    assert child.wait(timeout=60) == 1
    assert "Traceback" not in err and "Exception ignored" not in err
    assert err.startswith("loaded 60 subjects") and err.count("\n") == 1


class _ShortWrites(io.RawIOBase):
    """A raw stdout, which Python's stdout writes through to under -u, that takes at most
    4,096 bytes a call, as a pipe may."""

    def __init__(self):
        self.data = bytearray()

    def writable(self):
        return True

    def write(self, b):
        self.data += bytes(b[:4096])
        return min(len(b), 4096)


def test_a_stdout_that_takes_short_writes_gets_every_byte(noiseless_csv, monkeypatch):
    argv = ["slice", "--data", noiseless_csv, "--T", "8", "--T", "12", "--t-step", "0.1",
            "--h", "2"]
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 0
    expected = out.getvalue().encode()
    assert len(expected) > 20_000
    raw = _ShortWrites()
    monkeypatch.setattr(sys, "argv", ["vcterm", *argv])
    with contextlib.redirect_stdout(io.TextIOWrapper(raw, "utf-8", write_through=True)), \
            contextlib.redirect_stderr(io.StringIO()), pytest.raises(SystemExit) as done:
        run()
    assert done.value.code == 0
    assert bytes(raw.data) == expected


@pytest.mark.skipif(not os.path.exists("/proc/self/mem"), reason="needs /proc/self/mem")
def test_a_cohort_whose_read_fails_is_a_data_error(capsys):
    """/proc/self/mem opens, and its first read fails with EIO, an OSError without a file
    name."""
    assert main(["fit", "--data", "/proc/self/mem", "--t0", "1", "--s0", "1", "--h", "1"]) == 3
    error = json.loads(capsys.readouterr().err)
    assert error["code"] == 3 and error["error"].startswith("cannot read /proc/self/mem: ")


@pytest.mark.parametrize("sub", ["cv", "simulate", "study"])
def test_a_negative_seed_is_a_usage_error_that_names_the_option(tmp_path, capsys, sub,
                                                                noiseless_csv):
    conf = tmp_path / "study.conf"
    conf.write_text(STUDY_CONFIG, encoding="utf-8")
    argv = {"cv": ["cv", "--data", noiseless_csv, "--h-grid", "2,3", "--folds", "2"],
            "simulate": ["simulate", "--config", str(conf), "--out", str(tmp_path / "c.csv")],
            "study": ["study", "--config", str(conf), "--out-dir", str(tmp_path / "out")]}[sub]
    before = sorted(os.listdir(tmp_path))
    capsys.readouterr()
    assert main(argv + ["--seed=-1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert json.loads(err) == {
        "error": f"vcterm {sub}: argument --seed: expected a non-negative integer, got '-1'",
        "code": 2}
    assert sorted(os.listdir(tmp_path)) == before


@pytest.mark.parametrize("sub, line, message", [
    ("simulate", "seed = -1", "invalid simulation config: seed must be non-negative"),
    ("study", "seed = -1", "invalid simulation config: seed must be non-negative"),
    ("study", "cv_seed = -1", "invalid study config: cv_seed must be non-negative")])
def test_a_negative_config_seed_is_an_invalid_config(tmp_path, capsys, sub, line, message):
    conf = tmp_path / "study.conf"
    conf.write_text(STUDY_CONFIG.replace("h_policy = fixed", "h_policy = cv-per-rep")
                    .replace("seed = 6", line), encoding="utf-8")
    out = tmp_path / "out"
    flag = "--out" if sub == "simulate" else "--out-dir"
    assert main([sub, "--config", str(conf), flag, str(out)]) == 3
    assert json.loads(capsys.readouterr().err) == {"error": message, "code": 3}
    assert not out.exists()


def test_a_slice_with_a_failed_point_between_ok_ones_draws_broken_curves(tmp_path, capsys):
    """Visits near t = 1, 3 and 4 on T = 8 only: at h=0.3 the point t=2 has no support."""
    rows = [f"s{i},{t + 0.05 * i},{(7 * i + 3 * j) % 5 - 2},8,1"
            for i in range(4) for j, t in enumerate((1.0, 3.0, 4.0))]
    path = tmp_path / "gap.csv"
    path.write_text("subject_id,visit_time,response,followup_end,event_observed\n"
                    + "\n".join(rows) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["slice", "--data", str(path), "--T", "8", "--h", "0.3", "--out-dir", str(out),
                 "--svg"]) == 0
    capsys.readouterr()
    _, _, table = _parse_table((out / "slice_T8.csv").read_text())
    assert [(r["t"], r["status"]) for r in table][:5] == [
        ("1", "ok"), ("2", "empty_support"), ("3", "ok"), ("4", "ok"), ("5", "empty_support")]
    assert table[1]["estimate"] == table[1]["lower"] == ""
    root = ET.fromstring((out / "slice_T8.svg").read_text())
    runs = [el.get("points").split() for el in root.iter() if el.tag.endswith("polyline")]
    assert [len(run) for run in runs] == [1, 2]
    assert sum(el.tag.endswith("polygon") for el in root.iter()) == 2


@pytest.mark.parametrize("kind", ["simulate-config", "study-config", "coverage",
                                  "partial-records"])
def test_a_text_input_that_is_not_utf_8_is_a_data_error(tmp_path, capsys, kind):
    conf, cov, out = tmp_path / "c.conf", tmp_path / "cov.csv", tmp_path / "out"
    conf.write_bytes(STUDY_CONFIG.encode() + (b"# \xff\n" if kind.endswith("config") else b""))
    cov.write_bytes(COVERAGE.encode() + b"\xff\n")
    out.mkdir()
    (out / "records.partial.csv").write_bytes(b"# fingerprint=\xff\n")
    argv, path = {
        "simulate-config": (["simulate", "--config", conf, "--out", out / "c.csv"], conf),
        "study-config": (["study", "--config", conf, "--out-dir", out], conf),
        "coverage": (["heatmap", "--coverage", cov, "--out", out / "h.svg"], cov),
        "partial-records": (["study", "--config", conf, "--out-dir", out],
                            out / "records.partial.csv"),
    }[kind]
    assert main([str(a) for a in argv]) == 3
    assert _one_error(capsys) == {"code": 3, "error": f"{path}: not UTF-8 text: 'utf-8' codec "
                                  f"can't decode byte 0xff in position {path.read_bytes().index(255)}"
                                  ": invalid start byte"}


@pytest.mark.parametrize("argv", [
    ["fit", "--t0", "1", "--s0", "6", "--h", "inf"],
    ["fit", "--t0", "nan", "--s0", "6", "--h", "3"],
    ["fit", "--t0", "1", "--s0", "inf", "--h", "3"],
    ["slice", "--T", "8", "--h", "nan"],
    ["slice", "--T", "inf", "--h", "3"],
    ["slice", "--T", "8", "--t-step", "0", "--h", "3"],
    ["cv", "--h-grid", "3,inf"],
])
def test_nonfinite_inputs_are_usage_errors(noiseless_csv, capsys, argv):
    assert main(argv + ["--data", noiseless_csv]) == 2
    err_line = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert err_line["code"] == 2


@pytest.mark.parametrize("T, step", [("1e300", "1e-300"), ("8", "1e-300"), ("8", "1e-4")])
def test_slice_grid_past_the_point_bound_is_usage_error(noiseless_csv, capsys, bounded_work,
                                                        T, step):
    assert main(["slice", "--data", noiseless_csv, "--T", T, "--t-step", step,
                 "--h", "3"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err.splitlines()[-1]) == {
        "error": "the grid has more than MAX_GRID_POINTS=65536 points", "code": 2}


@pytest.mark.parametrize("h_grid", ["abc", "1,,2", ""])
def test_malformed_h_grid_is_usage_error(noiseless_csv, capsys, h_grid):
    assert main(["cv", "--data", noiseless_csv, "--h-grid", h_grid]) == 2
    err_line = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert err_line["code"] == 2 and "--h-grid" in err_line["error"]


@pytest.mark.parametrize("gamma", ["nan", "inf", "1000"])
def test_unusable_gamma_is_usage_error(noiseless_csv, capsys, gamma):
    assert main(["cv", "--data", noiseless_csv, "--gamma", gamma]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    err_line = json.loads(err.splitlines()[-1])
    assert err_line["code"] == 2 and "gamma" in err_line["error"]


def test_study_with_nan_gamma_fails_before_any_output(tmp_path, capsys):
    cfg = tmp_path / "study.conf"
    cfg.write_text(STUDY_CONFIG.replace("h_policy = fixed\nh_fixed = 2.5\n",
                                        "h_policy = cv-once\ngamma = nan\n"),
                   encoding="utf-8")
    out = tmp_path / "out"
    assert main(["study", "--config", str(cfg), "--out-dir", str(out)]) == 3
    err_line = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert err_line["code"] == 3 and "invalid study config" in err_line["error"]
    assert not out.exists()


@pytest.mark.parametrize("h", ["1e-170", "1e200"])
@pytest.mark.parametrize("argv", [["fit", "--t0", "1", "--s0", "6"], ["slice", "--T", "8"],
                                  ["cv", "--folds", "2"]])
def test_bandwidth_whose_square_is_zero_or_inf_is_usage_error(noiseless_csv, capsys, argv, h):
    h_args = ["--h-grid", h] if argv[0] == "cv" else ["--h", h]
    assert main(argv + h_args + ["--data", noiseless_csv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    err_line = json.loads(err.splitlines()[-1])
    assert err_line["code"] == 2
    assert "bandwidth h must be positive and finite" in err_line["error"]


@pytest.mark.parametrize("h", ["1e-160", "1e-156", "3e-155"])
@pytest.mark.parametrize("argv", [["fit", "--t0", "1", "--s0", "6"], ["slice", "--T", "8"],
                                  ["cv", "--folds", "2"]])
def test_bandwidth_whose_square_is_subnormal_is_usage_error(noiseless_csv, capsys, argv, h):
    h_args = ["--h-grid", h] if argv[0] == "cv" else ["--h", h]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + h_args + ["--data", noiseless_csv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    err_line = json.loads(err.splitlines()[-1])
    assert err_line == {"error": f"bandwidth h={float(h)!r} is too small: h*h is below the "
                                 "smallest normal float", "code": 2}


@pytest.mark.parametrize("y, what", [(1e300, "the sandwich variance overflows"),
                                     (1e306, "the sandwich variance overflows"),
                                     (1.7e308, "the kernel moments overflow")])
@pytest.mark.filterwarnings("error")
def test_responses_whose_fit_overflows_are_rejected(tmp_path, capsys, y, what):
    data, _ = gen_dataset(SimConfig(n=80, seed=5))
    data.responses[:] = y
    message = f"{what} at bandwidth h=1.0: "
    with pytest.raises(ValueError, match="^" + message):
        local_fit(data, 2.0, 6.0, 1.0)
    with pytest.raises(ValueError, match="^" + message):
        fit_grid(data, [(2.0, 6.0), (3.0, 5.0)], 1.0)
    path = str(tmp_path / "huge.csv")
    write_dataset_csv(data, path)
    assert main(["fit", "--data", path, "--t0", "2", "--s0", "6", "--h", "1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    err_line = json.loads(err.splitlines()[-1])
    assert err_line["code"] == 2 and err_line["error"].startswith(message)


@pytest.mark.filterwarnings("error")
def test_cv_score_that_overflows_is_rejected(tmp_path, capsys):
    data, _ = gen_dataset(SimConfig(n=80, seed=5))
    data.responses[:] = 1e300
    folds = make_folds(data, 5, 0)
    for h in (2, 4):
        with pytest.raises(ValueError, match=f"^the CV score overflows at bandwidth h={h}.0: "):
            cv_score(data, folds, h)
    path = str(tmp_path / "huge.csv")
    write_dataset_csv(data, path)
    assert main(["cv", "--data", path, "--h-grid", "2,4"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err.splitlines()[-1]) == {
        "error": "the CV score overflows at bandwidth h=2.0: the responses are too large",
        "code": 2}


def _global_fit(data):
    """The unweighted least-squares fit over every complete-case visit."""
    cc = np.repeat(data.event_observed, data.counts)
    return np.linalg.lstsq(data.covariates[cc], data.responses[cc], rcond=None)[0]


@pytest.mark.filterwarnings("error")
def test_huge_bandwidth_gives_the_global_fit():
    """At h=1e100 every visit's scaled offset squares to about 1e-198, so every kernel
    weight is exactly 1: the fit is the global least-squares fit, with a sandwich that
    neither underflows nor overflows."""
    data, _ = gen_dataset(SimConfig(n=80, seed=5))
    fp = local_fit(data, 2.0, 6.0, 1e100)
    assert fp.status == "ok"
    assert fp.n_eff == np.count_nonzero(np.repeat(data.event_observed, data.counts))
    np.testing.assert_allclose(fp.beta_hat, _global_fit(data), rtol=1e-12, atol=1e-12)
    se = standard_errors(fp)
    assert (se > 0.1).all()
    np.testing.assert_allclose(se, standard_errors(local_fit(data, 2.0, 6.0, 1e3)), rtol=1e-3)
    # exactly zero residuals give a zero score, not an underflow
    data.responses[:] = 0.0
    fp = local_fit(data, 2.0, 6.0, 1e100)
    assert fp.status == "ok" and not standard_errors(fp).any()


@pytest.mark.parametrize("scale, h, blamed", [(1e-160, "1", "the residuals or covariates"),
                                              (1.0, "1e100", None)])
@pytest.mark.filterwarnings("error")
def test_sandwich_underflows_at_tiny_residuals_not_at_a_huge_bandwidth(tmp_path, capsys,
                                                                        scale, h, blamed):
    """Responses near 1e-160 underflow the scores at an ordinary h=1, where every in-disk
    weight is 0.05 or more; at h=1e100 every weight is 1 and `vcterm fit` prints the global
    fit."""
    data, _ = gen_dataset(SimConfig(n=200, seed=1))
    data.responses *= scale
    path = str(tmp_path / "cohort.csv")
    write_dataset_csv(data, path)
    argv = ["fit", "--data", path, "--t0", "2", "--s0", "6", "--h", h]
    if blamed is None:
        assert main(argv + ["--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        np.testing.assert_allclose([row["estimate"] for row in rows], _global_fit(data),
                                   rtol=1e-12, atol=1e-12)
        return
    message = (f"the sandwich variance underflows at bandwidth h={float(h)!r}: "
               f"{blamed} are too small")
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        local_fit(data, 2.0, 6.0, float(h))
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err.splitlines()[-1]) == {"error": message, "code": 2}


def test_fit_target_far_outside_the_data_is_empty_support(noiseless_csv, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["fit", "--t0", "1e307", "--s0", "6", "--h", "0.01",
                     "--data", noiseless_csv]) == 4
    err_line = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert err_line == {"error": "fit at (1e+307, 6) failed: empty_support (n_eff=0)",
                        "code": 4}


@pytest.mark.parametrize("change", [
    ("grid = points\npoints = 1:8;2:7\n", "grid = rect\nrect_t = 1,1,2\nrect_s = 4,6\n"),
    ("grid = points\npoints = 1:8;2:7\n", "grid = rect\nrect_t = 1,2\nrect_s = 6,4,6.0\n"),
    ("h_fixed = 2.5", "h_fixed = 1e200"),
    ("h_fixed = 2.5", "h_fixed = 1e-170"),
    ("h_fixed = 2.5", "h_fixed = 1e-156"),
    ("h_policy = fixed\nh_fixed = 2.5", "h_policy = cv-once\ncv_h_grid = -1,2"),
    # a non-finite number; a simulation key fails as an invalid simulation config
    ("grid = points\npoints = 1:8;2:7\n", "grid = slices\nslice_T = inf\n"),
    ("grid = points\npoints = 1:8;2:7\n", "grid = rect\nrect_t = inf,1\nrect_s = 4,6\n"),
    ("points = 1:8;2:7", "points = 1:inf"),
    ("seed = 6", "seed = 6\ntruncation = inf", "simulation"),
    ("seed = 6", "seed = 6\nevent_coefs = nan,1,-5", "simulation"),
    ("seed = 6", "seed = 6\nshift = inf", "simulation"),
    ("seed = 6", "seed = 6\nwhite_noise_var = inf", "simulation"),
])
def test_unrunnable_study_config_fails_before_any_output(tmp_path, capsys, change):
    old, new, *section = change
    cfg = tmp_path / "study.conf"
    assert old in STUDY_CONFIG
    cfg.write_text(STUDY_CONFIG.replace(old, new), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["study", "--config", str(cfg), "--out-dir", str(out)]) == 3
    err_line = json.loads(capsys.readouterr().err.splitlines()[-1])
    assert err_line["code"] == 3
    assert f"invalid {section[0] if section else 'study'} config" in err_line["error"]
    assert not out.exists()
