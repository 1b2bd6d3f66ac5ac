"""The benchmark's own tests, on tiny cohorts (--smoke).

    python3 -m pytest bench/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run as bench_run  # noqa: E402

# counts that depend only on the seed, never on timing
DETERMINISTIC = ("io.rows_loaded", "setup.simulate.subjects", "simulate.subjects",
                 "fit.residual_obs", "fit.residual_invalid", "fit.residual_cache_hits",
                 "fit.local_fit_calls", "fit.grid_points", "fit.band_pairs", "fit.disk_pairs",
                 "bandwidth.cv_score_calls", "bandwidth.excluded_fraction",
                 "experiments.zero_valid_points", "trace.spans")


def _bench(workload, trace, cwd=ROOT, seed=3):
    cmd = [sys.executable, str(Path(cwd) / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def traced_runs():
    return [_bench("cli-narrow", 1) for _ in range(2)]


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_unit_and_direction(spec, traced_runs, trace):
    proc = _bench("cli-narrow", 0) if trace == 0 else traced_runs[0]
    result = _result(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 6
    specs = spec["per_layer"] if trace else spec["end_to_end"]
    assert list(result["metrics"]) == [s["name"] for s in specs]
    lines = proc.stdout.splitlines()
    for s in specs:
        assert s["better"] in ("lower", "higher")
        metric = result["metrics"][s["name"]]
        assert metric["unit"] == s["unit"]
        assert isinstance(metric["value"], (int, float))
        assert any(line.startswith(f"# {s['name']} ") and
                   f" {s['unit']}  ({s['better']} is better)" in line for line in lines)
    if trace == 0:
        assert all(result["metrics"][s["name"]]["value"] > 0 for s in specs)


def test_deterministic_counts_repeat(traced_runs):
    first, second = (_result(p)["metrics"] for p in traced_runs)
    for name in DETERMINISTIC:
        assert first[name]["value"] == second[name]["value"], name
    assert first["fit.disk_pairs"]["value"] < first["fit.band_pairs"]["value"]
    assert first["trace.coverage_min"]["value"] >= 0.9


def test_corrupted_fit_output_counts_as_failed(monkeypatch):
    vcterm = bench_run.load_vcterm()
    real = vcterm.cli.local_fit

    def off_by_a_little(*args, **kwargs):
        fp = real(*args, **kwargs)
        fp.beta_hat = fp.beta_hat + 1e-6
        return fp

    monkeypatch.setattr(vcterm.cli, "local_fit", off_by_a_little)
    result, detail = bench_run.run("cli-narrow", seed=3, seconds=0.1, trace=0, smoke=True)
    assert result["correct"] is False
    assert result["failed"] == 1 and result["attempted"] == 6
    assert result["metrics"]["ok_frac"] == pytest.approx(5 / 6)
    assert result["metrics"]["fit_s"] is None
    assert detail["failures"][0].startswith("fit: ")


def test_checks_reject_bad_rows():
    good = {"T": 8.0, "t": 1.0, "s": 7.0, "coef": 1, "estimate": 1.0, "se": 0.1,
            "lower": 0.8, "upper": 1.2, "n_eff": 10, "status": "ok"}
    empty = dict(good, estimate=None, se=None, lower=None, upper=None,
                 status="empty_support")
    assert checks.check_slice(json.dumps({"rows": [good, empty]}), (3.0,), 1.0, 1) == []
    for bad in (dict(good, estimate=float("nan")), dict(empty, status="odd"),
                dict(empty, estimate=1.0)):
        assert checks.check_slice(json.dumps({"rows": [good, bad]}), (3.0,), 1.0, 1)

    rows = [{"h": 0.5, "score": None, "excluded_fraction": 0.3},
            {"h": 1.0, "score": 2.5, "excluded_fraction": 0.0}]
    payload = {"meta": {"h_selected": "1"}, "rows": rows}
    assert checks.check_cv(json.dumps(payload), (0.5, 1.0)) == []
    payload["meta"]["h_selected"] = "0.75"
    assert checks.check_cv(json.dumps(payload), (0.5, 1.0))
    rows[0]["excluded_fraction"] = 0.05
    payload["meta"]["h_selected"] = "1"
    assert checks.check_cv(json.dumps(payload), (0.5, 1.0))


def test_fails_without_the_program():
    bare = ROOT / ".bench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = _bench("cli-narrow", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
