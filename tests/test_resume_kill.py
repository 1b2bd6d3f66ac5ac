"""A study process killed with SIGKILL after k replications resumes to the bytes of a run
that was never stopped."""

import os
import signal
import subprocess
import sys
import time

import pytest

import vcterm
from vcterm import experiments
from vcterm.cli import main
from vcterm.experiments import PARTIAL_RECORDS

R = 6
# 3 slices of 159, 239 and 319 points: a replication at n=100 takes tens of milliseconds,
# far longer than one poll of the partial file
CONFIG = (f"n = 100\nseed = 3\nreplications = {R}\nh_policy = fixed\nh_fixed = 1.5\n"
          "grid = slices\nslice_T = 8,12,16\nslice_t_step = 0.05\n")
ROWS_PER_REP = (159 + 239 + 319) * 3  # grid points x coefficients
SRC = os.path.dirname(os.path.dirname(os.path.abspath(vcterm.__file__)))


def _complete_reps(path):
    """Replications whose rows are all in the partial file: its lines past the
    fingerprint and the header, in whole replications."""
    try:
        with open(path, "rb") as fh:
            lines = fh.read().count(b"\n")
    except FileNotFoundError:
        return 0
    return max(lines - 2, 0) // ROWS_PER_REP


def _files(directory):
    return {name: (directory / name).read_bytes() for name in sorted(os.listdir(directory))}


@pytest.fixture(scope="module")
def uninterrupted(tmp_path_factory):
    work = tmp_path_factory.mktemp("kill")
    (work / "study.conf").write_text(CONFIG, encoding="utf-8")
    assert main(["study", "--config", str(work / "study.conf"), "--out-dir",
                 str(work / "whole")]) == 0
    return work, _files(work / "whole")


@pytest.mark.parametrize("k", range(1, R))
def test_study_killed_after_k_replications_resumes_to_the_same_bytes(uninterrupted, k,
                                                                      monkeypatch, capsys):
    work, want = uninterrupted
    out = work / f"killed{k}"
    partial = out / PARTIAL_RECORDS
    env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
    child = subprocess.Popen([sys.executable, "-m", "vcterm.cli", "study", "--config",
                              str(work / "study.conf"), "--out-dir", str(out)],
                             env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 60
        while _complete_reps(partial) < k and child.poll() is None:
            assert time.monotonic() < deadline, "the study wrote no replication in 60 s"
            time.sleep(0.001)
        child.send_signal(signal.SIGKILL)
    finally:
        child.wait()
    assert child.returncode == -signal.SIGKILL
    done = _complete_reps(partial)
    assert k <= done < R
    calls = []
    real = experiments._run_replication
    monkeypatch.setattr(experiments, "_run_replication",
                        lambda config, rep, *a: calls.append(rep) or real(config, rep, *a))
    assert main(["study", "--config", str(work / "study.conf"), "--out-dir", str(out)]) == 0
    capsys.readouterr()
    assert calls == list(range(done, R))
    assert _files(out) == want
