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


# Runs the study and SIGKILLs itself once the artifact named by argv[1] is written, or,
# for the partial records file, just before it is removed.
KILL_DURING_ARTIFACTS = """
import os, signal, sys
from vcterm import experiments
from vcterm.cli import main
target = sys.argv[1]
def killing(call, after):
    def hooked(path, *args):
        if not after and os.path.basename(path) == target:
            os.kill(os.getpid(), signal.SIGKILL)
        call(path, *args)
        if after and os.path.basename(path) == target:
            os.kill(os.getpid(), signal.SIGKILL)
    return hooked
if target == experiments.PARTIAL_RECORDS:
    os.remove = killing(os.remove, after=False)
else:
    experiments.save_table = killing(experiments.save_table, after=True)
main(sys.argv[2:])
"""


@pytest.mark.parametrize("target", ["summary.csv", "records.csv", "slice_T12.csv",
                                    PARTIAL_RECORDS])
def test_study_killed_while_writing_its_artifacts_resumes_to_the_same_bytes(
        uninterrupted, target, monkeypatch, capsys):
    work, want = uninterrupted
    out = work / f"artifacts_{target}"
    env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
    child = subprocess.run([sys.executable, "-c", KILL_DURING_ARTIFACTS, target, "study",
                            "--config", str(work / "study.conf"), "--out-dir", str(out)],
                           env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                           timeout=120)
    assert child.returncode == -signal.SIGKILL
    assert (out / target).exists() and (out / PARTIAL_RECORDS).exists()
    assert _complete_reps(out / PARTIAL_RECORDS) == R
    calls = []
    monkeypatch.setattr(experiments, "_run_replication", lambda *a: calls.append(a[1]))
    assert main(["study", "--config", str(work / "study.conf"), "--out-dir", str(out)]) == 0
    capsys.readouterr()
    assert calls == []
    assert _files(out) == want
