"""Argv fuzz: every `vcterm` subcommand on drawn command lines exits with a documented
code, prints one JSON error line on failure, raises no RuntimeWarning, and leaves no new
or changed file after a failure. A table printed on success is well formed: strict JSON,
or CSV whose every row has as many cells as its header.

Each option is left out, given a typical value, given twice, or given a hostile value:
negatives with and without an exponent, subnormals, +-1e308, nan and inf text, huge
integers, and empty or ragged --h-grid lists. A value goes as its own argument or after
`=`, and unknown options ride along. Output paths may name a directory, lie below a file,
or, for `simulate`, name one file twice; a repeated --T repeats a slice total, and so does
one of the study configs. Every draw runs on one fixed n=80 cohort or an n=40 config, and
every typical value keeps a run cheap (at most 12 points per slice, at most 4 CV
candidates, a one-replication study at one point).
"""

import contextlib
import io
import json
import os
import tempfile
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vcterm import SimConfig, gen_dataset
from vcterm.cli import main
from vcterm.io import write_dataset_csv

HOSTILE = st.sampled_from([
    "-1", "-2.5", "-1e3", "-2e-1", "-1e308", "-0.0", "0", "5e-324", "-5e-324",
    "2.2250738585072014e-308", "1e308", "1.7976931348623157e308", "1e400", "nan", "-nan",
    "inf", "-inf", "Infinity", "9" * 30, "-" + "9" * 30, "1" + "0" * 400, "", "x", "1_0",
    " 2 ", "0x10"])
H_GRIDS = st.one_of(
    st.sampled_from(["", ",", "1,,2", "1,2,", ",1", " ", "1;2"]),
    st.lists(st.one_of(HOSTILE, st.sampled_from(["0.5", "1", "2", "4"])),
             min_size=1, max_size=4).map(",".join))
TYPICAL = {
    "--t0": ["1", "2", "4"], "--s0": ["6", "4", "8", "30"], "--h": ["2", "3", "1"],
    "--alpha": ["0.05", "0.1"], "--T": ["8", "12"], "--t-step": ["1", "2"],
    "--h-grid": ["1,2", "0.5,1,2,4"], "--folds": ["2", "3", "5"], "--gamma": ["0.05", "0.2"],
    "--seed": ["0", "3"], "--threads": ["1", "2"], "--transform": ["none", "log1000"],
    "--format": ["csv", "json"], "--quadrature-n": ["64", "100", "256"],
    "--title": ["", "coverage", "a <b> & \"c\""],
}
STUDY = "n = 40\nseed = 6\nreplications = 1\nh_policy = fixed\nh_fixed = 2.5\n"
CONFIGS = {"study": STUDY + "grid = points\npoints = 2:7\n",
           "repeated": STUDY + "grid = slices\nslice_T = 8,8.0000001\nslice_t_step = 4\n"}
OPTIONS = {
    "fit": ["--data", "--t0", "--s0", "--h", "--alpha", "--transform", "--format"],
    "slice": ["--data", "--T", "--t-step", "--h", "--alpha", "--out-dir", "--svg",
              "--transform", "--format"],
    "cv": ["--data", "--h-grid", "--folds", "--gamma", "--seed", "--threads", "--transform",
           "--format"],
    "kernel-moments": ["--quadrature-n", "--format"],
    "heatmap": ["--coverage", "--out", "--title"],
    "simulate": ["--config", "--out", "--truth-out", "--seed"],
    "study": ["--config", "--out-dir", "--no-resume", "--seed", "--threads"],
}
REQUIRED = {"--data", "--t0", "--s0", "--h", "--T", "--coverage", "--out", "--config"}
FLAGS = {"--svg", "--no-resume"}
SIMULATED = ["{work}/c.csv"] * 3 + ["{work}/t.csv"] * 2 + ["{work}", "{work}/a_file/x.csv"]
UNKNOWN = ["--bogus", "--seed", "--svg", "--h-grid", "--T", "--t0", "-x"]  # none writes a file


@pytest.fixture(scope="module")
def work():
    with tempfile.TemporaryDirectory() as root:
        cohort, _ = gen_dataset(SimConfig(n=80, seed=5))
        write_dataset_csv(cohort, os.path.join(root, "cohort.csv"))
        with open(os.path.join(root, "a_file"), "w", encoding="utf-8"):
            pass
        for name, text in CONFIGS.items():
            with open(os.path.join(root, name + ".conf"), "w", encoding="utf-8") as fh:
                fh.write(text)
        for name, rows in (("coverage", ["1,5,0.9,2", "3,5,,0", "1,7,1,2", "3,7,0.5,2"]),
                           ("ragged", ["1,5,0.9,2", "3,5,1,2", "1,7,1,2"])):
            with open(os.path.join(root, name + ".csv"), "w", encoding="utf-8") as fh:
                fh.write("# coefficient=1\nt,s,coverage,valid\n" + "\n".join(rows) + "\n")
        yield root


def _value(draw, sub, option):
    """A value of sub's option as an argv text; {work} stands for the cohort's directory."""
    if option == "--data":
        return draw(st.sampled_from(["{work}/cohort.csv"] * 10 + ["{work}/missing.csv", "{work}"]))
    if option == "--config":
        return draw(st.sampled_from(["{work}/study.conf"] * 6 + ["{work}/repeated.conf",
                                                                 "{work}/cohort.csv"]))
    if option == "--out-dir":
        return draw(st.sampled_from(["{work}/out/" + sub, "{work}/a_file", "{work}/a_file/x"]))
    if sub == "simulate" and option in ("--out", "--truth-out"):  # one file twice at times
        return draw(st.sampled_from(SIMULATED))
    if option in ("--coverage", "--out"):  # a bad file one time in five
        if draw(st.integers(0, 4)):
            return "{work}/coverage.csv" if option == "--coverage" else "{work}/heat.svg"
        return draw(st.sampled_from(["{work}/ragged.csv", "{work}/cohort.csv", "{work}/missing.csv",
                                     "{work}"] if option == "--coverage"
                                    else ["{work}/a_file/x.svg", "{work}"]))
    hostile = draw(st.integers(0, 9)) == 0
    if option == "--transform" or option == "--format":
        return "bogus" if hostile else draw(st.sampled_from(TYPICAL[option]))
    if hostile:
        return draw(H_GRIDS if option == "--h-grid" else HOSTILE)
    return draw(st.sampled_from(TYPICAL[option]))


@st.composite
def command_lines(draw):
    """Each option is absent, once or twice; a required one is absent about one time in
    twenty, and a value is hostile about one time in ten."""
    sub = draw(st.sampled_from(sorted(OPTIONS)))
    argv = [sub]
    for option in OPTIONS[sub]:
        required = option in REQUIRED or (sub, option) == ("study", "--out-dir")
        kind = draw(st.sampled_from(["absent"] + ["once"] * 18 + ["twice"] if required
                                    else ["absent"] * 3 + ["once"] * 2 + ["twice"]))
        for _ in range({"absent": 0, "once": 1, "twice": 2}[kind]):
            if option in FLAGS:
                argv.append(option)
                continue
            value = _value(draw, sub, option)
            argv += [f"{option}={value}"] if draw(st.booleans()) else [option, value]
    if draw(st.integers(0, 9)) == 0:
        argv += [draw(st.sampled_from(UNKNOWN)), draw(st.sampled_from(["1", "-1e3", "x"]))]
    return argv


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error", RuntimeWarning)
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _refuse(name):
    raise ValueError(f"{name} is not JSON")


def _assert_table(argv, out):
    """The table printed by a command that succeeded: strict JSON whose rows all have the
    same keys, or CSV with a header and rows of as many cells."""
    fmt = "csv"  # argparse keeps the last --format
    for option, value in zip(argv, argv[1:] + [""]):
        if option == "--format":
            fmt = value
        elif option.startswith("--format="):
            fmt = option.split("=", 1)[1]
    if fmt == "json":
        payload = json.loads(out, parse_constant=_refuse)
        assert sorted(payload) == ["meta", "rows"] and payload["rows"], (argv, out)
        assert len({tuple(sorted(row)) for row in payload["rows"]}) == 1, (argv, out)
        return
    lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
    assert len(lines) > 1, (argv, out)
    assert {len(ln.split(",")) for ln in lines} == {len(lines[0].split(","))}, (argv, out)


def _outputs(root):
    """Every path below root, with the bytes of each file."""
    found = {}
    for folder, _, names in os.walk(root):
        found[folder] = None
        for name in names:
            with open(os.path.join(folder, name), "rb") as fh:
                found[os.path.join(folder, name)] = fh.read()
    return found


@settings(max_examples=500, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(argv=command_lines())
def test_any_command_line_exits_with_a_documented_code_and_one_json_error(work, argv):
    argv = [a.replace("{work}", work) for a in argv]
    before = _outputs(work)
    try:
        code, out, err = _run(argv)
        assert code in (0, 2, 3, 4), (argv, code, err)
        errors = [json.loads(ln) for ln in err.splitlines() if ln.startswith("{")]
        assert [e["code"] for e in errors] == ([] if code == 0 else [code]), (argv, err)
        if code:
            assert out == "" and err.endswith("\n") and err.splitlines()[-1].startswith("{")
            assert _outputs(work) == before, (argv, err)
        elif argv[0] in ("heatmap", "simulate", "study") or any(a.startswith("--out-dir")
                                                                for a in argv):
            assert out == "", (argv, out)
        else:
            _assert_table(argv, out)
    finally:
        for made in sorted(set(_outputs(work)) - set(before), reverse=True):
            (os.rmdir if os.path.isdir(made) else os.remove)(made)
