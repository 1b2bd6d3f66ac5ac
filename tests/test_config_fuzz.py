"""Config fuzz: `vcterm simulate` and `vcterm study` on drawn config texts exit with a
documented code, print one JSON error line on failure, raise no RuntimeWarning, and leave
no output after a data error.

Every key of config._KEYS is drawn with its parser's type: subnormals, +-1e308, nan and
inf text, huge integers, and empty or ragged lists. A draw stays cheap: n <= 40, R <= 2,
and at most 4 grid points, unless the grid is too large to build at all.
"""

import contextlib
import io
import json
import math
import os
import tempfile
import warnings
from dataclasses import fields

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vcterm import config
from vcterm.cli import main
from vcterm.experiments import MAX_GRID_POINTS, StudyConfig
from vcterm.simulate import SimConfig

HOSTILE_FLOATS = st.sampled_from([
    "5e-324", "-5e-324", "2.2250738585072014e-308", "1e-300", "1e-160", "1e308", "-1e308",
    "1.7976931348623157e308", "1e400", "nan", "-nan", "inf", "-inf", "Infinity", "-0.0", "0",
    "", "x", "1_0", " 2 "])
HOSTILE = {
    int: st.sampled_from(["0", "-1", "2147483648", "9223372036854775808", "-" + "9" * 30,
                          "1" + "0" * 400, "1.5", "nan", "", "0x10", "1_000"]),
    float: HOSTILE_FLOATS,
    config._floats: st.lists(st.one_of(HOSTILE_FLOATS, st.floats(-20, 20).map(repr)),
                             max_size=4).map(",".join),
    config._points: st.one_of(
        st.lists(st.tuples(HOSTILE_FLOATS, HOSTILE_FLOATS).map(":".join), max_size=4).map(";".join),
        st.sampled_from(["1:2:3", ";", "1;2", ":"])),
    config._bool: st.sampled_from(["maybe", "", "2", "TRUE "]),
    str: st.sampled_from(["", "x", "Constant", "cv", "hex", "fixed ", "SLICES"]),
}
# keys whose values set the cost of a run: n <= 40, R <= 2 and m <= 25, or past their caps
HOSTILE.update({
    "n": st.sampled_from(["-2", "0", "1", "", "nan", "1e3", "100000000"]),
    "m": st.sampled_from(["-1", "0", "1", "723", "10" * 20]),
    "replications": st.sampled_from(["-1", "0", "100001", "10" * 20, "2.0"]),
})
# a typical value per key: its default (a small cohort and grid where it has none), and
# the other choices of a key with a few
TYPICAL = {
    **{f.name: f.default for f in fields(SimConfig)}, "n": 40, "m": 12,
    **{key: getattr(StudyConfig, key, None) for key in ("gamma", "alpha")},
    "replications": 2, "h_fixed": 2.5, "cv_h_grid": (0.5, 1.0, 2.0), "cv_folds": 3,
    "cv_seed": 0, "slice_T": (8.0, 12.0), "slice_t_step": 1.0, "rect_t": (1.0, 2.0),
    "rect_s": (6.0, 8.0), "points": "1:8;2:7",
}
CHOICES = {"beta_mode": ["surfaces", "constant"], "h_policy": ["fixed", "cv-once", "cv-per-rep"],
           "grid": ["points", "rect", "slices"], "zero_errors": ["false", "true"]}


def _typical(key):
    if key in CHOICES:
        return st.sampled_from(CHOICES[key])
    value = TYPICAL[key]
    if isinstance(value, str):
        return st.just(value)
    if isinstance(value, tuple):
        return st.sampled_from([1.0, 0.5, 2.0]).map(lambda f: ",".join(repr(v * f) for v in value))
    if isinstance(value, int):
        return st.sampled_from([value, max(value // 2, 2)]).map(str)
    return st.sampled_from([1.0, 0.5, 2.0]).map(lambda f: repr(value * f))


@st.composite
def config_texts(draw):
    """Each key is left out, typical or, about one key in forty, hostile; n and
    replications are always there."""
    values = {}
    for key, (_, _, parse) in config._KEYS.items():
        kind = draw(st.sampled_from(["absent"] * 3 + ["typical"] * 2 + ["hostile"]))
        if key in ("n", "replications") or kind != "absent":
            hostile = kind == "hostile" and draw(st.integers(0, 6)) == 0
            values[key] = draw(HOSTILE.get(key, HOSTILE[parse]) if hostile else _typical(key))
    kind = values.get("grid", "slices")
    if kind == "points":
        values.setdefault("points", TYPICAL["points"])
    if kind == "rect":
        values.setdefault("rect_t", "1,2")
        values.setdefault("rect_s", "6,8")
    if kind == "slices":
        size = _slice_points(values)
        if size is not None and 4 < size <= MAX_GRID_POINTS:  # one slice of one point
            T = max(float(v) for v in values.get("slice_T", "8,12,16").split(","))
            values["slice_T"], values["slice_t_step"] = repr(T), repr(T / 2)
    return "".join(f"{key} = {value}\n" for key, value in values.items())


def _slice_points(values):
    """The points of a slices grid, or None where it cannot be built."""
    try:
        Ts = [float(v) for v in values.get("slice_T", "8,12,16").split(",")]
        step = float(values.get("slice_t_step", "1"))
    except ValueError:
        return None
    if not (step > 0 and math.isfinite(step) and all(map(math.isfinite, Ts))):
        return None
    return sum(min((T - 1e-9) // step, MAX_GRID_POINTS + 1) for T in Ts if T > 1e-9)


def _run(argv):
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error", RuntimeWarning)
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(config_texts())
def test_any_config_exits_with_a_documented_code_and_one_json_error(text):
    with tempfile.TemporaryDirectory() as work:
        cfg = os.path.join(work, "drawn.conf")
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write(text)
        for sub, flag in (("simulate", "--out"), ("study", "--out-dir")):
            out = os.path.join(work, sub + ".out")
            code, err = _run([sub, "--config", cfg, flag, out])
            assert code in (0, 2, 3, 4), (sub, code, err)
            errors = [json.loads(line) for line in err.splitlines() if line.startswith("{")]
            assert [e["code"] for e in errors] == ([] if code == 0 else [code]), (sub, err)
            if code == 3:
                assert not os.path.exists(out), (sub, err)
