"""Plain `key = value` configuration files for simulation and study runs.

Lines starting with # are comments. Unknown keys are rejected so typos
fail loudly. List values are comma separated; grid points use `t:s`
pairs separated by semicolons. One table, `_KEYS`, names each key's
section (sim, study, grid or cv), field and parser.
"""

from __future__ import annotations

from .errors import DataError
from .experiments import CvSettings, GridSpec, StudyConfig
from .io import read_text
from .simulate import SimConfig


def parse_kv_text(text: str, origin: str = "<config>") -> dict[str, str]:
    out: dict[str, str] = {}
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DataError(f"{origin} line {i}: expected key = value, got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise DataError(f"{origin} line {i}: empty key")
        if key in out:
            raise DataError(f"{origin} line {i}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def load_kv_file(path: str) -> dict[str, str]:
    return parse_kv_text(read_text(path), origin=path)


def _bool(text):
    low = text.lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError(text)


def _floats(text):
    return tuple(float(part) for part in text.split(",")) if text else ()


def _points(text):
    pairs = [chunk.split(":") for chunk in text.split(";") if chunk.strip()]
    if not pairs or any(len(pair) != 2 for pair in pairs):
        raise ValueError(text)
    return tuple((float(t), float(s)) for t, s in pairs)


# what each parser expects, for the one message of a value it rejects
_KINDS = {int: "integer", float: "number", _bool: "true/false",
          _floats: "comma-separated numbers", _points: "t:s pairs separated by ';'"}

_KEYS = {  # key -> (section, field, parser); sections: sim, study, grid, cv
    "n": ("sim", "n", int),
    "m": ("sim", "m", int),
    "p": ("sim", "p", int),
    "nu": ("sim", "nu", float),
    "seed": ("sim", "seed", int),
    "event_coefs": ("sim", "event_coefs", _floats),
    "censor_coefs": ("sim", "censor_coefs", _floats),
    "truncation": ("sim", "truncation", float),
    "shift": ("sim", "shift", float),
    "error_var_params": ("sim", "error_var_params", _floats),
    "error_corr_base": ("sim", "error_corr_base", float),
    "white_noise_var": ("sim", "white_noise_var", float),
    "zero_errors": ("sim", "zero_errors", _bool),
    "beta_mode": ("sim", "beta_mode", str),
    "constant_beta": ("sim", "constant_beta", _floats),
    "replications": ("study", "replications", int),
    "h_policy": ("study", "h_policy", str),
    "h_fixed": ("study", "h_fixed", float),
    "gamma": ("study", "gamma", float),
    "alpha": ("study", "alpha", float),
    "grid": ("grid", "kind", str),
    "slice_T": ("grid", "slice_T", _floats),
    "slice_t_step": ("grid", "slice_t_step", float),
    "rect_t": ("grid", "rect_t", _floats),
    "rect_s": ("grid", "rect_s", _floats),
    "points": ("grid", "points", _points),
    "cv_h_grid": ("cv", "h_grid", _floats),
    "cv_folds": ("cv", "folds", int),
    "cv_seed": ("cv", "seed", int),
}


def _parse(mapping: dict[str, str]) -> dict[str, dict]:
    """Values by section and field; raises at an unknown key or bad value, study keys first."""
    values = {"sim": {}, "study": {}, "grid": {}, "cv": {}}
    for key in sorted(mapping, key=lambda k: _KEYS.get(k, ("",))[0] == "sim"):
        if key not in _KEYS:
            raise DataError(f"unknown config key {key!r}")
        section, name, parse = _KEYS[key]
        try:
            values[section][name] = parse(mapping[key])
        except ValueError:
            raise DataError(f"config key {key}: expected {_KINDS[parse]}, "
                            f"got {mapping[key]!r}") from None
    return values


def _sim_config(values: dict, seed_override: int | None) -> SimConfig:
    if "n" not in values:
        raise DataError("config is missing required key 'n'")
    if seed_override is not None:
        values["seed"] = int(seed_override)
    try:
        return SimConfig(**values)
    except ValueError as exc:
        raise DataError(f"invalid simulation config: {exc}") from exc


def sim_config_from_mapping(mapping: dict[str, str], seed_override: int | None = None
                            ) -> SimConfig:
    """Build a SimConfig; study-level keys are checked and ignored."""
    return _sim_config(_parse(mapping)["sim"], seed_override)


def study_config_from_mapping(mapping: dict[str, str], seed_override: int | None = None
                              ) -> StudyConfig:
    values = _parse(mapping)
    sim = _sim_config(values["sim"], seed_override)
    if "replications" not in values["study"]:
        raise DataError("study config is missing required key 'replications'")
    try:
        return StudyConfig(sim=sim, grid=GridSpec(**values["grid"]),
                           cv=CvSettings(**values["cv"]), **values["study"])
    except (ValueError, DataError) as exc:  # DataError: a slice with no points
        raise DataError(f"invalid study config: {exc}") from exc


def load_sim_config(path: str, seed_override: int | None = None) -> SimConfig:
    return sim_config_from_mapping(load_kv_file(path), seed_override=seed_override)


def load_study_config(path: str, seed_override: int | None = None) -> StudyConfig:
    return study_config_from_mapping(load_kv_file(path), seed_override=seed_override)

