"""Plain `key = value` configuration files for simulation and study runs.

Lines starting with # are comments. Unknown keys are rejected so typos
fail loudly. List values are comma separated; grid points use `t:s`
pairs separated by semicolons. One table, `_KEYS`, names each key's
section (sim, study, grid or cv), field and parser.
"""

from __future__ import annotations

from .errors import DataError
from .experiments import CvSettings, GridSpec, StudyConfig
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
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_kv_text(fh.read(), origin=path)
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc


def _to_int(key, text):
    try:
        return int(text)
    except ValueError:
        raise DataError(f"config key {key}: expected integer, got {text!r}")


def _to_float(key, text):
    try:
        return float(text)
    except ValueError:
        raise DataError(f"config key {key}: expected number, got {text!r}")


def _to_bool(key, text):
    low = text.lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise DataError(f"config key {key}: expected true/false, got {text!r}")


def _to_floats(key, text):
    if not text:
        return ()
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise DataError(f"config key {key}: expected comma-separated numbers, got {text!r}")


def _to_points(key, text):
    pts = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) != 2:
            raise DataError(f"config key {key}: expected t:s pairs, got {chunk!r}")
        try:
            pts.append((float(parts[0]), float(parts[1])))
        except ValueError:
            raise DataError(f"config key {key}: expected t:s pairs, got {chunk!r}")
    if not pts:
        raise DataError(f"config key {key}: no points given")
    return tuple(pts)


def _to_text(key, text):
    return text


_KEYS = {  # key -> (section, field, parser); sections: sim, study, grid, cv
    "n": ("sim", "n", _to_int),
    "m": ("sim", "m", _to_int),
    "p": ("sim", "p", _to_int),
    "nu": ("sim", "nu", _to_float),
    "seed": ("sim", "seed", _to_int),
    "event_coefs": ("sim", "event_coefs", _to_floats),
    "censor_coefs": ("sim", "censor_coefs", _to_floats),
    "truncation": ("sim", "truncation", _to_float),
    "shift": ("sim", "shift", _to_float),
    "error_var_params": ("sim", "error_var_params", _to_floats),
    "error_corr_base": ("sim", "error_corr_base", _to_float),
    "white_noise_var": ("sim", "white_noise_var", _to_float),
    "zero_errors": ("sim", "zero_errors", _to_bool),
    "beta_mode": ("sim", "beta_mode", _to_text),
    "constant_beta": ("sim", "constant_beta", _to_floats),
    "replications": ("study", "replications", _to_int),
    "h_policy": ("study", "h_policy", _to_text),
    "h_fixed": ("study", "h_fixed", _to_float),
    "gamma": ("study", "gamma", _to_float),
    "alpha": ("study", "alpha", _to_float),
    "grid": ("grid", "kind", _to_text),
    "slice_T": ("grid", "slice_T", _to_floats),
    "slice_t_step": ("grid", "slice_t_step", _to_float),
    "rect_t": ("grid", "rect_t", _to_floats),
    "rect_s": ("grid", "rect_s", _to_floats),
    "points": ("grid", "points", _to_points),
    "cv_h_grid": ("cv", "h_grid", _to_floats),
    "cv_folds": ("cv", "folds", _to_int),
    "cv_seed": ("cv", "seed", _to_int),
}


def _parse(mapping: dict[str, str]) -> dict[str, dict]:
    """Values by section and field; raises at an unknown key or bad value, study keys first."""
    values = {"sim": {}, "study": {}, "grid": {}, "cv": {}}
    for key in sorted(mapping, key=lambda k: _KEYS.get(k, ("",))[0] == "sim"):
        if key not in _KEYS:
            raise DataError(f"unknown config key {key!r}")
        section, name, parse = _KEYS[key]
        values[section][name] = parse(key, mapping[key])
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
    except ValueError as exc:
        raise DataError(f"invalid study config: {exc}") from exc


def load_sim_config(path: str, seed_override: int | None = None) -> SimConfig:
    return sim_config_from_mapping(load_kv_file(path), seed_override=seed_override)


def load_study_config(path: str, seed_override: int | None = None) -> StudyConfig:
    return study_config_from_mapping(load_kv_file(path), seed_override=seed_override)

