"""Plain `key = value` configuration files for simulation and study runs.

Lines starting with # are comments. Unknown keys are rejected so typos
fail loudly. List values are comma separated; grid points use `t:s`
pairs separated by semicolons.
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


_SIM_KEYS = {
    "n": _to_int,
    "m": _to_int,
    "p": _to_int,
    "nu": _to_float,
    "seed": _to_int,
    "event_coefs": _to_floats,
    "censor_coefs": _to_floats,
    "truncation": _to_float,
    "shift": _to_float,
    "error_var_params": _to_floats,
    "error_corr_base": _to_float,
    "white_noise_var": _to_float,
    "zero_errors": _to_bool,
    "beta_mode": lambda k, t: t,
    "constant_beta": _to_floats,
}

_STUDY_KEYS = {
    "replications": _to_int,
    "h_policy": lambda k, t: t,
    "h_fixed": _to_float,
    "gamma": _to_float,
    "alpha": _to_float,
    "grid": lambda k, t: t,
    "slice_T": _to_floats,
    "slice_t_step": _to_float,
    "rect_t": _to_floats,
    "rect_s": _to_floats,
    "points": _to_points,
    "cv_h_grid": _to_floats,
    "cv_folds": _to_int,
    "cv_seed": _to_int,
}


def _convert(mapping: dict[str, str], allowed: dict) -> dict:
    out = {}
    for key, text in mapping.items():
        if key not in allowed:
            raise DataError(f"unknown config key {key!r}")
        out[key] = allowed[key](key, text)
    return out


def sim_config_from_mapping(mapping: dict[str, str], seed_override: int | None = None
                            ) -> SimConfig:
    """Build a SimConfig; study-level keys are tolerated and ignored."""
    sim_only = {k: v for k, v in mapping.items() if k in _SIM_KEYS}
    rest = {k: v for k, v in mapping.items() if k not in _SIM_KEYS}
    _convert(rest, _STUDY_KEYS)  # validates that leftovers are study keys
    values = _convert(sim_only, _SIM_KEYS)
    if "n" not in values:
        raise DataError("config is missing required key 'n'")
    if seed_override is not None:
        values["seed"] = int(seed_override)
    try:
        return SimConfig(**values)
    except ValueError as exc:
        raise DataError(f"invalid simulation config: {exc}") from exc


def study_config_from_mapping(mapping: dict[str, str], seed_override: int | None = None
                              ) -> StudyConfig:
    sim = sim_config_from_mapping(mapping, seed_override=seed_override)
    values = _convert({k: v for k, v in mapping.items() if k in _STUDY_KEYS},
                      _STUDY_KEYS)
    if "replications" not in values:
        raise DataError("study config is missing required key 'replications'")

    grid_kwargs = {key: values.pop(key) for key in
                   ("slice_T", "slice_t_step", "rect_t", "rect_s", "points") if key in values}
    grid_kwargs["kind"] = values.pop("grid", "slices")
    cv_kwargs = {}
    if "cv_h_grid" in values:
        cv_kwargs["h_grid"] = values.pop("cv_h_grid")
    if "cv_folds" in values:
        cv_kwargs["folds"] = values.pop("cv_folds")
    if "cv_seed" in values:
        cv_kwargs["seed"] = values.pop("cv_seed")
    try:
        grid = GridSpec(**grid_kwargs)
        cv = CvSettings(**cv_kwargs)
        return StudyConfig(sim=sim, grid=grid, cv=cv, **values)
    except ValueError as exc:
        raise DataError(f"invalid study config: {exc}") from exc


def load_sim_config(path: str, seed_override: int | None = None) -> SimConfig:
    return sim_config_from_mapping(load_kv_file(path), seed_override=seed_override)


def load_study_config(path: str, seed_override: int | None = None) -> StudyConfig:
    return study_config_from_mapping(load_kv_file(path), seed_override=seed_override)

