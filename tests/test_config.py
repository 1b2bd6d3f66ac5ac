import pytest

from vcterm import DataError, SimConfig
from vcterm.config import (_KEYS, load_sim_config, load_study_config, parse_kv_text,
                           sim_config_from_mapping, study_config_from_mapping)


def test_parse_kv_text_basics():
    text = "# comment\nn = 40\n\nseed=7\nbeta_mode =constant\n"
    assert parse_kv_text(text) == {"n": "40", "seed": "7",
                                   "beta_mode": "constant"}


def test_parse_kv_text_errors():
    with pytest.raises(DataError):
        parse_kv_text("just words\n")
    with pytest.raises(DataError):
        parse_kv_text("= 3\n")
    with pytest.raises(DataError):
        parse_kv_text("n = 1\nn = 2\n")


def test_sim_config_from_mapping():
    cfg = sim_config_from_mapping({"n": "30", "zero_errors": "true",
                                   "constant_beta": "2,-1,0.5"})
    assert cfg.n == 30
    assert cfg.zero_errors is True
    assert cfg.constant_beta == (2.0, -1.0, 0.5)
    assert cfg.seed == 0


def test_sim_config_seed_override():
    cfg = sim_config_from_mapping({"n": "30", "seed": "5"}, seed_override=99)
    assert cfg.seed == 99


def test_sim_config_tolerates_study_keys():
    cfg = sim_config_from_mapping({"n": "30", "replications": "10",
                                   "h_policy": "fixed", "h_fixed": "2"})
    assert cfg.n == 30


def test_sim_config_errors():
    with pytest.raises(DataError):
        sim_config_from_mapping({})  # missing n
    with pytest.raises(DataError):
        sim_config_from_mapping({"n": "30", "banana": "1"})
    with pytest.raises(DataError):
        sim_config_from_mapping({"n": "lots"})
    with pytest.raises(DataError):
        sim_config_from_mapping({"n": "30", "nu": "0.9"})  # invalid value


def test_study_config_from_mapping_full():
    mapping = {
        "n": "50", "seed": "3", "replications": "4",
        "h_policy": "fixed", "h_fixed": "2.5", "alpha": "0.1",
        "grid": "points", "points": "1:9; 2:8",
        "cv_h_grid": "1,2,3", "cv_folds": "3", "cv_seed": "11",
    }
    cfg = study_config_from_mapping(mapping)
    assert cfg.sim.n == 50
    assert cfg.replications == 4
    assert cfg.h_fixed == 2.5
    assert cfg.alpha == 0.1
    assert cfg.grid.kind == "points"
    assert cfg.grid.points == ((1.0, 9.0), (2.0, 8.0))
    assert cfg.cv.h_grid == (1.0, 2.0, 3.0)
    assert cfg.cv.folds == 3
    assert cfg.cv.seed == 11


def test_study_config_defaults_to_slices():
    cfg = study_config_from_mapping({"n": "50", "replications": "2",
                                     "h_policy": "fixed", "h_fixed": "2"})
    assert cfg.grid.kind == "slices"
    assert cfg.grid.slice_T == (8.0, 12.0, 16.0)
    assert cfg.h_policy == "fixed"


def test_study_config_errors():
    base = {"n": "50", "replications": "2"}
    with pytest.raises(DataError):
        study_config_from_mapping({"n": "50"})  # no replications
    with pytest.raises(DataError):
        study_config_from_mapping({**base, "h_policy": "fixed"})  # no h_fixed
    with pytest.raises(DataError):
        study_config_from_mapping({**base, "points": "1-9"})
    with pytest.raises(DataError):
        study_config_from_mapping({**base, "grid": "mesh"})
    with pytest.raises(DataError):
        study_config_from_mapping({**base, "alpha": "2.0"})


@pytest.mark.parametrize("key, text, kind", [
    ("n", "lots", "integer"),
    ("nu", "tiny", "number"),
    ("zero_errors", "maybe", "true/false"),
    ("event_coefs", "1,,2", "comma-separated numbers"),
    ("points", "1:9; 2-8", "t:s pairs separated by ';'"),
    ("points", ";", "t:s pairs separated by ';'"),
])
def test_a_bad_value_names_its_key_and_what_its_parser_expects(key, text, kind):
    with pytest.raises(DataError) as info:
        study_config_from_mapping({"n": "30", "replications": "1", **{key: text}})
    assert str(info.value) == f"config key {key}: expected {kind}, got {text!r}"


def test_study_alpha_whose_quantile_rounds_away_is_named():
    with pytest.raises(DataError, match="^invalid study config: alpha=1e-300 is too small"):
        study_config_from_mapping({"n": "30", "replications": "1", "alpha": "1e-300"})


def test_canonical_sim_config_text_parses_every_key():
    cfg = SimConfig(n=17, m=6, nu=0.02, seed=23, shift=4.5,
                    event_coefs=(2.0, 0.5, -4.0), zero_errors=True,
                    beta_mode="constant", constant_beta=(1.0, 2.0, 3.0))
    # every simulation key, floats written with 17 significant digits
    text = ("n = 17\nm = 6\np = 3\nnu = 0.02\nseed = 23\nevent_coefs = 2,0.5,-4\n"
            "censor_coefs = 1,3,-5\ntruncation = 15\nshift = 4.5\n"
            "error_var_params = 1,-0.10000000000000001\nerror_corr_base = 0.5\n"
            "white_noise_var = 1\nzero_errors = true\nbeta_mode = constant\n"
            "constant_beta = 1,2,3\n")
    mapping = parse_kv_text(text)
    assert set(mapping) == {key for key, (section, _, _) in _KEYS.items() if section == "sim"}
    assert sim_config_from_mapping(mapping) == cfg


def test_load_config_files(tmp_path):
    path = tmp_path / "sim.conf"
    path.write_text("n = 12\nseed = 9\n", encoding="utf-8")
    cfg = load_sim_config(str(path))
    assert (cfg.n, cfg.seed) == (12, 9)

    spath = tmp_path / "study.conf"
    spath.write_text("n = 12\nreplications = 2\nh_policy = fixed\n"
                     "h_fixed = 2\ngrid = points\npoints = 1:7\n",
                     encoding="utf-8")
    scfg = load_study_config(str(spath))
    assert scfg.replications == 2
    assert scfg.grid.points == ((1.0, 7.0),)

    with pytest.raises(DataError):
        load_sim_config(str(tmp_path / "missing.conf"))
