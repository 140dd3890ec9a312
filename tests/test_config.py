"""Run configuration: INI parsing, CLI overrides, validation, canonical hash."""

import configparser
import dataclasses
from enum import Enum
from pathlib import Path
from typing import Mapping

import pytest

from fuzztriage.alerts import CfMode
from fuzztriage.config import (
    KEYS,
    DatasetConfig,
    DetectorConfig,
    DetectorMode,
    EvaluationConfig,
    RankingConfig,
    RunConfig,
    artifact_stamp,
    canonical_lines,
    config_hash,
    load_config,
)
from fuzztriage.errors import ConfigError, ValidationError
from fuzztriage.evaluation import ScenarioKind
from fuzztriage.ingestion import SplitMode
from fuzztriage.pipeline import cmd_prepare

README = Path(__file__).resolve().parents[1] / "README.md"


def write_ini(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestDefaults:
    def test_no_file_gives_documented_defaults(self):
        config = load_config(None)
        assert config.seed == 42
        assert config.out_dir == "results"
        assert config.dataset.source == "synth"
        assert config.split.mode is None
        assert config.split.fractions == (0.5, 0.2, 0.3)
        assert config.detector.mode is DetectorMode.TRAIN_FULL
        assert config.ranking.kappas == (1.0,)
        assert config.ranking.cf_mode is CfMode.CONTINUOUS
        assert config.evaluation.cutoffs == (10, 50, 100, 500)
        assert config.evaluation.bands == ((0.3, 0.5), (0.5, 0.7), (0.7, 1.0))
        assert config.evaluation.bootstrap_k == 500
        assert config.evaluation.scenarios == tuple(ScenarioKind)
        assert config.evaluation.sweep is False

    def test_cli_overrides_without_file(self):
        config = load_config(None, seed=9, out_dir="elsewhere", kappas=[0.0, 2.0])
        assert config.seed == 9
        assert config.out_dir == "elsewhere"
        assert config.ranking.kappas == (0.0, 2.0)


class TestIniParsing:
    def test_full_file(self, tmp_path):
        path = write_ini(
            tmp_path,
            """
[run]
seed = 11
out_dir = out

[synth]
n_flows = 500
attack_fraction = 0.25

[split]
mode = stratified
fractions = 0.6, 0.2, 0.2

[detector]
mode = train_flags_only
l2_c = 2.5
max_iters = 300

[heights]
alpha = 0.7
h_min = 0.1
h_max = 0.9

[ranking]
kappa = 0.0, 1.0, 2.0
cf_mode = categorical
uf_scale = 1.2

[evaluation]
cutoffs = 10, 100
bands = 0.2-0.4, 0.4-1.0
bootstrap_k = 50
bootstrap_resamples = 200
bootstrap_seed = 3
scenarios = noise
noise_sd = 0.1
sweep = yes
""",
        )
        config = load_config(path)
        assert config.seed == 11
        assert config.out_dir == "out"
        assert config.synth.n_flows == 500
        assert config.synth.attack_fraction == 0.25
        assert config.split.mode is SplitMode.STRATIFIED
        assert config.split.fractions == (0.6, 0.2, 0.2)
        assert config.detector.mode is DetectorMode.TRAIN_FLAGS_ONLY
        assert config.detector.l2_c == 2.5
        assert config.detector.max_iters == 300
        assert config.heights.alpha == 0.7
        assert config.heights.h_min == 0.1
        assert config.heights.h_max == 0.9
        assert config.ranking.kappas == (0.0, 1.0, 2.0)
        assert config.ranking.cf_mode is CfMode.CATEGORICAL
        assert config.ranking.uf_scale == 1.2
        assert config.evaluation.cutoffs == (10, 100)
        assert config.evaluation.bands == ((0.2, 0.4), (0.4, 1.0))
        assert config.evaluation.bootstrap_k == 50
        assert config.evaluation.bootstrap_resamples == 200
        assert config.evaluation.bootstrap_seed == 3
        assert config.evaluation.scenarios == (ScenarioKind.NOISE,)
        assert config.evaluation.noise_sd == 0.1
        assert config.evaluation.sweep is True

    def test_cli_args_beat_file(self, tmp_path):
        path = write_ini(tmp_path, "[run]\nseed = 11\nout_dir = out\n[ranking]\nkappa = 1.5\n")
        config = load_config(path, seed=99, out_dir="cli_out", kappas=[0.5])
        assert config.seed == 99
        assert config.out_dir == "cli_out"
        assert config.ranking.kappas == (0.5,)

    def test_empty_file_equals_defaults(self, tmp_path):
        path = write_ini(tmp_path, "")
        assert load_config(path) == load_config(None)

    def test_auto_split_mode_maps_to_none(self, tmp_path):
        path = write_ini(tmp_path, "[split]\nmode = auto\n")
        assert load_config(path).split.mode is None

    def test_readme_example_is_the_defaults(self, tmp_path):
        text = README.read_text(encoding="utf-8").split("## Configuration", 1)[1]
        block = text.split("```ini\n", 1)[1].split("```", 1)[0]
        assert load_config(write_ini(tmp_path, block)) == load_config(None)
        parser = configparser.ConfigParser(interpolation=None)
        parser.read_string(block)
        named = {(section, key) for section in parser.sections() for key in parser.options(section)}
        settable = {
            (section, key)
            for section, keys in KEYS.items()
            for key, (_, codec) in keys.items()
            if codec.parse
        }
        assert named == settable


class TestIniErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="config file does not exist"):
            load_config(tmp_path / "nope.ini")

    def test_unknown_section(self, tmp_path):
        path = write_ini(tmp_path, "[rankings]\nkappa = 1.0\n")
        with pytest.raises(ConfigError, match=r"unknown section \[rankings\]"):
            load_config(path)
        for body in ("[DEFAULT]\nseed = 1\n", "[DEFAULT]\nseed = 1\n[run]\nout_dir = r\n"):
            path = write_ini(tmp_path, body)
            with pytest.raises(ConfigError, match=r"unknown section \[DEFAULT\]"):
                load_config(path)

    def test_unknown_key(self, tmp_path):
        # run.seed is the only seed: the sections hold no copy to set
        for section, key in (("ranking", "kapa"), ("synth", "seed"), ("split", "seed")):
            path = write_ini(tmp_path, f"[{section}]\n{key} = 3\n")
            with pytest.raises(ConfigError, match=rf"unknown key\(s\) in \[{section}\]: {key}$"):
                load_config(path)

    @pytest.mark.parametrize(
        "body, message",
        [
            ("[run]\nseed = forty-two\n", "bad value for run.seed"),
            ("[run]\nseed = -5\n", r"run.ini: run.seed must be >= 0, got -5$"),
            ("[evaluation]\nbootstrap_seed = -3\n", "evaluation.bootstrap_seed must be >= 0"),
            ("[synth]\nattack_fraction = lots\n", "bad value for synth.attack_fraction"),
            ("[split]\nmode = weekly\n", "bad split.mode"),
            ("[split]\nfractions = 0.5, 0.5\n", "split.fractions needs three values"),
            ("[detector]\nmode = deep_net\n", "bad detector.mode"),
            ("[ranking]\ncf_mode = fuzzy\n", "bad ranking.cf_mode"),
            ("[evaluation]\nbands = 0.3:0.5\n", "bad evaluation.bands"),
            ("[evaluation]\nscenarios = meteor\n", "bad evaluation.scenarios"),
            ("[evaluation]\nsweep = maybe\n", "bad boolean for evaluation.sweep"),
            ("[evaluation]\nbands = 0.7-0.3\n", "bad evaluation.bands"),
            ("[evaluation]\nbands = -0.1-0.5\n", "bad evaluation.bands"),
            ("[evaluation]\nnoise_sd = inf\n", "evaluation.noise_sd must be finite"),
            ("[evaluation]\nnoise_sd = -1\n", "evaluation.noise_sd must be finite"),
            ("[evaluation]\ncutoffs = 10, 10\n", r"evaluation.cutoffs repeats a value: \(10, 10\)"),
            ("[evaluation]\nscenarios = noise, noise\n", "evaluation.scenarios repeats a value"),
            ("[evaluation]\nbands = 0.3-0.5, 0.3-0.5\n", "evaluation.bands repeats a value"),
            ("[ranking]\nkappa = 1, nan\n", "kappa must be finite"),
            ("[ranking]\nkappa = inf\n", "kappa must be finite"),
            ("[detector]\nmax_iters = 0\n", "max_iters must be >= 1"),
            ("[detector]\nl2_c = -1\n", "l2_c must be positive"),
            ("[detector]\ntol = nan\n", "tol must be finite"),
            ("[heights]\nalpha = 2\n", "alpha must lie in"),
        ],
    )
    def test_bad_values(self, tmp_path, body, message):
        path = write_ini(tmp_path, body)
        with pytest.raises(ConfigError, match=message):
            load_config(path)

    def test_invalid_synth_values_are_wrapped(self, tmp_path):
        path = write_ini(tmp_path, "[synth]\nn_flows = 0\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_csv_source_requires_existing_path(self, tmp_path):
        path = write_ini(tmp_path, "[dataset]\nsource = csv\npath = /no/such/flows.csv\n")
        with pytest.raises(ConfigError, match="dataset.path does not exist"):
            load_config(path)

    def test_csv_source_without_path(self, tmp_path):
        path = write_ini(tmp_path, "[dataset]\nsource = csv\n")
        with pytest.raises(ConfigError, match="dataset.source=csv requires dataset.path"):
            load_config(path)

    def test_missing_class_map_file(self, tmp_path):
        path = write_ini(tmp_path, "[dataset]\nclass_map = /no/such/map.csv\n")
        with pytest.raises(ConfigError, match="dataset.class_map does not exist"):
            load_config(path)

    def test_missing_catalog_file(self, tmp_path):
        path = write_ini(tmp_path, "[dataset]\ncatalog = /no/such/catalog.csv\n")
        with pytest.raises(ConfigError, match="dataset.catalog does not exist"):
            load_config(path)

    def test_external_scores_requires_existing_file(self, tmp_path):
        path = write_ini(
            tmp_path, "[detector]\nmode = external_scores\nscores_path = /no/such/scores.csv\n"
        )
        with pytest.raises(ConfigError, match="detector.scores_path does not exist"):
            load_config(path)

    def test_synth_path_ignored_when_source_synth(self, tmp_path):
        # the dataset path requirement only applies to the csv source
        path = write_ini(tmp_path, "[dataset]\nsource = synth\npath = /no/such/flows.csv\n")
        config = load_config(path)
        assert config.dataset.path == "/no/such/flows.csv"


class TestDataclassValidation:
    def test_dataset_source_must_be_known(self):
        with pytest.raises(ConfigError, match="dataset.source"):
            DatasetConfig(source="parquet")

    def test_external_mode_needs_scores_path(self):
        with pytest.raises(ConfigError, match="requires detector.scores_path"):
            DetectorConfig(mode=DetectorMode.EXTERNAL_SCORES)

    @pytest.mark.parametrize(
        "kwargs", [{"l2_c": 0.0}, {"max_iters": 0}, {"tol": float("nan")}, {"tol": float("inf")}]
    )
    def test_detector_config_rejects(self, kwargs):
        with pytest.raises(ValidationError):
            DetectorConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kappas": ()},
            {"kappas": (1.0, -0.5)},
            {"kappas": (float("nan"),)},
            {"kappas": (1.0, float("inf"))},
            {"kappas": (1.0, 1.0)},
            {"kappas": (1.0, 1.0000000000001)},
            {"uf_scale": 0.0},
            {"uf_scale": -1.0},
            {"uf_scale": float("inf")},
            {"uf_scale": float("nan")},
        ],
    )
    def test_ranking_config_rejects(self, kwargs):
        with pytest.raises(ConfigError):
            RankingConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"cutoffs": ()},
            {"cutoffs": (0, 10)},
            {"bootstrap_k": 0},
            {"bootstrap_resamples": 0},
            {"bootstrap_seed": -1},
            {"noise_sd": 0.0},
            {"noise_sd": float("inf")},
            {"noise_sd": float("nan")},
            {"cutoffs": (10, 100, 10)},
            {"scenarios": (ScenarioKind.NOISE, ScenarioKind.NOISE)},
            {"bands": ((0.3, 0.5), (0.3, 0.5))},
            {"bands": ((0.7, 0.3),)},
            {"bands": ((0.3, 0.5, 0.7),)},
            {"bands": ((0.5, 1.5),)},
        ],
    )
    def test_evaluation_config_rejects(self, kwargs):
        with pytest.raises(ConfigError):
            EvaluationConfig(**kwargs)

    def test_band_objects_close_only_the_top_band(self):
        bands = EvaluationConfig().band_objects()
        assert [b.closed for b in bands] == [False, False, True]
        assert bands[2].contains(1.0)
        assert not bands[1].contains(0.7)
        assert bands[1].contains(0.5)


class TestHashing:
    def test_hash_is_short_hex_and_deterministic(self):
        config = load_config(None)
        h = config_hash(config)
        assert len(h) == 12
        int(h, 16)
        assert config_hash(load_config(None)) == h

    def test_seed_changes_hash(self):
        assert config_hash(load_config(None, seed=1)) != config_hash(load_config(None, seed=2))

    def test_out_dir_does_not_change_hash(self):
        base = load_config(None)
        moved = dataclasses.replace(base, out_dir="somewhere/else")
        assert config_hash(moved) == config_hash(base)
        assert canonical_lines(moved) == canonical_lines(base)

    def test_detector_mode_flips_exactly_one_line(self):
        base = load_config(None)
        flags_only = dataclasses.replace(base.detector, mode=DetectorMode.TRAIN_FLAGS_ONLY)
        stress = dataclasses.replace(base, detector=flags_only)
        before = canonical_lines(base)
        after = canonical_lines(stress)
        assert len(before) == len(after)
        diffs = [(b, a) for b, a in zip(before, after) if b != a]
        assert diffs == [("detector.mode=train_full", "detector.mode=train_flags_only")]
        assert config_hash(stress) != config_hash(base)

    def test_hash_is_pinned(self):
        assert config_hash(load_config(None)) == "c50d31636d03"
        assert config_hash(load_config(None, seed=5)) == "ab579ab6ddbc"

    def test_every_hashed_field_changes_the_hash(self):
        base = load_config(None)
        # a dataset path lets dataset.source change to csv on its own
        base = dataclasses.replace(base, dataset=dataclasses.replace(base.dataset, path="f.csv"))
        changes = dict(_single_field_changes(base))
        moved = {name for name, config in changes.items() if config_hash(config) != config_hash(base)}
        # out_dir never shapes content
        assert changes.keys() - moved == {"run.out_dir"}

    def test_replaced_seed_writes_what_a_loaded_seed_writes(self, tmp_path):
        path = write_ini(tmp_path, "[synth]\nn_flows = 500\n")
        replaced = dataclasses.replace(load_config(path, out_dir=str(tmp_path / "a")), seed=7)
        loaded = load_config(path, seed=7, out_dir=str(tmp_path / "b"))
        assert config_hash(replaced) == config_hash(loaded)
        written = [cmd_prepare(config).written for config in (replaced, loaded)]
        assert [p.name for p in written[0]] == [p.name for p in written[1]]
        for a, b in zip(*written):
            assert a.read_bytes() == b.read_bytes()

    def test_stamp_format(self):
        config = load_config(None, seed=5)
        assert artifact_stamp(config) == f"config_hash={config_hash(config)} seed=5"


# Fields where the generic change in _other_value would be invalid.
_OTHER_VALUES = {
    "dataset.source": "csv",
    "split.mode": SplitMode.STRATIFIED,
    "split.fractions": (0.3, 0.2, 0.5),
    "ranking.kappas": (1.0, 2.0),
}


def _other_value(name, value):
    """A different value of the same type that the config classes accept."""
    if name in _OTHER_VALUES:
        return _OTHER_VALUES[name]
    if isinstance(value, bool):
        return not value
    if isinstance(value, Enum):
        return next(member for member in type(value) if member is not value)
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value / 2
    if value is None or isinstance(value, str):
        return f"{value or ''}x"
    if isinstance(value, tuple):
        return value[:-1] if len(value) > 1 else value * 2
    if isinstance(value, Mapping):
        first = sorted(value)[0]
        return {**value, first: value[first] * 2}
    raise TypeError(f"no other value for {name}={value!r}")


def _single_field_changes(base):
    """(section.field, config) for each field of RunConfig and its sections,
    with only that field changed."""
    for outer in dataclasses.fields(RunConfig):
        section = getattr(base, outer.name)
        if dataclasses.is_dataclass(section):
            for inner in dataclasses.fields(section):
                name = f"{outer.name}.{inner.name}"
                other = _other_value(name, getattr(section, inner.name))
                moved = dataclasses.replace(section, **{inner.name: other})
                yield name, dataclasses.replace(base, **{outer.name: moved})
        else:
            name = f"run.{outer.name}"
            yield name, dataclasses.replace(base, **{outer.name: _other_value(name, section)})
