"""Run configuration: INI file parsing, validation, canonical hashing.

A run is fully described by a RunConfig. The INI file is optional; every
key has a default, command-line flags override the file, and the resolved
configuration, with the bytes of each input file it names, hashes to a short
hex digest stamped into every artifact. Equal hashes give identical CSVs.

Each key, its default and its validation are declared once, as a field of
a section dataclass (most live beside the stage they configure). The
accepted INI keys, the INI reader and the canonical form that gets hashed
are all derived from those fields. ``run.seed`` is the one seed of a run.
"""

from __future__ import annotations

import configparser
import hashlib
from collections import abc
from dataclasses import dataclass, field, fields, is_dataclass
from enum import Enum
from pathlib import Path
from typing import (
    Any, Callable, Iterable, NamedTuple, Sequence, get_args, get_origin, get_type_hints,
)

from .alerts import CfMode, check_scaled_uf, check_uf_scale, load_catalog, resolve_profile
from .calibration import HeightParams
from .detector import DetectorConfig, DetectorMode
from .errors import ConfigError, ValidationError
from .evaluation import DEFAULT_SWEEP_GRID, Band, ScenarioKind, check_noise_sd
from .ingestion import DatasetConfig, SplitSpec, SynthConfig
from .ranking import risk_averse_queue_name
from .sgfn import check_kappa


@dataclass(frozen=True)
class RankingConfig:
    kappas: tuple[float, ...] = (1.0,)
    cf_mode: CfMode = CfMode.CONTINUOUS
    uf_scale: float = 1.0

    def __post_init__(self) -> None:
        if not self.kappas:
            raise ValidationError("kappa must list at least one value")
        for kappa in self.kappas:
            check_kappa(kappa)
        check_uf_scale(self.uf_scale)
        if len(set(map(risk_averse_queue_name, self.kappas))) < len(self.kappas):
            raise ValidationError(f"kappa repeats a value: {self.kappas!r}")


@dataclass(frozen=True)
class EvaluationConfig:
    cutoffs: tuple[int, ...] = (10, 50, 100, 500)
    bands: tuple[tuple[float, float], ...] = ((0.3, 0.5), (0.5, 0.7), (0.7, 1.0))
    bootstrap_k: int = 500
    bootstrap_resamples: int = 1000
    bootstrap_seed: int = 0
    scenarios: tuple[ScenarioKind, ...] = tuple(ScenarioKind)
    noise_sd: float = 0.2
    sweep: bool = False

    def __post_init__(self) -> None:
        if not self.cutoffs or any(k < 1 for k in self.cutoffs):
            raise ValidationError(f"cutoffs must be positive integers, got {self.cutoffs!r}")
        for key, least in (("bootstrap_k", 1), ("bootstrap_resamples", 1), ("bootstrap_seed", 0)):
            if getattr(self, key) < least:
                raise ValidationError(f"{key} must be >= {least}, got {getattr(self, key)!r}")
        for key, values in (  # as the eval CSVs write them: a band by its %.10g bounds
            ("cutoffs", self.cutoffs),
            ("bands", tuple("-".join(f"{bound:.10g}" for bound in band) for band in self.bands)),
            ("scenarios", tuple(kind.value for kind in self.scenarios)),
        ):
            if len(set(values)) < len(values):
                raise ValidationError(f"{key} repeats a value: {values!r}")
        check_noise_sd(self.noise_sd)
        if any(len(band) != 2 for band in self.bands):
            raise ValidationError(f"bands must be lo-hi pairs, got {self.bands!r}")
        self.band_objects()

    def band_objects(self) -> tuple[Band, ...]:
        return tuple(Band(lo, hi, closed=hi >= 1.0) for lo, hi in self.bands)


@dataclass(frozen=True)
class RunConfig:
    seed: int = 42
    out_dir: str = "results"
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    synth: SynthConfig = field(default_factory=SynthConfig)
    split: SplitSpec = field(default_factory=SplitSpec)
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    heights: HeightParams = field(default_factory=HeightParams)
    ranking: RankingConfig = field(default_factory=RankingConfig)
    evaluation: EvaluationConfig = field(default_factory=EvaluationConfig)

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed!r}")


# --- text form of field values -----------------------------------------------

_BOOLEANS = {**dict.fromkeys(("true", "yes", "on", "1"), True),
             **dict.fromkeys(("false", "no", "off", "0"), False)}
_BAD_CHOICE = "bad {key} {text!r}"


class _Codec(NamedTuple):
    """How values of one declared field type read from INI text and render
    into the canonical form."""

    parse: Callable[[str], Any] | None  # raises ValueError or KeyError; None: not an INI key
    render: Callable[[Any], str]
    bad: str = "bad value for {key}: {text!r}"  # report for text that does not parse


def _codec(tp: Any, sep: str = ",") -> _Codec:
    """Codec for a field type. Lists are comma-separated and skip blank
    items; the items of a list of pairs read ``lo-hi``, where a blank bound
    is an error. An optional choice spells None ``auto``; other optional
    values leave it blank. Text that does not parse is reported as a bad
    value for numbers, a bad boolean for flags, and as ``bad key 'text'``
    for choices and lists of pairs."""
    origin, args = get_origin(tp), get_args(tp)
    if type(None) in args:
        (inner_tp,) = (a for a in args if a is not type(None))
        inner = _codec(inner_tp)
        none = "auto" if issubclass(inner_tp, Enum) else ""
        return inner._replace(
            parse=lambda text: None if text == none else inner.parse(text),
            render=lambda value: none if value is None else inner.render(value),
        )
    if origin is tuple:
        item = _codec(args[0], "-")
        return _Codec(
            lambda text: tuple(
                item.parse(part.strip()) for part in text.split(sep) if part.strip() or sep == "-"
            ),
            lambda value: sep.join(item.render(v) for v in value),
            item.bad if sep == "," else _BAD_CHOICE,
        )
    if origin is abc.Mapping:
        key, val = _codec(args[0]), _codec(args[1])
        return _Codec(
            None, lambda m: ",".join(f"{key.render(k)}:{val.render(v)}" for k, v in sorted(m.items()))
        )
    if tp is bool:
        return _Codec(
            lambda text: _BOOLEANS[text.lower()],
            lambda v: "true" if v else "false",
            "bad boolean for {key}: {text!r}",
        )
    if tp is int:
        return _Codec(int, str)
    if tp is float:
        return _Codec(float, lambda v: format(float(v), ".12g"))
    if tp is str:
        return _Codec(str, str)
    if isinstance(tp, type) and issubclass(tp, Enum):
        return _Codec(tp, lambda v: v.value, _BAD_CHOICE)
    raise TypeError(f"no INI form for field type {tp!r}")


# --- the field walk ------------------------------------------------------------

# INI section -> config class; [run] holds RunConfig's own scalar fields.
_SECTIONS: dict[str, type] = {
    "run": RunConfig,
    **{name: tp for name, tp in get_type_hints(RunConfig).items() if is_dataclass(tp)},
}
# INI keys spelled differently from their field.
_INI_NAMES = {("ranking", "kappas"): "kappa"}


def _walk(section: str, cls: type) -> dict[str, tuple[str, _Codec]]:
    """INI key -> (field name, codec) for the fields of one section, in order."""
    hints = get_type_hints(cls)
    return {
        _INI_NAMES.get((section, f.name), f.name): (f.name, _codec(hints[f.name]))
        for f in fields(cls)
        if not is_dataclass(hints[f.name])
    }


#: section -> key -> (field name, codec) for every field, in canonical order.
#: Keys whose codec cannot parse (mappings) are hashed but not set by INI files.
KEYS = {section: _walk(section, cls) for section, cls in _SECTIONS.items()}


# --- parsing -----------------------------------------------------------------

def _read(parser: configparser.ConfigParser, source: str) -> dict[str, dict[str, Any]]:
    """Field values set in the INI file, by section; blank values keep the default."""
    if parser.defaults():
        raise ConfigError(f"{source}: unknown section [DEFAULT]")
    for section in parser.sections():
        if section not in KEYS:
            raise ConfigError(f"{source}: unknown section [{section}]")
    given: dict[str, dict[str, Any]] = {}
    for section, keys in KEYS.items():
        options = parser.options(section) if parser.has_section(section) else []
        unknown = sorted(key for key in options if key not in keys or not keys[key][1].parse)
        if unknown:
            raise ConfigError(f"{source}: unknown key(s) in [{section}]: {', '.join(unknown)}")
        values = given[section] = {}
        for key in options:
            text = parser.get(section, key).strip()
            if text:
                values[keys[key][0]] = parse_key(section, key, text, source)
    return given


def parse_key(section: str, key: str, text: str, source: str) -> Any:
    """Value of one INI key read from its text, as an INI file or a CLI flag
    gives it; text that does not parse is a ConfigError naming the key."""
    codec = KEYS[section][key][1]
    try:
        return codec.parse(text)
    except (ValueError, KeyError) as exc:
        raise ConfigError(
            f"{source}: " + codec.bad.format(key=f"{section}.{key}", text=text)
        ) from exc


def _input_files(config: RunConfig) -> dict[str, str]:
    """The files the run reads, by ``section.key``; the hash covers their bytes."""
    dataset, detector = config.dataset, config.detector
    external = detector.mode is DetectorMode.EXTERNAL_SCORES
    named = {"dataset.path": dataset.path if dataset.source == "csv" else None,
             "dataset.class_map": dataset.class_map, "dataset.catalog": dataset.catalog,
             "detector.scores_path": detector.scores_path if external else None}
    return {key: path for key, path in named.items() if path is not None}


def _require_paths(config: RunConfig) -> None:
    for what, path in _input_files(config).items():
        if not Path(path).is_file():
            problem = "is not a file" if Path(path).exists() else "does not exist"
            raise ValidationError(f"{what} {problem}: {path}")
    out = Path(config.out_dir)
    nearest = next(part for part in (out, *out.parents) if part.exists())
    if not nearest.is_dir():
        blocked = "" if nearest == out else f" ({nearest} is not a directory)"
        raise ValidationError(f"run.out_dir is not a directory: {config.out_dir}{blocked}")


def load_config(
    path: str | Path | None = None,
    *,
    seed: int | None = None,
    out_dir: str | None = None,
    kappas: Sequence[float] | None = None,
) -> RunConfig:
    """Build a RunConfig from an optional INI file plus CLI overrides.

    Referenced files must be files, no file may stand where the output
    directory goes, and ``ranking.uf_scale`` must keep the uf of every class
    of the run's catalog in (0, 0.5], as must each ``uf_scale`` point of the
    sweep when ``evaluation.sweep`` is on; a bad key, value or path raises
    ConfigError at load time. Every fault reads ``{source}: {section}.{key}
    ...``, its source the flag that set the key, else the INI path, else
    ``<defaults>``.
    """
    parser = configparser.ConfigParser(interpolation=None)
    source = "<defaults>" if path is None else str(path)
    try:
        if path is not None and not parser.read(path, encoding="utf-8"):
            raise ConfigError(f"config file does not exist: {path}")
    except configparser.MissingSectionHeaderError as exc:
        raise ConfigError(f"{path}: line {exc.lineno}: text before the first [section]") from exc
    except configparser.ParsingError as exc:
        raise ConfigError(f"{path}: line {exc.errors[0][0]}: not [section] or key = value") from exc
    except configparser.Error as exc:  # a repeated section or key: "... [line  3]: section ..."
        raise ConfigError(f"{path}: line {exc.lineno}: {str(exc).split(']: ', 1)[1]}") from exc
    given = _read(parser, source)

    flags = {("run", "seed"): ("--seed", seed), ("run", "out_dir"): ("--out", out_dir),
             ("ranking", "kappa"): ("--kappa", None if kappas is None else tuple(kappas))}
    flagged = {where: flag for where, (flag, value) in flags.items() if value is not None}
    for section, key in flagged:
        given[section][KEYS[section][key][0]] = flags[section, key][1]

    def fault(text: str) -> ConfigError:  # text starts with the section.key it blames
        where = tuple(text.split(" ", 1)[0].split(".", 1))
        return ConfigError(f"{flagged.get(where, source)}: {text}")

    def build(section: str, cls: type, **sections: Any) -> Any:
        try:
            return cls(**given[section], **sections)
        except ValidationError as exc:
            raise fault(f"{section}.{exc}") from exc

    sections = {name: build(name, cls) for name, cls in _SECTIONS.items() if name != "run"}
    config = build("run", RunConfig, **sections)
    try:
        _require_paths(config)
        check_class_ufs(config)
    except ValidationError as exc:
        raise fault(str(exc)) from exc
    return config


def check_class_ufs(config: RunConfig, classes: Iterable[str] | None = None) -> None:
    """Reject a ``ranking.uf_scale``, or with the sweep on a sweep
    ``uf_scale`` point, that puts the uf of a class of ``classes`` (by
    default the catalog's; a class it lacks has the default uf) outside
    (0, 0.5], as a ValidationError naming the key. ``pipeline.run`` checks
    the test split's classes once it has read the data."""
    catalog = load_catalog(config.dataset.catalog)
    ufs = {c: resolve_profile(c, catalog).uf for c in (catalog if classes is None else classes)}
    check_scaled_uf(ufs, config.ranking.uf_scale, "ranking.uf_scale")
    for scale in DEFAULT_SWEEP_GRID["uf_scale"] if config.evaluation.sweep else ():
        check_scaled_uf(ufs, scale, "evaluation.sweep point uf_scale")


# --- canonical form and hashing ------------------------------------------------

def canonical_lines(config: RunConfig) -> list[str]:
    """Deterministic key=value lines covering everything that shapes output
    content: each input file by its bytes, not its path, and not the output
    directory, as where inputs live and results land changes no result."""
    digests = {key: f"sha256:{file_sha256(path)}" for key, path in _input_files(config).items()}
    lines = []
    for section, keys in KEYS.items():
        owner = config if section == "run" else getattr(config, section)
        lines += [
            f"{section}.{key}=" + digests.get(f"{section}.{key}", codec.render(getattr(owner, name)))
            for key, (name, codec) in keys.items()
            if (section, name) != ("run", "out_dir")
        ]
    return lines


def file_sha256(path: str | Path) -> str:
    """The sha256 of a file's bytes, read in chunks. A run hashes each input
    once: ``pipeline.run`` stamps its artifacts with one ``artifact_stamp``."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
    return digest.hexdigest()


def config_hash(config: RunConfig) -> str:
    digest = hashlib.sha256("\n".join(canonical_lines(config)).encode("utf-8")).hexdigest()
    return digest[:12]


def artifact_stamp(config: RunConfig) -> str:
    """First-line comment embedded in every output file."""
    return f"config_hash={config_hash(config)} seed={config.seed}"
