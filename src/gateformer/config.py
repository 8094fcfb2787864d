"""Run configuration: schema-validated INI sections plus flag overrides.

A config file has [data] / [model] / [gate] / [train] / [synth] sections of
key=value pairs; every key is validated against the schema below and unknown
sections or keys are rejected before any work starts. Command-line overrides
(``--set section.key=value`` or dedicated flags) win over the file. The
fingerprint of the resolved config is stamped into every emitted table so
results stay traceable to the exact settings that produced them.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

from .gating import GATE_METHODS, USER_ENCODERS
from .text import POLICIES


def _bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(raw)


# parser of a raw value by the type of the key's default, and what the value
# must be when it does not parse
_PARSERS = {bool: (_bool, "a boolean"), int: (int, "an integer"), float: (float, "a number")}


@dataclass
class DataConfig:
    news: str = "news.tsv"
    behaviors: str = "behaviors.tsv"
    vocab: str = "vocab.txt"
    l_max: int = 30
    n_max: int = 50
    k_neg: int = 4
    title_only: bool = False
    val_fraction: float = 0.2


@dataclass
class ModelConfig:
    d: int = 64
    layers: int = 2
    heads: int = 4
    max_positions: int = 0  # 0 = derived from n_max * l_max


@dataclass
class GateConfig:
    k: int = 3
    window: int = 1
    filters: int = 32
    user_encoder: str = "lstm"
    method: str = "learned"


@dataclass
class TrainConfig:
    steps: int = 2000
    batch_size: int = 32
    peak_lr: float = 1e-3
    warmup: int = 100
    seed: int = 0
    log_interval: int = 50
    eval_interval: int = 200
    clip_norm: float = 0.0
    threads: int = 1


@dataclass
class SynthConfig:
    users: int = 160
    items: int = 320
    topics: int = 8
    tokens_per_item: int = 30
    policy: str = "random"
    signals: int = 2
    distractors: int = 2
    filler_pool: int = 120
    history_len: int = 6
    impressions_per_user: int = 4
    noise: float = 0.0
    val_fraction: float = 0.25


_CHOICES = {
    ("gate", "user_encoder"): USER_ENCODERS,
    ("gate", "method"): GATE_METHODS,
    ("synth", "policy"): POLICIES,
}

# smallest accepted value; 0 steps still writes the initial parameters, and
# 0 layers, max_positions (derived), warmup, eval or log interval and
# clip_norm each mean "none"
_MINIMUM = {
    **dict.fromkeys([
        ("model", "d"), ("model", "heads"), ("gate", "k"), ("gate", "window"),
        ("gate", "filters"), ("data", "l_max"), ("data", "n_max"), ("data", "k_neg"),
        ("train", "batch_size"), ("train", "threads"),
    ], 1),
    **dict.fromkeys([
        ("model", "layers"), ("model", "max_positions"), ("train", "steps"),
        ("train", "warmup"), ("train", "eval_interval"), ("train", "log_interval"),
        ("train", "clip_norm"),
    ], 0),
}

# shares of a whole
_FRACTIONS = {("data", "val_fraction"), ("synth", "val_fraction"), ("synth", "noise")}

_SECTIONS = {
    "data": DataConfig,
    "model": ModelConfig,
    "gate": GateConfig,
    "train": TrainConfig,
    "synth": SynthConfig,
}


@dataclass
class RunConfig:
    data: DataConfig = field(default_factory=DataConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    gate: GateConfig = field(default_factory=GateConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    synth: SynthConfig = field(default_factory=SynthConfig)

    def apply(self, section: str, key: str, raw: str) -> None:
        """Set one value from its string form, validating name and type."""
        if section not in _SECTIONS:
            raise ValueError(f"unknown config section: [{section}]")
        target = getattr(self, section)
        spec = {f.name: f.type for f in fields(target)}
        if key not in spec:
            raise ValueError(f"unknown config key: {section}.{key}")
        parse, kind = _PARSERS.get(type(getattr(target, key)), (str.strip, ""))
        try:
            value = parse(raw)
        except ValueError:
            raise ValueError(f"{section}.{key} must be {kind}, got {raw.strip()!r}") from None
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{section}.{key} must be finite, got {value}")
        choices = _CHOICES.get((section, key))
        if choices and value not in choices:
            raise ValueError(
                f"{section}.{key} must be one of {choices}, got {value!r}"
            )
        least = _MINIMUM.get((section, key))
        if least is not None and value < least:
            raise ValueError(f"{section}.{key} must be >= {least}, got {value}")
        if (section, key) in _FRACTIONS and not 0.0 <= value <= 1.0:
            raise ValueError(f"{section}.{key} must be in [0, 1], got {value}")
        setattr(target, key, value)

    def items(self) -> list[tuple[str, str, object]]:
        out = []
        for section in sorted(_SECTIONS):
            target = getattr(self, section)
            for f in sorted(fields(target), key=lambda f: f.name):
                out.append((section, f.name, getattr(target, f.name)))
        return out

    def fingerprint(self) -> str:
        canon = "\n".join(f"{s}.{k}={v!r}" for s, k, v in self.items())
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:12]

    def dump(self, path) -> None:
        """Canonical INI: sorted sections and keys, no comments."""
        lines = []
        current = None
        for section, key, value in self.items():
            if section != current:
                if current is not None:
                    lines.append("")
                lines.append(f"[{section}]")
                current = section
            lines.append(f"{key} = {value}")
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

    @property
    def max_positions(self) -> int:
        if self.model.max_positions > 0:
            return self.model.max_positions
        return self.data.n_max * self.data.l_max


def _parse_error(e: configparser.Error) -> str:
    """One line on where and how a config file breaks the INI syntax."""
    if isinstance(e, configparser.DuplicateOptionError):
        return f"line {e.lineno} repeats key {e.option!r} of section [{e.section}]"
    if isinstance(e, configparser.DuplicateSectionError):
        return f"line {e.lineno} repeats section [{e.section}]"
    if isinstance(e, configparser.MissingSectionHeaderError):
        return f"line {e.lineno} comes before any [section] header"
    lineno, line = e.errors[0]  # the other ParsingError: a line without "="
    return f"line {lineno} is not key = value: {line}"


def load_config(path=None, overrides: list[str] | None = None) -> RunConfig:
    """Defaults, then the INI file, then ``section.key=value`` overrides.

    The file is read as UTF-8 without interpolation, so values read back as
    :meth:`RunConfig.dump` wrote them, ``%`` too. A file that is not UTF-8
    or not INI raises ``ValueError`` naming it.
    """
    cfg = RunConfig()
    if path is not None:
        parser = configparser.ConfigParser(interpolation=None)
        try:
            with open(path, encoding="utf-8") as f:
                parser.read_file(f)
        except FileNotFoundError:
            raise FileNotFoundError(f"config file not found: {path}") from None
        except UnicodeDecodeError:
            raise ValueError(f"bad config file {path}: not UTF-8") from None
        except (configparser.DuplicateSectionError, configparser.DuplicateOptionError,
                configparser.ParsingError) as e:
            raise ValueError(f"bad config file {path}: {_parse_error(e)}") from None
        for section in parser.sections():
            for key, raw in parser.items(section):
                cfg.apply(section, key, raw)
    for item in overrides or []:
        if "=" not in item:
            raise ValueError(f"override must look like section.key=value: {item!r}")
        dotted, raw = item.split("=", 1)
        if "." not in dotted:
            raise ValueError(f"override must look like section.key=value: {item!r}")
        section, key = dotted.split(".", 1)
        cfg.apply(section.strip(), key.strip(), raw)
    return cfg
