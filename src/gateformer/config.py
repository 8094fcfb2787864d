"""Run configuration: schema-validated INI sections plus command-line overrides.

A config file has [data] / [model] / [gate] / [train] / [synth] sections of
key=value pairs, one section per field of :class:`RunConfig`. Each key is
declared once, on its dataclass field: its type is its default's, and
:func:`_key` adds its least value, its upper bound (for a share of a whole)
and its choices. Every value, from a file or an override, is checked
against that declaration, and unknown sections or keys are rejected, before
any work starts. Overrides (``--set section.key=value``, or a command-line
flag that spells one) win over the file. The fingerprint of the resolved
config is stamped into every emitted table so results stay traceable to the
exact settings that produced them.

A field's default is the only default of its setting: the functions that
read a setting (:func:`text.synth_corpus_full`, the MIND loaders,
``cli.build_model``, ``training.train``) take it without one. This module
imports nothing from the package, so every module may import it.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

# the choices of the keys that name a variant: where synth plants an item's
# topic signal tokens, the gate's token selector and its user encoder
POLICIES = ("front", "random", "back")
GATE_METHODS = ("learned", "first", "bm25", "random")
USER_ENCODERS = ("lstm", "attn")


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


def _key(default, least=None, most=None, choices=None):
    """A config field: its default, its least value, its greatest value (a
    share of a whole has both) and the values it may take."""
    return field(default=default,
                 metadata={"least": least, "most": most, "choices": choices})


# least values: a count is at least 1 where 0 would be meaningless; 0 steps
# still writes the initial parameters, and 0 layers, max_positions (derived),
# warmup, eval or log interval, clip_norm, signals, distractors and filler
# pool each mean "none"


@dataclass
class DataConfig:
    news: str = "news.tsv"
    behaviors: str = "behaviors.tsv"
    vocab: str = "vocab.txt"
    l_max: int = _key(30, least=1)
    n_max: int = _key(50, least=1)
    k_neg: int = _key(4, least=1)
    title_only: bool = False
    val_fraction: float = _key(0.2, least=0, most=1)


@dataclass
class ModelConfig:
    d: int = _key(64, least=1)
    layers: int = _key(2, least=0)
    heads: int = _key(4, least=1)
    max_positions: int = _key(0, least=0)  # 0 = derived from n_max * l_max


@dataclass
class GateConfig:
    k: int = _key(3, least=1)
    window: int = _key(1, least=1)
    filters: int = _key(32, least=1)
    user_encoder: str = _key("lstm", choices=USER_ENCODERS)
    method: str = _key("learned", choices=GATE_METHODS)


@dataclass
class TrainConfig:
    steps: int = _key(2000, least=0)
    batch_size: int = _key(32, least=1)
    peak_lr: float = _key(1e-3, least=0)
    warmup: int = _key(100, least=0)
    seed: int = _key(0, least=0)
    log_interval: int = _key(50, least=0)
    eval_interval: int = _key(200, least=0)
    clip_norm: float = _key(0.0, least=0)
    threads: int = _key(1, least=1)


@dataclass
class SynthConfig:
    users: int = _key(160, least=1)
    items: int = _key(320, least=1)
    topics: int = _key(8, least=2)
    tokens_per_item: int = _key(30, least=1)
    policy: str = _key("random", choices=POLICIES)
    signals: int = _key(2, least=0)
    distractors: int = _key(2, least=0)
    filler_pool: int = _key(120, least=0)
    history_len: int = _key(6, least=1)
    impressions_per_user: int = _key(4, least=1)
    noise: float = _key(0.0, least=0, most=1)
    val_fraction: float = _key(0.25, least=0, most=1)


@dataclass
class RunConfig:
    data: DataConfig = field(default_factory=DataConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    gate: GateConfig = field(default_factory=GateConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    synth: SynthConfig = field(default_factory=SynthConfig)

    def apply(self, section: str, key: str, raw: str) -> None:
        """Set one value from its string form, validating it against the
        field's declaration: its name, type, choices and range."""
        if section not in {f.name for f in fields(self)}:
            raise ValueError(f"unknown config section: [{section}]")
        target = getattr(self, section)
        spec = {f.name: f.metadata for f in fields(target)}
        if key not in spec:
            raise ValueError(f"unknown config key: {section}.{key}")
        parse, kind = _PARSERS.get(type(getattr(target, key)), (str.strip, ""))
        try:
            value = parse(raw)
        except ValueError:
            raise ValueError(f"{section}.{key} must be {kind}, got {raw.strip()!r}") from None
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{section}.{key} must be finite, got {value}")
        declared = spec[key]
        choices, least, most = declared.get("choices"), declared.get("least"), declared.get("most")
        if choices and value not in choices:
            raise ValueError(
                f"{section}.{key} must be one of {choices}, got {value!r}"
            )
        if most is not None and not least <= value <= most:
            raise ValueError(f"{section}.{key} must be in [{least}, {most}], got {value}")
        if least is not None and value < least:
            raise ValueError(f"{section}.{key} must be >= {least}, got {value}")
        setattr(target, key, value)

    def items(self) -> list[tuple[str, str, object]]:
        out = []
        for section in sorted(f.name for f in fields(self)):
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
