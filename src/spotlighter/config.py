"""Run configuration: every tunable with its default, flat key=value config
file parsing, and strict validation (unknown keys and mistyped values are
rejected). `parse_value` is the one conversion from text to a typed value,
for config files, command-line flags and SPOTLIGHTER_SEED alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

from .activation import TIER_MODES, VARIANTS
from .errors import ConfigError
from .features import SynthSpec
from .memory_bank import INIT_RANDOM, INIT_TEXT
from .objectives import TAU, LossWeights


@dataclass
class RunConfig:
    """Every setting a run may vary. Defaults follow the reference operating
    point: lambdas 0.02/20/0.1, five prototypes, 30 epochs, and the
    10-class/32-token synthetic episode. What no caller varies is fixed in
    the modules that read it: the TRM residual alpha 0.2, the bank momentum
    beta 0.8, the SGD step 0.01 and the bank's init jitter 0.05
    (`pipeline`), the temperature tau 0.01 (`objectives.TAU`), the
    weight-init scale 0.05 and the feed-forward width 2·d (`numerics`,
    `representative`)."""

    # synthetic data
    seed: int = 7
    d: int = 64
    n_tok: int = 32
    n_classes: int = 10
    signal_tokens: int = 4
    noise_sigma: float = 0.3
    distractor_pool: int = 32
    shots: int = 16
    test_per_class: int = 20
    # activation & memory bank
    k_act: int = 16
    n_proto: int = 5
    semantic_on: bool = True
    recalc_on: bool = True
    init_mode: str = INIT_TEXT
    selection_variant: str = "top-k"
    tier_mode: str = "both"
    # fusion modules
    heads: int = 4
    # objective & training
    lambda1: float = 0.02
    lambda2: float = 20.0
    lambda3: float = 0.1
    epochs: int = 30

    def validate(self) -> "RunConfig":
        self.synth_spec().validate()
        checks = [
            (self.seed >= 0, "seed must be nonnegative"),
            (self.heads >= 1 and self.d % self.heads == 0, "d must be divisible by heads"),
            (self.n_tok >= 1, "n_tok must be >= 1"),
            (self.n_classes >= 2, "n_classes must be >= 2"),
            (self.shots >= 1, "shots must be >= 1"),
            (self.test_per_class >= 1, "test_per_class must be >= 1"),
            (1 <= self.k_act <= self.n_tok, "k_act outside [1, n_tok]"),
            (self.n_proto >= 1, "n_proto must be >= 1"),
            (min(self.lambda1, self.lambda2, self.lambda3) >= 0, "lambdas must be >= 0"),
            (self.epochs >= 0, "epochs must be >= 0"),
            (self.init_mode in (INIT_TEXT, INIT_RANDOM), f"init_mode {self.init_mode!r}"),
            (self.selection_variant in VARIANTS, f"selection_variant {self.selection_variant!r}"),
            (self.tier_mode in TIER_MODES, f"tier_mode {self.tier_mode!r}"),
        ]
        for ok, msg in checks:
            if not ok:
                raise ConfigError(msg)
        return self

    # -- conversions --------------------------------------------------------

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        if not isinstance(data, dict):
            raise ConfigError(f"config must be a mapping, got {type(data).__name__}")
        unknown = sorted(set(data) - set(_DEFAULTS))
        if unknown:
            raise ConfigError(f"unknown config keys: {unknown}")
        for key, value in data.items():
            kind = type(_DEFAULTS[key])
            if not _type_ok(kind, value):
                raise ConfigError(f"{key}: {value!r} is not a valid {kind.__name__}")
        return cls(**data).validate()

    def with_overrides(self, **overrides) -> "RunConfig":
        return RunConfig.from_dict({**self.to_dict(), **overrides})

    def synth_spec(self) -> SynthSpec:
        return SynthSpec(
            n_classes=self.n_classes, n_tok=self.n_tok, d=self.d,
            signal_tokens=self.signal_tokens, noise_sigma=self.noise_sigma,
            distractor_pool=self.distractor_pool, seed=self.seed,
        )

    def loss_weights(self) -> LossWeights:
        return LossWeights(lambda1=self.lambda1, lambda2=self.lambda2,
                           lambda3=self.lambda3, tau=TAU)


_DEFAULTS = {f.name: f.default for f in fields(RunConfig)}


def _type_ok(kind: type, value) -> bool:
    # a bool is not an int here; an int is a valid float, if finite
    if kind is float and not isinstance(value, bool):
        return isinstance(value, (int, float)) and math.isfinite(value)
    return isinstance(value, kind) and (kind is bool) == isinstance(value, bool)


def parse_config_file(path) -> dict:
    """Key/value pairs from a flat config file, coerced but not defaulted."""
    data: dict = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        data[key] = parse_value(key, value, f"{path}:{lineno}")
    return data


_BOOL_WORDS = {"true": True, "1": True, "yes": True, "on": True,
               "false": False, "0": False, "no": False, "off": False}


def parse_value(key: str, text: str, where: str):
    """The typed value of config key `key` written as `text`; `where` names
    the source in error messages."""
    if key not in _DEFAULTS:
        raise ConfigError(f"{where}: unknown config key {key!r}")
    kind = type(_DEFAULTS[key])
    try:
        return _BOOL_WORDS[text.lower()] if kind is bool else kind(text)
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"{where}: {text!r} is not a valid {kind.__name__} for {key}") from exc
