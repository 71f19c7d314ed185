"""Run configuration: plain-text `key = value` files plus command-line
overrides, mapped onto the generation / training / interpolation configs.

Unknown keys are rejected loudly; a typo must never silently fall back to
a default. Precedence: command-line overrides > config file > defaults.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .bilevel import TrainConfig
from .episodes import GenConfig
from .interpolate import InterpConfig


class ConfigError(ValueError):
    pass


def _parse_int_list(s: str) -> tuple:
    return tuple(int(v) for v in s.split(",") if v.strip())


def _parse_float_list(s: str) -> tuple:
    return tuple(float(v) for v in s.split(",") if v.strip())


def _opt_int(s: str):
    low = s.strip().lower()
    return None if low in ("none", "auto") else int(s)


# key -> (section, field name, parser)
_KEYS = {
    # generation
    "way": ("gen", "way", int),
    "shots": ("gen", "shots", int),
    "queries": ("gen", "queries", int),
    "dim": ("gen", "dim", int),
    "train_tasks": ("gen", "train_tasks", int),
    "val_tasks": ("gen", "val_tasks", int),
    "test_tasks": ("gen", "test_tasks", int),
    "spread": ("gen", "spread", float),
    "angles": ("gen", "angles", _parse_float_list),
    "scales": ("gen", "scales", _parse_float_list),
    "offsets": ("gen", "offsets", _parse_float_list),
    "gen_seed": ("gen", "seed", int),
    # training
    "inner_lr": ("train", "inner_lr", float),
    "hyper_lr": ("train", "hyper_lr", float),
    "update_period": ("train", "update_period", int),
    "batch_size": ("train", "batch_size", int),
    "val_batch_size": ("train", "val_batch_size", _opt_int),
    "neumann_iters": ("train", "neumann_iters", int),
    "max_iters": ("train", "max_iters", int),
    "theta_opt": ("train", "theta_opt", str),
    "lam_opt": ("train", "lam_opt", str),
    "hyper_schedule": ("train", "hyper_schedule", str),
    "patience": ("train", "patience", int),
    "seed": ("train", "seed", int),
    "eval_episodes": ("train", "eval_episodes", int),
    "encoder_widths": ("train", "encoder_widths", _parse_int_list),
    "set_kind": ("train", "set_kind", str),
    "set_hidden": ("train", "set_hidden", _opt_int),
    "dropout_rate": ("train", "dropout_rate", float),
    "metric": ("train", "metric", str),
    "mlti_beta": ("train", "mlti_beta", _parse_float_list),
    # interpolation
    "strategy": ("interp", "strategy", str),
    "interp_layer": ("interp", "layer", int),
    "cardinality": ("interp", "cardinality", int),
    "noise_mean": ("interp", "noise_mean", float),
    "noise_std": ("interp", "noise_std", float),
}


@dataclass
class RunConfig:
    gen: GenConfig = field(default_factory=GenConfig)
    train: TrainConfig = field(default_factory=TrainConfig)


def _apply(settings: dict) -> RunConfig:
    sections = {"gen": {}, "train": {}, "interp": {}}
    for key, raw in settings.items():
        if key not in _KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        section, name, parser = _KEYS[key]
        try:
            sections[section][name] = parser(raw)
        except ConfigError:
            raise
        except ValueError as e:
            raise ConfigError(f"bad value for {key!r}: {e}") from None
    try:
        interp = InterpConfig(**sections["interp"])
        train = TrainConfig(**sections["train"], interp=interp)
        gen = GenConfig(**sections["gen"])
    except (ValueError, TypeError) as e:
        raise ConfigError(str(e)) from None
    return RunConfig(gen=gen, train=train)


def parse_config_text(text: str, path: str = "<config>") -> dict:
    """key = value lines; # comments; blank lines ignored."""
    settings = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {line!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key in settings:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        settings[key] = value
    return settings


def load_run_config(path=None, overrides=None) -> RunConfig:
    """Build a RunConfig from an optional file and key=value overrides."""
    settings = {}
    if path is not None:
        with open(path, "r", encoding="utf-8") as f:
            settings.update(parse_config_text(f.read(), str(path)))
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override must be key=value, got {item!r}")
        key, _, value = item.partition("=")
        settings[key.strip()] = value.strip()
    return _apply(settings)
