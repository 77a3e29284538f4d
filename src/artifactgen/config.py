"""Strict YAML run configuration.

Unknown keys are rejected anywhere in the document (a typo must fail loudly,
not silently train with defaults). The environment variable ARTIFACTGEN_SEED,
when set, replaces the file's seed as the file is loaded, so the resolved
configuration (defaults and seed applied) is the one that runs, and the one
that gets serialized and hashed alongside every run.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .gan import GanTrainConfig
from .diffusion import DiffusionTrainConfig
from .manifest import config_hash
from .normalize import MINMAX_WINDOW, SCHEMES
from .windowing import CANONICAL_CHANNELS

__all__ = ["ConfigError", "DataConfig", "EvalConfig", "RunConfig", "effective_seed",
           "load_config"]

SEED_ENV = "ARTIFACTGEN_SEED"


class ConfigError(ValueError):
    """User-facing configuration problem (maps to exit code 2)."""


def effective_seed(default: int, override: int | None = None) -> int:
    """``override`` if given, else ARTIFACTGEN_SEED if set, else ``default``."""
    if override is not None:
        return override
    env = os.environ.get(SEED_ENV)
    if env is None:
        return default
    try:
        return int(env)
    except ValueError as exc:
        raise ConfigError(f"{SEED_ENV} must be an integer, got '{env}'") from exc


@dataclass
class DataConfig:
    channels: tuple[str, ...] = CANONICAL_CHANNELS
    sample_rate: float = 250.0
    overlap: float = 0.5
    window_seconds: float = 1.0
    normalization: str = MINMAX_WINDOW

    def __post_init__(self):
        self.channels = tuple(self.channels)
        if self.normalization not in SCHEMES:
            raise ConfigError(f"data.normalization must be one of {SCHEMES}, "
                              f"got '{self.normalization}'")
        if not 0.0 <= self.overlap < 1.0:
            raise ConfigError("data.overlap must be in [0, 1)")


@dataclass
class EvalConfig:
    nperseg: int | None = None
    overlap: float = 0.5
    max_lag: int = 50
    knn_k: int = 5


@dataclass
class RunConfig:
    seed: int = 0
    output_dir: str = "runs/out"
    data: DataConfig = field(default_factory=DataConfig)
    gan: GanTrainConfig = field(default_factory=GanTrainConfig)
    ddpm: DiffusionTrainConfig = field(default_factory=DiffusionTrainConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)

    def hash(self) -> str:
        """SHA-256 of the configuration, defaults applied, without the
        ``output_dir`` it writes to; JSON writes its tuples as lists."""
        doc = dataclasses.asdict(self)
        del doc["output_dir"]
        return config_hash(doc)


def _require_mapping(node, path: str) -> dict:
    if node is None:
        return {}
    if not isinstance(node, dict):
        raise ConfigError(f"{path}: expected a mapping, got {type(node).__name__}")
    return node


def _build(cls, node: dict, path: str):
    fields = {f.name for f in dataclasses.fields(cls)}
    unknown = set(node) - fields
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} under '{path}' "
                          f"(allowed: {sorted(fields)})")
    try:
        return cls(**node)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid '{path}' block: {exc}") from exc


def load_config(path: str | Path) -> RunConfig:
    with open(path) as f:
        try:
            doc = yaml.safe_load(f)
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path} is not valid YAML: {exc}") from exc
    doc = _require_mapping(doc, "<root>")

    allowed_top = {"seed", "output_dir", "data", "model", "eval"}
    unknown = set(doc) - allowed_top
    if unknown:
        raise ConfigError(f"unknown top-level key(s) {sorted(unknown)} "
                          f"(allowed: {sorted(allowed_top)})")

    data = _build(DataConfig, _require_mapping(doc.get("data"), "data"), "data")
    model = _require_mapping(doc.get("model"), "model")
    unknown_model = set(model) - {"gan", "ddpm"}
    if unknown_model:
        raise ConfigError(f"unknown key(s) {sorted(unknown_model)} under 'model'")
    seed = effective_seed(int(doc.get("seed", 0)))

    models = {}
    for key, cls in (("gan", GanTrainConfig), ("ddpm", DiffusionTrainConfig)):
        node = _require_mapping(model.get(key), f"model.{key}")
        if "seed" in node:
            raise ConfigError(f"model.{key}.seed is not allowed; set the top-level seed")
        models[key] = _build(cls, dict(node, seed=seed), f"model.{key}")

    eval_cfg = _build(EvalConfig, _require_mapping(doc.get("eval"), "eval"), "eval")

    return RunConfig(seed=seed, output_dir=str(doc.get("output_dir", "runs/out")),
                     data=data, eval=eval_cfg, **models)
