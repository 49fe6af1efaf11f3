"""Declarative run configuration: one INI file drives the whole pipeline.

Sections mirror the pipeline stages (dataset, training, expert, fusion,
paths). Parsing is strict: unknown sections or keys fail, the seed is
mandatory, and grids must be nonempty. ``serialize_config`` emits a
canonical rendering, so parse -> serialize -> parse is the identity.
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass, fields
from pathlib import Path

from .dataset import DEFAULT_FEW_MAX, DEFAULT_MANY_MIN, SyntheticConfig


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


FUSION_STRATEGIES = ("softvote", "kl", "select", "stack", "calibrate")


@dataclass(frozen=True)
class DatasetSection:
    source: str = "generate"  # or "load"
    manifest: str = ""
    class_count: int = 60
    feature_dim: int = 16
    n_max: int = 500
    alpha: float = 1.2
    n_val_per_class: int = 20
    n_test_per_class: int = 50
    noise_scale: float = 1.0
    many_min: int = DEFAULT_MANY_MIN
    few_max: int = DEFAULT_FEW_MAX

    def synthetic(self) -> SyntheticConfig:
        """The generator's settings; a ValueError names one out of range."""
        return SyntheticConfig(**{f.name: getattr(self, f.name) for f in fields(SyntheticConfig)})


@dataclass(frozen=True)
class TrainingSection:
    lr0: float = 0.2
    epochs: int = 100
    batch_size: int = 128
    weight_decay: float = 1e-4
    seed: int = 0
    hidden_dims: tuple[int, ...] = (64,)
    # experts are finetuned from the baseline and may use their own schedule;
    # 0 means inherit `epochs`
    expert_epochs: int = 0
    uniform_epochs: int = 0


@dataclass(frozen=True)
class ExpertSection:
    rho_grid: tuple[float, ...] = (1.0, 2.0, 4.0, 8.0)
    frozen_grid: tuple[int, ...] = (0, 1)


@dataclass(frozen=True)
class FusionSection:
    strategy: str = "calibrate"


@dataclass(frozen=True)
class PathsSection:
    out_dir: str = "runs"


@dataclass(frozen=True)
class RunConfig:
    dataset: DatasetSection
    training: TrainingSection
    expert: ExpertSection
    fusion: FusionSection
    paths: PathsSection

    def validate(self) -> None:
        d = self.dataset
        if d.source not in ("generate", "load"):
            raise ConfigError(f"dataset.source must be generate or load, got {d.source!r}")
        if d.source == "load" and not d.manifest:
            raise ConfigError("dataset.source=load requires dataset.manifest")
        if d.source == "generate":
            try:
                d.synthetic()
            except ValueError as exc:
                raise ConfigError(f"dataset: {exc}") from None
        if not d.many_min > d.few_max > 0:
            raise ConfigError("dataset thresholds must satisfy many_min > few_max > 0")
        if not self.expert.rho_grid or not self.expert.frozen_grid:
            raise ConfigError("expert grids must be nonempty")
        if any(r < 1 for r in self.expert.rho_grid):
            raise ConfigError("every rho in expert.rho_grid must be >= 1")
        if any(f < 0 for f in self.expert.frozen_grid):
            raise ConfigError("frozen layer counts must be >= 0")
        # an expert has len(hidden_dims) backbone layers under its new head
        hidden = self.training.hidden_dims
        if bad := [f for f in self.expert.frozen_grid if f > len(hidden)]:
            raise ConfigError(
                f"expert.frozen_grid value {bad[0]} freezes the expert's new head: "
                f"with training.hidden_dims = {_render_value(hidden)!r} it must be <= {len(hidden)}"
            )
        if self.fusion.strategy not in FUSION_STRATEGIES:
            raise ConfigError(
                f"fusion.strategy must be one of {FUSION_STRATEGIES}, "
                f"got {self.fusion.strategy!r}"
            )
        if self.training.lr0 <= 0 or self.training.epochs < 1 or self.training.batch_size < 1:
            raise ConfigError("training requires lr0 > 0, epochs >= 1, batch_size >= 1")
        if self.training.weight_decay < 0:
            raise ConfigError("training.weight_decay must be >= 0")
        if any(width < 1 for width in hidden):
            raise ConfigError("every width in training.hidden_dims must be >= 1")
        if self.training.expert_epochs < 0 or self.training.uniform_epochs < 0:
            raise ConfigError("expert_epochs and uniform_epochs must be >= 0 (0 inherits epochs)")
        if not self.paths.out_dir:
            raise ConfigError("paths.out_dir must be set")


_SECTION_TYPES = {
    "dataset": DatasetSection,
    "training": TrainingSection,
    "expert": ExpertSection,
    "fusion": FusionSection,
    "paths": PathsSection,
}

_REQUIRED_KEYS = {("training", "seed")}


def _parse_value(name: str, default, raw: str):
    """``raw`` typed as the field's ``default`` is; a tuple field takes
    comma-separated scalars typed as the default's elements."""
    raw = raw.strip()
    try:
        if isinstance(default, tuple):
            return tuple(type(default[0])(v) for v in raw.split(",") if v.strip())
        return type(default)(raw)
    except ValueError:
        raise ConfigError(f"could not parse {name} = {raw!r}") from None


def _render_value(value) -> str:
    if isinstance(value, tuple):
        return ",".join(_render_value(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def parse_config(text: str) -> RunConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"invalid config syntax: {exc}") from None

    unknown = set(parser.sections()) - set(_SECTION_TYPES)
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")

    built = {}
    for section_name, section_type in _SECTION_TYPES.items():
        values = {}
        defaults = {f.name: f.default for f in fields(section_type)}
        if parser.has_section(section_name):
            for key, raw in parser.items(section_name):
                if key not in defaults:
                    raise ConfigError(f"unknown key {section_name}.{key}")
                values[key] = _parse_value(f"{section_name}.{key}", defaults[key], raw)
        for section, key in _REQUIRED_KEYS:
            if section == section_name and key not in values:
                raise ConfigError(f"missing required key {section}.{key}")
        built[section_name] = section_type(**values)

    cfg = RunConfig(**built)
    cfg.validate()
    return cfg


def serialize_config(cfg: RunConfig) -> str:
    out = io.StringIO()
    for section_name, section_type in _SECTION_TYPES.items():
        section = getattr(cfg, section_name)
        out.write(f"[{section_name}]\n")
        for f in fields(section_type):
            out.write(f"{f.name} = {_render_value(getattr(section, f.name))}\n")
        out.write("\n")
    return out.getvalue()


def load_config(path) -> RunConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    return parse_config(path.read_text(encoding="utf-8"))
