"""Declarative run configuration: one INI file drives the whole pipeline.

Sections mirror the pipeline stages (dataset, training, expert, fusion,
paths). Parsing is strict: unknown sections or keys fail, and the seed is
mandatory. Value ranges are checked by the library types the sections
build (``SyntheticConfig``, ``FoldAssignment``, ``TrainConfig`` and
``experts.check_expert_grid``), not restated here. ``serialize_config``
emits a canonical rendering, so parse -> serialize -> parse is the identity.
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass, fields
from pathlib import Path

from .dataset import DEFAULT_FEW_MAX, DEFAULT_MANY_MIN, FoldAssignment, SyntheticConfig
from .experts import check_expert_grid
from .network import TrainConfig


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


def train_config_from(
    section: TrainingSection, *, seed: int, stage: str = "baseline"
) -> TrainConfig:
    """Stage-specific training settings; experts and the uniform finetune may
    run their own epoch budget (0 inherits the baseline budget)."""
    epochs = {"expert": section.expert_epochs, "uniform": section.uniform_epochs}.get(stage)
    return TrainConfig(
        lr0=section.lr0, epochs=epochs or section.epochs, batch_size=section.batch_size,
        seed=seed, weight_decay=section.weight_decay, hidden_dims=section.hidden_dims,
    )


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
        """The INI's own rules; every other rule is checked by building the
        library's types, each ``ValueError`` a ``ConfigError`` naming its section."""
        d, t, e = self.dataset, self.training, self.expert
        if d.source not in ("generate", "load"):
            raise ConfigError(f"dataset.source must be generate or load, got {d.source!r}")
        if d.source == "load" and not d.manifest:
            raise ConfigError("dataset.source=load requires dataset.manifest")
        if self.fusion.strategy not in FUSION_STRATEGIES:
            raise ConfigError(
                f"fusion.strategy must be one of {FUSION_STRATEGIES}, "
                f"got {self.fusion.strategy!r}"
            )
        if t.expert_epochs < 0 or t.uniform_epochs < 0:
            raise ConfigError("expert_epochs and uniform_epochs must be >= 0 (0 inherits epochs)")
        if not self.paths.out_dir:
            raise ConfigError("paths.out_dir must be set")
        builds = [("dataset", d.synthetic)] if d.source == "generate" else []
        builds += [
            ("dataset", lambda: FoldAssignment.from_frequencies((), (d.many_min, d.few_max))),
            ("training", lambda: train_config_from(t, seed=t.seed)),
            ("expert", lambda: check_expert_grid(e.rho_grid, e.frozen_grid, len(t.hidden_dims))),
        ]
        for section, build in builds:
            try:
                build()
            except ValueError as exc:
                raise ConfigError(f"{section}: {exc}") from None


_SECTION_TYPES = {
    "dataset": DatasetSection,
    "training": TrainingSection,
    "expert": ExpertSection,
    "fusion": FusionSection,
    "paths": PathsSection,
}


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
        if section_name == "training" and "seed" not in values:
            raise ConfigError("missing required key training.seed")
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
