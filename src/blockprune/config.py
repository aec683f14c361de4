"""Run configuration: strict schema, YAML file + flag overrides."""

from __future__ import annotations

import math
from dataclasses import MISSING, asdict, dataclass, field, fields

import yaml

from .bpi import PATCH_HEAD_KINDS
from .errors import ConfigError
from .vit import VitConfig


@dataclass
class ModelSection(VitConfig):
    patch_head: str = "resnet"  # benefit-probe patch classifier flavor

    def vit_config(self):
        return VitConfig(**{f.name: getattr(self, f.name) for f in fields(VitConfig)})


@dataclass
class ScheduleSection:
    epochs_warmup: int = 3
    epochs_sparsify: int = 22
    epochs_sharpen: int = 25
    epochs_finetune: int = 50
    epochs_dense: int = 30
    batch_size: int = 64
    mask_update_freq: int = 0          # 0: once per epoch
    update_masks_during_sharpen: bool = True
    checkpoint_every: int = 0          # epochs between periodic checkpoints; 0: final only
    probe_epochs: int = 5


@dataclass
class DataSection:
    source: str = "synthetic"
    noise: float = 0.3
    train_per_class: int = 120
    val_per_class: int = 30
    template_grid: int = 8
    images: str | None = None
    labels: str | None = None
    val_images: str | None = None
    val_labels: str | None = None
    flip: bool = False
    normalize: bool = False  # per-image zero-mean/unit-std at load time


@dataclass
class PruningSection:
    keep_ratio: float = 0.5
    alpha: float = 0.5
    sharpness: float = 0.1
    sharpness_floor: float = 0.005
    keep_floor: float = 0.05
    guard_frac: float = 0.05


@dataclass
class OptimizerSection:
    lr_model: float = 5e-4
    weight_decay: float = 0.05
    lr_finetune: float | None = None


@dataclass
class RunConfig:
    model: ModelSection = field(default_factory=ModelSection)
    schedule: ScheduleSection = field(default_factory=ScheduleSection)
    data: DataSection = field(default_factory=DataSection)
    pruning: PruningSection = field(default_factory=PruningSection)
    optimizer: OptimizerSection = field(default_factory=OptimizerSection)
    seed: int = 0
    out: str = "runs/run"
    frozen: bool = False

    def validate(self):
        p, s, m, d = self.pruning, self.schedule, self.model, self.data
        if d.train_per_class < 1 or d.val_per_class < 1:
            raise ConfigError("data.train_per_class and data.val_per_class must be >= 1")
        if d.template_grid < 1:
            raise ConfigError("data.template_grid must be >= 1")
        if d.noise < 0:
            raise ConfigError("data.noise must be >= 0")
        if not 0 < p.keep_ratio <= 1:
            raise ConfigError("pruning.keep_ratio must be in (0, 1]")
        if not 0 <= p.alpha <= 1:
            raise ConfigError("pruning.alpha must be in [0, 1]")
        if not 0 < p.sharpness_floor <= p.sharpness:
            raise ConfigError("pruning needs 0 < sharpness_floor <= sharpness")
        if not 0 <= p.guard_frac <= 1:
            raise ConfigError("pruning.guard_frac must be in [0, 1]")
        if not 0 <= p.keep_floor <= p.keep_ratio:
            raise ConfigError("pruning.keep_floor must be in [0, keep_ratio]")
        for name in ("epochs_warmup", "epochs_sparsify", "epochs_sharpen",
                     "epochs_finetune", "epochs_dense", "probe_epochs", "checkpoint_every"):
            if getattr(s, name) < 0:
                raise ConfigError(f"schedule.{name} must be >= 0")
        if s.batch_size < 1:
            raise ConfigError("schedule.batch_size must be >= 1")
        if s.mask_update_freq < 0:
            raise ConfigError("schedule.mask_update_freq must be >= 0")
        o = self.optimizer
        if not (o.lr_model > 0 and (o.lr_finetune is None or o.lr_finetune > 0)):
            raise ConfigError("optimizer.lr_model and optimizer.lr_finetune must be > 0")
        if o.weight_decay < 0:
            raise ConfigError("optimizer.weight_decay must be >= 0")
        if self.data.source not in ("synthetic", "idx"):
            raise ConfigError(f"unknown data source '{self.data.source}'")
        if self.data.source == "idx":
            for key in ("images", "labels", "val_images", "val_labels"):
                if getattr(self.data, key) is None:
                    raise ConfigError(f"data.{key} is required for IDX datasets")
            if m.channels != 1:
                raise ConfigError("model.channels must be 1 for IDX datasets, whose images "
                                  "have one channel")
        if self.model.patch_head not in PATCH_HEAD_KINDS:
            raise ConfigError(f"unknown patch head '{self.model.patch_head}'")
        return self

    def resolved(self):
        """Plain dict snapshot, as echoed into the run manifest."""
        return asdict(self)


# the command-line flags, each with the section of the field it sets ("" for the root)
FLAGS = {"seed": "", "out": "", "frozen": "", "keep_ratio": "pruning"}

_SCALARS = {"int": int, "float": float, "bool": bool, "str": str}


def _typed(value, annotation, path):
    """``value`` checked against a field annotation such as 'int' or 'float | None'.

    bool is not taken for an int or a float. A float also takes an int, or a
    string that float() parses, converted: PyYAML reads 1e-3 as a string.
    A float must be finite.
    """
    kinds = [k.strip() for k in annotation.split("|")]
    if value is None and "None" in kinds:
        return value
    kind = kinds[0]
    if isinstance(value, bool):
        ok = kind == "bool"
    elif kind == "float" and isinstance(value, (int, float, str)):
        try:
            number = float(value)
        except (ValueError, OverflowError):
            number = math.nan
        ok = math.isfinite(number)
        if isinstance(value, str):
            value = number
    else:
        ok = isinstance(value, _SCALARS[kind])
    if not ok:
        raise ConfigError(f"{path} must be {annotation}, got {value!r}")
    return value


def _build(cls, raw, path):
    """``cls`` from the mapping ``raw`` found at ``path`` ("" for the root).

    A field with a default factory is a section, built the same way; any
    other value present in ``raw`` is checked by ``_typed``.
    """
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"section '{path}' must be a mapping" if path
                          else "config root must be a mapping")
    unknown = set(raw) - set(cls.__dataclass_fields__)
    if unknown:
        raise ConfigError(f"unknown keys in '{path}': {sorted(unknown)}" if path
                          else f"unknown top-level keys: {sorted(unknown)}")
    values = {}
    for f in fields(cls):
        key = f"{path}.{f.name}" if path else f.name
        if f.default_factory is not MISSING:
            values[f.name] = _build(f.default_factory, raw.get(f.name), key)
        elif f.name in raw:
            values[f.name] = _typed(raw[f.name], f.type, key)
    try:
        return cls(**values)
    except ValueError as exc:  # model geometry that VitConfig rejects
        raise ConfigError(str(exc)) from exc


def config_from_dict(raw):
    return _build(RunConfig, raw, "").validate()


def load_config(path=None, overrides=None):
    """Config from a YAML file plus command-line overrides, one per ``FLAGS``
    key; an override is type-checked as a file value is, and the config is
    validated once, after the overrides."""
    raw = {}
    if path is not None:
        try:
            with open(path, "rb") as fh:  # PyYAML decodes, and rejects bad bytes
                raw = yaml.safe_load(fh)
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {path}") from exc
        except yaml.YAMLError as exc:  # its message spans lines; keep one
            raise ConfigError(f"cannot parse config file {path}: "
                              f"{' '.join(str(exc).split())}") from exc
    cfg = _build(RunConfig, raw, "")
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key not in FLAGS:
            raise ConfigError(f"unknown override '{key}'")
        section = FLAGS[key]
        target = getattr(cfg, section) if section else cfg
        setattr(target, key, _typed(value, target.__dataclass_fields__[key].type,
                                    f"{section}.{key}" if section else key))
    return cfg.validate()
