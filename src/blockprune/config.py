"""Run configuration: strict schema, YAML file + flag overrides."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields

import yaml

from .errors import ConfigError
from .vit import VitConfig


@dataclass
class ModelSection:
    image_size: int = 32
    patch_size: int = 4
    embed_dim: int = 64
    heads: int = 4
    depth: int = 6
    mlp_ratio: float = 4.0
    num_classes: int = 10
    channels: int = 1
    patch_head: str = "resnet"  # benefit-probe patch classifier flavor

    def vit_config(self):
        try:
            return VitConfig(image_size=self.image_size, patch_size=self.patch_size,
                             embed_dim=self.embed_dim, heads=self.heads, depth=self.depth,
                             mlp_ratio=self.mlp_ratio, num_classes=self.num_classes,
                             channels=self.channels)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


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
    mask_ref: float = 0.9
    sharpness: float = 0.1
    sharpness_floor: float = 0.005
    keep_floor: float = 0.05
    guard_frac: float = 0.05
    eps: float = 1e-8
    scale_in: float = 1.0
    scale_out: float = 1.0
    scale_e: float = 1.0
    scale_hid: float = 1.0
    remaining_param_importance: bool = True

    def mask_scales(self):
        return {"in": self.scale_in, "out": self.scale_out,
                "e": self.scale_e, "hid": self.scale_hid}


@dataclass
class OptimizerSection:
    lr_model: float = 5e-4
    lr_bpi: float = 5e-4
    weight_decay: float = 0.05
    lr_finetune: float | None = None


_SECTIONS = {
    "model": ModelSection,
    "schedule": ScheduleSection,
    "data": DataSection,
    "pruning": PruningSection,
    "optimizer": OptimizerSection,
}


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
        self.model.vit_config()
        p, s, m, d = self.pruning, self.schedule, self.model, self.data
        if m.depth < 1:
            raise ConfigError("model.depth must be >= 1")
        if m.num_classes < 2:
            raise ConfigError("model.num_classes must be >= 2")
        if d.train_per_class < 1 or d.val_per_class < 1:
            raise ConfigError("data.train_per_class and data.val_per_class must be >= 1")
        if not 0 < p.keep_ratio <= 1:
            raise ConfigError("pruning.keep_ratio must be in (0, 1]")
        if not 0 <= p.alpha <= 1:
            raise ConfigError("pruning.alpha must be in [0, 1]")
        if not 0 < p.mask_ref < 1:
            raise ConfigError("pruning.mask_ref must be in (0, 1)")
        if p.sharpness <= 0 or p.sharpness_floor <= 0:
            raise ConfigError("sharpness values must be positive")
        if not 0 <= p.keep_floor <= p.keep_ratio:
            raise ConfigError("pruning.keep_floor must be in [0, keep_ratio]")
        for name in ("epochs_warmup", "epochs_sparsify", "epochs_sharpen",
                     "epochs_finetune", "epochs_dense"):
            if getattr(s, name) < 0:
                raise ConfigError(f"schedule.{name} must be >= 0")
        if s.batch_size < 1:
            raise ConfigError("schedule.batch_size must be >= 1")
        if s.mask_update_freq < 0:
            raise ConfigError("schedule.mask_update_freq must be >= 0")
        if self.data.source not in ("synthetic", "idx"):
            raise ConfigError(f"unknown data source '{self.data.source}'")
        if self.data.source == "idx":
            for key in ("images", "labels", "val_images", "val_labels"):
                if getattr(self.data, key) is None:
                    raise ConfigError(f"data.{key} is required for IDX datasets")
        if self.model.patch_head not in ("resnet", "pooled-linear"):
            raise ConfigError(f"unknown patch head '{self.model.patch_head}'")
        return self

    def resolved(self):
        """Plain dict snapshot, as echoed into the run manifest."""
        return asdict(self)


_SCALARS = {"int": int, "float": float, "bool": bool, "str": str}


def _typed(value, annotation, path):
    """``value`` checked against a field annotation such as 'int' or 'float | None'.

    bool is not taken for an int or a float. A float also takes an int, or a
    string that float() parses, converted: PyYAML reads 1e-3 as a string.
    """
    kinds = [k.strip() for k in annotation.split("|")]
    if value is None and "None" in kinds:
        return value
    kind = kinds[0]
    if isinstance(value, bool):
        ok = kind == "bool"
    elif kind == "float" and isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            ok = False
    elif kind == "float":
        ok = isinstance(value, (int, float))
    else:
        ok = isinstance(value, _SCALARS[kind])
    if not ok:
        raise ConfigError(f"{path} must be {annotation}, got {value!r}")
    return value


def _build_section(cls, raw, path):
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"section '{path}' must be a mapping")
    allowed = set(cls.__dataclass_fields__)
    unknown = set(raw) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in '{path}': {sorted(unknown)}")
    return cls(**{f.name: _typed(raw[f.name], f.type, f"{path}.{f.name}")
                  for f in fields(cls) if f.name in raw})


def config_from_dict(raw):
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    allowed = set(_SECTIONS) | {"seed", "out", "frozen"}
    unknown = set(raw) - allowed
    if unknown:
        raise ConfigError(f"unknown top-level keys: {sorted(unknown)}")
    sections = {name: _build_section(cls, raw.get(name), name)
                for name, cls in _SECTIONS.items()}
    top = {f.name: _typed(raw[f.name], f.type, f.name)
           for f in fields(RunConfig) if f.name in raw and f.name not in _SECTIONS}
    cfg = RunConfig(**top, **sections)
    return cfg.validate()


def load_config(path=None, overrides=None):
    """Config from a YAML file plus command-line overrides."""
    raw = {}
    if path is not None:
        try:
            with open(path) as fh:
                raw = yaml.safe_load(fh)
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {path}") from exc
        except yaml.YAMLError as exc:
            raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
    cfg = config_from_dict(raw)
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key == "seed":
            cfg.seed = int(value)
        elif key == "out":
            cfg.out = str(value)
        elif key == "frozen":
            cfg.frozen = bool(value)
        elif key == "keep_ratio":
            cfg.pruning.keep_ratio = float(value)
        else:
            raise ConfigError(f"unknown override '{key}'")
    return cfg.validate()
