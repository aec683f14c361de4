"""Dataset generation, loading and batching for desk-scale runs."""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError

IDX_MAGIC_IMAGES = 0x00000803
IDX_MAGIC_LABELS = 0x00000801


@dataclass
class Dataset:
    images: np.ndarray   # n x h x w x c in [0, 1]
    labels: np.ndarray   # int class indices
    num_classes: int

    def __post_init__(self):
        if self.images.shape[0] != self.labels.shape[0]:
            raise DataFormatError(
                f"{self.images.shape[0]} images but {self.labels.shape[0]} labels")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise DataFormatError("label outside configured class range")

    def __len__(self):
        return self.images.shape[0]


@dataclass
class SyntheticSpec:
    num_classes: int = 10
    image_size: int = 32
    channels: int = 1
    noise: float = 0.3
    train_per_class: int = 120
    val_per_class: int = 30
    template_grid: int = 8   # low-res seed grid, upsampled for smoothness
    seed: int = 0


def _smooth_templates(spec: SyntheticSpec, rng):
    """Per-class smooth random images: coarse noise upsampled bilinearly."""
    g, s = spec.template_grid, spec.image_size
    coarse = rng.uniform(0.1, 0.9, size=(spec.num_classes, g, g, spec.channels))
    # bilinear upsample to s x s
    pos = (np.arange(s) + 0.5) * g / s - 0.5
    lo = np.clip(np.floor(pos).astype(int), 0, g - 1)
    hi = np.clip(lo + 1, 0, g - 1)
    frac = np.clip(pos - lo, 0.0, 1.0)
    rows = coarse[:, lo] * (1 - frac)[None, :, None, None] + coarse[:, hi] * frac[None, :, None, None]
    full = (rows[:, :, lo] * (1 - frac)[None, None, :, None]
            + rows[:, :, hi] * frac[None, None, :, None])
    return full


def generate_synthetic(spec: SyntheticSpec):
    """Noisy views of per-class templates; identical spec gives identical bytes."""
    if spec.num_classes < 2:
        raise ValueError("need at least two classes")
    rng = np.random.default_rng(spec.seed)
    templates = _smooth_templates(spec, rng)
    splits = {}
    for split, per_class in (("train", spec.train_per_class), ("val", spec.val_per_class)):
        n = per_class * spec.num_classes
        labels = np.repeat(np.arange(spec.num_classes), per_class)
        noise = rng.normal(0.0, spec.noise, size=(n,) + templates.shape[1:]) if spec.noise > 0 \
            else np.zeros((n,) + templates.shape[1:])
        images = np.clip(templates[labels] + noise, 0.0, 1.0).astype(np.float32)
        splits[split] = Dataset(images, labels.astype(np.int64), spec.num_classes)
    return splits["train"], splits["val"], templates


def _read_idx(path, expected_magic):
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 8:
        raise DataFormatError(f"{path}: truncated IDX header")
    magic = struct.unpack(">I", raw[:4])[0]
    if magic != expected_magic:
        raise DataFormatError(f"{path}: bad IDX magic 0x{magic:08x}")
    ndim = magic & 0xFF
    if len(raw) < 4 + 4 * ndim:
        raise DataFormatError(f"{path}: truncated IDX header")
    dims = struct.unpack(f">{ndim}I", raw[4:4 + 4 * ndim])
    payload = raw[4 + 4 * ndim:]
    expected = int(np.prod(dims))
    if len(payload) < expected:
        raise DataFormatError(f"{path}: truncated IDX payload "
                              f"({len(payload)} of {expected} bytes)")
    return np.frombuffer(payload[:expected], dtype=np.uint8).reshape(dims)


def _resize_nearest(images, size):
    n, h, w = images.shape[:3]
    if (h, w) == (size, size):
        return images
    ri = np.minimum((np.arange(size) * h) // size, h - 1)
    ci = np.minimum((np.arange(size) * w) // size, w - 1)
    return images[:, ri][:, :, ci]


def load_idx(images_path, labels_path, image_size=32, num_classes=None):
    """Load an IDX image/label pair, scale to [0,1], resize to image_size."""
    raw_images = _read_idx(images_path, IDX_MAGIC_IMAGES)
    raw_labels = _read_idx(labels_path, IDX_MAGIC_LABELS)
    if raw_images.shape[0] != raw_labels.shape[0]:
        raise DataFormatError(
            f"image/label count mismatch: {raw_images.shape[0]} vs {raw_labels.shape[0]}")
    if raw_images.shape[0] == 0:
        raise DataFormatError(f"{images_path}: IDX file holds no images")
    images = (raw_images.astype(np.float32) / 255.0)[..., None]
    images = _resize_nearest(images, image_size)
    labels = raw_labels.astype(np.int64)
    k = num_classes if num_classes is not None else int(labels.max()) + 1
    return Dataset(images, labels, k)


def normalize_images(images):
    """Per-image zero-mean/unit-std normalization. An image whose std is at
    most 1e-6 maps to zeros: the float32 mean of a constant image can miss
    its value by a rounding step, which the division would blow up."""
    flat = images.reshape(images.shape[0], -1)
    mu = flat.mean(axis=1)[:, None, None, None]
    sd = flat.std(axis=1)[:, None, None, None]
    return (images - mu) / np.maximum(sd, 1e-6) * (sd > 1e-6)


def batch_iter(ds: Dataset, batch_size, seed, epoch, flip=False):
    """Deterministic epoch-shuffled batches; the last partial batch is kept."""
    if batch_size < 1:
        raise ValueError("batch size must be >= 1")
    order = np.random.default_rng([seed, epoch]).permutation(len(ds))
    rng_flip = np.random.default_rng([seed, epoch, 1]) if flip else None
    for start in range(0, len(ds), batch_size):
        idx = order[start:start + batch_size]
        images = ds.images[idx]
        if flip:
            do = rng_flip.random(len(idx)) < 0.5
            images = images.copy()
            images[do] = images[do, :, ::-1]
        yield images, ds.labels[idx]
