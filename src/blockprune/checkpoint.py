"""Checkpoint container: text header plus little-endian float32 blob.

Layout (documented in docs/format.md): one ASCII line
``BLOCKPRUNE-CKPT v1 <header_bytes>`` followed by a UTF-8 JSON header of
exactly that many bytes, followed by the raw float32 values of every entry
in header order. Offsets are float32 element offsets into the blob.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from dataclasses import asdict
from itertools import accumulate

import numpy as np

from .errors import DataFormatError
from .vit import MASK_KINDS, CompactVit, MaskSet, MaskedVit, VitConfig, _layer_key

MAGIC = "BLOCKPRUNE-CKPT v1"


@contextmanager
def atomic_open(path, mode="w", **kwargs):
    """``open`` on a temporary file beside ``path`` that replaces ``path``
    when the block ends; on an exception the temporary file is removed and
    ``path`` keeps its old content."""
    tmp = f"{os.fspath(path)}.tmp"
    fh = open(tmp, mode, **kwargs)
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def _entries(model, masks=None):
    """(name, tensor) of every checkpoint entry in file order: the stem, the
    blocks, the head, then the masks. A block tensor is named
    ``layer.<i // 2>.<_layer_key(key, i)>`` in a masked file, the one that
    holds masks, and ``block.<i>.<key>`` in a compact one."""
    for name in model.STEM:
        yield name, getattr(model, name)
    for i, b in enumerate(model.blocks):
        for key in model.BLOCK_KEYS[b["type"]]:
            yield (f"block.{i}.{key}" if masks is None
                   else f"layer.{i // 2}.{_layer_key(key, i)}"), b[key]
    for name in model.HEAD:
        yield name, getattr(model, name)
    if masks is not None:
        for i, block in enumerate(masks.blocks):
            for kind, t in block.items():
                yield f"mask.{i}.{kind}", t


def _write(path, kind, config, entries, structure=None):
    offsets = accumulate((t.size for _, t in entries), initial=0)
    header = {"kind": kind, "config": asdict(config),
              "entries": [{"name": name, "shape": list(t.shape), "offset": offset}
                          for (name, t), offset in zip(entries, offsets)]}
    if structure:
        header["structure"] = structure
    payload = json.dumps(header).encode()
    with atomic_open(path, "wb") as fh:
        fh.write(f"{MAGIC} {len(payload)}\n".encode())
        fh.write(payload)
        for _, t in entries:
            fh.write(np.ascontiguousarray(t.data, dtype="<f4").tobytes())


def _read(path, kinds=("masked", "compact")):
    """(header, model config, entry values) of a checkpoint whose kind is one
    of ``kinds``; raises DataFormatError on a malformed header."""
    with open(path, "rb") as fh:
        first = fh.readline().decode(errors="replace").rstrip("\n")
        if not first.startswith(MAGIC):
            raise DataFormatError(f"{path}: not a checkpoint file")
        try:
            nbytes = int(first[len(MAGIC):].strip())
        except ValueError as exc:
            raise DataFormatError(f"{path}: malformed checkpoint header line") from exc
        try:
            header = json.loads(fh.read(nbytes).decode())
        except ValueError as exc:  # not UTF-8, or not JSON
            raise DataFormatError(f"{path}: checkpoint header is not JSON: {exc}") from exc
        blob = np.frombuffer(fh.read(), dtype="<f4")
    if not isinstance(header, dict):
        raise DataFormatError(f"{path}: checkpoint header is not a JSON object")
    required = ["kind", "config", "entries"]
    if header.get("kind") == "compact":
        required.append("structure")
    missing = [key for key in required if key not in header]
    if missing:
        raise DataFormatError(f"{path}: checkpoint header lacks {', '.join(missing)}")
    if header["kind"] not in kinds:
        raise DataFormatError(f"{path}: expected a {' or '.join(kinds)}-model checkpoint")
    try:
        config = VitConfig(**header["config"])
    except (TypeError, ValueError) as exc:
        raise DataFormatError(f"{path}: bad model config in checkpoint: {exc}") from exc
    entries = header["entries"]
    if not isinstance(entries, list):
        raise DataFormatError(f"{path}: checkpoint entries are not a list")
    total = 0
    for k, e in enumerate(entries):
        if not _is_entry(e, total):
            raise DataFormatError(f"{path}: entry {k} is not a {{name, shape, offset}} "
                                  f"record at offset {total}")
        total += math.prod(e["shape"])
    if blob.size != total:
        raise DataFormatError(f"{path}: blob holds {blob.size} values, header expects {total}")
    values = {e["name"]: blob[e["offset"]:e["offset"] + math.prod(e["shape"])].reshape(e["shape"])
              for e in entries}
    if len(values) != len(entries):
        raise DataFormatError(f"{path}: checkpoint entry names repeat")
    return header, config, values


def _is_entry(e, offset):
    """Whether ``e`` is a {name, shape, offset} record whose values start at ``offset``."""
    return (isinstance(e, dict) and isinstance(e.get("name"), str)
            and isinstance(e.get("shape"), list)
            and all(type(n) is int and n >= 0 for n in e["shape"])
            and type(e.get("offset")) is int and e["offset"] == offset)


def _structure(path, structure, config):
    """A compact file's ``structure``, checked against ``config``: each index
    list a non-empty, strictly increasing list of channels in [0, width)."""
    if not isinstance(structure, list) or len(structure) != config.num_blocks:
        raise DataFormatError(f"{path}: structure is not a list of "
                              f"{config.num_blocks} blocks, one per block of the config")
    for i, s in enumerate(structure):
        btype = config.block_type(i)
        if not isinstance(s, dict) or s.get("type") != btype:
            raise DataFormatError(f"{path}: structure block {i} is not an object of "
                                  f"type {btype!r}")
        for kind, width in config.mask_sizes(i).items():
            idx = s.get(f"{kind}_idx")
            if not (isinstance(idx, list) and idx and all(type(v) is int for v in idx)
                    and 0 <= idx[0] and idx[-1] < width
                    and all(a < b for a, b in zip(idx, idx[1:]))):
                raise DataFormatError(f"{path}: structure block {i} '{kind}_idx' is not a "
                                      f"sorted list of distinct channels in [0, {width})")
    return structure


def save_masked(path, model: MaskedVit, masks: MaskSet):
    _write(path, "masked", model.config, list(_entries(model, masks)))


def save_compact(path, model: CompactVit):
    structure = [{"type": b["type"], **{f"{kind}_idx": b[f"{kind}_idx"].tolist()
                                        for kind in MASK_KINDS[b["type"]]}}
                 for b in model.blocks]
    _write(path, "compact", model.config, list(_entries(model)), structure)


def load(path):
    """(model, masks) of a masked checkpoint, or (model, None) of a compact one."""
    return _load(path, *_read(path))


def load_masked(path):
    return _load(path, *_read(path, ("masked",)))


def load_compact(path):
    return _load(path, *_read(path, ("compact",)))[0]


def _load(path, header, config, values):
    """The one loader: a compact model built from the file's ``structure``,
    or a masked model and a fresh ``MaskSet``; then every tensor set from its
    entry. Consumes ``values``; an entry the model does not read is an error."""
    if header["kind"] == "compact":
        blocks = _structure(path, header["structure"], config)
        model, masks = CompactVit(config, blocks), None
    else:
        model, masks = MaskedVit(config, seed=None), MaskSet(config)
    for name, t in _entries(model, masks):
        value = values.pop(name, None)
        if value is None:
            raise DataFormatError(f"{path}: missing entry '{name}'")
        if value.shape != t.shape:
            raise DataFormatError(f"{path}: entry '{name}' has shape "
                                  f"{value.shape}, expected {t.shape}")
        if not np.all(np.isfinite(value)):
            raise DataFormatError(f"{path}: entry '{name}' holds a non-finite value")
        t.data = value.astype(np.float32)
    if values:  # what is left, in file order, is no entry of this model
        raise DataFormatError(f"{path}: entry '{next(iter(values))}' is not in the model")
    return model, masks
