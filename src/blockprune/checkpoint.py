"""Checkpoint container: text header plus little-endian float32 blob.

Layout (documented in docs/format.md): one ASCII line
``BLOCKPRUNE-CKPT v1 <header_bytes>`` followed by a UTF-8 JSON header of
exactly that many bytes, followed by the raw float32 values of every entry
in header order. Offsets are float32 element offsets into the blob.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict

import numpy as np

from .autograd import Tensor
from .errors import DataFormatError
from .vit import (MASK_KINDS, CompactVit, MaskSet, MaskedVit, VitConfig, block_shapes,
                  trunk_shapes)

MAGIC = "BLOCKPRUNE-CKPT v1"



def _trunk_entries(model, block_entries):
    """(name, tensor) of the stem, then ``block_entries``, then the head."""
    for name in model.STEM:
        yield name, getattr(model, name)
    yield from block_entries
    for name in model.HEAD:
        yield name, getattr(model, name)


def _masked_entries(model: MaskedVit, masks: MaskSet):
    yield from _trunk_entries(model, ((f"layer.{d}.{key}", t)
                                      for d, layer in enumerate(model.layers)
                                      for key, t in layer.items()))
    for i, block in enumerate(masks.blocks):
        for kind, t in block.items():
            yield f"mask.{i}.{kind}", t


def _compact_entries(model: CompactVit):
    return _trunk_entries(model, ((f"block.{i}.{key}", b[key])
                                  for i, b in enumerate(model.blocks)
                                  for key in model.BLOCK_KEYS[b["type"]]))


def _write(path, kind, config, entries, extra=None):
    names, tensors = zip(*entries)
    header_entries = []
    offset = 0
    for name, t in zip(names, tensors):
        header_entries.append({"name": name, "shape": list(t.shape), "offset": offset})
        offset += t.size
    header = {
        "kind": kind,
        "config": asdict(config),
        "entries": header_entries,
    }
    if extra:
        header["structure"] = extra
    payload = json.dumps(header).encode()
    with open(path, "wb") as fh:
        fh.write(f"{MAGIC} {len(payload)}\n".encode())
        fh.write(payload)
        for t in tensors:
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


def _entry(path, values, name, shape):
    if name not in values:
        raise DataFormatError(f"{path}: missing entry '{name}'")
    if values[name].shape != tuple(shape):
        raise DataFormatError(f"{path}: entry '{name}' has shape "
                              f"{values[name].shape}, expected {tuple(shape)}")
    return values[name]


def _index_list(path, i, kind, idx, width):
    """Block i's kept ``kind`` channels as an array; ``idx`` must be a
    non-empty, strictly increasing list of channels in [0, width)."""
    if not (isinstance(idx, list) and idx and all(type(v) is int for v in idx)
            and 0 <= idx[0] and idx[-1] < width and all(a < b for a, b in zip(idx, idx[1:]))):
        raise DataFormatError(f"{path}: structure block {i} '{kind}_idx' is not a sorted "
                              f"list of distinct channels in [0, {width})")
    return np.asarray(idx, dtype=np.int64)


def save_masked(path, model: MaskedVit, masks: MaskSet):
    _write(path, "masked", model.config, list(_masked_entries(model, masks)))


def load(path, dtype=np.float32):
    """(model, masks) of a masked checkpoint, or (model, None) of a compact one."""
    header, config, values = _read(path)
    if header["kind"] == "masked":
        return _masked_model(path, config, values, dtype)
    return _compact_model(path, header, config, values, dtype), None


def load_masked(path, dtype=np.float32):
    _, config, values = _read(path, ("masked",))
    return _masked_model(path, config, values, dtype)


def _masked_model(path, config, values, dtype):
    model = MaskedVit(config, seed=0, dtype=dtype)
    masks = MaskSet(config, dtype=dtype)
    for name, t in _masked_entries(model, masks):
        t.data = _entry(path, values, name, t.shape).astype(dtype)
    return model, masks


def save_compact(path, model: CompactVit):
    structure = [{"type": b["type"], **{f"{kind}_idx": b[f"{kind}_idx"].tolist()
                                        for kind in MASK_KINDS[b["type"]]}}
                 for b in model.blocks]
    _write(path, "compact", model.config, list(_compact_entries(model)), extra=structure)


def load_compact(path, dtype=np.float32):
    return _compact_model(path, *_read(path, ("compact",)), dtype)


def _compact_model(path, header, config, values, dtype):
    structure = header["structure"]
    if not isinstance(structure, list) or len(structure) != config.num_blocks:
        raise DataFormatError(f"{path}: structure is not a list of "
                              f"{config.num_blocks} blocks, one per block of the config")

    def tensor(name, shape):
        return Tensor(_entry(path, values, name, shape).astype(dtype), requires_grad=True)

    blocks = []
    for i, s in enumerate(structure):
        btype = config.block_type(i)
        if not isinstance(s, dict) or s.get("type") != btype:
            raise DataFormatError(f"{path}: structure block {i} is not an object of "
                                  f"type {btype!r}")
        idx = {kind: _index_list(path, i, kind, s.get(f"{kind}_idx"), width)
               for kind, width in config.mask_sizes(i).items()}
        b = {"type": btype, **{f"{kind}_idx": kept for kind, kept in idx.items()}}
        shapes = block_shapes(config, btype, *map(len, idx.values()))
        b.update((key, tensor(f"block.{i}.{key}", shape))
                 for key, shape in zip(CompactVit.BLOCK_KEYS[btype], shapes))
        blocks.append(b)
    trunk = {name: tensor(name, shape) for name, shape in trunk_shapes(config).items()}
    return CompactVit(config, trunk, blocks, dtype)
