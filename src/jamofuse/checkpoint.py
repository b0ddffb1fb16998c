"""Versioned binary checkpoint container.

Layout: 4-byte magic "JFCK", little-endian u32 format version, little-endian
u64 header length, UTF-8 JSON header, then each tensor's raw little-endian
float64 bytes in the header's declared order. The header carries the seed and
a config echo so checkpoints from different configurations are
distinguishable by content, not just by filename. The file is written
through `common.write_atomic`.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .common import write_atomic
from .tensor import ParamGroup

MAGIC = b"JFCK"
FORMAT_VERSION = 1
_PREFIX = struct.Struct("<4sIQ")


class CheckpointError(ValueError):
    pass


@dataclass
class Checkpoint:
    seed: int
    config: dict
    tensors: dict[str, np.ndarray]  # insertion order = declared order

    @property
    def names(self) -> list[str]:
        return list(self.tensors)


def save_checkpoint(path: str, params: ParamGroup, seed: int, config: dict) -> None:
    """Write the container atomically through write_atomic."""
    header = {
        "format_version": FORMAT_VERSION,
        "seed": seed,
        "config": config,
        "tensors": [{"name": name, "shape": list(t.shape)} for name, t in params.items()],
    }
    header_bytes = json.dumps(header, ensure_ascii=False, sort_keys=True).encode("utf-8")
    chunks = [_PREFIX.pack(MAGIC, FORMAT_VERSION, len(header_bytes)), header_bytes]
    chunks += [np.ascontiguousarray(t.data, dtype="<f8").tobytes() for _, t in params.items()]
    write_atomic(path, b"".join(chunks))


def load_checkpoint(path: str) -> Checkpoint:
    with open(path, "rb") as f:
        prefix = f.read(_PREFIX.size)
        if len(prefix) < _PREFIX.size:
            raise CheckpointError(f"{path}: truncated prefix")
        magic, version, header_len = _PREFIX.unpack(prefix)
        if magic != MAGIC:
            raise CheckpointError(f"{path}: bad magic {magic!r}")
        if version != FORMAT_VERSION:
            raise CheckpointError(f"{path}: unsupported format version {version}")
        header_bytes = f.read(header_len)
        if len(header_bytes) < header_len:
            raise CheckpointError(f"{path}: truncated header")
        try:
            header = json.loads(header_bytes.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise CheckpointError(f"{path}: bad header: {e}") from e
        if not isinstance(header, dict):
            raise CheckpointError(f"{path}: header is not a JSON object")
        missing = [key for key in ("seed", "config", "tensors") if key not in header]
        if missing:
            raise CheckpointError(f"{path}: header has no {', '.join(missing)}")
        if type(header["seed"]) is not int:
            raise CheckpointError(f"{path}: header seed {header['seed']!r} is not an integer")
        if not isinstance(header["tensors"], list):
            raise CheckpointError(f"{path}: header tensors is not a list")
        tensors: dict[str, np.ndarray] = {}
        for entry in header["tensors"]:
            if not isinstance(entry, dict) or "name" not in entry or "shape" not in entry:
                raise CheckpointError(f"{path}: tensor entry {entry!r} needs a name and a shape")
            if not isinstance(entry["name"], str):
                raise CheckpointError(f"{path}: tensor name {entry['name']!r} is not a string")
            if not isinstance(entry["shape"], list) or not all(
                type(n) is int and n >= 0 for n in entry["shape"]
            ):
                raise CheckpointError(
                    f"{path}: shape {entry['shape']!r} of {entry['name']!r} is not a list of non-negative integers"
                )
            shape = tuple(entry["shape"])
            count = math.prod(shape)  # Python ints: a declared shape cannot overflow
            if count * 8 > os.fstat(f.fileno()).st_size - f.tell():
                raise CheckpointError(f"{path}: truncated payload for {entry['name']!r}")
            raw = f.read(count * 8)
            values = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)
            if not np.isfinite(values).all():
                raise CheckpointError(f"{path}: tensor {entry['name']!r} holds NaN or infinite values")
            tensors[entry["name"]] = values
        if f.read(1):
            raise CheckpointError(f"{path}: bytes remain after the last tensor")
        return Checkpoint(seed=header["seed"], config=header["config"], tensors=tensors)


def restore(params: ParamGroup, ckpt: Checkpoint, path: str) -> None:
    """Copy a loaded checkpoint's values into params in place; names and shapes must match exactly."""
    expected = [name for name, _ in params.items()]
    if ckpt.names != expected:
        raise CheckpointError(
            f"{path}: tensor names {ckpt.names} do not match parameters {expected}"
        )
    for name, tensor in params.items():
        saved = ckpt.tensors[name]
        if saved.shape != tensor.shape:
            raise CheckpointError(
                f"{path}: shape {saved.shape} for {name!r} does not match parameter {tensor.shape}"
            )
        tensor.data[...] = saved


def load_into(params: ParamGroup, path: str) -> Checkpoint:
    """Restore parameter values in place from the checkpoint file at path."""
    ckpt = load_checkpoint(path)
    restore(params, ckpt, path)
    return ckpt
