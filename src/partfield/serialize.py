"""Versioned binary checkpoint container, plus the meta and layer-shape
checks its loaders share.

Layout (all little-endian):
  magic 4 bytes | version u32 | meta_len u32 | meta JSON (utf-8)
  | n_arrays u32 | per array: ndim u32, shape u32*, float64 payload
"""

import json
import struct

import numpy as np

from .errors import FormatError

VERSION = 1


def save_arrays(path, magic: bytes, meta: dict, arrays) -> None:
    assert len(magic) == 4
    with open(path, "wb") as f:
        f.write(magic)
        f.write(struct.pack("<I", VERSION))
        blob = json.dumps(meta, sort_keys=True).encode()
        f.write(struct.pack("<I", len(blob)))
        f.write(blob)
        f.write(struct.pack("<I", len(arrays)))
        for a in arrays:
            a = np.asarray(a, dtype="<f8")
            f.write(struct.pack("<I", a.ndim))
            f.write(struct.pack(f"<{a.ndim}I", *a.shape))
            f.write(a.tobytes())


def load_arrays(path, magic: bytes):
    """Returns (meta, [arrays]); raises FormatError on any mismatch."""
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != magic:
        raise FormatError(
            f"bad magic at byte 0: expected {magic!r}, got {blob[:4]!r}")
    off = 4
    try:
        (version,) = struct.unpack_from("<I", blob, off)
        off += 4
        if version != VERSION:
            raise FormatError(f"unsupported format version {version} at byte 4")
        (meta_len,) = struct.unpack_from("<I", blob, off)
        off += 4
        meta = json.loads(blob[off:off + meta_len].decode())
        off += meta_len
        (n_arrays,) = struct.unpack_from("<I", blob, off)
        off += 4
        arrays = []
        for _ in range(n_arrays):
            (ndim,) = struct.unpack_from("<I", blob, off)
            off += 4
            shape = struct.unpack_from(f"<{ndim}I", blob, off)
            off += 4 * ndim
            count = int(np.prod(shape)) if ndim else 1
            a = np.frombuffer(blob, dtype="<f8", count=count, offset=off)
            off += count * 8
            arrays.append(a.reshape(shape).copy())
    except (struct.error, json.JSONDecodeError, ValueError) as exc:
        raise FormatError(f"truncated or corrupt checkpoint near byte {off}") from exc
    if off != len(blob):
        raise FormatError(f"{len(blob) - off} trailing bytes after the last "
                          f"array at byte {off}")
    return meta, arrays


def checked_meta(meta, types: dict) -> dict:
    """The checkpoint meta, after checking that each key of `types` is
    present with a value of its type (a bool is not a number here);
    FormatError names the first key that is not."""
    if not isinstance(meta, dict):
        raise FormatError(f"checkpoint meta is not a JSON object: {meta!r}")
    for key, kind in types.items():
        value = meta.get(key)
        if key not in meta or not isinstance(value, kind) \
                or isinstance(value, bool):
            raise FormatError(f"checkpoint meta {key!r} is missing or has "
                              f"the wrong type: {value!r}")
    return meta


def mlp_layers(arrays, widths) -> list:
    """Pair arrays as [(W, b), ...] of an MLP with layer widths `widths`
    (input first; None admits any width that chains); FormatError on a
    wrong array count or a shape that disagrees."""
    expected = 2 * (len(widths) - 1)
    if len(arrays) != expected:
        raise FormatError(f"checkpoint meta implies {expected} layer "
                          f"arrays, found {len(arrays)}")
    layers = []
    width = widths[0]
    for i, out in enumerate(widths[1:]):
        W, b = arrays[2 * i], arrays[2 * i + 1]
        if (W.ndim != 2 or W.shape[0] != width
                or out is not None and W.shape[1] != out
                or b.shape != W.shape[1:]):
            raise FormatError(f"checkpoint layer {i} has W {W.shape} and b "
                              f"{b.shape}; expected W ({width}, {out or 'any'})")
        layers.append((W, b))
        width = W.shape[1]
    return layers
