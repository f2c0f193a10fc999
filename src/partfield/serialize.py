"""Versioned binary checkpoint container.

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
