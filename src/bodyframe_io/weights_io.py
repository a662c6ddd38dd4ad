"""Versioned binary container for model weights.

Layout (little-endian):

    bytes 0..3    magic b"BFWT"
    bytes 4..5    format version, uint16 (currently 1)
    bytes 6..7    reserved, zero
    bytes 8..11   header length H, uint32
    bytes 12..    H bytes of UTF-8 JSON:
                      {"variant": str,
                       "meta": {...},
                       "arrays": [{"name", "shape", "dtype"}, ...]}
    then          raw C-order array payloads, concatenated in listed order

All arrays are stored as float64; a float32 array is stored exactly.
`variant` tags what the weights are for (e.g. "affine-corrector-v1",
"motion-net-v1") so loaders can refuse files meant for a different
model. A header lacking any of its three fields, or with an ill-formed
one, raises ParseError; an array holding a NaN or an infinity raises
DataError naming the file and the array.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from .errors import DataError, ParseError

MAGIC = b"BFWT"
VERSION = 1

_PREFIX = struct.Struct("<4sHHI")


def save_weights(path, variant: str, arrays: dict, meta: dict | None = None):
    """Write named float64 arrays plus JSON-serializable metadata."""
    entries = []
    payload = bytearray()
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(arr, dtype=np.float64)
        entries.append({"name": name, "shape": list(arr.shape), "dtype": "float64"})
        payload += arr.tobytes()
    header = json.dumps(
        {"variant": variant, "meta": meta or {}, "arrays": entries},
        sort_keys=True,
    ).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_PREFIX.pack(MAGIC, VERSION, 0, len(header)))
        fh.write(header)
        fh.write(payload)


def load_weights(path, expected_variant: str | None = None):
    """Read a container; returns (variant, meta, {name: array}). A path
    that names no file, or an array with a non-finite value, raises
    DataError."""
    try:
        fh = open(path, "rb")
    except (FileNotFoundError, IsADirectoryError):
        raise DataError(f"no such file: {path}") from None
    with fh:
        blob = fh.read()
    if len(blob) < _PREFIX.size:
        raise ParseError(f"{path}: truncated weight file")
    magic, version, _, header_len = _PREFIX.unpack_from(blob, 0)
    if magic != MAGIC:
        raise ParseError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise ParseError(f"{path}: unsupported version {version}")
    try:
        header = json.loads(blob[_PREFIX.size : _PREFIX.size + header_len])
        variant, meta, entries = header["variant"], header["meta"], header["arrays"]
        layout = [(entry["name"], tuple(entry["shape"])) for entry in entries]
        if not isinstance(meta, dict):
            raise TypeError("meta is not an object")
        if not all(type(d) is int and d >= 0 for _, shape in layout for d in shape):
            raise TypeError("array dimensions must be nonnegative integers")
    except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError) as exc:
        raise ParseError(f"{path}: corrupt header: {exc!r}") from None
    if expected_variant is not None and variant != expected_variant:
        raise DataError(
            f"{path}: weight variant {variant!r}, expected {expected_variant!r}"
        )
    arrays = {}
    offset = _PREFIX.size + header_len
    for name, shape in layout:
        count = int(np.prod(shape)) if shape else 1
        end = offset + 8 * count
        if end > len(blob):
            raise ParseError(f"{path}: payload shorter than declared arrays")
        arr = np.frombuffer(blob[offset:end], dtype=np.float64).reshape(shape)
        if not np.isfinite(arr).all():
            raise DataError(f"{path}: array {name} must be finite")
        arrays[name] = arr.copy()
        offset = end
    return variant, meta, arrays
