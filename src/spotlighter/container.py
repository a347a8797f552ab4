"""The binary container of `.spot` feature files and SPOTCKPT checkpoints.

Framing, little-endian: magic | version byte | u32 header length | UTF-8
JSON header, an object with sorted keys | payload: arrays back to back, each
in its own dtype, row-major, in the order and shapes the header implies.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .errors import BadMagic, HeaderMismatch, SpotlighterError, TruncatedFile, VersionMismatch


def write_container(path, magic: bytes, version: int, header: dict, arrays) -> None:
    """Frame the header, then each array's bytes, already in its wire dtype."""
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(bytes([version]))
        fh.write(len(blob).to_bytes(4, "little"))
        fh.write(blob)
        for arr in arrays:
            fh.write(arr.tobytes())


def read_container(path, magic: bytes, version: int, required_keys, layout):
    """(header, arrays): `layout(header)` lists each payload array's (dtype,
    shape) or raises a SpotlighterError, which gets the path prefixed. A
    short payload is truncated, a long one mismatched; the arrays are
    read-only views of the file's bytes."""
    raw = Path(path).read_bytes()
    if len(raw) < len(magic) + 1:
        raise TruncatedFile(f"{path}: shorter than magic")
    if raw[: len(magic)] != magic:
        raise BadMagic(f"{path}: expected {magic!r}")
    if raw[len(magic)] != version:
        raise VersionMismatch(f"{path}: version {raw[len(magic)]}, expected {version}")
    off = len(magic) + 5
    if len(raw) < off:
        raise TruncatedFile(f"{path}: missing header length")
    hlen = int.from_bytes(raw[off - 4 : off], "little")
    if len(raw) < off + hlen:
        raise TruncatedFile(f"{path}: header cut short")
    try:
        header = json.loads(raw[off : off + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise HeaderMismatch(f"{path}: unparseable header: {exc}") from exc
    if not isinstance(header, dict):
        raise HeaderMismatch(f"{path}: header is not a JSON object")
    missing = [k for k in required_keys if k not in header]
    if missing:
        raise HeaderMismatch(f"{path}: header missing keys {missing}")
    try:
        specs = [(np.dtype(dtype), shape) for dtype, shape in layout(header)]
    except SpotlighterError as exc:
        raise type(exc)(f"{path}: {exc}") from exc

    payload = memoryview(raw)[off + hlen :]
    sizes = [dtype.itemsize * math.prod(shape) for dtype, shape in specs]
    if len(payload) != sum(sizes):
        error = TruncatedFile if len(payload) < sum(sizes) else HeaderMismatch
        raise error(f"{path}: payload is {len(payload)} bytes, header declares {sum(sizes)}")
    arrays, pos = [], 0
    for (dtype, shape), size in zip(specs, sizes):
        arrays.append(np.frombuffer(payload[pos : pos + size], dtype=dtype).reshape(shape))
        pos += size
    return header, arrays
