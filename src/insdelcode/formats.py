"""File formats for messages, codewords, and instance specs.

Value arrays support three encodings: json (a JSON array of canonical
values), csv (one value per line), and raw (binary fields only: bits packed
most-significant-bit-first within each byte, zero-padded, preceded by an
8-byte little-endian bit count).
"""

from __future__ import annotations

import json
import struct
from pathlib import Path
from typing import Sequence, Union

from .errors import UsageError

PathLike = Union[str, Path]

FORMATS = ("json", "csv", "raw")


def pack_bits(bits: Sequence[int]) -> bytes:
    for b in bits:
        if b not in (0, 1):
            raise UsageError("raw format requires 0/1 values")
    out = bytearray(struct.pack("<Q", len(bits)))
    acc = 0
    filled = 0
    for b in bits:
        acc = (acc << 1) | int(b)
        filled += 1
        if filled == 8:
            out.append(acc)
            acc = filled = 0
    if filled:
        out.append(acc << (8 - filled))
    return bytes(out)


def unpack_bits(blob: bytes) -> list[int]:
    if len(blob) < 8:
        raise UsageError("raw stream too short for its length prefix")
    (nbits,) = struct.unpack("<Q", blob[:8])
    body = blob[8:]
    if len(body) * 8 < nbits:
        raise UsageError("raw stream shorter than its declared bit length")
    bits = []
    for byte in body:
        for k in range(7, -1, -1):
            bits.append((byte >> k) & 1)
            if len(bits) == nbits:
                return bits
    return bits[:nbits]


def write_values(path: PathLike, values: Sequence[int], fmt: str = "json") -> None:
    values = [int(v) for v in values]
    path = Path(path)
    if fmt == "json":
        path.write_text(json.dumps(values) + "\n")
    elif fmt == "csv":
        path.write_text("".join(f"{v}\n" for v in values))
    elif fmt == "raw":
        path.write_bytes(pack_bits(values))
    else:
        raise UsageError(f"unknown format {fmt!r}; choose from {FORMATS}")


def read_values(path: PathLike, fmt: str = "json") -> list[int]:
    path = Path(path)
    if fmt == "json":
        data = json.loads(path.read_text())
        if not isinstance(data, list):
            raise UsageError(f"{path} does not hold a JSON array")
        return [int(v) for v in data]
    if fmt == "csv":
        return [int(line) for line in path.read_text().split() if line]
    if fmt == "raw":
        return unpack_bits(path.read_bytes())
    raise UsageError(f"unknown format {fmt!r}; choose from {FORMATS}")


def write_json(path: PathLike, obj: dict) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def read_json(path: PathLike) -> dict:
    return json.loads(Path(path).read_text())
