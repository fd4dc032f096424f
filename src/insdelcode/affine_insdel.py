"""High-rate binary affine code for insertion/deletion errors.

Each coordinate of an inner Reed-Solomon codeword over GF(2^l0) is framed
into a block: a boundary 0 1^(t+1), then the synchronization symbol for that
coordinate and the data symbol in binary, with a 0 stuffed after every t
content bits so no content run of ones can imitate a boundary.  All framing
is a fixed pattern at fixed positions, so the codeword set is a coset of a
linear space: encode(x) ^ encode(x') ^ encode(0) == encode(x ^ x').

The code is used as that affine map: content bit k of a block sits at
k + k//t after the boundary, so encoding copies the offset encode(0) and
scatters the bits of the inner codeword to fixed positions, and decoding
gathers the sync and data columns of every block of the expected length.

Decoding scans for maximal 1-runs of length >= t+1 (a run plus its
preceding zero is a boundary), reads the content between boundaries,
recovers coordinate indices from the sync readings, and finishes with
errors-and-erasures Reed-Solomon decoding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DecodeFailure, ParameterError, UsageError
from .gf import BinaryField, irreducible_poly
from .hamming_ecc import LinearCode, rs_build
from .sync_string import SyncString, construct_sync_string, index_recovery


def _unpack(values: Sequence[int], width: int) -> np.ndarray:
    """Bits of each value, least significant first, one row per value."""
    nbytes = (width + 7) // 8
    raw = b"".join(int(v).to_bytes(nbytes, "little") for v in values)
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
    return bits.reshape(len(values), 8 * nbytes)[:, :width].astype(np.int64)


def _pack(bits: np.ndarray) -> list[int]:
    """Inverse of _unpack: the value of each row of a 0/1 matrix."""
    packed = np.packbits(bits.astype(np.uint8), axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


class AffineCode:
    """Parameter bundle plus encode/decode for the framed affine code."""

    def __init__(self, inner: LinearCode, sync: SyncString, t: int,
                 epsilon: float, kappa: Optional[int] = None):
        if not isinstance(inner.field, BinaryField):
            raise UsageError("inner code must live over GF(2^l0)")
        if sync.n != inner.n:
            raise UsageError(
                f"sync string length {sync.n} != inner block length {inner.n}")
        if t < 2:
            raise ParameterError("stuffing period t must be >= 2")
        self.inner = inner
        self.sync = sync
        self.t = t
        self.epsilon = epsilon
        self.n0 = inner.n
        self.m0 = inner.m
        self.l0 = inner.field.degree
        self.l_s = sync.bits_per_symbol
        self.l = self.l_s + self.l0
        self.content_len = self.l + self.l // t
        self.block_len = (t + 2) + self.content_len
        self.q = 2
        self.n = self.n0 * self.block_len
        self.m = self.m0 * self.l0
        self.rate = self.m / self.n
        # one insdel corrupts at most two blocks and an erased block costs
        # one unit of the inner budget 2*errors + erasures <= d0 - 1
        self.kappa = kappa if kappa is not None else max(1, (inner.d - 1) // 2)
        # a 0 is stuffed after every t content bits, so content bit k sits
        # at k + k//t; sync bits come first, then data bits
        cols = np.arange(self.l) + np.arange(self.l) // t
        self._sync_cols, self._data_cols = cols[:self.l_s], cols[self.l_s:]
        blocks = np.zeros((self.n0, self.block_len), dtype=np.int64)
        blocks[:, 1:t + 2] = 1
        blocks[:, t + 2 + self._sync_cols] = _unpack(sync.symbols, self.l_s)
        self._offset = blocks.ravel()
        self._data_pos = (np.arange(self.n0)[:, None] * self.block_len
                          + t + 2 + self._data_cols).ravel()

    def offset(self) -> np.ndarray:
        """Codeword of the zero message: the affine shift."""
        return self._offset.copy()

    def encode(self, x: Sequence[int]) -> np.ndarray:
        if len(x) != self.m:
            raise UsageError(f"message length {len(x)} != m={self.m}")
        bits = np.asarray(x, dtype=np.int64)
        if not np.isin(bits, (0, 1)).all():
            raise UsageError("message must be a bit sequence")
        y = self.inner.encode(_pack(bits.reshape(self.m0, self.l0)))
        out = self._offset.copy()
        out[self._data_pos] = _unpack(y, self.l0).ravel()
        return out

    def parse_blocks(self, received: Sequence[int]) -> list[np.ndarray]:
        return parse_blocks(received, self.t)

    def decode(self, received: Sequence[int]) -> list[int]:
        """The message bits: the inverse of encode within kappa insdels."""
        return _unpack(self._decode_symbols(received), self.l0).ravel().tolist()

    def decode_bits(self, received: Sequence[int]) -> list[int]:
        """Same as decode; the benchmark's affine workload calls this name."""
        return self.decode(received)

    def _decode_symbols(self, received: Sequence[int]) -> list[int]:
        """Parse, read sync and data, recover indices, errors-and-erasures
        decode: the inner message symbols over GF(2^l0)."""
        received = np.asarray(received, dtype=np.int64)
        if received.size and not np.isin(received, (0, 1)).all():
            raise UsageError("received word must be a bit stream")
        # a block of another length is corrupted; its coordinate becomes an
        # erasure
        stacked = np.array([b for b in self.parse_blocks(received)
                            if len(b) == self.content_len],
                           dtype=np.int64).reshape(-1, self.content_len)
        sync = _pack(stacked[:, self._sync_cols])
        data = _pack(stacked[:, self._data_cols])
        # assigned indices strictly increase, so no position is read twice,
        # and the positions left unread are the assignment's erasures
        assignment = index_recovery(sync, self.sync)
        word = [0] * self.n0
        for value, idx in zip(data, assignment.assigned):
            if idx is not None:
                word[idx] = value
        return self.inner.decode(word, erasures=assignment.erasures)

    def to_json(self) -> dict:
        return {"kind": "affine", "epsilon": self.epsilon, "t": self.t,
                "kappa": self.kappa, "inner": self.inner.to_json(),
                "sync": self.sync.to_json()}

    @classmethod
    def from_json(cls, spec: dict) -> "AffineCode":
        return cls(LinearCode.from_json(spec["inner"]),
                   SyncString.from_json(spec["sync"]), int(spec["t"]),
                   float(spec["epsilon"]), kappa=int(spec["kappa"]))


def parse_blocks(received: Sequence[int], t: int) -> list[np.ndarray]:
    """Split a bit stream at boundaries (1-runs of length >= t+1).

    The zero preceding a run belongs to the boundary, and a block's content
    starts exactly t+1 ones after its run begins: stuffing caps legitimate
    content runs at t ones, so a longer run spills the encoder's own content
    bits, not a second boundary.  Content ends at the zero preceding the
    next boundary's run; bits before the first boundary are discarded.
    Corruption shows up as contents of unexpected length; that is the
    caller's data, not an error.
    """
    bits = np.asarray(received, dtype=np.int64)
    if bits.size == 0:
        return []
    padded = np.concatenate([[0], (bits != 0).astype(np.int64), [0]])
    delta = np.diff(padded)
    starts = np.flatnonzero(delta == 1)
    ends = np.flatnonzero(delta == -1)  # run is [start, end)
    keep = (ends - starts) >= t + 1
    starts = starts[keep]
    blocks = []
    for k in range(len(starts)):
        lo = starts[k] + t + 1
        hi = starts[k + 1] - 1 if k + 1 < len(starts) else len(bits)
        blocks.append(bits[lo:hi])
    return blocks


def affine_params(epsilon: float, n0: int, seed=0, c_l: float = 1.0,
                  c_t: float = 1.0, c_m: float = 2.0, eta: float = 0.01,
                  kappa: Optional[int] = None) -> AffineCode:
    """Instantiate the code from the headline parameters.

    l0 = ceil(c_l / eps^2) bits per data symbol, stuffing period
    t = ceil(c_t / eps), inner message length m0 = round(n0 (1 - c_m eps))
    (c_m = 2 makes the Reed-Solomon distance 2 eps n0 + 1 exactly), sync
    alphabet of size 16/eta^2.  Rate approaches 1 - O(eps) as the block
    bookkeeping amortizes.
    """
    if not 0 < epsilon < 0.5:
        raise ParameterError("epsilon must lie in (0, 1/2)")
    l0 = math.ceil(c_l / epsilon ** 2)
    t = math.ceil(c_t / epsilon)
    m0 = round(n0 * (1.0 - c_m * epsilon))
    if m0 < 1:
        raise ParameterError(
            f"m0 = {m0} infeasible for epsilon={epsilon}, n0={n0}")
    if (1 << l0) < n0:
        raise ParameterError(f"need 2^l0 >= n0 for the inner code, l0={l0}")
    field = BinaryField(l0, irreducible_poly(l0))
    inner = rs_build(field, n0, m0)
    sync = construct_sync_string(n0, eta, seed)
    return AffineCode(inner, sync, t, epsilon, kappa=kappa)


@dataclass(frozen=True)
class AffineParamsRow:
    epsilon: float
    n0: int
    l0: int
    t: int
    m0: int
    l_s: int
    n: int
    m: int
    rate: float
    kappa: int


def affine_params_sweep(epsilons: Sequence[float], n0: int,
                        seed=0) -> list[AffineParamsRow]:
    """Dimension table across epsilon values (rate falls, kappa/n rises)."""
    rows = []
    for eps in epsilons:
        code = affine_params(eps, n0, seed=seed)
        rows.append(AffineParamsRow(
            eps, n0, code.l0, code.t, code.m0, code.l_s, code.n, code.m,
            code.rate, code.kappa))
    return rows
