"""The benchmark's three workloads: how each builds its code instance, makes
its op inputs from the run seed, runs one op, and checks the op's outputs
against the reference digests in golden.json.

Ops come in rounds and runs measure whole rounds.  A round holds every
case of the workload's op mix once (each insdel count k in 0..kappa, each
separator grid point), in an order drawn from the seed, so the mix is the
same from seed to seed.  Inputs are drawn outside the timed region.
Messages come from a fixed per-workload pool so that a reference digest
exists for every codeword any seed can produce; the seed picks pool entries
and the channel damage.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional

import numpy as np

from insdelcode import editops
from insdelcode.affine_insdel import affine_params
from insdelcode.gf import BinaryField
from insdelcode.hamming_ecc import rs_build
from insdelcode.linear_insdel import SystematicInsdelCode, build_explicit
from insdelcode.separator import construct_explicit

POOL_SIZE = 64
POOL_SEED = 7_090_752


def digest(values) -> str:
    """Exact digest of an integer sequence: its length plus the positions
    and values of its non-zero entries (cheap for the sparse 651k-symbol
    linear codewords)."""
    a = np.asarray(values, dtype=np.int64)
    nz = np.flatnonzero(a)
    h = hashlib.blake2b(digest_size=8)
    h.update(np.int64(a.size).tobytes())
    h.update(nz.astype(np.int64).tobytes())
    h.update(a[nz].tobytes())
    return h.hexdigest()


def _pool_message(j: int, q: int, m: int) -> list[int]:
    return [int(v) for v in np.random.default_rng([POOL_SEED, j]).integers(0, q, m)]


@dataclass(frozen=True)
class ChannelOp:
    """One encode -> channel -> decode round trip of a pool message.

    segments lists (n_ins, n_del, channel seed) per channel segment: one
    segment for the plain code, prefix and body for the systematic wrapper.
    """

    j: int
    msg: list
    segments: tuple
    systematic: bool = False


class LinearGF64:
    """The canonical explicit code: RS(60, 40) over GF(64), f = 0.2."""

    name = "linear-gf64"

    def build(self, smoke: bool = False):
        code = build_explicit(rs_build(BinaryField(6), 60, 40), f=0.2)
        return code, SystematicInsdelCode(code)

    def fields(self, inst):
        return [inst[0].field]

    def inputs(self, inst, seed: int, rnd: int):
        """A round has one plain and one systematic op for each k in
        0..kappa.  The systematic wrapper splits the insdel budget between
        prefix and body as in systematic_insdel_wrapper_experiment."""
        code, _ = inst
        rng = np.random.default_rng([seed, rnd])
        cases = [(k, systematic) for k in range(code.kappa + 1)
                 for systematic in (False, True)]
        ops = []
        for i in rng.permutation(len(cases)):
            k, systematic = cases[i]
            j = int(rng.integers(POOL_SIZE))
            msg = _pool_message(j, code.field.q, code.m)
            salt = [seed, rnd, len(ops)]
            if not systematic:
                n_ins = int(rng.integers(0, k + 1))
                ops.append(ChannelOp(j, msg, ((n_ins, k - n_ins, salt + [1]),)))
                continue
            k_prefix = int(rng.integers(0, k + 1))
            k_body = k - k_prefix
            ins_p = int(rng.integers(0, k_prefix + 1))
            ins_b = int(rng.integers(0, k_body + 1))
            ops.append(ChannelOp(j, msg, ((ins_p, k_prefix - ins_p, salt + [2]),
                                          (ins_b, k_body - ins_b, salt + [3])),
                                 systematic=True))
        return ops

    def run(self, inst, op: ChannelOp):
        code, wrapped = inst
        q = code.field.q
        if not op.systematic:
            z = code.encode(op.msg)
            (n_ins, n_del, ch_seed), = op.segments
            return z, code.decode(editops.insdel_channel(z, n_ins, n_del, ch_seed, q))
        full = wrapped.encode(op.msg)
        parts = (full[:wrapped.m], full[wrapped.m:])
        received = np.concatenate([
            editops.insdel_channel(part, n_ins, n_del, ch_seed, q)
            for part, (n_ins, n_del, ch_seed) in zip(parts, op.segments)])
        return full, wrapped.decode(received)

    def check(self, op: ChannelOp, out, ref: dict, counts) -> Optional[str]:
        return _check_round_trip(op, out, ref,
                                 "systematic" if op.systematic else "codeword")

    def reference(self, inst) -> dict:
        code, wrapped = inst
        msgs = [_pool_message(j, code.field.q, code.m) for j in range(POOL_SIZE)]
        return {"message": [digest(x) for x in msgs],
                "codeword": [digest(code.encode(x)) for x in msgs],
                "systematic": [digest(wrapped.encode(x)) for x in msgs]}


class AffineEps01:
    """The canonical affine code: eps = 0.1, n0 = 40, sync seed 5."""

    name = "affine-eps0.1"

    def build(self, smoke: bool = False):
        return affine_params(0.1, 40, seed=5)

    def fields(self, inst):
        return [inst.inner.field]

    def inputs(self, inst, seed: int, rnd: int):
        """A round has one op for each k in 0..kappa."""
        rng = np.random.default_rng([seed, rnd])
        ops = []
        for k in rng.permutation(inst.kappa + 1):
            j = int(rng.integers(POOL_SIZE))
            n_ins = int(rng.integers(0, k + 1))
            ops.append(ChannelOp(j, _pool_message(j, 2, inst.m),
                                 ((n_ins, int(k) - n_ins, [seed, rnd, len(ops)]),)))
        return ops

    def run(self, inst, op: ChannelOp):
        z = inst.encode(op.msg)
        (n_ins, n_del, ch_seed), = op.segments
        return z, inst.decode_bits(editops.insdel_channel(z, n_ins, n_del, ch_seed, 2))

    def check(self, op: ChannelOp, out, ref: dict, counts) -> Optional[str]:
        return _check_round_trip(op, out, ref, "codeword")

    def reference(self, inst) -> dict:
        msgs = [_pool_message(j, 2, inst.m) for j in range(POOL_SIZE)]
        return {"message": [digest(x) for x in msgs],
                "codeword": [digest(inst.encode(x)) for x in msgs]}


def _check_round_trip(op: ChannelOp, out, ref: dict, key: str) -> Optional[str]:
    codeword, decoded = out
    if digest(op.msg) != ref["message"][op.j]:
        return "message pool differs from the reference"
    if digest(codeword) != ref[key][op.j]:
        return f"{key} digest differs from the reference"
    if list(decoded) != op.msg:
        return "decoded message differs from the sent one"
    return None


# n from 40..112 in steps of 8, lam in {max(1, n//30), max(1, n//15)}
SEPARATOR_GRID = tuple((n, lam) for n in range(40, 113, 8)
                       for lam in (max(1, n // 30), max(1, n // 15)))
SMOKE_SEPARATOR_GRID = tuple(g for g in SEPARATOR_GRID if g[0] <= 48)


class SeparatorBuild:
    """One op is construct_explicit(n, lam); a round runs every grid point
    once.  Op costs across the grid differ 25-fold, so a partial round would
    change every end-to-end figure from seed to seed."""

    name = "separator-build"

    def build(self, smoke: bool = False):
        return SMOKE_SEPARATOR_GRID if smoke else SEPARATOR_GRID

    def fields(self, inst):
        return []

    def inputs(self, inst, seed: int, rnd: int):
        order = np.random.default_rng([seed, rnd]).permutation(len(inst))
        return [inst[int(i)] for i in order]

    def run(self, inst, op):
        return construct_explicit(*op)

    def check(self, op, out, ref: dict, counts) -> Optional[str]:
        seq, seed_index, a = out
        counts["separator.seeds_scanned"] += seed_index + 1
        if [seed_index, a, digest(seq.runs)] != ref[_grid_key(op)]:
            return "(seed index, runs) differ from the reference"
        return None

    def reference(self, inst) -> dict:
        refs = {}
        for op in inst:
            seq, seed_index, a = construct_explicit(*op)
            refs[_grid_key(op)] = [seed_index, a, digest(seq.runs)]
        return refs


def _grid_key(op) -> str:
    return f"{op[0]},{op[1]}"


WORKLOADS = {w.name: w for w in (LinearGF64(), AffineEps01(), SeparatorBuild())}
