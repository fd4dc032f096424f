"""Edit distance, LCS, edit scripts, and the seeded insertion/deletion channel.

Strings are sequences of symbols (ints, or anything numpy can compare);
everything is converted to int64 arrays internally.  Only insertions and
deletions are modeled: a substitution is a deletion followed by an insertion.

LCS lengths come from one bit-parallel kernel (L. Allison and T. I. Dix,
"A bit-string longest-common-subsequence algorithm", IPL 23, 1986;
H. Hyyrö, "Bit-parallel LCS-length computation revisited", AWOCA 2004),
vectorized over a batch of (pattern, text) rows: one uint64 state word per
row for patterns of at most 63 symbols, one Python int per row beyond.  The
alignments of `lcs` and `edit_distance` come from a full numpy LCS table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence, Union

import numpy as np

from .errors import UsageError

Symbols = Union[Sequence[int], np.ndarray, str]


def _as_array(x: Symbols) -> np.ndarray:
    if isinstance(x, str):
        return np.array([ord(c) for c in x], dtype=np.int64)
    return np.asarray(x, dtype=np.int64)


def _lcs_table(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Full (len(x)+1) x (len(y)+1) LCS length table, rows vectorized."""
    nx, ny = len(x), len(y)
    L = np.zeros((nx + 1, ny + 1), dtype=np.int64)
    for i in range(1, nx + 1):
        eq = (y == x[i - 1]).astype(np.int64)
        # L[i][j] = max(cand_j, L[i][j-1]) with cand from the previous row,
        # which a running maximum turns into one accumulate pass
        cand = np.maximum(L[i - 1, 1:], L[i - 1, :-1] + eq)
        L[i, 1:] = np.maximum.accumulate(cand)
    return L


def lcs(x: Symbols, y: Symbols) -> tuple[int, list[tuple[int, int]]]:
    """LCS length and one maximal monotone alignment (0-based index pairs).

    The alignment pairs positions of equal symbols; ties in the traceback
    prefer stepping in x, making the result deterministic.
    """
    xa, ya = _as_array(x), _as_array(y)
    L = _lcs_table(xa, ya)
    pairs = []
    i, j = len(xa), len(ya)
    while i > 0 and j > 0:
        if xa[i - 1] == ya[j - 1] and L[i, j] == L[i - 1, j - 1] + 1:
            pairs.append((i - 1, j - 1))
            i -= 1
            j -= 1
        elif L[i - 1, j] >= L[i, j - 1]:
            i -= 1
        else:
            j -= 1
    pairs.reverse()
    return int(L[len(xa), len(ya)]), pairs


WORD_BITS = 63        # longest pattern held in one uint64 state word
PACK_CELLS = 1 << 22  # most match-mask bits a batch packs at once


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """One word per row of a boolean array, bit p set where bits[..., p].

    uint64 words when rows have at most WORD_BITS entries, Python ints in
    an object array otherwise.
    """
    packed = np.packbits(bits, axis=-1, bitorder="little")
    if bits.shape[-1] <= WORD_BITS:
        words = np.zeros(packed.shape[:-1] + (8,), dtype=np.uint8)
        words[..., :packed.shape[-1]] = packed
        return words.view("<u8")[..., 0]
    flat = packed.reshape(-1, packed.shape[-1])
    return np.array([int.from_bytes(row.tobytes(), "little") for row in flat],
                    dtype=object).reshape(bits.shape[:-1])


_bit_count = np.frompyfunc(int.bit_count, 1, 1)


def popcount(words: np.ndarray) -> np.ndarray:
    """Set bits of each uint64 or Python-int word, as int64."""
    if words.dtype == object:
        return _bit_count(words).astype(np.int64)
    return np.bitwise_count(words).astype(np.int64)


def lcs_scan(full: np.ndarray,
             masks: Iterable[np.ndarray]) -> Iterator[np.ndarray]:
    """The bit-parallel LCS state of a batch of rows, after each step.

    full[r] has a bit at each pattern position of row r; the t-th entry of
    masks has, for each row, the bits of full[r] whose pattern symbol equals
    the row's t-th text symbol (0 once that text has ended, which leaves the
    row unchanged).  The state V starts at full, and each step sets
    U = V & M and V = ((V + U) | (V - U)) & full.  After t steps, the LCS
    length of row r's pattern and the first t symbols of its text is the
    number of zero bits of V[r] inside full[r]:
    popcount(full) - popcount(V).  Carries never leave a row's bits, so a
    pattern may start at any bit.
    """
    v = full
    for m in masks:
        u = v & m
        v = ((v + u) | (v - u)) & full
        yield v


def _padded(words: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Words as rows of one int64 matrix, and the mask of real entries."""
    lengths = np.array([len(w) for w in words], dtype=np.int64)
    valid = np.arange(lengths.max(initial=0)) < lengths[:, None]
    out = np.zeros(valid.shape, dtype=np.int64)
    out[valid] = np.concatenate(words)
    return out, valid


def _lcs_rows(x: np.ndarray, x_valid: np.ndarray, y: np.ndarray,
              y_valid: np.ndarray) -> np.ndarray:
    """LCS length of the pattern x[r][x_valid[r]] and the text
    y[r][y_valid[r]] for every row r.

    Match masks are packed for blocks of text steps, each of at most about
    PACK_CELLS pattern bits.
    """
    block = max(1, PACK_CELLS // (len(x) * max(x.shape[1], WORD_BITS + 1)))
    masks = (mask for t in range(0, y.shape[1], block)
             for mask in pack_bits((x[:, None, :] == y[:, t:t + block, None])
                                   & x_valid[:, None, :]
                                   & y_valid[:, t:t + block, None]).T)
    full = v = pack_bits(x_valid)
    for v in lcs_scan(full, masks):
        pass
    return popcount(full) - popcount(v)


def lcs_length(x: Symbols, y: Symbols) -> int:
    xa, ya = _as_array(x), _as_array(y)
    if len(xa) > len(ya):  # the shorter word is the pattern
        xa, ya = ya, xa
    words, valid = _padded([xa, ya])
    return int(_lcs_rows(words[:1], valid[:1], words[1:], valid[1:])[0])


@dataclass(frozen=True)
class EditScript:
    """Ordered insert/delete operations transforming a source into a target.

    ops entries are ("del", pos) or ("ins", pos, symbol); positions refer to
    the current string as the script is applied left to right.
    """

    ops: tuple

    def __len__(self) -> int:
        return len(self.ops)

    def apply(self, x: Symbols) -> np.ndarray:
        cur = list(_as_array(x))
        for op in self.ops:
            if op[0] == "del":
                del cur[op[1]]
            else:
                cur.insert(op[1], op[2])
        return np.array(cur, dtype=np.int64)


def edit_distance(x: Symbols, y: Symbols) -> tuple[int, EditScript]:
    """Insertion/deletion edit distance with a realizing script.

    Always equals |x| + |y| - 2*LCS(x, y).  The script deletes the non-aligned
    symbols of x (right to left) and then inserts the non-aligned symbols of y.
    """
    xa, ya = _as_array(x), _as_array(y)
    length, pairs = lcs(xa, ya)
    keep_x = {i for i, _ in pairs}
    keep_y = {j for _, j in pairs}
    ops = [("del", i) for i in range(len(xa) - 1, -1, -1) if i not in keep_x]
    ops.extend(("ins", j, int(ya[j])) for j in range(len(ya)) if j not in keep_y)
    dist = len(xa) + len(ya) - 2 * length
    return dist, EditScript(tuple(ops))


def edit_distance_only(x: Symbols, y: Symbols) -> int:
    xa, ya = _as_array(x), _as_array(y)
    return len(xa) + len(ya) - 2 * lcs_length(xa, ya)


def insdel_channel(z: Symbols, n_ins: int, n_del: int, seed,
                   alphabet: int) -> np.ndarray:
    """Apply n_del uniform deletions then n_ins uniform insertions.

    Inserted symbols are uniform over range(alphabet).  Deterministic per
    seed; the output has length |z| + n_ins - n_del and edit distance at
    most n_ins + n_del from z.
    """
    za = _as_array(z)
    if n_del > len(za):
        raise UsageError(f"cannot delete {n_del} symbols from length {len(za)}")
    if n_ins < 0 or n_del < 0:
        raise UsageError("insertion/deletion counts must be non-negative")
    rng = np.random.default_rng(seed)
    drop = np.sort(rng.choice(len(za), size=n_del, replace=False)) if n_del \
        else np.zeros(0, dtype=np.int64)
    # insertion j lands at slot pos[j] of the string as it then is, pushing
    # every earlier insertion at or after that slot one place right
    kept = len(za) - n_del
    pos = np.zeros(n_ins, dtype=np.int64)
    syms = []
    for j in range(n_ins):
        p = int(rng.integers(0, kept + j + 1))
        pos[:j] += pos[:j] >= p
        pos[j] = p
        syms.append(int(rng.integers(0, alphabet)))
    if not n_ins and not n_del:
        return za
    order = np.argsort(pos)
    # the r-th insertion from the left precedes kept symbol pos - r, whose
    # index in z counts the deletions before it
    rank = pos[order] - np.arange(n_ins)
    before = rank + np.searchsorted(drop - np.arange(n_del), rank, side="right")
    edits = sorted([(int(d), None) for d in drop]
                   + [(int(b), syms[j]) for b, j in zip(before, order)],
                   key=lambda e: e[0])
    out = np.empty(kept + n_ins, dtype=np.int64)
    src = dst = 0
    for at, sym in edits:
        out[dst:dst + at - src] = za[src:at]
        dst += at - src
        if sym is None:  # deletion of z[at]
            src = at + 1
        else:
            out[dst] = sym
            dst += 1
            src = at
    out[dst:] = za[src:]
    return out


def min_pairwise_edit_distance(codewords: Sequence[Symbols]) -> int:
    """Exact minimum edit distance over all distinct pairs.

    The pairs run through the LCS kernel in batches of consecutive pattern
    words, each batch packing at most about PACK_CELLS pattern bits.
    """
    if len(codewords) < 2:
        raise UsageError("need at least 2 codewords")
    words, valid = _padded([_as_array(c) for c in codewords])
    lengths = valid.sum(axis=1)
    count, width = words.shape
    cells = count * max(width, 1) * max(width, WORD_BITS + 1)  # per word
    block = max(1, PACK_CELLS // cells)
    later = np.arange(count)
    best = None
    for start in range(0, count - 1, block):
        a, b = np.nonzero(later > np.arange(start, start + block)[:, None])
        a += start
        d = lengths[a] + lengths[b] - 2 * _lcs_rows(words[a], valid[a],
                                                    words[b], valid[b])
        best = int(d.min()) if best is None else min(best, int(d.min()))
    return best
