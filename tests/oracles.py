"""Independent brute-force oracles the tests check the package against.

Everything here is deliberately written as plain recursion/enumeration over
definitions, or kept as a frozen copy of an earlier, slower algorithm,
sharing no code with the implementations under test.
"""

from functools import lru_cache

import numpy as np


def lcs_recursive(x, y) -> int:
    """Memoized textbook recursion for the LCS length."""
    x, y = tuple(x), tuple(y)

    @lru_cache(maxsize=None)
    def rec(i, j):
        if i == len(x) or j == len(y):
            return 0
        if x[i] == y[j]:
            return 1 + rec(i + 1, j + 1)
        return max(rec(i + 1, j), rec(i, j + 1))

    return rec(0, 0)


def edit_distance_recursive(x, y) -> int:
    """Insert/delete edit distance straight from the recurrence."""
    x, y = tuple(x), tuple(y)

    @lru_cache(maxsize=None)
    def rec(i, j):
        if i == len(x):
            return len(y) - j
        if j == len(y):
            return len(x) - i
        if x[i] == y[j]:
            return rec(i + 1, j + 1)
        return 1 + min(rec(i + 1, j), rec(i, j + 1))

    return rec(0, 0)


def positions_from_runs(runs):
    pos, acc = [], 0
    for r in runs:
        acc += r + 1
        pos.append(acc)
    return pos


def max_undesired_dfs(runs) -> int:
    """Pure depth-first enumeration of every monotone self-matching.

    Exponential; keep n <= 9.
    """
    p = positions_from_runs(runs)
    n = len(p)
    best = 0

    def rec(last_i, last_j, count):
        nonlocal best
        best = max(best, count)
        for i in range(last_i + 1, n):
            for j in range(last_j + 1, n):
                if i != j:
                    if last_i < 0:
                        und = p[i] == p[j]
                    else:
                        und = p[i] - p[last_i] == p[j] - p[last_j]
                else:
                    und = False
                rec(i, j, count + int(und))

    rec(-1, -1, 0)
    return best


def max_undesired_memo(runs) -> int:
    """Top-down memoized recursion over the last match; handles n <= ~40."""
    p = positions_from_runs(runs)
    n = len(p)

    @lru_cache(maxsize=None)
    def ending_at(i, j):
        best = 0  # start the matching at (i, j); p strictly increasing, never undesired
        for i2 in range(i):
            for j2 in range(j):
                und = int(i != j and p[i] - p[i2] == p[j] - p[j2])
                cand = ending_at(i2, j2) + und
                if cand > best:
                    best = cand
        return best

    return max((ending_at(i, j) for i in range(n) for j in range(n)), default=0)


def match_best_obj_dfs(p, q) -> int:
    """Max of |w| - cost(w) over all monotone blank-to-nonzero matchings.

    p and q are 1-based position lists; exponential, keep sizes <= 8.
    """
    best = 0

    def rec(last_i, last_j, last_pi, last_qj, obj):
        nonlocal best
        best = max(best, obj)
        for i in range(last_i + 1, len(p)):
            for j in range(last_j + 1, len(q)):
                gain = 1 - int(p[i] - last_pi != q[j] - last_qj)
                rec(i, j, p[i], q[j], obj + gain)

    rec(-1, -1, 0, 0, 0)
    return best


def nearest_codeword_scan(encode, q, m, received, erasures=()):
    """Exhaustive nearest-codeword search; returns (message, errors)."""
    era = set(erasures)
    best_msg, best_err = None, None

    def all_messages(prefix):
        if len(prefix) == m:
            yield list(prefix)
            return
        for v in range(q):
            yield from all_messages(prefix + [v])

    for msg in all_messages([]):
        cw = encode(msg)
        err = sum(1 for k, (a, b) in enumerate(zip(cw, received))
                  if k not in era and a != b)
        if best_err is None or err < best_err:
            best_msg, best_err = msg, err
    return best_msg, best_err


def pairwise_min_hamming(words) -> int:
    best = None
    for i in range(len(words)):
        for j in range(i + 1, len(words)):
            d = sum(a != b for a, b in zip(words[i], words[j]))
            if best is None or d < best:
                best = d
    return best


# Reference copies of the quartic same-diagonal DPs the package used before
# its row-at-a-time kernel: at every cell they take the same-diagonal max
# with a mask over the whole rectangle of earlier cells.  The kernel must
# reproduce their values, matchings and witnesses exactly.

_REF_NEG = np.int64(-1) << 40


def match_dp_reference(p, received):
    """Quartic blank matcher; returns (matches, obj, cost)."""
    p = np.asarray(p, dtype=np.int64)
    received = np.asarray(received, dtype=np.int64)
    q = np.flatnonzero(received != 0) + 1
    nc, n1 = len(p), len(q)
    f = np.full((nc + 1, n1 + 1), _REF_NEG, dtype=np.int64)
    f[0, 0] = 0
    sentinel = np.int64((int(p[-1]) if nc else 0) + (int(q[-1]) if n1 else 0) + 7)
    D = np.full((nc + 1, n1 + 1), sentinel, dtype=np.int64)
    D[0, 0] = 0
    if nc and n1:
        D[1:, 1:] = p[:, None] - q[None, :]
    pre = np.full((nc + 1, n1 + 1), _REF_NEG, dtype=np.int64)
    pre[0, :] = 0
    for i in range(1, nc + 1):
        pre[i, 0] = 0
        for j in range(1, n1 + 1):
            base = pre[i - 1, j - 1]
            hit = np.where(D[:i, :j] == D[i, j], f[:i, :j], _REF_NEG).max()
            val = max(base, hit + 1)
            f[i, j] = val
            pre[i, j] = max(pre[i - 1, j], pre[i, j - 1], val)

    obj = int(f.max())
    i, j = divmod(int(np.flatnonzero(f == obj)[0]), n1 + 1)
    chain = []
    while (i, j) != (0, 0):
        chain.append((i, j))
        target = f[i, j]
        cand = np.where(D[:i, :j] == D[i, j], f[:i, :j] + 1, f[:i, :j])
        i, j = divmod(int(np.flatnonzero(cand == target)[0]), j)
    chain.reverse()
    cost, prev = 0, (0, 0)
    for (i, j) in chain:
        cost += int(p[i - 1] - prev[0] != q[j - 1] - prev[1])
        prev = (int(p[i - 1]), int(q[j - 1]))
    return tuple(chain), obj, cost


def max_undesired_reference(p) -> int:
    """Quartic maximum undesired count over all monotone self-matchings."""
    p = np.asarray(p, dtype=np.int64)
    n = len(p)
    D = p[:, None] - p[None, :]
    g = np.zeros((n, n), dtype=np.int64)
    pre = np.full((n, n), _REF_NEG, dtype=np.int64)
    best = 0
    for i in range(n):
        for j in range(n):
            val = np.int64(0)
            if i > 0 and j > 0:
                if pre[i - 1, j - 1] > val:
                    val = pre[i - 1, j - 1]
                if i != j:
                    hit = np.where(D[:i, :j] == D[i, j], g[:i, :j], _REF_NEG).max()
                    if hit >= 0 and hit + 1 > val:
                        val = hit + 1
            g[i, j] = val
            best = max(best, int(val))
            up = pre[i - 1, j] if i > 0 else _REF_NEG
            left = pre[i, j - 1] if j > 0 else _REF_NEG
            pre[i, j] = max(up, left, val)
    return best


def bad_only_max_undesired_reference(p, stop_at):
    """Quartic bad-only chain search; returns (count, 1-based witness)."""
    p = np.asarray(p, dtype=np.int64)
    n = len(p)
    D = p[:, None] - p[None, :]
    g = np.full((n, n), _REF_NEG, dtype=np.int64)
    pre = np.full((n, n), _REF_NEG, dtype=np.int64)

    def traceback(i, j):
        chain = [(i + 1, j + 1)]
        while g[i, j] > 0:
            rect = g[:i, :j]
            cand = np.where(D[:i, :j] == D[i, j], rect + 1, rect)
            i, j = divmod(int(np.flatnonzero(cand == g[i, j])[0]), j)
            chain.append((i + 1, j + 1))
        chain.reverse()
        return chain

    best, best_cell = 0, None
    for i in range(n):
        for j in range(n):
            up = pre[i - 1, j] if i > 0 else _REF_NEG
            left = pre[i, j - 1] if j > 0 else _REF_NEG
            if i == j:
                pre[i, j] = max(up, left)
                continue
            val = np.int64(0)
            if i > 0 and j > 0:
                if pre[i - 1, j - 1] > val:
                    val = pre[i - 1, j - 1]
                hit = np.where(D[:i, :j] == D[i, j], g[:i, :j], _REF_NEG).max()
                if hit >= 0 and hit + 1 > val:
                    val = hit + 1
            g[i, j] = val
            if val > best:
                best, best_cell = int(val), (i, j)
                if best >= stop_at:
                    return best, traceback(i, j)
            pre[i, j] = max(up, left, val)
    return best, traceback(*best_cell) if best_cell else []


def concatenated_inner_symbols_reference(inner_generator, b, received):
    """Frozen copy of the concatenated code's earlier inner decoder.

    It keyed a dict by the inner codeword of every b-bit symbol (bit k of
    the symbol multiplies generator row k), inserted in symbol order, and
    scanned it per block with a strict '<', so ties go to the smallest
    symbol.  Returns the nearest symbol of each block.
    """
    table = {}
    for sym in range(1 << b):
        cw = [0] * len(inner_generator[0])
        for k in range(b):
            if (sym >> k) & 1:
                cw = [c ^ g for c, g in zip(cw, inner_generator[k])]
        table[tuple(cw)] = sym
    inner_len = len(inner_generator[0])
    syms = []
    for i in range(len(received) // inner_len):
        block = tuple(int(v) for v in received[i * inner_len:
                                               (i + 1) * inner_len])
        best_sym, best_dist = 0, inner_len + 1
        for cw, sym in table.items():
            dist = sum(a != v for a, v in zip(cw, block))
            if dist < best_dist:
                best_sym, best_dist = sym, dist
        syms.append(best_sym)
    return syms


# Frozen copies of the Python-int elimination and product that linalg once
# ran for fields without word-sized arithmetic (field.mul per element).
# Reduced row echelon form is canonical, so linalg must match them exactly.


def rref_reference(rows, field, ncols=None):
    """Gauss-Jordan on lists of ints; returns (matrix, pivot columns)."""
    if not rows:
        return [], []
    M = [list(row) for row in rows]
    nr = len(M)
    nc = len(M[0]) if nr else 0
    limit = nc if ncols is None else ncols
    pivots = []
    r = 0
    for c in range(limit):
        if r >= nr:
            break
        p = next((i for i in range(r, nr) if M[i][c] != 0), None)
        if p is None:
            continue
        M[r], M[p] = M[p], M[r]
        inv = field.inv(M[r][c])
        M[r] = [field.mul(inv, v) for v in M[r]]
        for i in range(nr):
            if i != r and M[i][c] != 0:
                f = M[i][c]
                M[i] = [field.sub(v, field.mul(f, w)) for v, w in zip(M[i], M[r])]
        pivots.append(c)
        r += 1
    return M, pivots


def matvec_reference(x, rows, field):
    """Row vector times matrix, one field.mul per nonzero x_i entry."""
    out = [0] * len(rows[0])
    for xi, row in zip(x, rows):
        if xi == 0:
            continue
        for j, g in enumerate(row):
            out[j] = field.add(out[j], field.mul(xi, g))
    return out


def nullspace_vector_reference(rows, field):
    """A nonzero solution of M u = 0 read off rref_reference, or None.

    The first free column gets value 1, later free columns 0.
    """
    if not rows:
        return None
    nc = len(rows[0])
    red, pivots = rref_reference(rows, field)
    free = next((c for c in range(nc) if c not in pivots), None)
    if free is None:
        return None
    u = [0] * nc
    u[free] = 1
    for r, c in enumerate(pivots):
        u[c] = field.neg(red[r][free])
    return u


def rs_decode_bw_reference(code, received, erasures=()):
    """Frozen Berlekamp-Welch errors-and-erasures decoding of a
    Reed-Solomon LinearCode: returns the message, or None where the
    package must raise DecodeFailure.

    On the N non-erased points it solves Q(a_i) = y_i E(a_i) with
    deg Q < e + m, deg E <= e, e = (N - m) // 2, by Gauss-Jordan, divides
    Q by E and accepts when 2 errors + erasures <= d - 1.
    """
    field, m = code.field, code.m
    era = set(erasures)
    live = [i for i in range(code.n) if i not in era]
    if len(live) < m:
        return None
    e_max = (len(live) - m) // 2
    nq, ne = e_max + m, e_max + 1
    rows = []
    for i in live:
        powers = [1]
        for _ in range(max(nq, ne) - 1):
            powers.append(field.mul(powers[-1], code.eval_points[i]))
        rows.append(powers[:nq] + [field.neg(field.mul(received[i], p))
                                   for p in powers[:ne]])
    u = nullspace_vector_reference(rows, field)
    if u is None:
        return None
    num, den = list(u[:nq]), list(u[nq:])
    while den and den[-1] == 0:
        den.pop()
    if not den:
        return None
    # long division of Q by E
    lead_inv = field.inv(den[-1])
    dd = len(den) - 1
    quot = [0] * max(0, len(num) - dd)
    for k in range(len(num) - 1, dd - 1, -1):
        c = field.mul(num[k], lead_inv)
        quot[k - dd] = c
        for j, dv in enumerate(den):
            num[k - dd + j] = field.sub(num[k - dd + j], field.mul(c, dv))
    if any(num):
        return None
    while quot and quot[-1] == 0:
        quot.pop()
    if len(quot) > m:
        return None
    msg = quot + [0] * (m - len(quot))
    cw = matvec_reference(msg, code.generator, field)
    errors = sum(1 for i in live if cw[i] != received[i])
    return msg if 2 * errors + len(era) <= code.d - 1 else None
