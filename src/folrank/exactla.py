"""Exact rank and kernel dimension of integer matrices at window scale.

A ``SparseIntMatrix`` holds coordinate (COO) arrays: int64 rows and
columns, and int64 values, or Python ints in an object array when a value
exceeds int64.  Submatrices, dense copies and block matrices are masks,
scatters and concatenations of these arrays.  A rank starts with an exact
peel of singletons over Q and, for a core of more than 64x64 cells, exact
merges of unit doubletons (below).  A core of at most 64x64 cells that is
left, the empty core included, goes through a fraction-free echelon over
Python integers: its rank is exact and no prime is drawn.
Larger cores use Gaussian elimination modulo random 31-bit primes with
numpy int64 arithmetic, on the residues ``vals % p``; the rank is certified
by three distinct agreeing primes.

The package has two eliminations.  ``_echelon`` is one dense, fraction-free
forward echelon, over Z or modulo one prime.  It updates only the rows with
a nonzero under the pivot: modulo p such a row becomes row * pv - f *
pivot_row, and over Z the primitive part of row * (pv/g) - pivot_row *
(f/g) with g = gcd(pv, f).  Each row is then a multiple of the row that
Bareiss's elimination (1968) holds there, so the pivots and the kernel
vectors are Bareiss's and no entry is larger than Bareiss's, which are
minors of the input (``_echelon`` gives the argument).  Bareiss updates
every row below each pivot, which is cubic on banded matrices: on a 2-vCPU
host ``kernel_basis`` of the 239x240 bidiagonal interior matrix of 1 + 2T
took 0.30-0.33 s that way and takes 0.011-0.012 s.  Over Z the echelon
gives ``bareiss_rank``, the exact rank for small cores and the
last-resort fallback.  Back substitution on its rows gives the kernel
bases of ``kernel_basis`` and ``nullspace_q`` (the rational and torsion
solutions that mmdim samples), and modulo one prime it gives the rank of a
small dense matrix (``_dense_rank_mod_p``).  ``_ranks_mod_primes`` ranks
large sparse cores modulo several primes in one pass.

Before ``rank_q`` eliminates, ``_peel_lines`` removes singletons over Q
(as in structured Gaussian elimination, LaMacchia-Odlyzko 1990).  A column
or row with one nonzero adds 1 to the rank and goes with that entry's row or
column; zero rows and columns go too.  So rank M = k + rank core, and only
the core is eliminated.  Window operators are full of singletons: every
column at a window's boundary is one, and removing it exposes the next.
One sweep over whole arrays takes every singleton present at the start,
and a worklist takes only those that removals expose.  Peeling is
confluent, so neither the core nor k depends on that order.  On a 2-vCPU
host the Z^2 L=64 window peels in 0.7-1.3 ms (1.1-1.9 ms with the worklist
alone) and the 4096x4096 diagonal ``two_over_z2`` matrix in 0.1-0.2 ms
(3.2-5.8 ms).

``block_ranks`` ranks the diagonal blocks of a block-diagonal union, such
as a batch of window builds, with one peel.  ``_peel_lines`` reports the
rows that its pivots lie in, so each block's k is the number of pivots in
its rows, and the core, which keeps the union's order, splits at the
blocks' offsets.  Each nonempty block core then goes through the per-core
tail of ``rank_q``, with that block's own generator.  A block peels in the
union as it peels alone (confluence again), so each certificate is the one
the block gets by itself; ``rank_q`` is the batch of one.  A verify-suite
pass at job seed 1 ranks 1,587 windows in 20 such batches: the suites'
1,300 fixed windows in 8, and the 287 windows of ``quotient_span_rank``'s
growth steps in 12.  On a 2-vCPU host the 8 take 7-9 ms: the peels take
9,464 of the 9,572 rank units, and the rest comes from block cores of at
most 64x64 cells.

The ``two_over_z2`` ``mrank`` matrices (diagonal, 256x256 to 4096x4096)
peel away completely; the Z^2 window of ``xy_minus_one`` loses only its
boundary (4224x8192 -> 4096x8064 at L=64), and Heisenberg L=4 goes
3427x5346 -> 2633x4552.  A core above the cell test then goes through
``_merge_doubletons``, the next step of structured elimination: a column
with two nonzeros, one of them ±1, is a pivot that needs no division, and a
pass merges whole trees of such columns with one rebuild of the core.  This
is exact over Q, like the peel.  The windows of binomial presentations are
signed incidence matrices, with +1 and -1 in every column, and they merge
away: the first hooking step follows the window's row order, and the Z^2
L=64 and Heisenberg L=4 cores end empty after one pass of 1 and 4 hooking
steps (7 and 6 with a hash ranking at every step).  So does each of the 45 cores above the test after the
peel over job seeds 0-3 of every benchmark job, in-process, and no
benchmark rank draws a prime.  Cores without unit entries do not merge: the
Z^2 window of (2 + 3x, 5 + 7y) at L=8 peels to 64x112, and the Heisenberg
window of (2 + 3a, 5 + 7b) at L=2 to 213x324, and both go modular.

Window matrices are very sparse and nearly banded, so the modular
elimination works on a profile.  Once per ``rank_q`` call, a layout that
does not depend on the prime is planned from the COO arrays: columns are
ordered by the first row that touches them, rows by their leading column in
that order, and each row keeps its last nonzero column.
``_ranks_mod_primes`` then eliminates all primes in one pass over a buffer
that holds only the live block of rows, so memory follows the width of the
profile, not m*n.  Rank modulo p does not depend on the order of rows and
columns, so the reordering changes no result.  On a 2-vCPU host, on the
Z^2 L=64 window (4224x8192, 16,384 nonzeros), planning the layout takes
1.0 ms (5.0 ms from a dict of entries).  Three primes on its peeled
4096x8064 core take 0.17-0.18 s in the kernel alone (0.43-0.71 s and 262 MB
with one zero-filled m*n array per prime); the merges take 1.7-1.9 ms and
leave nothing (3.0-3.3 ms with a hash ranking at every step, side by side).

Cores of at most 64x64 cells, after the peel or after the merges (not M's
size), are ranked exactly, for less than the modular protocol's fixed cost
of primes and layout.  On a larger merged core the agreeing primes certify its
rank, to which the peel and the merges add k.  Both are exact over Q, so a
singleton entry that a prime divides changes nothing, and a merge pivots on
±1, a unit modulo every prime, so a prime that gives the merged core too
small a rank does so on the peeled core as well.  Merged entries stay below
2^62, so their residues are exact.  The error analysis for one random prime
p: a wrong (too small) rank of the peeled core needs p to divide a fixed
nonzero maximal minor D of it; D has at most log2(|D|)/30 prime divisors
above 2^30 and there are ~9.8e7 primes in [2^30, 2^31).  For M with entries
bounded by a few hundred and dimension <= ~4000 the analysis gives a
per-prime failure probability below 2e-5, hence below 2^-46 for three
independent agreeing primes.  The default budgets admit larger windows (the
Z^2 window at L=64 has 8,192 columns); those fall outside this argument,
and no bound is stated for them until the bound is computed from the matrix
itself (ROADMAP item 2).  Requiring three agreements instead of two
compensates for using 31-bit primes (which keep products inside int64)
rather than 62-bit ones.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Sequence

import numpy as np

from .errors import InputError

SMALL_DIM_CUTOFF = 64
AGREEMENTS_NEEDED = 3
MAX_PRIMES = 16

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# The least strong pseudoprime to bases 2, 3, 5 and 7 (Jaeschke 1993).
_MR_SHORT_BOUND = 3_215_031_751


def int_array(values) -> np.ndarray:
    """Integers as an int64 array, or as an object array of Python ints when
    one of them does not fit int64."""
    try:
        return np.asarray(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)


@dataclass(frozen=True, eq=False)
class SparseIntMatrix:
    """Sparse integer matrix in coordinate (COO) form: ``vals[t]`` sits at row
    ``ii[t]``, column ``jj[t]``.  Indices are int64; values are nonzero int64,
    or Python ints in an object array when one exceeds int64.  No position is
    stored twice, and the order of the entries carries no meaning."""

    rows: int
    cols: int
    ii: np.ndarray = ()
    jj: np.ndarray = ()
    vals: np.ndarray = ()

    def __post_init__(self):
        ii, jj = np.asarray(self.ii, dtype=np.int64), np.asarray(self.jj, dtype=np.int64)
        vals = int_array(self.vals)
        for name, value in (("ii", ii), ("jj", jj), ("vals", vals)):
            object.__setattr__(self, name, value)
        if not ii.ndim == jj.ndim == vals.ndim == 1 or not ii.size == jj.size == vals.size:
            raise InputError("row, column and value arrays differ in shape")
        if ii.size:
            # Viewed as uint64, a negative index exceeds every bound.
            top = np.maximum.reduce
            if top(ii.view(np.uint64)) >= self.rows or top(jj.view(np.uint64)) >= self.cols:
                raise InputError(f"entry index out of range for a {self.rows}x{self.cols} matrix")
            if not vals.all():
                raise InputError("stored zero entry")
            at = ii * self.cols
            at += jj
            at.sort()
            if (at[1:] == at[:-1]).any():
                raise InputError("an entry position is stored twice")

    @classmethod
    def from_dense(cls, dense: Sequence[Sequence[int]], cols: int | None = None) -> "SparseIntMatrix":
        widths = {len(row) for row in dense}
        if len(widths) > 1:
            raise InputError(f"ragged dense rows: widths {sorted(widths)}")
        width = widths.pop() if widths else (cols or 0)
        if cols is not None and cols != width:
            raise InputError(f"cols={cols} but rows have {width} entries")
        found = [(i, j, int(v)) for i, row in enumerate(dense) for j, v in enumerate(row) if v]
        ii, jj, vals = zip(*found) if found else ((), (), ())
        return cls(len(dense), width, ii, jj, vals)

    def to_dense(self) -> list[list[int]]:
        out = np.zeros((self.rows, self.cols), dtype=self.vals.dtype)
        out[self.ii, self.jj] = self.vals
        return out.tolist()

    def nnz(self) -> int:
        return self.vals.size

    def submatrix(self, row_ids: Sequence[int], col_ids: Sequence[int]) -> "SparseIntMatrix":
        """Rows ``row_ids`` and columns ``col_ids``, in that order."""
        row_ids, col_ids = np.asarray(row_ids, dtype=np.int64), np.asarray(col_ids, dtype=np.int64)
        rpos = np.full(self.rows, -1, dtype=np.int64)
        rpos[row_ids] = np.arange(row_ids.size)
        cpos = np.full(self.cols, -1, dtype=np.int64)
        cpos[col_ids] = np.arange(col_ids.size)
        ii, jj = rpos[self.ii], cpos[self.jj]
        keep = (ii >= 0) & (jj >= 0)
        vals = int_array(self.vals[keep])  # int64 again once every big value is masked out
        return SparseIntMatrix._unchecked(row_ids.size, col_ids.size, ii[keep], jj[keep], vals)

    @classmethod
    def _unchecked(cls, rows: int, cols: int, ii, jj, vals) -> "SparseIntMatrix":
        """A matrix from arrays that already pass the constructor's checks,
        such as a mask of a checked matrix, stored without checking again."""
        M = object.__new__(cls)
        for name, value in zip(("rows", "cols", "ii", "jj", "vals"), (rows, cols, ii, jj, vals)):
            object.__setattr__(M, name, value)
        return M


@dataclass(frozen=True)
class RankCertificate:
    """An exact rank together with how it was certified."""

    rank: int
    method: str  # "fraction-free" | "modular-multi-prime"
    primes: tuple[int, ...] = ()

    def __post_init__(self):
        if self.method not in ("fraction-free", "modular-multi-prime"):
            raise InputError(f"unknown rank method {self.method!r}")
        if self.method == "modular-multi-prime" and len(set(self.primes)) < AGREEMENTS_NEEDED:
            raise InputError(f"modular certificates need {AGREEMENTS_NEEDED} distinct agreeing primes")


def _is_prime(n: int) -> bool:
    # Deterministic Miller-Rabin for n < 3.3 * 10^24 with the fixed base set;
    # below _MR_SHORT_BOUND, which every 31-bit candidate is, its first four
    # bases already decide.
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES[:4] if n < _MR_SHORT_BOUND else _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime(rng: random.Random, bits: int = 31) -> int:
    while True:
        c = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if _is_prime(c):
            return c


def _echelon(a: list[list[int]], p: int = 0) -> list[int]:
    """Reduce the integer rows ``a`` in place to row echelon form, over Z
    when p == 0 and modulo the prime p otherwise; return the pivot columns.

    Fraction-free: the pivot is the first row at or below the pivot row with
    a nonzero in column c, and only the rows with a nonzero f under the
    pivot pv are updated.  Modulo p such a row becomes row * pv - f *
    pivot_row, reduced mod p.  Over Z it becomes row * (pv/g) - pivot_row *
    (f/g) with g = gcd(pv, f), divided by its content: its primitive part.

    Over Q, after the pivots so far, a row below is determined up to a
    nonzero scalar: it is the one vector, up to scale, in the span of the
    pivot rows and that input row that is zero in the pivot columns.  So
    each row is a multiple of the row that Bareiss's elimination (1968)
    holds there: a row never updated is its input row, and an updated row
    is primitive, hence ± the primitive part of Bareiss's row.  Then the
    zero pattern, the row swaps and the pivot columns are Bareiss's, back
    substitution on the rows gives the same solutions, and no entry is
    larger than Bareiss's, which are minors of the input.  Bareiss instead
    updates every row below the pivot and divides it by the previous pivot,
    which is cubic on banded matrices such as mmdim's interior matrices.
    """
    if p:
        for row in a:
            row[:] = [x % p for x in row]
    m = len(a)
    n = len(a[0]) if m else 0
    pivots: list[int] = []
    for c in range(n):
        r = len(pivots)
        if r == m:
            break
        for piv in range(r, m):
            if a[piv][c]:
                break
        else:
            continue
        a[r], a[piv] = a[piv], a[r]
        row_r = a[r]
        pv = row_r[c]
        for i in range(r + 1, m):
            row_i = a[i]
            f = row_i[c]
            if not f:
                continue
            if p:
                for j in range(c + 1, n):
                    row_i[j] = (row_i[j] * pv - row_r[j] * f) % p
            else:
                g = gcd(pv, f)
                s, t = pv // g, f // g
                tail = [x * s - y * t for x, y in zip(row_i[c + 1 :], row_r[c + 1 :])]
                content = gcd(*tail)
                row_i[c + 1 :] = [x // content for x in tail] if content > 1 else tail
            row_i[c] = 0
        pivots.append(c)
    return pivots


def bareiss_rank(dense: Sequence[Sequence[int]]) -> int:
    """Fraction-free Gaussian elimination rank over the rationals."""
    return len(_echelon([list(map(int, row)) for row in dense]))


# The core of every matrix that peels away; with no entries it cannot change.
_EMPTY = SparseIntMatrix(0, 0)


def _peel(M: SparseIntMatrix) -> tuple[int, SparseIntMatrix]:
    """Singleton rows and columns peeled off: rank M = k + rank core over Q."""
    pivots, rows, cols = _peel_lines(M)
    return int(np.count_nonzero(pivots)), _core(M, rows, cols)


def _peel_lines(M: SparseIntMatrix) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The singleton peel of M: a mask of the rows it pivots in, and the
    rows and columns of the core, in M's order.  rank M = number of pivots
    + rank core over Q.

    A column j whose only nonzero sits in row i adds 1 to the rank: column
    operations with it clear the rest of row i, which leaves row i and
    column j apart from everything else.  So both go, and likewise for a row
    with one nonzero; zero rows and columns go too.  Peeling is confluent:
    two available pivots conflict only when they share a line, and then
    either choice removes the same lines.  So the core and the number of
    pivots do not depend on the order of the pivots, and a pivot lies in the
    block of a block-diagonal M that its lines do: each block peels as it
    would alone.

    One sweep over whole arrays takes every singleton present at the start:
    each row met by a singleton column pivots once, and so does each column
    met by a singleton row, in one of the singleton rows that meet it.
    These pivots share no line, and the other singleton lines are left
    empty.  An entry that is a singleton row and a singleton column is one
    pivot, in a row met by a singleton column.  Only the singletons this
    exposes, along chains, go through a worklist over live counts, which
    visits each entry a bounded number of times: O(nnz) plus two sorts.  No
    arithmetic is done on the values.  Every row and column of the core has
    at least two nonzeros.
    """
    ii, jj = M.ii, M.jj
    rcnt, ccnt = np.bincount(ii, minlength=M.rows), np.bincount(jj, minlength=M.cols)
    in_one_row, in_one_col = (rcnt == 1)[ii], (ccnt == 1)[jj]
    pivots, met_cols = np.zeros(M.rows, dtype=bool), np.zeros(M.cols, dtype=bool)
    pivots[ii[in_one_col]] = True
    met_cols[jj[in_one_row]] = True
    if met_cols.any():
        # One singleton row per met column: the last that meets it.
        row_of = np.empty(M.cols, dtype=np.int64)
        row_of[jj[in_one_row]] = ii[in_one_row]
        pivots[row_of[met_cols]] = True
    if pivots.any():
        # The met rows and columns go.  A singleton line's one entry lies in
        # one of them, so every singleton line is left empty.
        live = ~(pivots[ii] | met_cols[jj])
        ii, jj = ii[live], jj[live]
        rcnt, ccnt = np.bincount(ii, minlength=M.rows), np.bincount(jj, minlength=M.cols)
    # Columns as j >= 0, rows as ~i < 0.
    todo = (ccnt == 1).nonzero()[0].tolist() + (~(rcnt == 1).nonzero()[0]).tolist()
    if todo:
        # Counts, each row's columns and each column's rows are arrays read
        # and written through memoryviews: no Python int is kept per entry.
        rc, cc, pv = memoryview(rcnt), memoryview(ccnt), memoryview(pivots)
        row_cols = memoryview(jj[np.argsort(ii, kind="stable")])
        col_rows = memoryview(ii[np.argsort(jj, kind="stable")])
        row_at, col_at = np.zeros(M.rows + 1, dtype=np.int64), np.zeros(M.cols + 1, dtype=np.int64)
        np.cumsum(rcnt, out=row_at[1:])
        np.cumsum(ccnt, out=col_at[1:])
        row_at, col_at = memoryview(row_at), memoryview(col_at)
        pop, push = todo.pop, todo.append
        while todo:
            x = pop()
            if x >= 0:
                # Column x and the one live row i that meets it.
                if cc[x] != 1:
                    continue
                for i in col_rows[col_at[x] : col_at[x + 1]]:
                    if rc[i]:
                        break
                cc[x] = rc[i] = 0
                for j in row_cols[row_at[i] : row_at[i + 1]]:
                    c = cc[j]
                    if c:
                        cc[j] = c - 1
                        if c == 2:
                            push(j)
            else:
                i = ~x
                if rc[i] != 1:
                    continue
                for j in row_cols[row_at[i] : row_at[i + 1]]:
                    if cc[j]:
                        break
                rc[i] = cc[j] = 0
                for t in col_rows[col_at[j] : col_at[j + 1]]:
                    c = rc[t]
                    if c:
                        rc[t] = c - 1
                        if c == 2:
                            push(~t)
            pv[i] = True
    return pivots, rcnt.nonzero()[0], ccnt.nonzero()[0]


def _core(M: SparseIntMatrix, rows: np.ndarray, cols: np.ndarray) -> SparseIntMatrix:
    """Rows ``rows`` and columns ``cols`` of M, the core that ``_peel_lines`` leaves."""
    if rows.size == M.rows and cols.size == M.cols:
        return M
    if not rows.size:
        # A row left in the core meets a column left in it, and conversely.
        return _EMPTY
    return M.submatrix(rows, cols)


def _merge_doubletons(core: SparseIntMatrix) -> tuple[int, SparseIntMatrix]:
    """Unit doubleton columns merged away over Q: rank core = k + rank result.

    A column j with exactly two nonzeros, u = ±1 in row a and v in row b, is
    a pivot that needs no division: row_b -= v*u*row_a clears (b, j), and
    then row a and column j leave and add 1 to the rank, as a singleton does.
    A pass contracts the graph of such columns on the rows into trees, by
    hooking and pointer jumping (Shiloach-Vishkin 1982).  Row x keeps a root
    and a multiplier s_x; a root stands for the sum of s_x * row_x over its
    tree.  A doubleton between two trees is a doubleton of those sums, with
    entries U = s_a*u and V = s_b*v.  Each step, ``_hooks`` hooks the lower
    root of such a column in a ranking (``_priorities``, no rng) onto the
    higher when its entry is ±1: a (±1, ±1) column always hooks, a one-sided
    (±1, v) column only from its ±1 end.  Hooks go up the ranking, so they
    form trees, and a hook's column meets only its two roots: merging leaves
    first, each with multiplier -U*V, changes no other hook's column.
    Pointer jumping composes the multipliers in int64.  When a later step
    hooks nothing or no column joins two trees, one rebuild moves every row,
    times s, to its root, where a hook's column sums to V - U*V*U = 0.  A
    ``_peel`` follows; passes repeat while one merges.

    The first step of a call ranks the roots by row position, which in a
    window is the product order of the group coordinates, and fires only
    (±1, ±1) columns.  In a binomial box window almost every row has a later
    row that such a column joins to it, so that step hooks almost every row
    into long chains, which pointer jumping flattens in a few rounds.  Fired
    in row order, one-sided (±1, 2) columns would chain powers of 2 into the
    guard below, so they wait for the hash ranking of the later steps, which
    keeps the expected number of steps O(log n) on any graph.  A first step
    that hooks nothing does not end the pass.

    Values stay int64: nothing merges when they are Python ints or when
    max|value| * (most entries in a column) reaches 2^62, and each |s_x| is
    kept below 2^62 / that, since a rebuilt entry sums at most that many
    terms s_x * value.  A step whose composed multipliers, summed as float
    log2 before the int64 products, could reach it keeps only its hooks with
    ±1 at both ends, whose multipliers are ±1.  A merge pivots on a unit
    modulo every prime, so it lowers the rank modulo p by 1, as over Q.
    """
    k = step = 0
    while core.vals.dtype != object and core.nnz():
        ii, jj, vals, rows = core.ii, core.jj, core.vals, core.rows
        ccnt = np.bincount(jj, minlength=core.cols)
        limit = 62 - np.log2(float(max(int(vals.max()), -int(vals.min())) * int(ccnt.max())))
        if limit <= 0:
            break
        # A doubleton's two entries, with no sort: every entry writes its
        # index at its column, and of a doubleton's two writes one is kept.
        (two,) = (ccnt == 2).nonzero()
        idx = np.arange(jj.size)
        at = np.empty(core.cols, dtype=np.int64)
        at[jj] = idx
        e0 = at[two]
        (lost,) = (at[jj] != idx).nonzero()
        at[jj[lost]] = lost
        ends = np.stack((e0, at[two]), axis=1)
        ends, val = ii[ends], vals[ends]
        root, sig = np.arange(rows), np.ones(rows, dtype=np.int64)
        while True:
            r = root[ends]
            ent = sig[ends] * val
            unit = np.abs(ent) == 1
            # Multipliers never shrink: a column with no ±1 entry is done.
            live = (r[:, 0] != r[:, 1]) & (unit[:, 0] | unit[:, 1])
            ends, val, r, ent, unit = (np.compress(live, x, axis=0) for x in (ends, val, r, ent, unit))
            if not len(ends):
                break
            if not step:
                # Ranked by row position: one-sided columns wait for the hash.
                unit &= (unit[:, 0] & unit[:, 1])[:, None]
            rank = _priorities(rows, step)[r]
            step += 1
            hooked, up, by = _hooks(rows, r, ent, unit, rank)
            if np.abs(by).max() > 1:
                _, lg = _jump(up, np.log2(np.abs(by)), np.add)
                if (lg[root] + np.log2(np.abs(sig))).max() >= limit - 1e-6:
                    unit &= (unit[:, 0] & unit[:, 1])[:, None]
                    hooked, up, by = _hooks(rows, r, ent, unit, rank)
            if hooked.size:
                up, by = _jump(up, by, np.multiply)
                sig *= by[root]
                root = up[root]
            elif step > 1:
                break
        merges = rows - int(np.count_nonzero(root == np.arange(rows)))
        if not merges:
            break
        # Each row, times its multiplier, moves to its root; equal positions sum.
        key = root[ii] * core.cols + jj
        order = np.argsort(key)
        key = key[order]
        (heads,) = np.concatenate(([True], key[1:] != key[:-1])).nonzero()
        sums = np.add.reduceat((vals * sig[ii])[order], heads)
        nz = sums != 0
        key = key[heads[nz]]
        # Sorted unique keys and nonzero int64 sums: the checks hold already.
        merged = SparseIntMatrix._unchecked(rows, core.cols, key // core.cols, key % core.cols, sums[nz])
        peeled, core = _peel(merged)
        k += merges + peeled
    return k, core


def _hooks(rows: int, r: np.ndarray, ent: np.ndarray, unit: np.ndarray, rank: np.ndarray):
    """One merge step's hooks.  Doubleton t joins roots r[t], ranked rank[t],
    with entries ent[t], ±1 where ``unit``.  Its lower end hooks onto the
    other when its entry is ±1; if none does, the ranking is reversed.  Each
    root keeps one hook, by a scatter.  Returns the hooked roots, and each
    root's parent and multiplier -U*V (the identity where it did not hook)."""
    low = rank[:, 1] < rank[:, 0]
    fire = np.where(low, unit[:, 1], unit[:, 0])
    if not fire.any():
        low = ~low
        fire = np.where(low, unit[:, 1], unit[:, 0])
    child = np.compress(fire, np.where(low, r[:, 1], r[:, 0]))
    parent = np.compress(fire, np.where(low, r[:, 0], r[:, 1]))
    mult = -np.compress(fire, ent[:, 0] * ent[:, 1])
    hook = np.full(rows, -1)
    hook[child] = np.arange(child.size)
    (hooked,) = (hook >= 0).nonzero()
    up, by = np.arange(rows), np.ones(rows, dtype=np.int64)
    up[hooked], by[hooked] = parent[hook[hooked]], mult[hook[hooked]]
    return hooked, up, by


def _priorities(n: int, step: int) -> np.ndarray:
    """Ranks of rows 0..n-1 at a merge step, with no ties: the row position
    at step 0, then splitmix64 of row + step * 2^64/phi."""
    if not step:
        return np.arange(n)
    x = np.arange(n, dtype=np.uint64) + np.uint64(step * 0x9E3779B97F4A7C15 % 2**64)
    for shift, factor in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        x ^= x >> np.uint64(shift)
        x *= np.uint64(factor)
    return x ^ (x >> np.uint64(31))


def _jump(up: np.ndarray, by: np.ndarray, compose) -> tuple[np.ndarray, np.ndarray]:
    """Pointer jumping: each node's root, where up[root] == root, and the
    composition of ``by`` along its path there; roots hold the identity."""
    while True:
        nxt = up[up]
        if (nxt == up).all():
            return up, by
        by, up = compose(by, by[up]), nxt


@dataclass(frozen=True)
class _Layout:
    """Where each entry of a sparse matrix goes in the profile order.

    Entry k holds ``values[k]`` at row ``ii[k]``, column ``jj[k]``; entries
    are grouped by row, and row i's are ``start[i]:start[i + 1]``.  Rows are
    sorted by leading column, so ``first`` is nondecreasing; a zero row has
    leading column ``cols``.  ``last`` is each row's last nonzero column.
    All rows and columns are positions in the permuted order.
    """

    rows: int
    cols: int
    ii: np.ndarray
    jj: np.ndarray
    values: np.ndarray
    start: list
    first: list
    last: np.ndarray


def _plan_layout(M: SparseIntMatrix) -> _Layout:
    m, n = M.rows, M.cols
    ii, jj = M.ii, M.jj
    # Columns by the first row that touches them; untouched columns go last.
    first_row = np.full(n, m, dtype=np.int64)
    np.minimum.at(first_row, jj, ii)
    col_pos = np.empty(n, dtype=np.int64)
    col_pos[np.argsort(first_row, kind="stable")] = np.arange(n)
    jj = col_pos[jj]
    # Rows by their leading column in that order; zero rows go last.
    lead = np.full(m, n, dtype=np.int64)
    np.minimum.at(lead, ii, jj)
    tail = np.full(m, -1, dtype=np.int64)
    np.maximum.at(tail, ii, jj)
    order = np.argsort(lead, kind="stable")
    row_pos = np.empty(m, dtype=np.int64)
    row_pos[order] = np.arange(m)
    by_row = np.argsort(row_pos[ii], kind="stable")
    ii, jj = row_pos[ii[by_row]], jj[by_row]
    start = np.searchsorted(ii, np.arange(m + 1)).tolist()
    return _Layout(m, n, ii, jj, M.vals[by_row], start, lead[order].tolist(), tail[order])


def _ranks_mod_primes(layout: _Layout, primes: Sequence[int]) -> list[int]:
    """Rank modulo each prime p < 2^31, all primes in one elimination pass.

    Invariants at column c: rows [0, r) are finished, r - dead pivots and
    ``dead`` rows found zero for every prime; rows [r, m) are zero left of
    c; rows [hi, m) are still untouched (a row is only updated at a column
    where it is nonzero, and their leading columns exceed c); every row is
    zero right of last[row].  So only the live rows [r, hi), in columns c to
    their largest ``last``, can change, and only that block is stored:
    buffer entry [t, i, j] is row r0 + i, column c0 + j modulo primes[t].
    Rows [hi, fed) are scattered in ahead of use and stay untouched until
    they go live.  Columns past the buffer are zero in every live row.

    Stacking the primes on the leading axis makes each pivot search, swap
    and row update one numpy operation for every prime, with its inner loop
    along a row.  The pivot is the first live row that is nonzero modulo
    any prime.  If it is zero modulo another prime, which needs that prime
    to divide a minor, the primes' pivots diverge, and each prime is
    eliminated alone by a call with that prime only.  A row below the pivot
    row r is replaced by a[r, c] * row - a[row, c] * row_r, which needs no
    inverse: a[r, c] is a unit mod p, and the products of two residues below
    2^31 stay below 2^62.
    """
    m, n, k = layout.rows, layout.cols, len(primes)
    ps = np.array(primes, dtype=np.int64).reshape(k, 1, 1)
    res = (layout.values % np.array(primes, dtype=layout.values.dtype)[:, None]).astype(np.int64)
    first, start, last = layout.first, layout.start, layout.last.tolist()
    buf = np.zeros((k, 0, 0), dtype=np.int64)
    r0 = c0 = fed = dead = 0
    r = hi = c = 0
    while r < m and c < n:
        while hi < m and first[hi] <= c:
            hi += 1
        if hi > fed:
            # A live row is not in the buffer.  Live rows already there that
            # are zero for every prime can never be pivots: they go before r
            # as dead rows.  The others move to the origin of a new buffer,
            # followed by the entering rows and as many after them as fit.
            # The buffer is twice the live block in each dimension, capped
            # at the rows and columns still to come, and at m*n cells (one
            # prime's dense array) unless the live block alone needs more.
            col = pivot = below = None  # views that would keep the old buffer alive
            held = buf[:, r - r0 : fed - r0, c - c0 :]
            kept = np.maximum.reduce(held, axis=(0, 2), initial=0).nonzero()[0]
            held = held[:, kept]
            del buf  # freed before the new buffer is allocated
            gone = fed - r - kept.size
            last[r + gone : fed] = [last[r + j] for j in kept.tolist()]
            r += gone
            dead += gone
            end = max(last[r:hi]) + 1
            grow = min(2.0, (m * n / (k * (hi - r) * (end - c))) ** 0.5)
            rows = max(hi - r, min(int(grow * (hi - r)), m - r))
            cols = max(end - c, min(int(grow * (end - c)), n - c))
            new_fed = hi
            while new_fed < r + rows and last[new_fed] < c + cols:
                new_fed += 1
            buf = np.zeros((k, rows, cols), dtype=np.int64)
            keep = min(held.shape[2], cols)
            buf[:, : kept.size, :keep] = held[:, :, :keep]
            del held
            s, e = start[fed], start[new_fed]
            buf[:, layout.ii[s:e] - r, layout.jj[s:e] - c] = res[:, s:e]
            r0, c0, fed = r, c, new_fed
        if hi == r or c - c0 >= buf.shape[2]:
            # No live row is nonzero from c on: jump to the next leading column.
            if hi == m:
                break
            c = first[hi]
            continue
        col = buf[:, r - r0 : hi - r0, c - c0]
        nz = np.maximum.reduce(col, axis=0).nonzero()[0]
        if nz.size == 0:
            c += 1
            continue
        if k > 1 and 0 in col[:, nz[0]].tolist():
            return [_ranks_mod_primes(layout, (p,))[0] for p in primes]
        i = r + int(nz[0])
        if i != r:
            # Row r is zero in column c, so after the swap the rows below
            # that need an update are still exactly nz[1:].
            end = max(last[r], last[i]) + 1 - c0
            buf[:, [r - r0, i - r0], c - c0 : end] = buf[:, [i - r0, r - r0], c - c0 : end]
            last[r], last[i] = last[i], last[r]
        if nz.size > 1:
            # Rescaling touches all of a row, so the update spans the widest
            # of the rows.  A run of adjacent rows is updated in place through
            # a view; scattered rows are gathered, updated and written back.
            ids = (nz[1:] + r).tolist()
            for j in ids:
                last[j] = max(last[j], last[r])
            end = max(last[j] for j in ids) + 1 - c0
            run = ids[-1] - ids[0] == len(ids) - 1
            at = slice(ids[0] - r0, ids[-1] + 1 - r0) if run else nz[1:] + (r - r0)
            pivot = buf[:, r - r0, None, c - c0 : end]
            below = buf[:, at, c - c0 : end]
            minus = below[:, :, :1] * pivot
            below *= pivot[:, :, :1]
            below -= minus
            below %= ps
            if not run:
                buf[:, at, c - c0 : end] = below
        r += 1
        c += 1
    return [r - dead] * k


def rank_q(M: SparseIntMatrix, rng: random.Random | None = None) -> RankCertificate:
    """Exact rank over the rationals with a certificate: ``block_ranks`` of
    M as a batch of one."""
    return block_ranks(M, (0, M.rows), (0, M.cols), (rng,))[0]


def block_ranks(M: SparseIntMatrix, row_at, col_at, rngs: Sequence) -> list[RankCertificate]:
    """The exact rank of each diagonal block of M, with a certificate.

    Block b is rows ``row_at[b]:row_at[b + 1]`` and columns
    ``col_at[b]:col_at[b + 1]``, and M has no entry outside its blocks.  The
    singletons of every block are peeled off in one ``_peel_lines`` of M:
    rank of block b = k_b + rank of its core, where k_b counts the pivots in
    its rows, and the core splits at the blocks' offsets in it.  The peel is
    confluent, so k_b and block b's core are those of a peel of the block
    alone, and each certificate is the one the block gets by itself.

    A core of more than ``SMALL_DIM_CUTOFF**2`` cells merges its unit
    doubletons (``_merge_doubletons``, which adds to k).  A core within that
    test, the empty core included, is ranked fraction-free: no prime is
    drawn and the block's generator ``rngs[b]`` is not touched.  A larger
    one goes through the modular multi-prime protocol of the module
    docstring with ``rngs[b]`` (a fixed seed when None), and its agreeing
    primes certify its rank; after ``MAX_PRIMES`` primes without agreement
    it is ranked fraction-free.
    """
    pivots, rows, cols = _peel_lines(M)
    at = np.searchsorted(pivots.nonzero()[0], row_at).tolist()
    ks = [e - s for s, e in zip(at, at[1:])]
    certs = [RankCertificate(k, "fraction-free") for k in ks]
    for b, block in _split(_core(M, rows, cols), rows, cols, row_at, col_at):
        certs[b] = _rank_core(ks[b], block, rngs[b])
    return certs


def _split(core: SparseIntMatrix, rows: np.ndarray, cols: np.ndarray, row_at, col_at):
    """(b, block b of core) for each block with a nonempty core, in order:
    the core holds rows ``rows`` and columns ``cols`` of the union."""
    if not core.rows:
        return ()
    row_at = np.searchsorted(rows, row_at)
    (full,) = (row_at[1:] != row_at[:-1]).nonzero()
    if full.size <= 1:
        # Every core column meets a core row of its block: the core is that block.
        return zip(full.tolist(), [core])
    col_at = np.searchsorted(cols, col_at)
    at = np.searchsorted(row_at, core.ii, side="right") - 1
    order = np.argsort(at, kind="stable")
    starts = np.searchsorted(at[order], full).tolist()
    return (
        (b, _block(core, order[s:e], row_at[b : b + 2].tolist(), col_at[b : b + 2].tolist()))
        for b, s, e in zip(full.tolist(), starts, starts[1:] + [order.size])
    )


def _block(core: SparseIntMatrix, entries: np.ndarray, rows: list, cols: list) -> SparseIntMatrix:
    """The entries of core in rows[0]:rows[1] and cols[0]:cols[1], as their own matrix."""
    ii, jj, vals = core.ii[entries] - rows[0], core.jj[entries] - cols[0], int_array(core.vals[entries])
    return SparseIntMatrix._unchecked(rows[1] - rows[0], cols[1] - cols[0], ii, jj, vals)


def _rank_core(k: int, core: SparseIntMatrix, rng: random.Random | None) -> RankCertificate:
    """k + rank core, certified: the tail of ``block_ranks`` for one block."""
    if core.rows * core.cols > SMALL_DIM_CUTOFF**2:
        merged, core = _merge_doubletons(core)
        k += merged
    if not core.nnz():
        return RankCertificate(k, "fraction-free")
    if core.rows * core.cols <= SMALL_DIM_CUTOFF**2:
        return RankCertificate(k + bareiss_rank(core.to_dense()), "fraction-free")
    rng = rng if rng is not None else random.Random(0xF01)
    tried: set[int] = set()
    by_rank: dict[int, list[int]] = {}
    layout = _plan_layout(core)
    # No agreement is possible before the AGREEMENTS_NEEDED-th prime, so the
    # first that many are drawn together and eliminated in one pass.
    batch = AGREEMENTS_NEEDED
    while len(tried) < MAX_PRIMES:
        primes: list[int] = []
        while len(primes) < batch:
            p = random_prime(rng)
            if p not in tried and p not in primes:
                primes.append(p)
        tried.update(primes)
        for p, r in zip(primes, _ranks_mod_primes(layout, primes)):
            by_rank.setdefault(k + r, []).append(p)
        best = max(by_rank)
        if len(by_rank[best]) >= AGREEMENTS_NEEDED:
            return RankCertificate(best, "modular-multi-prime", tuple(by_rank[best]))
        batch = 1
    # Pathologically unlucky primes: fall back to the exact slow path.
    return RankCertificate(k + bareiss_rank(core.to_dense()), "fraction-free")


def kernel_basis(rows: Sequence[Sequence[int]], cols: int, p: int = 0) -> list[list]:
    """Right kernel of an integer matrix with ``cols`` columns, over Q when
    p == 0 (Fraction entries) and modulo the prime p otherwise: one vector
    per free column of ``_echelon``, 1 there and 0 at the other free
    columns, its pivot entries found by back substitution.  That solution is
    unique, so it is the reduced-echelon basis vector.  A matrix with no
    rows gets the unit basis."""
    a = [list(map(int, row)) for row in rows]
    pivots = _echelon(a, p)
    zero, one = (0, 1) if p else (Fraction(0), Fraction(1))
    pivset = set(pivots)
    basis = []
    for fc in range(cols):
        if fc in pivset:
            continue
        v = [zero] * cols
        v[fc] = one
        known = [fc]  # the nonzero columns of v right of the current pivot
        for row, pc in zip(reversed(a[: len(pivots)]), reversed(pivots)):
            if pc > fc:
                continue
            s = sum(row[j] * v[j] for j in known if row[j])
            if s:
                v[pc] = -s * pow(row[pc], -1, p) % p if p else -s / row[pc]
                known.append(pc)
        basis.append(v)
    return basis


def nullspace_q(M: SparseIntMatrix) -> list[list[Fraction]]:
    """Exact rational basis of the right kernel: ``kernel_basis`` over Q, by
    back substitution on the fraction-free echelon of the dense matrix."""
    return kernel_basis(M.to_dense(), M.cols)


def _dense_rank_mod_p(a: list[list[int]], p: int) -> int:
    return len(_echelon([list(row) for row in a], p))
