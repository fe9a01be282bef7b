import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from folrank import exactla
from folrank.errors import InputError, UnsupportedGroupError
from folrank.exactla import (
    RankCertificate,
    SparseIntMatrix,
    _dense_rank_mod_p,
    _echelon,
    _is_prime,
    _merge_doubletons,
    _peel,
    _plan_layout,
    _ranks_mod_primes,
    bareiss_rank,
    block_ranks,
    kernel_basis,
    nullspace_q,
    random_prime,
    rank_q,
)
from folrank.groupring import RingElem, RingMatrix, window_matrix
from folrank.groups import finite_cyclic, folner_set, zd
from folrank.ranks import generic_rank_laurent, point_rank_laurent, regular_rep_kernel, submodule_rank_matrix

Z2 = zd(2)
FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
P31 = 2_147_483_647
P62 = 2**61 + 15  # a prime of the Laurent oracle's field size
SMALL_PRIMES = (3, 5, 7, 11, 13)


def M(dense):
    return SparseIntMatrix.from_dense(dense)


def ranks(dense, primes):
    return _ranks_mod_primes(_plan_layout(M(dense)), primes)


def xy_minus_one():
    x1 = RingElem.from_terms(Z2, [((1, 0), 1), ((0, 0), -1)])
    y1 = RingElem.from_terms(Z2, [((0, 1), 1), ((0, 0), -1)])
    return RingMatrix(Z2, [[x1, y1]])


def fixture_window(fixture, L):
    f = RingMatrix.from_json(json.loads((FIXTURES / f"{fixture}.json").read_text()))
    return window_matrix(f, folner_set(f.spec, L)).data


# -- rank examples -------------------------------------------------------------


def test_rank_examples():
    assert rank_q(M([[1, 0], [2, 1], [0, 2]])).rank == 2
    assert rank_q(M([[1, 0, 0], [0, 1, 0], [0, 0, 1]])).rank == 3
    assert rank_q(M([[0, 0], [0, 0]])).rank == 0
    assert rank_q(SparseIntMatrix(0, 5)).rank == 0


def test_from_dense_rejects_ragged_rows_and_a_disagreeing_cols():
    with pytest.raises(InputError, match="ragged"):
        SparseIntMatrix.from_dense([[1, 2, 3], [4]], cols=5)
    with pytest.raises(InputError, match="ragged"):
        SparseIntMatrix.from_dense([[1, 2, 3], [4]])
    with pytest.raises(InputError, match="cols=5"):
        SparseIntMatrix.from_dense([[1, 2, 3], [4, 5, 6]], cols=5)
    M = SparseIntMatrix.from_dense([[0, 2, 0], [4, 0, 0]], cols=3)
    assert (M.rows, M.cols, M.nnz()) == (2, 3, 2) and M.to_dense() == [[0, 2, 0], [4, 0, 0]]
    assert (SparseIntMatrix.from_dense([], cols=4).rows, SparseIntMatrix.from_dense([], cols=4).cols) == (0, 4)


def test_sparse_matrix_validation():
    with pytest.raises(InputError, match="out of range"):
        SparseIntMatrix(2, 2, [2], [0], [1])
    with pytest.raises(InputError, match="out of range"):
        SparseIntMatrix(2, 2, [0], [-1], [1])
    with pytest.raises(InputError, match="zero"):
        SparseIntMatrix(2, 2, [0], [0], [0])
    with pytest.raises(InputError, match="twice"):
        SparseIntMatrix(2, 2, [1, 1], [0, 0], [1, 2])
    with pytest.raises(InputError, match="shape"):
        SparseIntMatrix(2, 2, [1, 0], [0], [1])
    big = SparseIntMatrix(2, 2, [0, 1], [1, 0], [2**64, -3])
    assert big.vals.dtype == object and big.to_dense() == [[0, 2**64], [-3, 0]]
    assert SparseIntMatrix(2, 2, [0], [1], [5]).vals.dtype == np.int64


def test_kernel_dim_examples():
    # The kernel dimension, cols - rank, is the size of a kernel basis.
    for mat, dim in ((M([[1, 0], [2, 1], [0, 2]]), 0), (SparseIntMatrix(3, 2), 2), (M([[1, 1], [1, 1]]), 1)):
        assert mat.cols - rank_q(mat).rank == len(nullspace_q(mat)) == dim


def test_certificate_invariants():
    cert = rank_q(M([[1, 2], [2, 4]]))
    assert cert.method == "fraction-free"
    assert cert.rank == 1
    # A modular certificate needs AGREEMENTS_NEEDED distinct primes.
    for primes in ((7,), (7, 11), (7, 7, 11)):
        with pytest.raises(InputError, match="distinct agreeing primes"):
            RankCertificate(1, "modular-multi-prime", primes=primes)
    assert RankCertificate(1, "modular-multi-prime", primes=(7, 11, 13)).primes == (7, 11, 13)
    with pytest.raises(InputError):
        RankCertificate(1, "lucky-guess")


def test_is_prime_short_bases_match_all_bases(monkeypatch):
    rng = random.Random(11)
    bound = exactla._MR_SHORT_BOUND
    cases = [rng.randrange(1, bound, 2) for _ in range(3000)]
    # Strong pseudoprimes to base 2 (2047, 3277), to 2 and 3 (1373653) and
    # to 2, 3 and 5 (25326001).
    cases += [2047, 3277, 4033, 1_373_653, 25_326_001, 2_147_483_647, bound - 2]
    short = [_is_prime(n) for n in cases]
    monkeypatch.setattr(exactla, "_MR_SHORT_BOUND", 0)
    assert short == [_is_prime(n) for n in cases]
    assert any(short)


@pytest.mark.parametrize("n", [25_326_001, 3_215_031_751, 2_152_302_898_747])
def test_is_prime_rejects_strong_pseudoprimes(n):
    # 25326001 passes bases 2, 3, 5; 3215031751 passes 2, 3, 5, 7 (it is the
    # short set's bound); 2152302898747 passes 2, 3, 5, 7, 11.
    assert not _is_prime(n)


def test_modular_path_used_for_large_and_agrees():
    rng = random.Random(3)
    dense = [[rng.randint(-4, 4) for _ in range(80)] for _ in range(70)]
    cert = rank_q(M(dense), rng=random.Random(1))
    assert cert.method == "modular-multi-prime"
    assert len(set(cert.primes)) >= 2
    assert cert.rank == bareiss_rank(dense)
    assert cert.rank <= min(70, 80)


def test_fraction_free_matches_modular_up_to_cutoff():
    # The cross-check suite at the fraction-free cutoff scale.
    rng = random.Random(42)
    for rows, cols in ((20, 33), (48, 32), (64, 64), (64, 10)):
        dense = [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)]
        ff = bareiss_rank(dense)
        mat = M(dense)
        p = random_prime(rng)
        assert _ranks_mod_primes(_plan_layout(mat), [p]) == [ff]
        assert _ranks_mod_primes(_plan_layout(mat), [p, P31, 1_000_000_007]) == [ff] * 3
        assert rank_q(mat).rank == ff


@settings(max_examples=30, deadline=None)
@given(
    rows=st.integers(1, 8),
    cols=st.integers(1, 8),
    seed=st.integers(0, 10**6),
)
def test_fraction_free_matches_modular(rows, cols, seed):
    rng = random.Random(seed)
    dense = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
    ff = bareiss_rank(dense)
    mat = M(dense)
    primes = [random_prime(rng) for _ in range(2)]
    for p in primes:
        assert _ranks_mod_primes(_plan_layout(mat), [p]) <= [ff]
    assert max(_ranks_mod_primes(_plan_layout(mat), primes)) <= ff
    # A single 31-bit prime is wrong only if it divides a fixed minor;
    # two in a row disagreeing with fraction-free would be astronomically
    # unlikely, so insist on exact agreement for at least one of them.
    p = random_prime(random.Random(seed + 1))
    assert _ranks_mod_primes(_plan_layout(mat), [p]) == [ff]
    assert _ranks_mod_primes(_plan_layout(mat), [*primes, p])[2] == ff


# -- stacked live-front kernel on sparse, structured inputs --------------------


@st.composite
def sparse_dense(draw):
    """Mostly-zero integer matrices with zero rows and columns, repeated rows
    (tied leading columns, rank drops) and row sums (fill-in and swaps)."""
    rows, cols = draw(st.integers(1, 10)), draw(st.integers(1, 10))
    entry = st.sampled_from((0, 0, 0, 0, 0, 1, -1, 2, -3))
    dense = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.integers(0, rows - 1)), draw(st.integers(0, rows - 1))
        kind = draw(st.sampled_from(("copy", "add", "zero-row", "zero-col")))
        if kind == "copy":
            dense[i] = list(dense[j])
        elif kind == "add":
            dense[i] = [x + y for x, y in zip(dense[i], dense[j])]
        elif kind == "zero-row":
            dense[i] = [0] * cols
        else:
            k = draw(st.integers(0, cols - 1))
            for row in dense:
                row[k] = 0
    return dense


@st.composite
def peelable(draw):
    """sparse_dense matrices with a bordered singleton chain, repeated
    columns and entries past 2^63.

    The chain adds t rows and t columns: chain column s meets chain rows
    s - 1 and s, and the last chain row meets an old column, so peeling
    chain column 0 exposes chain column 1, and so on."""
    dense = draw(sparse_dense())
    cols = len(dense[0])
    t = draw(st.integers(0, 6))
    link = draw(st.integers(0, cols - 1))
    for row in dense:
        row += [draw(st.sampled_from((0, 0, 0, 0, 1))) for _ in range(t)]
    for s in range(t):
        dense.append([0] * (cols + t))
        dense[-1][cols + s] = draw(st.sampled_from((1, -2, 5)))
        if s + 1 < t:
            dense[-1][cols + s + 1] = 1
    if t:
        dense[-1][link] = 3
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.integers(0, cols + t - 1)), draw(st.integers(0, cols + t - 1))
        for row in dense:
            row[i] = row[j]
    big = st.sampled_from((2**63, -(2**63) - 5, 2**64 + 1, 3 * 2**70))
    for row in dense:
        for j, x in enumerate(row):
            if x and draw(st.integers(0, 4)) == 0:
                row[j] = draw(big)
    return dense


def _live_counts(A):
    return np.bincount(A.ii, minlength=A.rows), np.bincount(A.jj, minlength=A.cols)


@settings(max_examples=200, deadline=None)
@given(dense=peelable())
def test_peel_keeps_the_rank(dense):
    A = M(dense)
    k, core = _peel(A)
    assert k + bareiss_rank(core.to_dense()) == bareiss_rank(dense)
    # Every singleton and zero row and column is gone.
    for counts in _live_counts(core):
        assert counts.min(initial=2) >= 2
    assert core.rows <= A.rows - k and core.cols <= A.cols - k


def _rebuilt(A):
    # Through the checking constructor, which raises on a broken invariant
    # and would convert arrays of the wrong dtype.
    B = SparseIntMatrix(A.rows, A.cols, A.ii, A.jj, A.vals)
    assert [x.dtype for x in (B.ii, B.jj, B.vals)] == [x.dtype for x in (A.ii, A.jj, A.vals)]
    return B


@settings(max_examples=200, deadline=None)
@given(dense=peelable(), data=st.data())
def test_submatrix_and_peel_outputs_pass_the_constructor_check(dense, data):
    A = M(dense)
    rows = data.draw(st.lists(st.integers(0, A.rows - 1), unique=True))
    cols = data.draw(st.lists(st.integers(0, A.cols - 1), unique=True))
    S = A.submatrix(rows, cols)
    assert _rebuilt(S).to_dense() == [[dense[i][j] for j in cols] for i in rows]
    for B in (A, S):
        _rebuilt(_peel(B)[1])


def test_peel_removes_a_bidiagonal_window():
    n = 4096
    ii, jj = np.r_[np.arange(n), np.arange(n - 1)], np.r_[np.arange(n), np.arange(1, n)]
    B = SparseIntMatrix(n, n, ii, jj, np.r_[np.full(n, 2), np.full(n - 1, -1)])
    k, core = _peel(B)
    assert (k, core.rows, core.cols, core.nnz()) == (n, 0, 0, 0)
    assert rank_q(B, rng=random.Random(0)).rank == n


def test_empty_cores_rank_without_an_elimination(monkeypatch):
    # An all-zero matrix peels to an empty core, and so does a triangular
    # one: both are ranked by the peel alone.
    def no_elimination(*_):
        raise AssertionError("bareiss_rank called on an empty core")

    monkeypatch.setattr(exactla, "bareiss_rank", no_elimination)
    assert rank_q(M([[0] * 4] * 3)) == RankCertificate(0, "fraction-free")
    assert rank_q(M([[1, 2, 0, 7], [0, 3, 4, 0], [0, 0, 5, 1]])) == RankCertificate(3, "fraction-free")


def test_peel_is_over_q_when_a_prime_divides_the_singleton():
    # The z2hard window has rank 79, and its peeled core does not merge, so
    # primes rank it; a new row and column meet only at p, the first prime
    # that Random(0) draws, so the rank is 80.  Modulo p that entry
    # vanishes, but the peel takes it over Q, so p still agrees.
    p = random_prime(random.Random(0))
    W = fixture_window("z2hard", 8)
    A = SparseIntMatrix(W.rows + 1, W.cols + 1, np.r_[W.ii, W.rows], np.r_[W.jj, W.cols], np.r_[W.vals, p])
    cert = rank_q(A, rng=random.Random(0))
    assert cert.rank == bareiss_rank(A.to_dense()) == 80
    assert cert.method == "modular-multi-prime" and cert.primes[0] == p


def _peel_by_worklist(M):
    # Reference for _peel: the worklist alone, with no sweep first.
    ii, jj = M.ii, M.jj
    rcnt, ccnt = np.bincount(ii, minlength=M.rows), np.bincount(jj, minlength=M.cols)
    # Columns as j >= 0, rows as ~i < 0.
    todo = (ccnt == 1).nonzero()[0].tolist() + (~(rcnt == 1).nonzero()[0]).tolist()
    k = 0
    if todo:
        # Counts, each row's columns and each column's rows are arrays read
        # and written through memoryviews: no Python int is kept per entry.
        rc, cc = memoryview(rcnt), memoryview(ccnt)
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
            k += 1
    (rows,), (cols,) = rcnt.nonzero(), ccnt.nonzero()
    if rows.size == M.rows and cols.size == M.cols:
        return 0, M
    if not rows.size:
        # A row left in the core meets a column left in it, and conversely.
        return k, exactla._EMPTY
    return k, M.submatrix(rows, cols)


def _same_matrix(A, B):
    assert (A.rows, A.cols) == (B.rows, B.cols)
    for x, y in ((A.ii, B.ii), (A.jj, B.jj), (A.vals, B.vals)):
        assert x.dtype == y.dtype and np.array_equal(x, y)


@settings(max_examples=300, deadline=None)
@given(dense=peelable())
# Two singleton columns on one row, then two singleton rows on one column.
@example(dense=[[1, 2, 1, 1], [0, 0, 1, 1], [0, 0, 1, 2]])
@example(dense=[[1, 0, 0], [2, 0, 0], [1, 1, 1], [1, 1, 2]])
# An entry that is a singleton row and a singleton column at once.
@example(dense=[[7, 0, 0], [0, 1, 1], [0, 1, 1]])
# Bidiagonal chains, each way round, and a chain with no singleton row.
@example(dense=[[2, -1, 0, 0], [0, 2, -1, 0], [0, 0, 2, -1], [0, 0, 0, 2]])
@example(dense=[[2, 0, 0, 0], [-1, 2, 0, 0], [0, -1, 2, 0], [0, 0, -1, 2]])
@example(dense=[[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]])
# Zero rows and columns, with and without a singleton.
@example(dense=[[0, 0, 0, 0], [0, 1, 1, 0], [0, 1, 1, 0], [0, 0, 0, 0]])
@example(dense=[[0, 0, 0], [0, 3, 0], [0, 0, 0]])
# Python-int values, in the core and in the peeled part.
@example(dense=[[1, 1, 0], [0, 2**70, 1], [0, 1, 3]])
@example(dense=[[2**70, 1, 0], [0, 1, 1], [0, 1, 1]])
def test_peel_sweep_matches_the_worklist(dense):
    A = M(dense)
    k, core = _peel(A)
    want_k, want = _peel_by_worklist(A)
    assert k == want_k
    _same_matrix(core, want)


@settings(max_examples=200, deadline=None)
@given(dense=peelable(), data=st.data())
def test_peel_is_confluent(dense, data):
    # Permuting rows and columns changes the order in which singletons are
    # met, and neither k nor the core.
    A = M(dense)
    rows = data.draw(st.permutations(range(A.rows)))
    cols = data.draw(st.permutations(range(A.cols)))
    k, core = _peel(A)
    k2, core2 = _peel(A.submatrix(rows, cols))
    assert (k2, core2.rows, core2.cols) == (k, core.rows, core.cols)
    assert sorted(core2.vals.tolist()) == sorted(core.vals.tolist())


@st.composite
def doubleton_graphs(draw):
    """Signed incidence matrices of random multigraphs (one column per edge,
    so parallel edges give parallel columns that cancel), a star of leaves
    on one center, doubleton entries that are not units, extra random
    entries, and values past the int64 guard or past int64 itself."""
    n = draw(st.integers(2, 9))
    entry = st.sampled_from((1, 1, -1, -1, 2, -3))
    dense = [[] for _ in range(n)]

    def column(at):
        for i, row in enumerate(dense):
            row.append(at.get(i, 0))

    for _ in range(draw(st.integers(0, 14))):
        a, b = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if a != b:
            column({a: draw(entry), b: draw(entry)})
    center = draw(st.integers(0, n - 1))
    for leaf in draw(st.lists(st.integers(0, n - 1), max_size=5)):
        if leaf != center:
            column({leaf: draw(st.sampled_from((1, -1))), center: draw(entry)})
    if not dense[0]:
        column({0: 1, n - 1: -1})
    cols = len(dense[0])
    for _ in range(draw(st.integers(0, 4))):
        dense[draw(st.integers(0, n - 1))][draw(st.integers(0, cols - 1))] = draw(entry)
    big = st.sampled_from((2**61, -(2**62) + 7, 2**63 + 1))
    if draw(st.integers(0, 4)) == 0:
        dense[draw(st.integers(0, n - 1))][draw(st.integers(0, cols - 1))] = draw(big)
    return dense


def _rows_permuted(A, data):
    # The first merge step ranks the roots by row position, so the merges
    # also see each matrix with its rows in a drawn order.
    return A.submatrix(data.draw(st.permutations(range(A.rows))), range(A.cols))


@settings(max_examples=300, deadline=None)
@given(dense=doubleton_graphs(), data=st.data())
def test_merges_keep_the_rank(dense, data):
    A = M(dense)
    want = bareiss_rank(dense)
    for B in (A, _rows_permuted(A, data)):
        peeled, core = _peel(B)
        merged, rest = _merge_doubletons(core)
        assert peeled + merged + bareiss_rank(rest.to_dense()) == want
        for counts in _live_counts(rest):
            assert counts.min(initial=2) >= 2
        assert rest.rows <= core.rows - merged and rest.cols <= core.cols - merged


def _cycle_with_chords(n, u=1, v=-1):
    # Vertices 0..n-1 on a cycle plus chords i -- i + 2, u and v in each
    # edge's column: every column is a doubleton and every row has four
    # nonzeros, so nothing peels.
    edges = [(i, (i + 1) % n) for i in range(n)] + [(i, (i + 2) % n) for i in range(n)]
    dense = [[0] * len(edges) for _ in range(n)]
    for j, (a, b) in enumerate(edges):
        dense[a][j], dense[b][j] = u, v
    return dense


def test_merges_shrink_an_incidence_matrix():
    dense = _cycle_with_chords(40)
    A = M(dense)
    assert _peel(A) == (0, A)
    k, core = _merge_doubletons(A)
    assert k + bareiss_rank(core.to_dense()) == bareiss_rank(dense) == 39
    assert core.rows <= 3
    # A doubleton with no ±1 entry is no pivot.
    B = M(_cycle_with_chords(40, 2, -3))
    assert _merge_doubletons(B) == (0, B)


@pytest.mark.parametrize("value", [2**61, -(2**61), 2**63, -(2**70)])
def test_merges_skip_values_past_the_int64_guard(value):
    # 2^61 * (1 + 2 * 1) >= 2^62 trips the guard; 2^63 and past make the
    # values Python ints.  Either way nothing is merged.
    dense = _cycle_with_chords(40)
    dense[5][7] = value
    A = M(dense)
    assert _merge_doubletons(A) == (0, A)
    assert rank_q(A, rng=random.Random(0)).rank == bareiss_rank(dense)


def _merge_one_at_a_time(dense):
    # Reference for _merge_doubletons: pivot one unit doubleton column at a
    # time over Python-int rows, the merged-away row and its column leaving
    # with 1 added to the rank, until no column is one.
    rows = [[int(x) for x in row] for row in dense]
    k = 0
    while True:
        for j in range(len(rows[0]) if rows else 0):
            at = [i for i, row in enumerate(rows) if row[j]]
            if len(at) == 2 and 1 in (abs(rows[at[0]][j]), abs(rows[at[1]][j])):
                a, b = at if abs(rows[at[0]][j]) == 1 else at[::-1]
                f = rows[b][j] * rows[a][j]
                rows[b] = [y - f * x for x, y in zip(rows[a], rows[b])]
                del rows[a]
                k += 1
                break
        else:
            return k, rows


@settings(max_examples=300, deadline=None)
@given(dense=doubleton_graphs(), data=st.data())
def test_merges_match_one_merge_at_a_time(dense, data):
    # The scatter pairs a doubleton's entries by their places in the arrays,
    # so the entries also come in a drawn order.
    k, rest = _merge_one_at_a_time(dense)
    want = bareiss_rank(dense)
    assert k + bareiss_rank(rest) == want
    A = M(dense)
    order = np.array(data.draw(st.permutations(range(A.nnz()))), dtype=np.int64)
    for B in (A, SparseIntMatrix(A.rows, A.cols, A.ii[order], A.jj[order], A.vals[order]), _rows_permuted(A, data)):
        peeled, core = _peel(B)
        merged, rest = _merge_doubletons(core)
        assert peeled + merged + bareiss_rank(rest.to_dense()) == want
        # The merges skip the constructor's checks; their arrays pass them.
        _rebuilt(rest)


def _unit_doubletons(A):
    # The columns of A with two nonzeros, both ±1.
    counts = np.bincount(A.jj, minlength=A.cols)
    units = np.bincount(A.jj[np.abs(A.vals) == 1], minlength=A.cols)
    return ((counts == 2) & (units == 2)).nonzero()[0]


@settings(max_examples=300, deadline=None)
@given(dense=doubleton_graphs())
def test_no_unit_doubleton_is_left(dense):
    # Inside the guard, a column with ±1 at both ends always hooks one way
    # round, so the merges stop only when none is left.
    A = M(dense)
    assume(A.vals.dtype == np.int64 and int(np.abs(A.vals).max()) * int(np.bincount(A.jj).max()) < 2**62)
    _, core = _peel(A)
    _, rest = _merge_doubletons(core)
    assert rest.vals.dtype == np.int64
    assert _unit_doubletons(rest).size == 0


@pytest.mark.parametrize("n, u, v", [(128, 1, 2), (64, -1, 5)])
def test_one_sided_merges_stay_inside_int64(n, u, v, monkeypatch):
    # Each column has one ±1 end, so every hook's multiplier is ±v times
    # the other end's multiplier, and chains of hooks compose powers of v
    # past 2^62.  The guard must trip: a step that chooses its hooks twice
    # has kept only those with ±1 at both ends.
    dense = _cycle_with_chords(n, u, v)
    hooks, steps = [], []
    choose, rank = exactla._hooks, exactla._priorities
    monkeypatch.setattr(exactla, "_hooks", lambda *args: hooks.append(1) or choose(*args))
    monkeypatch.setattr(exactla, "_priorities", lambda *args: steps.append(1) or rank(*args))
    k, rest = _merge_doubletons(M(dense))
    assert len(hooks) > len(steps)
    assert rest.vals.dtype == np.int64
    assert k + bareiss_rank(rest.to_dense()) == bareiss_rank(dense)


def test_merges_go_on_after_a_first_step_that_hooks_nothing():
    # Over Z^2, (1 + 2x, 1 + 2y) peels at L=32 to a 1024x1984 core whose
    # columns are all (1, 2) doubletons.  Hooked in row order, they would
    # chain x2 multipliers that trip the int64 guard, and its retry with
    # (±1, ±1) columns hooks nothing.  The first step fires only those, so
    # it hooks nothing here, and that must not end the pass: the hashed
    # steps after it merge 994 rows at the least.
    a, b = (RingElem.from_terms(Z2, [((0, 0), 1), (shift, 2)]) for shift in ((1, 0), (0, 1)))
    W = window_matrix(RingMatrix(Z2, [[a, b]]), folner_set(Z2, 32)).data
    k, core = _peel(W)
    assert (core.rows, core.cols) == (1024, 1984)
    merged, rest = _merge_doubletons(core)
    assert merged >= 994
    assert merged + bareiss_rank(rest.to_dense()) == _ranks_mod_primes(_plan_layout(core), [P31])[0] == 1023


@pytest.mark.parametrize(
    "fixture, L",
    [("xy_minus_one", 8), ("two_over_z2", 16), ("heisenberg_ab", 2), ("z2hard", 8), ("hhard", 2)],
)
def test_kernel_sees_only_peeled_cores(fixture, L, monkeypatch):
    W = fixture_window(fixture, L)
    seen = []
    kernel = exactla._ranks_mod_primes

    def checked(layout, primes):
        seen.append((layout.rows, layout.cols))
        rows = np.diff(layout.start)
        cols = np.bincount(layout.jj, minlength=layout.cols)
        assert rows.min(initial=2) >= 2 and cols.min(initial=2) >= 2
        return kernel(layout, primes)

    monkeypatch.setattr(exactla, "_ranks_mod_primes", checked)
    assert rank_q(W, rng=random.Random(3)).rank == bareiss_rank(W.to_dense())
    # The diagonal two_over_z2 window peels away, and the binomial windows
    # merge to cores of a few cells: no core of theirs reaches the kernel.
    # The windows with no unit entry keep their peeled cores.
    assert bool(seen) == (fixture in ("z2hard", "hhard"))
    if fixture == "z2hard":
        # Peeled, the 80x128 window is 64x112, and no merge applies.
        assert seen[0] == (64, 112)


# The structured elimination of the benchmark's largest windows, as the
# module docstring quotes it: the window's shape, the peel's k and core,
# then the merges' k, their hooking steps and the merged core.
_LARGEST_WINDOW_PATHS = {
    ("vnd", "xy_minus_one", 64): ((4224, 8192), 128, (4096, 8064), (4095, 1, (0, 0))),
    ("vnd", "heisenberg_ab", 4): ((3427, 5346), 794, (2633, 4552), (2632, 4, (0, 0))),
    # Diagonal: the peel leaves nothing to merge.
    ("mrank", "two_over_z2", 64): ((4096, 4096), 4096, (0, 0), None),
}


@pytest.mark.parametrize("command, fixture, L", sorted(_LARGEST_WINDOW_PATHS))
def test_structured_elimination_of_the_largest_windows(command, fixture, L, monkeypatch):
    f = RingMatrix.from_json(json.loads((FIXTURES / f"{fixture}.json").read_text()))
    F = folner_set(f.spec, L)
    A = window_matrix(f, F).data if command == "vnd" else submodule_rank_matrix(f, F, f.spec)
    k, core = _peel(A)
    merged = None
    if core.rows * core.cols > exactla.SMALL_DIM_CUTOFF**2:
        steps = []
        rank = exactla._priorities
        monkeypatch.setattr(exactla, "_priorities", lambda *args: steps.append(1) or rank(*args))
        merges, rest = _merge_doubletons(core)
        merged = (merges, len(steps), (rest.rows, rest.cols))
    assert ((A.rows, A.cols), k, (core.rows, core.cols), merged) == _LARGEST_WINDOW_PATHS[command, fixture, L]


@settings(max_examples=200, deadline=None)
@given(dense=sparse_dense(), seed=st.integers(0, 10**6))
def test_clipped_kernel_matches_bareiss_on_sparse(dense, seed):
    rng = random.Random(seed)
    p, q = random_prime(rng), random_prime(rng)
    want = bareiss_rank(dense)
    assert ranks(dense, [p]) == [want]
    assert ranks(dense, [p, q]) == [want, want]


def test_clipped_kernel_fill_in_past_row_end():
    # Row 1 = [1, 0, 0] ends at column 0; eliminating column 0 with row 0
    # fills it to [0, -1, -1].  As the next pivot it must clear row 2 up to
    # column 2, so the rank is 2.  Keeping row 1's old end gives 3.
    dense = [[1, 1, 1], [1, 0, 0], [0, 1, 1]]
    assert bareiss_rank(dense) == 2
    assert ranks(dense, [P31]) == [2]
    assert ranks(dense, [P31, 1_000_000_007, 13]) == [2, 2, 2]


def test_clipped_kernel_swaps_pivot():
    # After column 0, row 1 is zero in column 1 and row 2 holds the pivot.
    dense = [[1, 1, 0], [1, 1, 1], [0, 1, 0]]
    assert ranks(dense, [P31]) == [3]
    assert ranks(dense, [P31, 1_000_000_007, 13]) == [3, 3, 3]


@st.composite
def integer_matrices(draw):
    """Sparse, banded, dense and rank-deficient integer matrices, with zero
    rows and columns; entries are often multiples of the small primes."""
    rows, cols = draw(st.integers(1, 14)), draw(st.integers(1, 14))
    kind = draw(st.sampled_from(("sparse", "banded", "dense", "deficient")))
    dense_entry = st.integers(-30, 30)
    sparse_entry = st.sampled_from((0, 0, 0, 0, 0, 1, -1, 2, 3, 5, 7, 11, 13, 15))
    entry = dense_entry if kind == "dense" else sparse_entry
    dense = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    if kind == "banded":
        lo, width = draw(st.integers(-3, 3)), draw(st.integers(0, 3))
        dense = [
            [x if lo <= j - i <= lo + width else 0 for j, x in enumerate(row)] for i, row in enumerate(dense)
        ]
    if kind == "deficient":
        for _ in range(draw(st.integers(1, 4))):
            i, j = draw(st.integers(0, rows - 1)), draw(st.integers(0, rows - 1))
            mult = draw(st.sampled_from((1, -2, 3)))
            dense[i] = [x + mult * y for x, y in zip(dense[i], dense[j])]
    for _ in range(draw(st.integers(0, 2))):
        if draw(st.booleans()):
            dense[draw(st.integers(0, rows - 1))] = [0] * cols
        else:
            k = draw(st.integers(0, cols - 1))
            for row in dense:
                row[k] = 0
    return dense


@settings(max_examples=300, deadline=None)
@given(
    dense=integer_matrices(),
    primes=st.lists(st.sampled_from((*SMALL_PRIMES, P31)), min_size=1, max_size=4, unique=True),
)
def test_kernel_matches_dense_rank_mod_each_prime(dense, primes):
    # Small primes often divide a pivot for one prime but not another, so
    # the pivots diverge and each prime is eliminated alone.
    want = [_dense_rank_mod_p([list(row) for row in dense], p) for p in primes]
    assert ranks(dense, primes) == want


def test_kernel_diverging_pivots():
    # Modulo 3 the first pivot vanishes and row 1 must be the pivot.
    assert ranks([[3, 0], [0, 1]], [3, 5]) == [1, 2]
    assert ranks([[3, 0], [0, 1]], [5, 3]) == [2, 1]


def test_kernel_row_outgrows_buffer():
    # A bidiagonal run keeps the live block a few columns wide.  The last row
    # starts with row 20 and reaches column 39, so it enters a buffer too
    # narrow for it; it then stays live and moves with every later buffer.
    n = 40
    dense = [[1 if j in (i, i + 1) else 0 for j in range(n)] for i in range(n - 1)]
    dense.append([0] * 20 + [j % 7 + 1 for j in range(20, n)])
    for primes in ([P31], [P31, 13, 11]):
        assert ranks(dense, primes) == [_dense_rank_mod_p([list(r) for r in dense], p) for p in primes]
    assert ranks(dense, [P31]) == [bareiss_rank(dense)] == [n]


def test_kernel_jumps_over_rank_deficient_run():
    # Ten equal rows leave nine zero live rows after the first pivot, so the
    # column scan runs past the buffer and must jump to the rows that start
    # at column 30, then carry the dead rows along.
    n = 60
    dense = [[2, -1, 3] + [0] * (n - 3) for _ in range(10)]
    dense += [[0] * (30 + i) + [1, 4] + [0] * (n - 32 - i) for i in range(20)]
    dense += [[0] * 55 + [1, 1, 1, 1, 1], [0] * (n - 1) + [5]]
    want = bareiss_rank(dense)
    assert want == 23
    assert ranks(dense, [P31]) == [want]
    assert ranks(dense, [P31, 1_000_000_007, 11]) == [want] * 3
    assert ranks(dense, [5, 3]) == [22, 23]


def test_kernel_drops_dead_rows():
    # Rows 1 and 2 are equal, so one of them is zero after its column and is
    # dropped as dead when the live block moves; the live rows behind it
    # must keep their own last columns, or the rank comes out as 3.
    dense = [[-1, 0, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 0, 2], [-1, 0, 0, 2, 0]]
    assert bareiss_rank(dense) == 4
    assert ranks(dense, [P31]) == [4]
    assert ranks(dense, [P31, 13, 5]) == [4, 4, 4]


def test_layout_orders_profile():
    lay = _plan_layout(M([[0, 0, 0], [0, 5, 0], [7, 0, 0], [1, 0, 3]]))
    # Columns by first touching row: 1 (row 1), 0 (row 2), 2 (row 3).
    # Rows by leading column in that order: 1, 2, 3, then the zero row 0.
    assert lay.first == [0, 1, 1, 3]
    assert lay.last.tolist() == [0, 1, 2, -1]


def test_rank_q_window_above_cutoff_permuted_and_transposed():
    W = fixture_window("z2hard", 8)
    assert (W.rows, W.cols) == (80, 128)
    want = bareiss_rank(W.to_dense())
    rng = random.Random(7)
    rperm = list(range(W.rows))
    cperm = list(range(W.cols))
    rng.shuffle(rperm)
    rng.shuffle(cperm)
    transpose = SparseIntMatrix(W.cols, W.rows, W.jj, W.ii, W.vals)
    variants = (W, W.submatrix(rperm, range(W.cols)), W.submatrix(range(W.rows), cperm), transpose)
    for mat in variants:
        cert = rank_q(mat, rng=random.Random(2))
        assert cert.method == "modular-multi-prime"
        assert cert.rank == want


# (rank, method, primes) and the next 32 rng bits after the call, recorded
# with the one-prime-at-a-time protocol; seed None is the default rng.  The
# bits after a modular certificate are those after its three primes.
_DEFAULT_PRIMES = (1238646971, 1520959051, 1616303123)
_SEED_PRIMES = {
    0: (1277389331, 2110515739, 1468844309),
    1: (1362286843, 1524616343, 1275303751),
    7: (1921618823, 1953574603, 1534802663),
}
_AFTER_THREE_PRIMES = {0: 1418186270, 1: 2095328386, 7: 161042648}
_PINNED_WINDOWS = {
    # No unit entries: the peeled cores, 64x112 and 213x324, do not merge.
    ("z2hard", 8): (79, _AFTER_THREE_PRIMES),
    ("hhard", 2): (338, _AFTER_THREE_PRIMES),
    # A rank that needs no prime leaves the rng as it was.  Diagonal
    # (256x256): the peel leaves an empty core.
    ("two_over_z2", 16): (256, None),
    # The same shapes with unit entries: the merges leave empty cores.
    ("xy_minus_one", 8): (79, None),
    ("heisenberg_ab", 2): (338, None),
}


@pytest.mark.parametrize("fixture, L", sorted(_PINNED_WINDOWS))
def test_rank_q_certificates_pinned(fixture, L):
    W = fixture_window(fixture, L)
    assert max(W.rows, W.cols) > 64
    rank, next_bits = _PINNED_WINDOWS[fixture, L]
    if next_bits is None:
        want = dict.fromkeys([None, *_SEED_PRIMES], (rank, "fraction-free", ()))
        next_bits = {seed: random.Random(seed).getrandbits(32) for seed in _SEED_PRIMES}
    else:
        want = {None: (rank, "modular-multi-prime", _DEFAULT_PRIMES)}
        want.update((seed, (rank, "modular-multi-prime", primes)) for seed, primes in _SEED_PRIMES.items())
    cert = rank_q(W)
    assert (cert.rank, cert.method, cert.primes) == want[None]
    for seed in _SEED_PRIMES:
        rng = random.Random(seed)
        cert = rank_q(W, rng=rng)
        assert (cert.rank, cert.method, cert.primes) == want[seed]
        assert rng.getrandbits(32) == next_bits[seed]


def test_rank_q_ranks_fraction_free_after_max_primes(monkeypatch):
    # A kernel whose ranks agree in pairs but never in threes: rank_q
    # eliminates three primes together, then one at a time up to MAX_PRIMES
    # distinct primes, and then ranks the merged core fraction-free.
    tried, batches = [], []
    fresh = itertools.count()

    def never_three_agree(layout, primes):
        tried.extend(primes)
        batches.append(len(primes))
        return [next(fresh) // 2 for _ in primes]

    monkeypatch.setattr(exactla, "_ranks_mod_primes", never_three_agree)
    cert = rank_q(fixture_window("z2hard", 8))
    assert len(tried) == len(set(tried)) == exactla.MAX_PRIMES == 16
    assert batches == [3] + [1] * 13
    assert (cert.rank, cert.method, cert.primes) == (79, "fraction-free", ())


@st.composite
def small_cores_above_cutoff(draw):
    """A dense block of at most 12x12 among singleton columns and rows, more
    than SMALL_DIM_CUTOFF wide in all, and transposed half the time.  Every
    extra row has one nonzero, and every extra column one more outside the
    extra rows, so the peel leaves a core inside the block."""
    r, c = draw(st.integers(1, 12)), draw(st.integers(0, 12))
    extra = draw(st.integers(0, 6))
    width = draw(st.integers(exactla.SMALL_DIM_CUTOFF + 1, exactla.SMALL_DIM_CUTOFF + 12))
    entry = st.integers(-9, 9)
    dense = [[draw(entry) for _ in range(c)] + [0] * (width - c) for _ in range(r)]
    dense += [[0] * width for _ in range(extra)]
    nonzero = st.sampled_from((1, -1, 2, -3, 7))
    for j in range(c, width):
        dense[draw(st.integers(0, len(dense) - 1))][j] = draw(nonzero)
    for row in dense[r:]:
        row[draw(st.integers(0, width - 1))] = draw(nonzero)
    if draw(st.booleans()):
        dense = [list(col) for col in zip(*dense)]
    return dense


@settings(max_examples=40, deadline=None)
@given(dense=small_cores_above_cutoff(), seed=st.integers(0, 10**6))
def test_rank_q_small_core_above_cutoff_is_fraction_free(dense, seed):
    A = M(dense)
    _, core = _peel(A)
    assert max(A.rows, A.cols) > exactla.SMALL_DIM_CUTOFF >= max(core.rows, core.cols)
    rng = random.Random(seed)
    cert = rank_q(A, rng=rng)
    assert (cert.rank, cert.method, cert.primes) == (bareiss_rank(dense), "fraction-free", ())
    assert rng.getrandbits(32) == random.Random(seed).getrandbits(32)


# -- ranks of a block-diagonal batch --------------------------------------------


def _union(blocks):
    """The block-diagonal union of these matrices, and its block offsets."""
    row_at = np.cumsum([0] + [B.rows for B in blocks])
    col_at = np.cumsum([0] + [B.cols for B in blocks])
    ii = np.concatenate([B.ii + r for B, r in zip(blocks, row_at)])
    jj = np.concatenate([B.jj + c for B, c in zip(blocks, col_at)])
    vals = np.concatenate([B.vals for B in blocks])
    return SparseIntMatrix(int(row_at[-1]), int(col_at[-1]), ii, jj, vals), row_at, col_at


def _check_block_ranks(blocks, seeds):
    """block_ranks of the union against rank_q on each block alone, each
    with a generator of the same seed: (rank, method, primes), and the next
    32 bits of the generator."""
    U, row_at, col_at = _union(blocks)
    rngs = [random.Random(seed) for seed in seeds]
    certs = block_ranks(U, row_at, col_at, rngs)
    assert len(certs) == len(blocks)
    for B, seed, cert, rng in zip(blocks, seeds, certs, rngs):
        alone = random.Random(seed)
        want = rank_q(B, rng=alone)
        assert (cert.rank, cert.method, cert.primes) == (want.rank, want.method, want.primes)
        assert rng.getrandbits(32) == alone.getrandbits(32)
    return certs


def test_block_ranks_certify_each_block_as_rank_q_alone():
    blocks = [
        fixture_window("z2hard", 8),  # peels to a 64x112 core: modular
        M([[1, 2], [0, 3]]),  # peels away: an empty core
        fixture_window("hhard", 2),  # peels to a 213x324 core: modular
        SparseIntMatrix(3, 0),
        SparseIntMatrix(0, 4),
        fixture_window("xy_minus_one", 8),  # merges away: an empty core
        M([[0, 0], [0, 0]]),
        fixture_window("z2hard", 8),
    ]
    assert not _peel(blocks[1])[1].nnz()
    assert _peel(blocks[0])[1].rows * _peel(blocks[0])[1].cols > exactla.SMALL_DIM_CUTOFF**2
    certs = _check_block_ranks(blocks, [0, 1, 7, 2, 3, 4, 5, 6])
    modular = [i for i, cert in enumerate(certs) if cert.method == "modular-multi-prime"]
    assert modular == [0, 2, 7]
    # Each block draws its primes from its own generator.
    assert certs[0].primes == _SEED_PRIMES[0] and certs[7].primes != certs[0].primes


@settings(max_examples=60, deadline=None)
@given(
    dense=st.lists(st.one_of(sparse_dense(), small_cores_above_cutoff()), min_size=1, max_size=5),
    data=st.data(),
)
def test_block_ranks_of_random_blocks(dense, data):
    seeds = data.draw(st.lists(st.integers(0, 10**6), min_size=len(dense), max_size=len(dense)))
    _check_block_ranks([M(d) for d in dense], seeds)


@settings(max_examples=30, deadline=None)
@given(rows=st.integers(1, 7), cols=st.integers(1, 7), seed=st.integers(0, 10**6))
def test_rank_plus_kernel_is_cols(rows, cols, seed):
    rng = random.Random(seed)
    dense = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
    mat = M(dense)
    assert rank_q(mat).rank + len(nullspace_q(mat)) == cols


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_rank_invariance_under_permutation_and_sign(seed):
    rng = random.Random(seed)
    rows, cols = rng.randint(2, 6), rng.randint(2, 6)
    dense = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
    base = rank_q(M(dense)).rank
    perm = list(range(rows))
    rng.shuffle(perm)
    permuted = [dense[i] for i in perm]
    assert rank_q(M(permuted)).rank == base
    cperm = list(range(cols))
    rng.shuffle(cperm)
    cpermuted = [[row[j] for j in cperm] for row in dense]
    assert rank_q(M(cpermuted)).rank == base
    flipped = [[-x for x in row] if rng.random() < 0.5 else row for row in dense]
    assert rank_q(M(flipped)).rank == base


def test_nullspace_exact():
    mat = M([[1, 1, 0], [0, 2, 2]])
    basis = nullspace_q(mat)
    assert len(basis) == 1
    v = basis[0]
    assert [sum(Fraction(row[j]) * v[j] for j in range(3)) for row in mat.to_dense()] == [0, 0]



# -- the dense echelon: Q and every prime through one loop -------------------------


def _ref_bareiss_rank(dense):
    # bareiss_rank as it was before the shared echelon, kept as an
    # independent reference for the rank over Q.
    a = [list(map(int, row)) for row in dense]
    m = len(a)
    n = len(a[0]) if m else 0
    r = 0
    prev = 1
    for c in range(n):
        if r == m:
            break
        piv = None
        for i in range(r, m):
            if a[i][c]:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
        pv = a[r][c]
        for i in range(r + 1, m):
            aic = a[i][c]
            row_i = a[i]
            row_r = a[r]
            for j in range(c + 1, n):
                row_i[j] = (row_i[j] * pv - row_r[j] * aic) // prev
            row_i[c] = 0
        prev = pv
        r += 1
    return r


def _ref_rational_basis(dense):
    # The rational rref and basis block that mmdim carried before the shared
    # echelon, kept as a reference for its sample stream.
    m, n = len(dense), len(dense[0])
    a = [[Fraction(x) for x in row] for row in dense]
    pivots, r = [], 0
    for c in range(n):
        if r == m:
            break
        piv = next((i for i in range(r, m) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        pv = a[r][c]
        a[r] = [x / pv for x in a[r]]
        for i in range(m):
            if i != r and a[i][c]:
                fci = a[i][c]
                a[i] = [x - fci * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    basis = []
    for fc in [c for c in range(n) if c not in set(pivots)]:
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for ri, pc in enumerate(pivots):
            v[pc] = -a[ri][fc]
        basis.append(v)
    return basis


def _ref_nullspace_mod_p(dense, p):
    # mmdim's former torsion kernel, likewise.
    m, n = len(dense), len(dense[0])
    a = [[x % p for x in row] for row in dense]
    pivots, r = [], 0
    for c in range(n):
        if r == m:
            break
        piv = next((i for i in range(r, m) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = pow(a[r][c], p - 2, p)
        a[r] = [x * inv % p for x in a[r]]
        for i in range(m):
            if i != r and a[i][c]:
                fci = a[i][c]
                a[i] = [(x - fci * y) % p for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    basis = []
    for fc in range(n):
        if fc in pivots:
            continue
        v = [0] * n
        v[fc] = 1
        for ri, pc in enumerate(pivots):
            v[pc] = (-a[ri][fc]) % p
        basis.append(v)
    return basis


@st.composite
def small_matrices(draw):
    """Small integer matrices, possibly with no rows or no columns, often
    with zero rows and columns and entries divisible by small primes."""
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    entry = st.sampled_from((0, 0, 0, 1, -1, 2, -3, 4, 5, 6, 7, 10, 14, 15, 21, 35))
    dense = draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    if rows and draw(st.booleans()):
        dense[draw(st.integers(0, rows - 1))] = [0] * cols
    if cols and draw(st.booleans()):
        k = draw(st.integers(0, cols - 1))
        for row in dense:
            row[k] = 0
    return dense, cols


@settings(max_examples=400, deadline=None)
@given(matrix=small_matrices(), p=st.sampled_from((0, 2, 3, 5, 7, P31, P62)))
def test_shared_echelon_rank_and_kernel(matrix, p):
    dense, cols = matrix
    rank = len(_echelon([list(row) for row in dense], p))
    if p:
        if p < 2**31:  # the modular kernel's field size
            assert rank == _ranks_mod_primes(_plan_layout(SparseIntMatrix.from_dense(dense, cols)), [p])[0]
        assert rank == _dense_rank_mod_p(dense, p)
    else:
        assert rank == bareiss_rank(dense) == _ref_bareiss_rank(dense)
    basis = kernel_basis(dense, cols, p)
    assert len(basis) == cols - rank
    for v in basis:
        for row in dense:
            dot = sum(x * y for x, y in zip(row, v))
            assert (dot % p if p else dot) == 0
    if dense:
        assert basis == (_ref_nullspace_mod_p(dense, p) if p else _ref_rational_basis(dense))
    else:
        assert basis == [[int(i == j) for j in range(cols)] for i in range(cols)]
    if not p:
        assert basis == nullspace_q(SparseIntMatrix.from_dense(dense, cols))


def test_shared_echelon_leaves_its_input():
    dense = [[2, 4], [1, 3]]
    assert kernel_basis(dense, 2, 2) == [[1, 1]]
    assert _dense_rank_mod_p(dense, 2) == 1
    assert dense == [[2, 4], [1, 3]]


def _bareiss_echelon(a, p=0):
    # The fraction-free echelon before rows with a zero under the pivot were
    # skipped over Z: every row below is updated and divided exactly by the
    # previous pivot (Bareiss 1968), so entries are minors of the input.
    if p:
        for row in a:
            row[:] = [x % p for x in row]
    m = len(a)
    n = len(a[0]) if m else 0
    pivots = []
    prev = 1
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
            if not p:
                for j in range(c + 1, n):
                    row_i[j] = (row_i[j] * pv - row_r[j] * f) // prev
            elif f:
                for j in range(c + 1, n):
                    row_i[j] = (row_i[j] * pv - row_r[j] * f) % p
            row_i[c] = 0
        prev = pv
        pivots.append(c)
    return pivots


def _primitive(row):
    content = math.gcd(*row)
    return [x // content for x in row] if content else row


@st.composite
def echelon_matrices(draw):
    """``small_matrices``, sometimes made rank deficient by a row that is a
    combination of two others, and sometimes with a row scaled past int64."""
    dense, cols = draw(small_matrices())
    if len(dense) >= 2 and draw(st.booleans()):
        i, j = draw(st.integers(0, len(dense) - 1)), draw(st.integers(0, len(dense) - 1))
        s, t = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        dense.insert(draw(st.integers(0, len(dense))), [s * x + t * y for x, y in zip(dense[i], dense[j])])
    if dense and draw(st.booleans()):
        k = draw(st.integers(0, len(dense) - 1))
        dense[k] = [x * (2**64 + 13) for x in dense[k]]
    return dense, cols


@settings(max_examples=400, deadline=None)
@given(matrix=echelon_matrices())
def test_echelon_rows_are_primitive_parts_of_bareiss_rows(matrix):
    dense, cols = matrix
    rows, oracle = [list(row) for row in dense], [list(row) for row in dense]
    assert _echelon(rows) == _bareiss_echelon(oracle)
    for row, bareiss in zip(rows, oracle):
        # A multiple of Bareiss's row: ± its primitive part once updated,
        # the input row itself otherwise, and never larger.
        assert _primitive(row) in (_primitive(bareiss), [-x for x in _primitive(bareiss)])
        assert row == _primitive(row) or row in dense
        assert all(abs(x) <= abs(y) for x, y in zip(row, bareiss))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exactla, "_echelon", _bareiss_echelon)
        by_bareiss = kernel_basis(dense, cols)
    assert kernel_basis(dense, cols) == by_bareiss


@pytest.mark.parametrize("c0, c1", [(2, 1), (1, 2)])
def test_kernel_of_a_long_bidiagonal_in_closed_form(c0, c1):
    # Row i is c0 at column i and c1 at column i + 1; (2, 1) is mmdim's
    # interior matrix of 1 + 2T at L = 120 and 240.  Its kernel is spanned
    # by v_i = (-c1/c0)^(L-1-i), with entries and minors of L - 1 bits.
    for L in (120, 240):
        dense = [[c0 if j == i else c1 if j == i + 1 else 0 for j in range(L)] for i in range(L - 1)]
        v = [Fraction(-c1, c0) ** (L - 1 - i) for i in range(L)]
        assert kernel_basis(dense, L) == nullspace_q(SparseIntMatrix.from_dense(dense, L)) == [v]
        for p in (3, 5, 7):
            assert kernel_basis(dense, L, p) == [[x.numerator * pow(x.denominator, -1, p) % p for x in v]]

# -- Laurent generic rank --------------------------------------------------------


def test_generic_rank_examples():
    assert generic_rank_laurent(xy_minus_one()) == 1
    z = RingMatrix(Z2, [[RingElem.zero(Z2)]])
    assert generic_rank_laurent(z) == 0
    two = RingMatrix(Z2, [[RingElem.from_terms(Z2, [((0, 0), 2)])]])
    assert generic_rank_laurent(two) == 1


def test_generic_rank_large_path():
    # 5x5 diagonal-ish matrix forces the random-evaluation path.
    rng = random.Random(0)
    rows = []
    for i in range(5):
        row = []
        for j in range(5):
            if i == j:
                row.append(RingElem.from_terms(Z2, [((1, 0), 1), ((0, 0), -1)]))
            else:
                row.append(RingElem.zero(Z2))
        rows.append(row)
    f = RingMatrix(Z2, rows)
    assert generic_rank_laurent(f, rng=rng) == 5


def test_generic_rank_unsupported_group():
    f = RingMatrix(finite_cyclic(2), [[RingElem.one(finite_cyclic(2))]])
    with pytest.raises(UnsupportedGroupError):
        generic_rank_laurent(f)


def test_generic_rank_dominates_point_ranks():
    f = xy_minus_one()
    generic = generic_rank_laurent(f)
    rng = random.Random(11)
    p = random_prime(rng, bits=62)
    hits = 0
    for _ in range(10):
        point = tuple(rng.randrange(1, p) for _ in range(2))
        r = point_rank_laurent(f, point, p)
        assert r <= generic
        hits += r == generic
    assert hits >= 1


# -- finite-group kernel oracle ----------------------------------------------------


def test_regular_rep_kernel_examples():
    C2 = finite_cyclic(2)
    f = RingMatrix(C2, [[RingElem.from_terms(C2, [((0,), 1), ((1,), 1)])]])
    assert regular_rep_kernel(f) == Fraction(1, 2)
    C3 = finite_cyclic(3)
    assert regular_rep_kernel(RingMatrix(C3, [[RingElem.zero(C3)]])) == 1
    assert regular_rep_kernel(RingMatrix(C3, [[RingElem.one(C3)]])) == 0


def test_regular_rep_kernel_infinite_group_rejected():
    f = RingMatrix(zd(1), [[RingElem.one(zd(1))]])
    with pytest.raises(UnsupportedGroupError):
        regular_rep_kernel(f)
