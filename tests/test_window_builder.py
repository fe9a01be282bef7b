"""The coordinate-array window builder against per-pair reference builders.

The references below are the builders folrank used before the array
builder: one Python group multiplication per (window element, support
element) pair, entries summed in a dict, denominators cleared per matrix row.
Every entry point of the array builder must reproduce them exactly: shape,
entries, index maps and element lists.  Their denominators are cleared per
matrix row and the array builder clears them once per row of f, so a
matrix with fractions is compared after its rows are made integral (the
dual reference truncated fractions and was only ever called that way), and
in addition by rank against the reference on the rational matrix itself.
"""

import random
from fractions import Fraction
from math import lcm

import numpy as np
from hypothesis import given, settings, strategies as st

from folrank.exactla import SparseIntMatrix, bareiss_rank, rank_q
from folrank.groupring import RingElem, RingMatrix, right_window_matrix, window_matrix, window_operator
from folrank.groups import (
    coords_of,
    finite_cyclic,
    finite_times_zd,
    folner_set,
    heisenberg,
    positions,
    unique_rows,
    zd,
)
from folrank.mmdim import interior_constraint_matrix
from folrank.ranks import _interior, submodule_rank_matrix
from ring_reference import support

SPECS = (zd(0), zd(1), zd(2), finite_cyclic(2, 3), finite_times_zd((2,), 1), heisenberg())


# -- reference builders -------------------------------------------------------


def _clear(acc: dict) -> dict:
    by_row: dict[int, int] = {}
    for (i, _), c in acc.items():
        if isinstance(c, Fraction):
            by_row[i] = lcm(by_row.get(i, 1), c.denominator)
    return {key: int(c * by_row.get(key[0], 1)) for key, c in acc.items() if c}


def ref_window_matrix(f, felems):
    spec, m, n = f.spec, f.rows, f.cols
    K = support(f) or frozenset({spec.identity()})
    kf = sorted({spec.mul(u, s) for u in K for s in felems})
    kf_pos = {t: i for i, t in enumerate(kf)}
    acc: dict = {}
    for k in range(n):
        for si, s in enumerate(felems):
            for j in range(m):
                for u, c in f.entries[j][k].coeffs.items():
                    key = (j * len(kf) + kf_pos[spec.mul(u, s)], k * len(felems) + si)
                    acc[key] = acc.get(key, 0) + c
    shape = (m * len(kf), n * len(felems))
    row_index = [(j, t) for j in range(m) for t in kf]
    col_index = [(k, s) for k in range(n) for s in felems]
    return shape, _clear(acc), row_index, col_index, kf, tuple(felems)


def ref_right_window_matrix(f, eelems):
    spec, m, n = f.spec, f.rows, f.cols
    K = support(f) or frozenset({spec.identity()})
    ek = sorted({spec.mul(u, v) for u in eelems for v in K})
    ek_pos = {w: i for i, w in enumerate(ek)}
    acc: dict = {}
    for ui, u in enumerate(eelems):
        for j in range(m):
            for k in range(n):
                for v, c in f.entries[j][k].coeffs.items():
                    key = (k * len(ek) + ek_pos[spec.mul(u, v)], j * len(eelems) + ui)
                    acc[key] = acc.get(key, 0) + c
    shape = (n * len(ek), m * len(eelems))
    row_index = [(k, w) for k in range(n) for w in ek]
    col_index = [(j, u) for j in range(m) for u in eelems]
    return shape, _clear(acc), row_index, col_index, ek, tuple(eelems)


def ref_submodule_rank_matrix(rows, felems, spec):
    if not rows or not felems:
        return (0, 0), {}
    inv, mul = spec.inverse, spec.mul
    cols = sorted({mul(inv(s), u) for s in felems for row in rows for e in row for u in e.coeffs})
    if not cols:
        return (len(felems) * len(rows), 0), {}
    pos = {g: i for i, g in enumerate(cols)}
    acc: dict = {}
    r = 0
    for s in felems:
        for row in rows:
            for k, e in enumerate(row):
                for u, c in e.coeffs.items():
                    key = (r, k * len(cols) + pos[mul(inv(s), u)])
                    acc[key] = acc.get(key, 0) + c
            r += 1
    return (r, len(rows[0]) * len(cols)), _clear(acc)


def ref_dual_constraint_matrix(f, E):
    spec, m, n = f.spec, f.rows, f.cols
    eset, epos = set(E), {w: i for i, w in enumerate(E)}
    K = sorted(support(f))
    if not K:
        return (0, n * len(E)), {}
    inv, mul = spec.inverse, spec.mul
    candidates = set(E) | {mul(w, inv(k)) for w in E for k in K}
    interior = sorted(u for u in candidates if all(mul(u, k) in eset for k in K))
    acc: dict = {}
    r = 0
    for u in interior:
        for j in range(m):
            for k in range(n):
                for s, c in f.entries[j][k].coeffs.items():
                    key = (r, k * len(E) + epos[mul(u, s)])
                    acc[key] = acc.get(key, 0) + c
            r += 1
    return (r, n * len(E)), {key: int(v) for key, v in acc.items() if v}


def ref_interior_constraint_matrix(f, felems):
    spec, fset = f.spec, set(felems)
    K = sorted(support(f))
    inside = {s for s in felems if all(spec.mul(spec.inverse(k), s) in fset for k in K)}
    (rows, cols), entries, row_index, *_ = ref_window_matrix(f, felems)
    keep = [i for i, (_, t) in enumerate(row_index) if t in inside]
    pos = {r: i for i, r in enumerate(keep)}
    return (len(keep), cols), {(pos[i], j): v for (i, j), v in entries.items() if i in pos}


def dual_constraints_of_right_window(f, E):
    """The dual-constraint matrix of f on E in the reference layout, from
    W = right_window_matrix(f, I) on the interior I of E: entry
    ((k, w), (j, u)) of W goes to row (u, j) and column (k, w)."""
    spec, E = f.spec, coords_of(f.spec, E)
    interior = _interior(spec, E, f.terms().support)
    W = right_window_matrix(f, interior)
    k, w = divmod(W.data.ii, len(W.row_coords))
    j, u = divmod(W.data.jj, len(interior))
    rows, cols = u * f.rows + j, k * len(E) + positions(W.row_coords, E)[w]
    shape = (len(interior) * f.rows, f.cols * len(E))
    return shape, dict(zip(zip(rows.tolist(), cols.tolist()), W.data.vals.tolist()))


def integral_rows(f):
    rows = []
    for row in f.entries:
        scale = lcm(*(c.denominator for e in row for c in e.coeffs.values() if isinstance(c, Fraction)))
        rows.append([e * scale for e in row])
    return RingMatrix(f.spec, rows, cols=f.cols)


def entries_of(M) -> dict:
    return dict(zip(zip(M.ii.tolist(), M.jj.tolist()), M.vals.tolist()))


def dense_rank(shape, entries) -> int:
    dense = [[0] * shape[1] for _ in range(shape[0])]
    for (i, j), v in entries.items():
        dense[i][j] = v
    return bareiss_rank(dense)


# -- strategies ---------------------------------------------------------------


def _element(draw, spec, radius):
    return spec.reduce(tuple(draw(st.integers(-radius, radius)) for _ in range(spec.coord_len)))


def _coefficient(draw, fractions):
    c = draw(st.integers(-3, 3))
    if fractions and draw(st.booleans()):
        return Fraction(c, draw(st.integers(1, 4)))
    return c


def _matrix(draw, spec, m=None, n=None):
    m = draw(st.integers(0, 2)) if m is None else m
    n = draw(st.integers(1, 2)) if n is None else n
    fractions = draw(st.booleans())
    zero = draw(st.integers(0, 5)) == 0
    rows = []
    for _ in range(m):
        row = []
        for _ in range(n):
            terms = [] if zero else [
                (_element(draw, spec, 2), _coefficient(draw, fractions))
                for _ in range(draw(st.integers(0, 3)))
            ]
            row.append(RingElem.from_terms(spec, terms))
        rows.append(row)
    return RingMatrix(spec, rows, cols=n)


def _window(draw, spec):
    box = folner_set(spec, 1 if spec.family == "Heisenberg" else 3).elements
    window = tuple(sorted(draw(st.sets(st.sampled_from(box), max_size=6))))
    if draw(st.integers(0, 5)) == 0:
        window = ()
    return window


@st.composite
def cases(draw):
    spec = draw(st.sampled_from(SPECS))
    return _matrix(draw, spec), _window(draw, spec)


def _part(draw, spec, f):
    """f's terms and a window.  A quarter of the time f is scaled by 2^64,
    so its values are Python ints; a Heisenberg window is moved past 2^31
    half the time, so its coordinates and products are Python ints.  One
    batch can mix such parts with int64 ones, empty windows and zero
    matrices."""
    if draw(st.integers(0, 3)) == 0:
        f = RingMatrix(spec, [[e * 2**64 for e in row] for row in f.entries], cols=f.cols)
    anchors = spec.coords(_window(draw, spec))
    if spec.family == "Heisenberg" and draw(st.booleans()):
        anchors = spec.mul_array(anchors, spec.coords([(2**31, 0, 0)]))
    return f.terms(), anchors


@st.composite
def batches(draw):
    """One to twelve (terms, anchors) pairs (``_part``) over one group, a
    side and a row layout."""
    spec = draw(st.sampled_from(SPECS))
    batch = [_part(draw, spec, _matrix(draw, spec)) for _ in range(draw(st.integers(1, 12)))]
    return spec, batch, draw(st.booleans()), draw(st.booleans())


@st.composite
def blocks(draw):
    """One to six blocks of one to four parts (``_part``) each over one
    group, a side and a row layout.  The parts of a block share the range
    of the index of f that does not go with the anchor: f's columns on the
    left, its rows on the right."""
    spec = draw(st.sampled_from(SPECS))
    left, anchor_rows = draw(st.booleans()), draw(st.booleans())
    batch = []
    for _ in range(draw(st.integers(1, 6))):
        shared = draw(st.integers(1 if left else 0, 2))
        block = []
        for _ in range(draw(st.integers(1, 4))):
            f = _matrix(draw, spec, n=shared) if left else _matrix(draw, spec, m=shared)
            block.append(_part(draw, spec, f))
        batch.append(block)
    return spec, batch, left, anchor_rows


# -- tests --------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(case=cases())
def test_window_operators_match_per_pair_builders(case):
    f, F = case
    fi = integral_rows(f)
    for build, ref in ((window_matrix, ref_window_matrix), (right_window_matrix, ref_right_window_matrix)):
        W = build(f, F)
        shape, entries, row_index, col_index, row_elems, col_elems = ref(fi, F)
        assert W.shape == shape
        assert entries_of(W.data) == entries
        assert [(b, tuple(t)) for b in range(W.row_blocks) for t in W.row_coords.tolist()] == row_index
        assert [(b, tuple(s)) for b in range(W.col_blocks) for s in W.col_coords.tolist()] == col_index
        assert W.row_coords.tolist() == [list(t) for t in row_elems]
        assert W.col_coords.tolist() == [list(s) for s in col_elems]
        rational_shape, rational, *_ = ref(f, F)
        assert dense_rank(rational_shape, rational) == dense_rank(shape, entries)

    V = submodule_rank_matrix(f, F, f.spec)
    shape, entries = ref_submodule_rank_matrix(f.entries, F, f.spec)
    assert (V.rows, V.cols) == shape and entries_of(V) == entries

    assert dual_constraints_of_right_window(f, F) == ref_dual_constraint_matrix(fi, F)

    C = interior_constraint_matrix(f, F)
    shape, entries = ref_interior_constraint_matrix(fi, F)
    assert (C.rows, C.cols) == shape and entries_of(C) == entries


@settings(max_examples=300, deadline=None)
@given(case=batches())
def test_each_block_of_a_batch_is_the_window_built_alone(case):
    spec, batch, left, anchor_rows = case
    M, row_at, col_at, elems = window_operator(spec, [[pair] for pair in batch], left, anchor_rows)
    assert (row_at[0], col_at[0], row_at[-1], col_at[-1]) == (0, 0, M.rows, M.cols)
    placed = 0
    for b, pair in enumerate(batch):
        W, _, _, (alone,) = window_operator(spec, [[pair]], left, anchor_rows)
        (r0, r1), (c0, c1) = row_at[b : b + 2], col_at[b : b + 2]
        assert (r1 - r0, c1 - c0) == (W.rows, W.cols)
        mine = (r0 <= M.ii) & (M.ii < r1)
        assert ((c0 <= M.jj[mine]) & (M.jj[mine] < c1)).all()
        block = SparseIntMatrix(W.rows, W.cols, M.ii[mine] - r0, M.jj[mine] - c0, M.vals[mine])
        assert block.to_dense() == W.to_dense()
        assert elems[b].tolist() == alone.tolist()
        placed += int(mine.sum())
    assert placed == M.nnz()


@settings(max_examples=300, deadline=None)
@given(case=blocks())
def test_a_block_of_several_parts_is_its_parts_side_by_side(case):
    # Each part built alone, with its rows moved to the block's numbering of
    # products by (index, product) and its anchor columns (anchor rows with
    # anchor_rows) moved past the parts before it.
    spec, batch, left, anchor_rows = case
    M, row_at, col_at, elems = window_operator(spec, batch, left, anchor_rows)
    assert (row_at[0], col_at[0], row_at[-1], col_at[-1]) == (0, 0, M.rows, M.cols)
    got = entries_of(M)
    expected = {}
    for b, block in enumerate(batch):
        alone = [window_operator(spec, [[part]], left, anchor_rows) for part in block]
        products = [ys for *_, (ys,) in alone]
        assert elems[b].tolist() == unique_rows(np.concatenate(products))[0].tolist()
        width = row_at[b + 1] - row_at[b] if anchor_rows else col_at[b + 1] - col_at[b]
        assert width == sum(W.rows if anchor_rows else W.cols for W, *_ in alone)
        (r0, c0), shift = (row_at[b], col_at[b]), 0
        for (W, *_), ys in zip(alone, products):
            at_product = W.jj if anchor_rows else W.ii
            at_anchor = (W.ii if anchor_rows else W.jj) + shift
            k, y = np.divmod(at_product, max(len(ys), 1))
            at_product = k * len(elems[b]) + positions(ys, elems[b])[y]
            ii, jj = (at_anchor, at_product) if anchor_rows else (at_product, at_anchor)
            expected.update(zip(zip((ii + r0).tolist(), (jj + c0).tolist()), W.vals.tolist()))
            shift += W.rows if anchor_rows else W.cols
    assert got == expected


def test_coefficient_past_int64_takes_the_object_path():
    # 71 x 70 is past the small-matrix cutoff, so rank_q runs the modular
    # kernel on residues of Python ints.
    Z = zd(1)
    big = 2**64 + 1
    f = RingMatrix(Z, [[RingElem.from_terms(Z, [((0,), 1), ((1,), big)])]])
    F = folner_set(Z, 70)
    W = window_matrix(f, F)
    assert W.data.vals.dtype == object and big in W.data.vals.tolist()
    shape, entries, *_ = ref_window_matrix(f, F.elements)
    assert entries_of(W.data) == entries
    dense = W.data.to_dense()
    assert rank_q(W.data, rng=random.Random(1)).rank == bareiss_rank(dense) == 70
    # A rank-deficient variant: the same row twice.
    g = RingMatrix(Z, [[f.entries[0][0]], [f.entries[0][0]]])
    Wg = window_matrix(g, F)
    assert rank_q(Wg.data, rng=random.Random(2)).rank == bareiss_rank(Wg.data.to_dense()) == 70
    V = submodule_rank_matrix(f, F, Z)
    assert V.vals.dtype == object
    assert entries_of(V) == ref_submodule_rank_matrix(f.entries, F.elements, Z)[1]
