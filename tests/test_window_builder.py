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

from hypothesis import given, settings, strategies as st

from folrank.exactla import bareiss_rank, rank_q
from folrank.groupring import RingElem, RingMatrix, right_window_matrix, window_matrix
from folrank.groups import finite_cyclic, finite_times_zd, folner_set, heisenberg, zd
from folrank.mmdim import interior_constraint_matrix
from folrank.ranks import _dual_constraint_matrix, submodule_rank_matrix

SPECS = (zd(1), zd(2), finite_cyclic(2, 3), finite_times_zd((2,), 1), heisenberg())


# -- reference builders -------------------------------------------------------


def _clear(acc: dict) -> dict:
    by_row: dict[int, int] = {}
    for (i, _), c in acc.items():
        if isinstance(c, Fraction):
            by_row[i] = lcm(by_row.get(i, 1), c.denominator)
    return {key: int(c * by_row.get(key[0], 1)) for key, c in acc.items() if c}


def ref_window_matrix(f, felems):
    spec, m, n = f.spec, f.rows, f.cols
    K = f.support() or frozenset({spec.identity()})
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
    K = f.support() or frozenset({spec.identity()})
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
    K = sorted(f.support())
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
    K = sorted(f.support())
    inside = {s for s in felems if all(spec.mul(spec.inverse(k), s) in fset for k in K)}
    (rows, cols), entries, row_index, *_ = ref_window_matrix(f, felems)
    keep = [i for i, (_, t) in enumerate(row_index) if t in inside]
    pos = {r: i for i, r in enumerate(keep)}
    return (len(keep), cols), {(pos[i], j): v for (i, j), v in entries.items() if i in pos}


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


@st.composite
def cases(draw):
    spec = draw(st.sampled_from(SPECS))
    m, n = draw(st.integers(0, 2)), draw(st.integers(1, 2))
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
    f = RingMatrix(spec, rows, cols=n)
    box = folner_set(spec, 1 if spec.family == "Heisenberg" else 3).elements
    window = tuple(sorted(draw(st.sets(st.sampled_from(box), max_size=6))))
    if draw(st.integers(0, 5)) == 0:
        window = ()
    return f, window


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
        assert list(W.row_index) == row_index and list(W.col_index) == col_index
        assert W.row_elems == tuple(row_elems) and W.col_elems == col_elems
        rational_shape, rational, *_ = ref(f, F)
        assert dense_rank(rational_shape, rational) == dense_rank(shape, entries)

    V = submodule_rank_matrix(f, F, f.spec)
    shape, entries = ref_submodule_rank_matrix(f.entries, F, f.spec)
    assert (V.rows, V.cols) == shape and entries_of(V) == entries

    C = _dual_constraint_matrix(f, F)
    shape, entries = ref_dual_constraint_matrix(fi, F)
    assert (C.rows, C.cols) == shape and entries_of(C) == entries

    C = interior_constraint_matrix(f, F)
    shape, entries = ref_interior_constraint_matrix(fi, F)
    assert (C.rows, C.cols) == shape and entries_of(C) == entries


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
