import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from folrank.errors import InputError
from folrank.groupring import (
    RingElem,
    RingMatrix,
    right_window_matrix,
    window_matrix,
)
from folrank.groups import finite_cyclic, folner_set, heisenberg, zd

Z = zd(1)
Z2 = zd(2)
C2 = finite_cyclic(2)
H3 = heisenberg()


def zpoly(*terms):
    return RingElem.from_terms(Z, [((e,), c) for e, c in terms])


def one_plus_2T():
    return RingMatrix(Z, [[zpoly((0, 1), (1, 2))]])


def xy_minus_one():
    x1 = RingElem.from_terms(Z2, [((1, 0), 1), ((0, 0), -1)])
    y1 = RingElem.from_terms(Z2, [((0, 1), 1), ((0, 0), -1)])
    return RingMatrix(Z2, [[x1, y1]])


def _elem_strategy(spec, radius=2, bound=3, max_terms=3):
    g = st.tuples(*[st.integers(-radius, radius)] * spec.coord_len)
    term = st.tuples(g, st.integers(-bound, bound))
    return st.lists(term, max_size=max_terms).map(lambda ts: RingElem.from_terms(spec, ts))


# -- ring element examples ----------------------------------------------------


def test_ring_mul_examples():
    a = zpoly((0, 1), (1, 1))   # 1 + T
    b = zpoly((0, 1), (1, -1))  # 1 - T
    assert a * b == zpoly((0, 1), (2, -1))  # 1 - T^2
    assert a * RingElem.one(Z) == a
    t = RingElem.from_terms(C2, [((0,), 1), ((1,), 1)])
    assert t * t == RingElem.from_terms(C2, [((0,), 2), ((1,), 2)])


def test_from_terms_sums_to_clean_coefficients():
    half, third = Fraction(1, 2), Fraction(1, 3)
    e = RingElem.from_terms(Z, [((0,), half), ([0], half), ((1,), 2), ((1,), -2), ((2,), third)])
    assert e.coeffs == {(0,): 1, (2,): third} and type(e.coeffs[(0,)]) is int
    assert e == RingElem(Z, e.coeffs) == RingElem(Z, {(0,): Fraction(1), (1,): 0, (2,): third})
    # Elements are reduced once, into the finite factor.
    assert RingElem.from_terms(C2, [((3,), 1), ((1,), 1)]).coeffs == {(1,): 2}
    with pytest.raises(InputError, match="coefficient"):
        RingElem.from_terms(Z, [((0,), 1.5)])


def test_involution_examples():
    f = one_plus_2T()
    fs = f.star()
    assert fs.entries[0][0] == zpoly((0, 1), (-1, 2))
    assert RingMatrix(Z, [[RingElem.zero(Z)]]).star().is_zero()
    g = xy_minus_one()
    gs = g.star()
    assert gs.rows == 2 and gs.cols == 1
    assert gs.entries[0][0] == RingElem.from_terms(Z2, [((-1, 0), 1), ((0, 0), -1)])
    assert gs.entries[1][0] == RingElem.from_terms(Z2, [((0, -1), 1), ((0, 0), -1)])
    assert gs.star() == g


def test_star_is_built_once():
    h = RingElem.from_terms(H3, [((1, 0, 0), 2), ((0, 1, 1), -1)])
    for f in (one_plus_2T(), xy_minus_one(), RingMatrix(H3, [[h, RingElem.one(H3)]]), RingMatrix(Z, [], cols=2)):
        fs = f.star()
        assert f.star() is fs
        fresh = [[f.entries[j][k].star() for j in range(f.rows)] for k in range(f.cols)]
        assert fs == RingMatrix(f.spec, fresh, cols=f.rows)


def test_norm_and_support_examples():
    f = one_plus_2T()
    assert f.norm1() == 3
    assert f.support() == frozenset({(0,), (1,)})
    z = RingMatrix(Z, [[RingElem.zero(Z)]])
    assert z.norm1() == 0
    assert z.support() == frozenset()
    g = xy_minus_one()
    assert g.norm1() == 4
    assert g.support() == frozenset({(0, 0), (1, 0), (0, 1)})


def test_window_matrix_example():
    W = window_matrix(one_plus_2T(), folner_set(Z, 2))
    assert W.data.to_dense() == [[1, 0], [2, 1], [0, 2]]
    assert W.row_coords.tolist() == [[0], [1], [2]]


def test_window_matrix_zero():
    z = RingMatrix(Z, [[RingElem.zero(Z)]])
    W = window_matrix(z, folner_set(Z, 3))
    assert W.data.ii.size == W.data.jj.size == W.data.vals.size == 0
    assert W.shape == (3, 3)  # K.F falls back to F for zero support


def test_window_matrix_finite_group():
    f = RingMatrix(C2, [[RingElem.from_terms(C2, [((0,), 1), ((1,), 1)])]])
    W = window_matrix(f, folner_set(C2, 1))
    assert W.data.to_dense() == [[1, 1], [1, 1]]


def test_window_shape_matches_index_maps():
    f = xy_minus_one()
    F = folner_set(Z2, 3)
    W = window_matrix(f, F)
    assert W.shape == (f.rows * len(W.row_coords), f.cols * len(F))
    assert W.row_blocks * len(W.row_coords) == W.data.rows
    assert W.col_blocks * len(W.col_coords) == W.data.cols


def test_spec_mismatch_raises():
    with pytest.raises(InputError):
        zpoly((0, 1)) + RingElem.one(Z2)
    with pytest.raises(InputError):
        window_matrix(one_plus_2T(), folner_set(Z2, 2))


# -- algebraic properties ------------------------------------------------------


@pytest.mark.parametrize("spec", [Z, Z2, C2, H3], ids=["Z", "Z2", "C2", "H3"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_ring_axioms(spec, data):
    a = data.draw(_elem_strategy(spec))
    b = data.draw(_elem_strategy(spec))
    c = data.draw(_elem_strategy(spec))
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c


@pytest.mark.parametrize("spec", [Z2, H3], ids=["Z2", "H3"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_involution_antimultiplicative(spec, data):
    rows_a = [[data.draw(_elem_strategy(spec, max_terms=2)) for _ in range(2)] for _ in range(2)]
    rows_b = [[data.draw(_elem_strategy(spec, max_terms=2)) for _ in range(2)] for _ in range(2)]
    fa = RingMatrix(spec, rows_a)
    fb = RingMatrix(spec, rows_b)
    assert (fa @ fb).star() == fb.star() @ fa.star()


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_support_of_product(data):
    a = data.draw(_elem_strategy(H3))
    b = data.draw(_elem_strategy(H3))
    prod_support = {H3.mul(u, v) for u in a.support() for v in b.support()}
    assert (a * b).support() <= prod_support


def column_vector(entries):
    """An n x 1 matrix from a sequence of ring elements."""
    return RingMatrix(entries[0].spec, [[e] for e in entries], cols=1)


def coefficient_vector(x, elems):
    """The coefficients of an n x 1 column supported in ``elems``, in the
    layout of ``window_matrix`` columns (coordinate-major)."""
    pos = {g: i for i, g in enumerate(elems)}
    out = [0] * (x.rows * len(elems))
    for k in range(x.rows):
        for g, c in x.entries[k][0].coeffs.items():
            out[k * len(elems) + pos[g]] = c
    return out


@pytest.mark.parametrize("spec", [Z, Z2, H3], ids=["Z", "Z2", "H3"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_window_naturality(spec, data):
    # Applying the window matrix to x's coefficients equals the coefficients
    # of the ring product f.x, for x supported in F.
    m, n = data.draw(st.integers(1, 2)), data.draw(st.integers(1, 2))
    f = RingMatrix(
        spec, [[data.draw(_elem_strategy(spec, radius=1, max_terms=2)) for _ in range(n)] for _ in range(m)]
    )
    F = folner_set(spec, 2)
    felems = F.elements
    xs = []
    for _ in range(n):
        coeffs = {g: data.draw(st.integers(-3, 3)) for g in felems}
        xs.append(RingElem(spec, coeffs))
    x = column_vector(xs)
    W = window_matrix(f, F)
    vec = coefficient_vector(x, felems)
    applied = [0] * W.data.rows
    for i, j, v in zip(W.data.ii.tolist(), W.data.jj.tolist(), W.data.vals.tolist()):
        applied[i] += v * vec[j]
    fx = f @ x
    expected = [0] * W.data.rows
    pos = {tuple(t): i for i, t in enumerate(W.row_coords.tolist())}
    for j in range(m):
        for g, c in fx.entries[j][0].coeffs.items():
            expected[j * len(W.row_coords) + pos[g]] = c
    assert applied == expected


# -- serialization ---------------------------------------------------------------


def test_matrix_json_roundtrip():
    for f in (one_plus_2T(), xy_minus_one(), RingMatrix(Z, [], cols=2)):
        blob = json.dumps(f.to_json())
        back = RingMatrix.from_json(json.loads(blob))
        assert back == f


def test_matrix_json_rational_and_negative():
    e = RingElem.from_terms(Z, [((0,), Fraction(-2, 3)), ((1,), -5)])
    f = RingMatrix(Z, [[e]])
    back = RingMatrix.from_json(f.to_json())
    assert back == f
    assert any(t["coeff"] == "-2/3" for ent in f.to_json()["entries"] for t in ent["terms"])


def test_matrix_json_diagnostics():
    with pytest.raises(InputError, match="rows"):
        RingMatrix.from_json({"group": {"family": "Zd", "d": 1}, "cols": 1})
    with pytest.raises(InputError, match=r"entries\[0\]"):
        RingMatrix.from_json(
            {"group": {"family": "Zd", "d": 1}, "rows": 1, "cols": 1, "entries": [{"row": 5, "col": 0}]}
        )
    with pytest.raises(InputError, match="coeff"):
        RingMatrix.from_json(
            {
                "group": {"family": "Zd", "d": 1},
                "rows": 1,
                "cols": 1,
                "entries": [{"row": 0, "col": 0, "terms": [{"coeff": "x", "elem": [0]}]}],
            }
        )


def test_right_window_matrix_consistency():
    # g.f computed through the right window equals direct ring arithmetic.
    f = one_plus_2T()
    E = ((-1,), (0,), (1,))
    W = right_window_matrix(f, E)
    g = zpoly((-1, 3), (1, -2))
    vec = [0] * W.data.cols
    col_index = [(j, tuple(u)) for j in range(W.col_blocks) for u in W.col_coords.tolist()]
    for idx, (j, u) in enumerate(col_index):
        vec[idx] = g.coeffs.get(u, 0)
    out = [0] * W.data.rows
    for i, j, v in zip(W.data.ii.tolist(), W.data.jj.tolist(), W.data.vals.tolist()):
        out[i] += v * vec[j]
    gf = RingMatrix(Z, [[g]]) @ f
    pos = {tuple(w): i for i, w in enumerate(W.row_coords.tolist())}
    expected = [0] * W.data.rows
    for w, c in gf.entries[0][0].coeffs.items():
        expected[pos[w]] = c
    assert out == expected
