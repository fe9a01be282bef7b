import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from folrank.errors import BudgetExceededError, InputError
from folrank.groups import (
    GroupSpec,
    boundary_ratio,
    dilate,
    finite_cyclic,
    finite_times_zd,
    folner_set,
    heisenberg,
    inverse_set,
    translate_set,
    unit_ball,
    zd,
)

SPECS = [
    zd(1),
    zd(2),
    finite_cyclic(4),
    finite_cyclic(2, 3),
    finite_times_zd((2,), 1),
    heisenberg(),
]
SPEC_IDS = ["Z", "Z2", "C4", "C2xC3", "C2xZ", "H3"]

coord = st.integers(-6, 6)


def elem(spec, data):
    return spec.reduce(tuple(data.draw(coord) for _ in range(spec.coord_len)))


# -- worked examples ---------------------------------------------------------


def test_mul_examples():
    assert zd(2).mul((1, 2), (3, 4)) == (4, 6)
    assert finite_cyclic(4).mul((3,), (2,)) == (1,)
    assert heisenberg().mul((1, 0, 0), (0, 1, 0)) == (1, 1, 1)


def test_inverse_examples():
    assert zd(1).inverse((5,)) == (-5,)
    assert finite_cyclic(4).inverse((3,)) == (1,)
    assert heisenberg().inverse((1, 1, 1)) == (-1, -1, 0)


def test_folner_examples():
    F = folner_set(zd(1), 3)
    assert F.elements == ((0,), (1,), (2,))
    assert len(folner_set(zd(2), 2)) == 4
    assert len(folner_set(heisenberg(), 1)) == 27


def test_finite_window_is_whole_group():
    G = finite_cyclic(2, 3)
    for L in (1, 2, 5):
        assert len(folner_set(G, L)) == 6


def test_boundary_ratio_examples():
    F = folner_set(zd(1), 8)
    assert boundary_ratio(F, [(-1,), (0,), (1,)]) == Fraction(2, 8)
    assert boundary_ratio(F, [(0,)]) == 0
    F2 = folner_set(zd(2), 4)
    assert boundary_ratio(F2, [(1, 0), (0, 1)]) == Fraction(8, 16)


def test_translate_examples():
    Z = zd(1)
    F = folner_set(Z, 3)
    assert translate_set(Z, F, (5,), side="right") == ((5,), (6,), (7,))
    assert inverse_set(Z, F) == ((-2,), (-1,), (0,))
    H = heisenberg()
    assert translate_set(H, [(0, 0, 0)], (1, 0, 0), side="right") == ((1, 0, 0),)


def test_window_budget():
    with pytest.raises(BudgetExceededError):
        folner_set(zd(2), 100, max_elements=50)


def test_bad_inputs():
    with pytest.raises(InputError):
        GroupSpec("Banana")
    with pytest.raises(InputError):
        zd(2).mul((1,), (2, 3))
    with pytest.raises(InputError):
        folner_set(zd(1), 0)
    with pytest.raises(InputError):
        finite_cyclic()


def test_finite_subgroup_lcm():
    assert zd(3).finite_subgroup_lcm == 1
    assert heisenberg().finite_subgroup_lcm == 1
    assert finite_cyclic(2, 3).finite_subgroup_lcm == 6
    assert finite_times_zd((4,), 2).finite_subgroup_lcm == 4


def _element_order(spec, g, cap=64):
    acc = g
    for k in range(1, cap + 1):
        if acc == spec.identity():
            return k
        acc = spec.mul(acc, g)
    raise AssertionError("order cap hit")


@pytest.mark.parametrize("spec", [finite_cyclic(2), finite_cyclic(4), finite_cyclic(2, 3)])
def test_finite_subgroup_lcm_by_enumeration(spec):
    # Every subgroup order divides the lcm (Lagrange), and the whole group is
    # itself a subgroup realizing it.
    lcm_value = spec.finite_subgroup_lcm
    elements = folner_set(spec, 1).elements
    assert len(elements) == lcm_value
    for g in elements:
        assert lcm_value % _element_order(spec, g) == 0


@pytest.mark.parametrize("spec", [zd(1), zd(2), heisenberg()], ids=["Z", "Z2", "H3"])
def test_torsion_free_families_have_trivial_torsion(spec):
    # No nonidentity element of small word length has finite order <= 12.
    ball = [g for g in unit_ball(spec) if g != spec.identity()]
    for g in ball:
        acc = g
        for _ in range(12):
            assert acc != spec.identity()
            acc = spec.mul(acc, g)
    assert spec.finite_subgroup_lcm == 1


# -- group axioms ------------------------------------------------------------


@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_group_axioms(spec, data):
    g, h, k = (elem(spec, data) for _ in range(3))
    e = spec.identity()
    assert spec.mul(spec.mul(g, h), k) == spec.mul(g, spec.mul(h, k))
    assert spec.mul(g, e) == g
    assert spec.mul(e, g) == g
    assert spec.mul(g, spec.inverse(g)) == e
    assert spec.mul(spec.inverse(g), g) == e


# -- Folner behavior ---------------------------------------------------------


# Coordinates around 0, around the int64 switch at 2^31 and past int64.
array_coord = st.one_of(
    st.integers(-6, 6),
    st.integers(2**31 - 3, 2**31 + 3).map(lambda x: x * (-1) ** (x % 2)),
    st.integers(-(2**70), 2**70),
)


@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_array_law_matches_mul_and_inverse(spec, data):
    elems = st.tuples(*[array_coord] * spec.coord_len)
    gs = data.draw(st.lists(elems, max_size=5))
    hs = data.draw(st.lists(elems, min_size=len(gs), max_size=len(gs)))
    G, H = spec.coords(gs), spec.coords(hs)
    assert G.shape == (len(gs), spec.coord_len)
    assert [tuple(x) for x in spec.mul_array(G, H).tolist()] == [spec.mul(g, h) for g, h in zip(gs, hs)]
    assert [tuple(x) for x in spec.inverse_array(G).tolist()] == [spec.inverse(g) for g in gs]
    # Broadcasting: every g times every h, g along the first axis.
    table = spec.mul_array(G[:, None], H[None]).tolist()
    assert [[tuple(x) for x in row] for row in table] == [[spec.mul(g, h) for h in hs] for g in gs]


def _grown_per_pair(spec, E, S):
    return tuple(sorted(set(E) | {spec.mul(s, b) for s in E for b in S}))


@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_window_growth_matches_per_pair_loop(spec, data):
    from folrank.ranks import _initial_erank_window

    elems = st.tuples(*[array_coord] * spec.coord_len)
    E = data.draw(st.lists(elems, max_size=6))
    K = data.draw(st.lists(elems, max_size=4))
    ball = unit_ball(spec)
    assert dilate(spec, E) == _grown_per_pair(spec, E, ball)
    assert dilate(spec, E, K) == _grown_per_pair(spec, E, K)
    assert _initial_erank_window(spec, E, K) == _grown_per_pair(spec, E, [spec.inverse(k) for k in K])


@pytest.mark.parametrize("spec, L", [(zd(2), 30), (heisenberg(), 2), (finite_times_zd((2,), 1), 700)])
def test_window_growth_in_several_batches(spec, L):
    # |E| * |ball| exceeds the rows one sort takes, so S goes in batches.
    E = folner_set(spec, L).elements
    ball = unit_ball(spec)
    assert len(E) * len(ball) > 1 << 12
    assert dilate(spec, E) == _grown_per_pair(spec, E, ball)


def test_coords_switch_to_exact_ints_past_2_31():
    Z = zd(1)
    assert Z.coords([(2**31 - 1,), (-(2**31) + 1,)]).dtype == np.int64
    assert Z.coords([(2**31,)]).dtype == object
    assert Z.coords([(-(2**31),)]).dtype == object
    assert Z.coords([(2**80,)]).tolist() == [[2**80]]
    H = heisenberg()
    # ab' = 2^62 would overflow a further int64 product; the result is exact.
    big = H.mul_array(H.coords([(2**31 - 1, 0, 0)]), H.coords([(0, 2**31 - 1, 0)]))
    assert big.dtype == object and big.tolist() == [[2**31 - 1, 2**31 - 1, (2**31 - 1) ** 2]]
    with pytest.raises(InputError):
        H.coords([(1, 2)])


@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_folner_deterministic_order(spec):
    a = folner_set(spec, 3)
    b = folner_set(spec, 3)
    assert a.elements == b.elements
    assert list(a.index.items()) == list(b.index.items())
    assert len(set(a.elements)) == len(a.elements)


@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_folner_condition_reached_under_cap(spec):
    # For each small K and delta there is an L0 under the cap past which the
    # boundary ratio stays below delta.
    K = [spec.identity(), spec.reduce((1,) + (0,) * (spec.coord_len - 1))]
    cap = 24
    for delta in (Fraction(1, 2), Fraction(1, 4), Fraction(1, 10)):
        L0 = None
        for L in range(1, cap + 1):
            if boundary_ratio(folner_set(spec, L, max_elements=10**6), K) < delta:
                L0 = L
                break
        assert L0 is not None, f"no L0 <= {cap} for delta {delta}"
        for L in (L0, L0 + 1, 2 * L0):
            assert boundary_ratio(folner_set(spec, L, max_elements=10**6), K) < delta


@pytest.mark.parametrize("d", [1, 2])
def test_zd_boundary_scaling_law(d):
    # c_K computed by enumeration at L=8 bounds the ratio by c_K / L at 16, 32.
    spec = zd(d)
    cross = [spec.identity()] + [
        tuple(s if i == j else 0 for i in range(d)) for j in range(d) for s in (1, -1)
    ]
    box = [t for t in folner_set(zd(d), 3, max_elements=10**6).elements]
    shifted_box = [tuple(x - 1 for x in t) for t in box]  # [-1,1]^d
    for K in (cross, shifted_box):
        c_K = 8 * boundary_ratio(folner_set(spec, 8), K)
        for L in (16, 32):
            assert boundary_ratio(folner_set(spec, L), K) <= Fraction(c_K, L)


def test_unit_ball_and_dilate():
    Z2 = zd(2)
    E = ((0, 0),)
    grown = dilate(Z2, E)
    assert len(grown) == 9
    G = finite_cyclic(3)
    assert set(dilate(G, [(0,)])) == {(0,), (1,), (2,)}
    assert len(unit_ball(heisenberg())) == 27


# -- serialization -----------------------------------------------------------


@pytest.mark.parametrize("spec", SPECS, ids=SPEC_IDS)
def test_spec_json_roundtrip(spec):
    blob = json.dumps(spec.to_json())
    assert GroupSpec.from_json(json.loads(blob)) == spec


def test_spec_json_examples():
    assert GroupSpec.from_json({"family": "Zd", "d": 2}) == zd(2)
    assert GroupSpec.from_json({"family": "FiniteCyclicProduct", "orders": [2, 3]}) == finite_cyclic(2, 3)
    assert GroupSpec.from_json({"family": "FiniteTimesZd", "orders": [2], "d": 1}) == finite_times_zd((2,), 1)
    assert GroupSpec.from_json({"family": "Heisenberg"}) == heisenberg()
    with pytest.raises(InputError):
        GroupSpec.from_json({"family": 3})
    with pytest.raises(InputError):
        GroupSpec.from_json("Zd")
