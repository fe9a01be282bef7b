"""Suite cases drawn straight into term tables against the ring arithmetic.

The references below are the samplers folrank used before the term tables,
kept verbatim: one ``RingElem`` per entry, built by ``RingElem.from_terms``.
A table must make exactly their rng calls and give the terms of the matrices
they draw; its star must be the star of those matrices, and the suite's
products C.f and [C.f; A3] must be what ``RingElem`` arithmetic gives.
"""

import random

import numpy as np
from hypothesis import given, settings, strategies as st

from folrank.exactla import rank_q
from folrank.groupring import RingElem, RingMatrix, star_terms, terms_by_case, window_operator
from folrank.groups import finite_cyclic, finite_times_zd, folner_set, heisenberg, zd
from folrank.ranks import _superadditivity_terms, _TermTable, random_ring_elem, random_ring_matrix

SPECS = (zd(0), zd(1), zd(2), finite_cyclic(2, 3), finite_times_zd((2,), 1), heisenberg())


# -- reference samplers ---------------------------------------------------------


def ref_random_ring_elem(
    rng: random.Random,
    spec,
    radius: int = 2,
    coeff_bound: int = 3,
    max_terms: int = 3,
) -> RingElem:
    terms = []
    # Each finite coordinate, then each free one (all three for Heisenberg).
    free = spec.coord_len - len(spec.orders)
    for _ in range(rng.randint(0, max_terms)):
        g = [rng.randrange(k) for k in spec.orders] + [rng.randint(-radius, radius) for _ in range(free)]
        terms.append((g, rng.randint(-coeff_bound, coeff_bound)))
    return RingElem.from_terms(spec, terms)


def ref_random_ring_matrix(
    rng: random.Random,
    spec,
    m: int,
    n: int,
    radius: int = 2,
    coeff_bound: int = 3,
    max_terms: int = 3,
) -> RingMatrix:
    rows = [
        [ref_random_ring_elem(rng, spec, radius, coeff_bound, max_terms) for _ in range(n)]
        for _ in range(m)
    ]
    return RingMatrix(spec, rows, cols=n)


def sorted_terms(t):
    """A Terms as its shape, its sorted (row, col, element, value) terms and
    its support."""
    elems = map(tuple, t.support[t.elem].tolist())
    return t.m, t.n, sorted(zip(t.row.tolist(), t.col.tolist(), elems, t.vals.tolist())), t.support.tolist()


# Small radii and coefficient bounds make terms meet and cancel; max_terms 0
# and coefficient bound 0 give empty entries.
draws = st.fixed_dictionaries(
    {"radius": st.integers(0, 2), "coeff_bound": st.integers(0, 3), "max_terms": st.integers(0, 3)}
)


@settings(max_examples=200, deadline=None)
@given(
    spec=st.sampled_from(SPECS),
    shapes=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=5),
    kw=draws,
    seed=st.integers(0, 2**32 - 1),
)
def test_table_draws_the_reference_matrices(spec, shapes, kw, seed):
    table, refs = _TermTable(spec), []
    for c, (m, n) in enumerate(shapes):
        mine, ref = random.Random(seed + c), random.Random(seed + c)
        assert table.matrix(mine, m, n, **kw) == c
        refs.append(ref_random_ring_matrix(ref, spec, m, n, **kw))
        assert mine.getrandbits(32) == ref.getrandbits(32)
    got = table.terms()
    assert [sorted_terms(t) for t in got] == [sorted_terms(f.terms()) for f in refs]
    for t in got:
        # In (row, col, element) order, with nothing summed to zero left.
        order = list(zip(t.row.tolist(), t.col.tolist(), t.elem.tolist()))
        assert order == sorted(set(order)) and t.vals.all()
    # The wrappers are the table's draws as ring elements.
    mine, ref = random.Random(seed), random.Random(seed)
    assert random_ring_matrix(mine, spec, 2, 3, **kw) == ref_random_ring_matrix(ref, spec, 2, 3, **kw)
    assert random_ring_elem(mine, spec, **kw) == ref_random_ring_elem(ref, spec, **kw)
    assert mine.getrandbits(32) == ref.getrandbits(32)


def _window_rank(spec, t, F) -> int:
    M, _, _, _ = window_operator(spec, [[(t, F.coords)]], left=False)
    return rank_q(M).rank


@settings(max_examples=100, deadline=None)
@given(
    spec=st.sampled_from(SPECS),
    shapes=st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=4),
    kw=draws,
    seed=st.integers(0, 2**32 - 1),
)
def test_star_of_terms_is_the_star_of_the_matrix(spec, shapes, kw, seed):
    rng = random.Random(seed)
    fs = [ref_random_ring_matrix(rng, spec, m, n, **kw) for m, n in shapes]
    stars = star_terms(spec, [f.terms() for f in fs])
    assert [sorted_terms(t) for t in stars] == [sorted_terms(f.star().terms()) for f in fs]
    F = folner_set(spec, 2 if spec.family == "Zd" else 1)
    assert [_window_rank(spec, t, F) for t in stars] == [_window_rank(spec, f.star().terms(), F) for f in fs]


@settings(max_examples=150, deadline=None)
@given(
    spec=st.sampled_from(SPECS),
    cases=st.integers(0, 4),
    kw=draws,
    seed=st.integers(0, 2**32 - 1),
)
def test_suite_products_are_ring_arithmetic(spec, cases, kw, seed):
    tables = [_TermTable(spec) for _ in range(3)]
    refs = []
    for i in range(cases):
        # The draws of a superadditivity case, into the tables and as ring elements.
        mine, ref = random.Random(seed + i), random.Random(seed + i)
        f, c, a3 = tables
        m, n = mine.randint(1, 2), mine.randint(1, 2)
        f.matrix(mine, m, n, **kw)
        c.matrix(mine, mine.randint(1, 2), m, **kw)
        a3.matrix(mine, mine.randint(1, 2), n, **kw)
        m, n = ref.randint(1, 2), ref.randint(1, 2)
        rf = ref_random_ring_matrix(ref, spec, m, n, **kw)
        a1 = []
        for _ in range(ref.randint(1, 2)):
            combo = tuple(RingElem.zero(spec) for _ in range(n))
            for row in rf.entries:
                coeff = ref_random_ring_elem(ref, spec, **kw)
                combo = tuple(x + coeff * e for x, e in zip(combo, row))
            a1.append(combo)
        a3_rows = [
            tuple(ref_random_ring_elem(ref, spec, **kw) for _ in range(n)) for _ in range(ref.randint(1, 2))
        ]
        refs.append((rf, RingMatrix(spec, a1), RingMatrix(spec, a1 + a3_rows)))
        assert mine.getrandbits(32) == ref.getrandbits(32)
    got = _superadditivity_terms(spec, *tables)
    for which in range(3):
        assert [sorted_terms(t) for t in got[which]] == [sorted_terms(r[which].terms()) for r in refs]


def test_terms_by_case_sums_and_drops_cancelled_terms():
    # Case 0: 2x - 2x in entry (0, 0) cancels and 1 + 1 in entry (1, 0) sums;
    # nothing is left of case 1.
    case, row, col = (np.array(x) for x in ([0, 0, 0, 0, 1, 1], [0, 0, 1, 1, 0, 0], [0, 0, 0, 0, 1, 1]))
    coords, vals = np.array([[1], [1], [0], [0], [3], [3]]), np.array([2, -2, 1, 1, 5, -5])
    t0, t1 = terms_by_case([(2, 1), (1, 2)], case, row, col, coords, vals)
    assert sorted_terms(t0) == (2, 1, [(1, 0, (0,), 2)], [[0]])
    assert sorted_terms(t1) == (1, 2, [], [])
    assert t1.support.shape == (0, 1)
