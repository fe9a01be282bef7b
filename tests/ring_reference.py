"""Ring-element references shared by the tests: the samplers folrank used
before the term tables, the star and the support of a matrix, all over
``RingElem`` coefficients.

The samplers are kept verbatim: one ``RingElem`` per entry, built by
``RingElem.from_terms``.  ``ranks._TermTable`` makes exactly their rng calls
(``tests/test_term_tables.py``), so a test that draws through them draws the
cases the suites draw.
"""

import random

from folrank.groupring import RingElem, RingMatrix


def random_ring_elem(
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


def random_ring_matrix(
    rng: random.Random,
    spec,
    m: int,
    n: int,
    radius: int = 2,
    coeff_bound: int = 3,
    max_terms: int = 3,
) -> RingMatrix:
    rows = [
        [random_ring_elem(rng, spec, radius, coeff_bound, max_terms) for _ in range(n)]
        for _ in range(m)
    ]
    return RingMatrix(spec, rows, cols=n)


def star(f: RingMatrix) -> RingMatrix:
    """f*: (f*)_{k,j} carries the coefficients of f_{j,k} at the inverses."""
    inv = f.spec.inverse
    starred = [[{inv(g): c for g, c in f.entries[j][k].coeffs.items()} for j in range(f.rows)] for k in range(f.cols)]
    return RingMatrix(f.spec, [[RingElem(f.spec, e) for e in row] for row in starred], cols=f.rows)


def support(f: RingMatrix) -> frozenset:
    """The group elements at which some entry of f has a nonzero coefficient."""
    return frozenset(g for row in f.entries for e in row for g in e.coeffs)


def sorted_terms(t):
    """A Terms as its shape, its sorted (row, col, element, value) terms and
    its support."""
    elems = map(tuple, t.support[t.elem].tolist())
    return t.m, t.n, sorted(zip(t.row.tolist(), t.col.tolist(), elems, t.vals.tolist())), t.support.tolist()
