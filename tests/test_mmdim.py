import collections
import csv
import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from folrank.cli import main as cli_main
from folrank import mmdim
from folrank.errors import BudgetExceededError, InputError
from folrank.exactla import kernel_basis, nullspace_q
from folrank.groupring import RingElem, RingMatrix
from folrank.groups import coords_of, finite_cyclic, folner_set, heisenberg, zd
from folrank.mmdim import (
    _PACK_ROWS,
    SolenoidBoxPoint,
    _greedy_count,
    _solution_samples,
    _theta_arrays,
    _window,
    interior_constraint_matrix,
    interior_set,
    kernel_grid_packing,
    mmdim_estimate,
    packing_report,
    separated_lower_count,
    separated_upper_bound,
    theta,
    theta_pseudometric,
)
from folrank.ranks import derived_rng
from ring_reference import random_ring_matrix, support

Z = zd(1)


def zp(*terms):
    return RingElem.from_terms(Z, [((e,), c) for e, c in terms])


def mat(elem):
    return RingMatrix(Z, [[elem]])


ZERO = mat(RingElem.zero(Z))
TWO = mat(zp((0, 2)))
ONE_PLUS_2T = mat(zp((0, 1), (1, 2)))
THREE_MINUS_T = mat(zp((0, 3), (1, -1)))

unit = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)


# -- the circle metric -------------------------------------------------------


def test_theta_examples():
    assert theta(0.3, 0.9) == pytest.approx(0.4)
    assert theta(0.25, 0.25) == 0.0
    assert theta(0.0, 0.5) == pytest.approx(0.5)


@settings(max_examples=80)
@given(a=unit, b=unit, c=unit)
def test_theta_metric_axioms(a, b, c):
    assert theta(a, b) == pytest.approx(theta(b, a), abs=1e-12)
    assert 0.0 <= theta(a, b) <= 0.5 + 1e-12
    assert theta(a, c) <= theta(a, b) + theta(b, c) + 1e-12


def _point(f, F, values):
    return SolenoidBoxPoint(f, F.elements, np.array(values, dtype=float))


def test_pseudometric_examples():
    F = folner_set(Z, 2)
    x = _point(ZERO, F, [[0.1, 0.2]])
    y = _point(ZERO, F, [[0.2, 0.65]])
    assert theta_pseudometric(x, x) == 0.0
    assert theta_pseudometric(x, y) == pytest.approx(0.45)
    assert theta_pseudometric(y, x) == theta_pseudometric(x, y)


def test_pseudometric_shape_mismatch():
    F2, F3 = folner_set(Z, 2), folner_set(Z, 3)
    x = _point(ZERO, F2, [[0.1, 0.2]])
    y = _point(ZERO, F3, [[0.1, 0.2, 0.3]])
    with pytest.raises(InputError):
        theta_pseudometric(x, y)


@settings(max_examples=40)
@given(vals=st.lists(unit, min_size=6, max_size=6), shift=st.lists(unit, min_size=3, max_size=3))
def test_pseudometric_translation_invariance(vals, shift):
    F = folner_set(Z, 3)
    x = _point(ZERO, F, [vals[:3]])
    y = _point(ZERO, F, [vals[3:]])
    z = np.array([shift])
    xs = _point(ZERO, F, (x.values + z) % 1.0)
    ys = _point(ZERO, F, (y.values + z) % 1.0)
    assert theta_pseudometric(xs, ys) == pytest.approx(theta_pseudometric(x, y), abs=1e-12)


def test_solenoid_point_congruence_enforced():
    F = folner_set(Z, 3)
    _point(TWO, F, [[0.0, 0.5, 0.5]])  # 2x integral on all of F' = F
    with pytest.raises(InputError):
        _point(TWO, F, [[0.25, 0.0, 0.0]])


# -- interior sets and the counting bound ------------------------------------


def test_interior_set_definition():
    F = folner_set(Z, 4)
    fprime = interior_set(ONE_PLUS_2T, F)
    # Every reported member satisfies K^{-1} s inside F; nothing else does.
    K = sorted(support(ONE_PLUS_2T))
    fset = set(F.elements)
    members = set(map(tuple, fprime.tolist()))
    for s in F.elements:
        inside = all(Z.mul(Z.inverse(k), s) in fset for k in K)
        assert (s in members) == inside
    assert fprime.tolist() == [[1], [2], [3]]


def _interior_reference(f, felems):
    """F' by its definition, on tuples and sets."""
    spec, fset = f.spec, set(felems)
    K = sorted(support(f))
    return [list(s) for s in felems if all(spec.mul(spec.inverse(k), s) in fset for k in K)]


@pytest.mark.parametrize(
    "spec, max_L",
    [(zd(1), 6), (zd(2), 4), (heisenberg(), 2), (finite_cyclic(2, 3), 1)],
    ids=["Z", "Z2", "H3", "C2xC3"],
)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_interior_set_matches_the_set_definition(spec, max_L, data):
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    f = random_ring_matrix(rng, spec, rng.randint(1, 2), rng.randint(1, 2), radius=2, max_terms=3)
    zero = RingMatrix(spec, [[RingElem.zero(spec)]])
    F = folner_set(spec, data.draw(st.integers(1, max_L)))
    sub = data.draw(st.lists(st.sampled_from(F.elements), unique=True, max_size=12))
    for g in (f, zero):
        assert interior_set(g, F).tolist() == _interior_reference(g, F.elements)
        # Any window, in its own order.
        assert interior_set(g, sub).tolist() == _interior_reference(g, sub)
    assert interior_set(zero, F).tolist() == F.coords.tolist()


def test_upper_bound_example():
    F = folner_set(Z, 2)
    assert separated_upper_bound(TWO, F, 0.25) == pytest.approx(math.log(9))


def test_upper_bound_zero_matrix_specialization():
    F = folner_set(Z, 3)
    eps = 0.25
    got = separated_upper_bound(ZERO, F, eps)
    assert got == pytest.approx(len(F) * math.log(1 + 2 / eps))


def test_upper_bound_eps_range():
    with pytest.raises(InputError):
        separated_upper_bound(TWO, folner_set(Z, 2), 1.5)


# 2^-1074 and 2^-1023 are subnormal: 1/eps (resp. 4/eps) overflows, and the
# grid modulus int(1/eps) or the random fill's float(4/eps) cannot be formed.
BAD_EPS = [0.0, -0.0, -0.5, 1.0, 1.5, math.nan, math.inf, 2.0**-1074, 2.0**-1023]


@pytest.mark.parametrize("eps", BAD_EPS, ids=repr)
def test_every_bound_rejects_eps(eps):
    F = folner_set(Z, 2)
    for bound in (separated_upper_bound, kernel_grid_packing, separated_lower_count):
        with pytest.raises(InputError, match="eps must lie in"):
            bound(ONE_PLUS_2T, F, eps)
    with pytest.raises(InputError, match="eps must lie in"):
        mmdim_estimate(ONE_PLUS_2T, (2, 3), [0.25, eps], budget=10)


@pytest.mark.parametrize("eps", [2.0**-1022 * 1.5, 1e-300, 1e-20, 1.0 - 2.0**-53])
def test_extreme_eps_still_gives_bounds(eps):
    # Huge grid moduli draw random integers past int64; they must stay floats.
    est = mmdim_estimate(ONE_PLUS_2T, (2, 3), [eps], budget=20, seed=1)
    assert all(r.lower_count >= 1 for r in est.reports)


def test_upper_bound_one_plus_2T_components():
    F = folner_set(Z, 4)
    eps = 0.25
    got = separated_upper_bound(ONE_PLUS_2T, F, eps)
    # K.F = [0,5), F' = {1,2,3}, kernel dim 0, |f|_1 = 3.
    want = 2 * math.log(1 + 2 / eps) + 3 * math.log(4)
    assert got == pytest.approx(want)


# Rows scaled to integers by window_matrix: 5, 3, and (3 + 2T; 3).
FIVE_HALVES = mat(zp((0, Fraction(5, 2))))
THREE_HALVES = mat(zp((0, Fraction(3, 2))))
MIXED_DENOMINATORS = RingMatrix(Z, [[zp((0, Fraction(1, 2)), (1, Fraction(1, 3)))], [zp((0, Fraction(3, 4)))]])


@pytest.mark.parametrize(
    "f, exponent, interior, norm",
    [
        (FIVE_HALVES, lambda L: 0, lambda L: L, 5),
        (THREE_HALVES, lambda L: 0, lambda L: L, 3),
        # K = {0, 1}: F' = [1, L), two boundary rows per block, trivial kernel.
        (MIXED_DENOMINATORS, lambda L: 4, lambda L: 2 * (L - 1), 8),
    ],
    ids=["5/2", "3/2", "two-rows"],
)
@pytest.mark.parametrize("L", [1, 3, 4])
@pytest.mark.parametrize("eps", [0.25, 2**-3, 2**-5])
def test_counting_bound_uses_the_scaled_rows(f, exponent, interior, norm, L, eps):
    F = folner_set(Z, L)
    want = exponent(L) * math.log1p(2 / eps) + interior(L) * math.log(norm + 1)
    assert separated_upper_bound(f, F, eps) == pytest.approx(want)
    rep = packing_report(f, F, eps, budget=200, seed=0)
    assert math.log(rep.lower_count) <= rep.upper_log + 1e-9


def test_five_halves_packs_every_torsion_point(tmp_path):
    # 5x = 0 mod 1 has 5^3 = 125 solutions on three sites, all 1/5 apart.
    assert separated_lower_count(FIVE_HALVES, folner_set(Z, 3), 2**-3, budget=400, seed=0) == 125
    path = tmp_path / "five_halves.json"
    path.write_text(json.dumps(FIVE_HALVES.to_json()))
    argv = ["mmdim", "--input", str(path), "--L", "3,4", "--epsilon", "2^-3", "--out", str(tmp_path)]
    assert cli_main(argv) == 0


# -- packings ------------------------------------------------------------------


def test_lower_count_full_shift_single_site():
    count = separated_lower_count(ZERO, folner_set(Z, 1), 0.25, budget=100, seed=3)
    assert count >= 4


def test_lower_count_torsion_exact():
    count = separated_lower_count(TWO, folner_set(Z, 3), 0.25, budget=300, seed=3)
    assert count == 8


def test_lower_count_above_half_eps():
    count = separated_lower_count(TWO, folner_set(Z, 1), 0.6, budget=50, seed=3)
    assert count == 1
    # No two points of the circle are more than 1/2 apart.
    for f in (ZERO, ONE_PLUS_2T, THREE_MINUS_T):
        assert separated_lower_count(f, folner_set(Z, 4), 0.6, budget=80, seed=1) == 1


def _scalar_lower_count(f, F, eps, budget, seed):
    """The greedy packing one kept point at a time: the oracle for the
    batched loop in separated_lower_count."""
    rng = derived_rng(seed, "packing", len(coords_of(f.spec, F)), repr(eps))
    kept = []
    for point in _solution_samples(_window(f, F), eps, budget, rng):
        ok = True
        for other in kept:
            if _theta_arrays(point, other) < eps:
                ok = False
                break
        if ok:
            kept.append(point)
    return max(1, len(kept))


laurent = st.dictionaries(st.integers(-2, 2), st.integers(-3, 3), max_size=3).map(
    lambda terms: mat(zp(*terms.items()))
)


@settings(max_examples=60, deadline=None)
@given(
    f=st.sampled_from([ZERO, TWO, ONE_PLUS_2T, THREE_MINUS_T]) | laurent,
    L=st.integers(1, 6),
    eps=st.sampled_from([0.6, 0.5, 0.25, 0.125, 2**-5]),
    seed=st.integers(0, 50),
    budget=st.integers(1, 3 * _PACK_ROWS + 20),
)
@example(f=ZERO, L=6, eps=0.125, seed=0, budget=3 * _PACK_ROWS + 20)  # most rows kept
@example(f=ONE_PLUS_2T, L=5, eps=2**-5, seed=3, budget=3 * _PACK_ROWS)  # exactly three blocks
@example(f=TWO, L=6, eps=0.25, seed=1, budget=2 * _PACK_ROWS + 1)  # torsion grid, one-row block
def test_lower_count_matches_scalar_packing(f, L, eps, seed, budget):
    F = folner_set(Z, L)
    want = _scalar_lower_count(f, F, eps, budget, seed)
    assert separated_lower_count(f, F, eps, budget=budget, seed=seed) == want


def test_lower_count_without_coordinates():
    F = folner_set(Z, 3)
    assert separated_lower_count(RingMatrix(Z, [], cols=0), F, 0.25, budget=20, seed=0) == 1


def test_lower_count_keeps_distance_exactly_eps():
    # The solutions of 2x = 0 on one site are 0 and 1/2, at distance exactly 1/2.
    assert separated_lower_count(TWO, folner_set(Z, 1), 0.5, budget=50, seed=0) == 2


def test_empty_interior_samples_every_torsion_point():
    # On one site, 3 - T has K = {0, 1} and an empty F', so C has no rows and
    # every vector on the window is a solution, torsion points included.
    F = folner_set(Z, 1)
    C = interior_constraint_matrix(THREE_MINUS_T, F)
    assert (C.rows, C.cols) == (0, 1)
    assert nullspace_q(C) == [[1]]
    for p in (2, 3, 5, 7):
        assert kernel_basis(C.to_dense(), C.cols, p) == [[1]]
    # Grid points k/4, then every j/p; in 420ths, the lcm of 4, 3, 5 and 7.
    stream = _solution_samples(_window(THREE_MINUS_T, F), 0.25, 30, random.Random(0))
    got = {round(420 * float(x[0])) for x in stream}
    assert {420 * j // p for p in (2, 3, 4, 5, 7) for j in range(p)} <= got

def _streamed_samples(f, F, eps, budget, rng, fill_after_everything=False):
    """The sample source one point at a time, as it was before it built one
    array: the reference that pins _solution_samples bit for bit.  With no
    rational kernel and every torsion basis enumerated, the samples are the
    enumerated points, each once; ``fill_after_everything`` goes on to the
    random fill there as well, which is how every sample array was built
    before."""
    C = interior_constraint_matrix(f, F)
    ncols = C.cols
    out = []
    rational_basis = nullspace_q(C)
    q = max(1, int(1.0 / eps + 1e-9))
    if q ** len(rational_basis) <= min(budget, 4096):
        step = Fraction(1, q)
        for combo in itertools.product(range(q), repeat=len(rational_basis)):
            vec = [Fraction(0)] * ncols
            for lam, basis_vec in zip(combo, rational_basis):
                if lam:
                    for idx, b in enumerate(basis_vec):
                        if b:
                            vec[idx] += lam * step * b
            out.append(np.array([float(x) % 1.0 for x in vec]))
            if len(out) >= budget:
                return out
    dense = C.to_dense()
    torsion_bases, everything = [], not rational_basis
    for p in (2, 3, 5, 7):
        basis = kernel_basis(dense, ncols, p)
        if basis:
            torsion_bases.append((p, basis))
        if basis and p ** len(basis) <= min(budget - len(out), 4096):
            for combo in itertools.product(range(p), repeat=len(basis)):
                vec = [0] * ncols
                for lam, bvec in zip(combo, basis):
                    if lam:
                        for idx, b in enumerate(bvec):
                            vec[idx] = (vec[idx] + lam * b) % p
                out.append(np.array([v / p for v in vec]))
                if len(out) >= budget:
                    return out
        elif basis:
            everything = False
    if everything and not fill_after_everything:
        once = {}
        for point in out:
            once.setdefault(point.tobytes(), point)
        return list(once.values())
    float_basis = [np.array([float(x) for x in bvec]) for bvec in rational_basis]
    int_bases = [(p, np.array(basis)) for p, basis in torsion_bases]
    while len(out) < budget:
        point = np.zeros(ncols)
        for bvec in float_basis:
            lam = rng.randint(-4 * q, 4 * q) / (2.0 * q)
            if lam:
                point += lam * bvec
        if int_bases and rng.random() < 0.5:
            p, basis = int_bases[rng.randrange(len(int_bases))]
            for bvec in basis:
                lam = rng.randrange(p)
                if lam:
                    point += lam * bvec / p
        out.append(point % 1.0)
    return out


NO_COLUMNS = RingMatrix(Z, [], cols=0)
# Scaled to 3 - 3T: constants span the rational kernel and every vector is
# 3-torsion, so the random fill mixes kernel combinations and torsion offsets.
HALVES = mat(zp((0, Fraction(3, 2)), (1, Fraction(-3, 2))))
fractional = st.dictionaries(
    st.integers(-2, 2),
    st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2, 3])),
    max_size=3,
).map(lambda terms: mat(zp(*terms.items())))


@settings(max_examples=150, deadline=None)
@given(
    f=st.sampled_from([ZERO, TWO, ONE_PLUS_2T, THREE_MINUS_T, NO_COLUMNS, HALVES]) | fractional,
    L=st.integers(1, 6),
    eps=st.sampled_from([0.6, 0.5, 0.3, 0.25, 0.125, 0.1, 2**-5]),
    seed=st.integers(0, 50),
    budget=st.integers(1, 150),
)
@example(f=ZERO, L=2, eps=0.25, seed=0, budget=40)  # rational grid, then random fill
@example(f=TWO, L=5, eps=0.25, seed=0, budget=40)  # every torsion point, no fill
@example(f=HALVES, L=2, eps=0.25, seed=0, budget=40)  # torsion enumeration, then random fill
@example(f=HALVES, L=3, eps=0.1, seed=2, budget=150)  # both kinds of fill
@example(f=THREE_MINUS_T, L=1, eps=0.3, seed=1, budget=60)  # empty interior
@example(f=NO_COLUMNS, L=3, eps=0.3, seed=0, budget=5)  # zero columns
def test_sample_array_matches_stream_bitwise(f, L, eps, seed, budget):
    F = folner_set(Z, L)
    rng_key = (seed, "packing", len(F), repr(eps))
    got = _solution_samples(_window(f, F), eps, budget, derived_rng(*rng_key))
    want = _streamed_samples(f, F, eps, budget, derived_rng(*rng_key))
    assert got.shape == (len(want), len(F) * f.cols) and len(want) <= budget
    assert got.view(np.uint64).tolist() == [w.view(np.uint64).tolist() for w in want]
    assert ((0.0 <= got) & (got <= 1.0)).all()


@pytest.mark.parametrize(
    "f, L, eps, count",
    [(TWO, 7, 2**-3, 128), (TWO, 8, 2**-6, 256), (FIVE_HALVES, 3, 2**-3, 125), (FIVE_HALVES, 2, 2**-5, 25)],
)
@pytest.mark.parametrize("seed", [0, 1])
def test_a_complete_enumeration_is_every_sample(f, L, eps, count, seed):
    # No rational kernel, and every torsion point fits the budget: the random
    # fill could only repeat those points, so it is not drawn.  The samples
    # are the points, each once, and the packing keeps as many as it did
    # from the filled budget.  TWO at L = 7, 8 is the mmdim job on two_over_z.
    F = folner_set(Z, L)
    rng_key = (seed, "packing", len(F), repr(eps))
    got = _solution_samples(_window(f, F), eps, 400, derived_rng(*rng_key))
    assert len(got) == count and len(np.unique(got, axis=0)) == count
    filled = _streamed_samples(f, F, eps, 400, derived_rng(*rng_key), fill_after_everything=True)
    assert len(filled) == 400
    assert _greedy_count(got, eps) == _greedy_count(np.array(filled), eps) == count
    assert separated_lower_count(f, F, eps, budget=400, seed=seed) == count


def _greedy_reference(points, eps):
    kept = []
    for x in points:
        if all(_theta_arrays(x, y) >= eps for y in kept):
            kept.append(x)
    return kept


circle_entry = st.sampled_from([0.0, 1.0, 0.5]) | st.floats(0.0, 1.0)


@settings(max_examples=200, deadline=None)
@given(
    shape=st.tuples(st.integers(0, 30), st.integers(0, 4)),
    data=st.data(),
    eps=st.sampled_from([1e-12, 0.1, 0.25, 0.3, 0.5]) | st.floats(0.01, 0.6),
)
def test_greedy_count_matches_reduced_metric(shape, data, eps):
    entries = data.draw(st.lists(circle_entry, min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]))
    points = np.array(entries, dtype=float).reshape(shape)
    want = _greedy_reference(points.copy(), eps)
    assert _greedy_count(points, eps) == len(want)
    assert points[: len(want)].tolist() == [w.tolist() for w in want]


@pytest.mark.parametrize("eps", [1e-300, 1e-12, 0.25, 0.5, 0.6, 1.0 - 1e-16])
def test_greedy_count_zero_and_one_coincide(eps):
    assert _greedy_count(np.array([[0.0], [1.0]]), eps) == 1


def _per_sample_greedy(points, eps):
    """The packing one sample at a time, each tested against all kept rows
    in one reduction: the oracle for the blocked _greedy_count."""
    kept = np.empty_like(points)
    k = 0
    for x in points:
        d = np.abs(x - kept[:k])
        if not (np.minimum(d, 1.0 - d).max(axis=1, initial=0.0) < eps).any():
            kept[k] = x
            k += 1
    return kept[:k]


def _synthetic(name, rng):
    n = 3 * _PACK_ROWS + 17  # three full blocks and a short one
    if name == "eps-grid":  # many pairs exactly eps (or 1 - eps) apart
        return rng.integers(0, 9, size=(n, 3)) / 8
    if name == "tenths":  # k/10 is inexact, so differences land on both sides of 0.1
        return rng.integers(0, 11, size=(n, 2)) / 10
    if name == "zero-one":  # d = 1 is distance 0
        return rng.choice([0.0, 0.5, 1.0], size=(n, 4))
    if name == "duplicates":
        base = rng.random((_PACK_ROWS + 5, 2))
        return base[rng.integers(0, len(base), size=n)]
    if name == "uniform":  # keeps more rows than one block
        return rng.random((n, 2))
    if name == "no-columns":
        return np.empty((n, 0))
    if name == "one-row":
        return rng.random((1, 5))
    assert name == "no-rows"
    return np.empty((0, 3))


SYNTHETIC = ["eps-grid", "tenths", "zero-one", "duplicates", "uniform", "no-columns", "one-row", "no-rows"]


@pytest.mark.parametrize("name", SYNTHETIC)
@pytest.mark.parametrize("eps", [0.6, 0.5, 0.25, 0.125, 0.1, 2**-5, 2**-8])
def test_greedy_count_matches_per_sample_loop(name, eps):
    points = _synthetic(name, np.random.default_rng(SYNTHETIC.index(name)))
    want = _per_sample_greedy(points, eps)
    assert _greedy_count(points, eps) == len(want)
    assert points[: len(want)].tolist() == want.tolist()


# (L, eps) -> (count at seed 0, count at seed 1), budget 200.
PINNED_COUNTS = {
    "zero": (ZERO, {
        (2, 0.25): (16, 16), (2, 0.125): (64, 64),
        (4, 0.25): (53, 43), (4, 0.125): (170, 171),
        (6, 0.25): (128, 137), (6, 0.125): (198, 199),
    }),
    "3-T": (THREE_MINUS_T, {
        (2, 0.25): (9, 8), (2, 0.125): (17, 17),
        (4, 0.25): (41, 37), (4, 0.125): (61, 61),
        (6, 0.25): (52, 53), (6, 0.125): (75, 72),
    }),
}


@pytest.mark.parametrize("name", sorted(PINNED_COUNTS))
def test_lower_count_pinned_values(name):
    # Seed-dependent counts: the sample stream and the keep rule must not drift.
    f, table = PINNED_COUNTS[name]
    got = {
        (L, eps): tuple(
            separated_lower_count(f, folner_set(Z, L), eps, budget=200, seed=seed) for seed in (0, 1)
        )
        for L, eps in table
    }
    assert got == table


FIXTURES = Path(__file__).resolve().parents[1] / "fixtures"
# The fixture-tour benchmark job `mmdim two_over_z --L 7,8 --epsilon
# 2^-3,2^-4,2^-5,2^-6`: its CSV lower_count column, in row order (eps
# descending, then L), at each of the job seeds 0-3.
JOB_COUNTS = {seed: [128, 256] * 4 for seed in range(4)}


@pytest.mark.parametrize("seed", sorted(JOB_COUNTS))
def test_benchmark_job_lower_counts_pinned(seed, tmp_path):
    argv = ["mmdim", "--input", str(FIXTURES / "two_over_z.json"), "--L", "7,8"]
    argv += ["--epsilon", "2^-3,2^-4,2^-5,2^-6", "--seed", str(seed), "--out", str(tmp_path)]
    assert cli_main(argv) == 0
    with open(tmp_path / "mmdim-two_over_z.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["L"], r["epsilon"]) for r in rows] == [
        (L, repr(2.0**-k)) for k in (3, 4, 5, 6) for L in ("7", "8")
    ]
    assert [int(r["lower_count"]) for r in rows] == JOB_COUNTS[seed]


def test_grid_packing_dimensions():
    assert kernel_grid_packing(ZERO, folner_set(Z, 4), 2**-6)[1] == 4
    assert kernel_grid_packing(TWO, folner_set(Z, 4), 2**-6)[1] == 0
    assert kernel_grid_packing(ONE_PLUS_2T, folner_set(Z, 4), 2**-6)[1] == 1


@pytest.mark.parametrize("f", [ZERO, TWO, ONE_PLUS_2T], ids=["zero", "two", "1+2T"])
@pytest.mark.parametrize("eps", [0.5, 0.25, 2**-4])
def test_lower_bounds_respect_upper_bound(f, eps):
    F = folner_set(Z, 4)
    rep = packing_report(f, F, eps, budget=150, seed=9)
    assert math.log(rep.lower_count) <= rep.upper_log + 1e-9
    assert rep.grid_log <= rep.upper_log + 1e-9


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("eps", [0.5, 0.25])
def test_volume_comparison_sup_ball(k, eps):
    # Greedy eps-separated packings of the sup-norm unit ball of R^k stay
    # under (1 + 2/eps)^k.
    rng = random.Random(100 * k + int(1 / eps))
    kept = np.empty((4000, k))
    n = 0
    for _ in range(4000):
        x = np.array([rng.uniform(-1, 1) for _ in range(k)])
        if (np.abs(x - kept[:n]).max(axis=1) >= eps).all():
            kept[n] = x
            n += 1
    assert n <= (1 + 2 / eps) ** k


# -- the estimator ----------------------------------------------------------------


def test_estimate_full_shift_contains_one():
    est = mmdim_estimate(ZERO, (7, 8), [2**-k for k in range(3, 7)], budget=150, seed=5)
    assert est.contains(1.0)
    assert est.upper - est.lower <= 0.3


def test_estimate_torsion_and_injective_contain_zero():
    for f in (TWO, ONE_PLUS_2T):
        est = mmdim_estimate(f, (7, 8), [2**-k for k in range(3, 9)], budget=150, seed=5)
        assert est.contains(0.0)


def test_estimate_needs_two_windows():
    with pytest.raises(InputError):
        mmdim_estimate(ZERO, (8,), [0.25])


def test_estimate_on_a_finite_group_names_its_equal_windows():
    C2 = finite_cyclic(2)
    f = RingMatrix(C2, [[RingElem.from_terms(C2, [((0,), 1), ((1,), 1)])]])
    with pytest.raises(InputError, match="windows L=1 and L=2 both have 2 elements"):
        mmdim_estimate(f, (1, 2), [0.125], budget=20)


def _count_calls(monkeypatch, names):
    calls = collections.Counter()
    for name in names:
        real = getattr(mmdim, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(mmdim, name, counted)
    return calls


def test_each_window_is_built_once_for_every_eps(monkeypatch):
    # The fixture-tour job: two windows, four eps.
    names = ("window_matrix", "interior_set", "rank_q", "nullspace_q", "kernel_basis")
    calls = _count_calls(monkeypatch, names)
    mmdim_estimate(TWO, (7, 8), [2**-k for k in range(3, 7)], budget=400, seed=0)
    assert dict(calls) == {"window_matrix": 2, "interior_set": 2, "rank_q": 2, "nullspace_q": 2, "kernel_basis": 8}


def test_estimate_checks_every_window_budget_before_building(monkeypatch):
    calls = _count_calls(monkeypatch, ("window_matrix",))
    with pytest.raises(BudgetExceededError, match="window of index 8 has 8 elements, budget is 7"):
        mmdim_estimate(TWO, (7, 8), [0.25], budget=20, max_window_elements=7)
    assert not calls
