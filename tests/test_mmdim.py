import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from folrank.errors import InputError
from folrank.groupring import RingElem, RingMatrix
from folrank.groups import elements_of, folner_set, zd
from folrank.mmdim import (
    SolenoidBoxPoint,
    _solution_samples,
    _theta_arrays,
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
    K = sorted(ONE_PLUS_2T.support())
    fset = set(F.elements)
    for s in F.elements:
        inside = all(Z.mul(Z.inverse(k), s) in fset for k in K)
        assert (s in fprime) == inside
    assert fprime == ((1,), (2,), (3,))


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


def test_upper_bound_one_plus_2T_components():
    F = folner_set(Z, 4)
    eps = 0.25
    got = separated_upper_bound(ONE_PLUS_2T, F, eps)
    # K.F = [0,5), F' = {1,2,3}, kernel dim 0, |f|_1 = 3.
    want = 2 * math.log(1 + 2 / eps) + 3 * math.log(4)
    assert got == pytest.approx(want)


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
    rng = derived_rng(seed, "packing", len(elements_of(F)), repr(eps))
    kept = []
    for point in _solution_samples(f, F, eps, budget, rng):
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


@settings(max_examples=60)
@given(
    f=st.sampled_from([ZERO, TWO, ONE_PLUS_2T, THREE_MINUS_T]) | laurent,
    L=st.integers(1, 6),
    eps=st.sampled_from([0.6, 0.5, 0.25, 0.125, 2**-5]),
    seed=st.integers(0, 50),
    budget=st.integers(1, 120),
)
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


def test_estimate_csv_rows_have_expected_columns():
    est = mmdim_estimate(TWO, (3, 4), [0.25, 0.125], budget=60, seed=1)
    rows = est.csv_rows()
    assert rows
    assert set(rows[0]) == {
        "L", "F_size", "epsilon", "lower_count", "upper_log", "lower_slope", "upper_slope",
    }
