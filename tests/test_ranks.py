import hashlib
import json
import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from folrank import ranks
from folrank.errors import InputError
from folrank.exactla import SparseIntMatrix, nullspace_q, rank_q
from folrank.groupring import RingElem, RingMatrix, right_window_matrix, star_terms
from folrank.groups import (
    coords_of,
    dilate,
    finite_cyclic,
    finite_times_zd,
    folner_set,
    heisenberg,
    inverse_set,
    unique_rows,
    zd,
)
from folrank.ranks import (
    DEFAULT_GROWTH_STEPS,
    ModulePresentation,
    StabilizedDim,
    SuiteResult,
    _initial_erank_window,
    _RankRng,
    _saturated,
    _stabilize_all,
    derived_rng,
    erank_dual_restriction_dim,
    erank_of_presentation,
    mrank_of_presentation,
    oracle_value,
    quotient_span_rank,
    rationality_snap,
    regular_rep_kernel,
    run_identity_suite,
    run_submodularity_suite,
    run_superadditivity_suite,
    submodule_rank,
    submodule_rank_matrix,
    vnd_of_presentation,
    window_kernel_dim,
)
from ring_reference import random_ring_elem, random_ring_matrix, support
from test_window_builder import SPECS, _matrix, cases as window_cases, integral_rows, ref_dual_constraint_matrix

Z = zd(1)
Z2 = zd(2)
C2 = finite_cyclic(2)


def zp(*terms):
    return RingElem.from_terms(Z, [((e,), c) for e, c in terms])


def one_plus_2T():
    return RingMatrix(Z, [[zp((0, 1), (1, 2))]])


def xy_minus_one():
    x1 = RingElem.from_terms(Z2, [((1, 0), 1), ((0, 0), -1)])
    y1 = RingElem.from_terms(Z2, [((0, 1), 1), ((0, 0), -1)])
    return RingMatrix(Z2, [[x1, y1]])


def eye(P: ModulePresentation) -> RingMatrix:
    """The n x n identity over P's group: the canonical generators of P."""
    spec, n = P.spec, P.n
    rows = [[RingElem.one(spec) if j == k else RingElem.zero(spec) for k in range(n)] for j in range(n)]
    return RingMatrix(spec, rows, cols=n)


def submodule_density(A: RingMatrix, F, spec) -> Fraction:
    """rank(<F^{-1}A>) / |F|, ranked as the mean-rank engine ranks it."""
    return Fraction(submodule_rank(A, F, spec)[0], len(F))


def kernel_density(P: ModulePresentation, F) -> Fraction:
    """dim ker(window of f on F) / |F|, as the kernel-density engine computes it."""
    return Fraction(window_kernel_dim(P, F)[0], len(F))


def identity_check(f: RingMatrix, F, rng=None) -> bool:
    """The window identity of f on F, checked as ``identity-check`` checks it."""
    t = f.terms()
    return ranks._identity_checks(f.spec, [(t, *star_terms(f.spec, [t]), F, rng)])[0]


# -- submodule window densities ---------------------------------------------------


def test_submodule_density_examples():
    F4 = folner_set(Z, 4)
    A = RingMatrix(Z, [[zp((0, 2))]])  # the single generator 2
    assert submodule_density(A, F4, Z) == 1
    assert submodule_density(RingMatrix(Z, [[RingElem.zero(Z)]]), F4, Z) == 0
    # rows of 1 + 2T generate a submodule of full density, so the quotient
    # module has mean rank 0.
    assert submodule_density(one_plus_2T(), F4, Z) == 1


def test_generator_list_validation():
    # Generators are the rows of a matrix, so they all have one length.
    assert RingMatrix(Z, [[zp((0, 1))]]).cols == 1
    with pytest.raises(InputError):
        RingMatrix(Z, [[zp((0, 1))], [zp((0, 1)), zp((1, 1))]])


# -- kernel densities ----------------------------------------------------------------


def test_window_kernel_density_examples():
    P = ModulePresentation(one_plus_2T())
    for L in (2, 4, 8):
        assert kernel_density(P, folner_set(Z, L)) == 0
    zero = ModulePresentation(RingMatrix(Z, [[RingElem.zero(Z)]]))
    assert kernel_density(zero, folner_set(Z, 5)) == 1
    P2 = ModulePresentation(xy_minus_one())
    d = kernel_density(P2, folner_set(Z2, 4))
    assert 0 < d < 2
    assert d == Fraction(9, 16)  # (L-1)^2 / L^2 at L = 4


# -- the per-window identity -----------------------------------------------------------


def test_identity_examples():
    f = one_plus_2T()
    F = folner_set(Z, 4)
    assert submodule_rank(f, F, Z)[0] == 4
    assert identity_check(f, F)
    zero = RingMatrix(Z, [[RingElem.zero(Z)]])
    assert identity_check(zero, F)


def test_identity_small_random_z2():
    rng = random.Random(5)
    for i in range(5):
        f = random_ring_matrix(rng, Z2, 2, 3, radius=1, coeff_bound=3, max_terms=3)
        assert identity_check(f, folner_set(Z2, 3), rng=derived_rng(9, "t", i))


def test_identity_heisenberg():
    rng = random.Random(2)
    for i in range(3):
        f = random_ring_matrix(rng, heisenberg(), 1, 2, radius=1, coeff_bound=2, max_terms=2)
        assert identity_check(f, folner_set(heisenberg(), 1))


# -- engines ------------------------------------------------------------------------


def test_mrank_engine_examples():
    torsion = ModulePresentation(RingMatrix(Z, [[zp((0, 2))]]))
    series = mrank_of_presentation(torsion, (2, 4, 8))
    assert all(d == 0 for d in series.densities())
    assert series.limit_estimate == 0

    free = ModulePresentation.free(Z, 1)
    series = mrank_of_presentation(free, (2, 4))
    assert all(d == 1 for d in series.densities())
    assert series.limit_estimate == 1

    xm1 = ModulePresentation(RingMatrix(Z, [[zp((1, 1), (0, -1))]]))
    series = mrank_of_presentation(xm1, (4, 8, 16))
    assert series.limit_estimate == 0  # finite-rank abelian group as a module


def test_vnd_engine_estimate_uses_last_window():
    P = ModulePresentation(xy_minus_one())
    series = vnd_of_presentation(P, (4, 8), tolerance=Fraction(1, 4))
    assert series.densities() == [Fraction(9, 16), Fraction(49, 64)]
    assert series.limit_estimate == Fraction(49, 64)
    assert series.running_min == Fraction(9, 16)


def test_series_validation():
    P = ModulePresentation.free(Z, 1)
    with pytest.raises(InputError):
        mrank_of_presentation(P, ())
    with pytest.raises(InputError):
        mrank_of_presentation(P, (4, 4))


def test_series_budget_truncation():
    P = ModulePresentation(one_plus_2T())
    series = vnd_of_presentation(P, (2, 4, 64), max_window_elements=10)
    assert [r.L for r in series.records] == [2, 4]
    assert series.status == "exhausted-budget"


# -- dual-restriction (erank) engines ----------------------------------------------------


def test_erank_examples():
    P = ModulePresentation(one_plus_2T())
    F1 = folner_set(Z, 1)
    assert quotient_span_rank(P.relations, eye(P), F1).value == 1
    assert erank_dual_restriction_dim(P, F1).value == 1
    zero = ModulePresentation(RingMatrix(Z, [[RingElem.zero(Z)]]))
    F3 = folner_set(Z, 3)
    assert quotient_span_rank(zero.relations, eye(zero), F3).value == 3
    assert erank_dual_restriction_dim(zero, F3).value == 3
    for L in (2, 4, 8):
        sd = erank_dual_restriction_dim(P, folner_set(Z, L))
        assert sd.stabilized and sd.value == 1


def test_erank_unit_over_q():
    # f = 2 is a unit over the rationals, so the quotient has no dual rank.
    P = ModulePresentation(RingMatrix(Z, [[zp((0, 2))]]))
    for L in (1, 3):
        assert quotient_span_rank(P.relations, eye(P), folner_set(Z, L)).value == 0
        assert erank_dual_restriction_dim(P, folner_set(Z, L)).value == 0


def test_erank_accepts_rational_rows():
    # Row scaling by a rational is invisible over the fraction field.
    half = RingElem.from_terms(Z, [((0,), Fraction(1, 2)), ((1,), 1)])  # (1 + 2T)/2
    P = ModulePresentation(RingMatrix(Z, [[half]]))
    F = folner_set(Z, 3)
    assert quotient_span_rank(P.relations, eye(P), F).value == 1
    assert erank_dual_restriction_dim(P, F).value == 1


def test_erank_equality_on_heisenberg():
    # Same check as the Z suite but over a noncommutative group.
    rng = random.Random(6)
    H = heisenberg()
    for i in range(3):
        f = random_ring_matrix(rng, H, 1, rng.choice((1, 2)), radius=1, coeff_bound=2, max_terms=2)
        P = ModulePresentation(f)
        F = folner_set(H, 1)
        span = quotient_span_rank(P.relations, eye(P), F, growth_steps=4, seed=i)
        dual = erank_dual_restriction_dim(P, F, growth_steps=4, seed=i)
        if span.stabilized and dual.stabilized:
            assert span.value == dual.value


def test_erank_series():
    P = ModulePresentation(one_plus_2T())
    series = erank_of_presentation(P, (4, 8, 16))
    assert [r.density for r in series.records] == [Fraction(1, 4), Fraction(1, 8), Fraction(1, 16)]
    assert series.limit_estimate == Fraction(1, 16)


@pytest.mark.xfail(
    strict=True,
    reason="erank's tolerance verdict reads two equal window values as convergence; "
    "ROADMAP items 1 and 5 (the certified bracket as the verdict) fix it",
)
def test_erank_does_not_converge_above_the_limit():
    # 1 - x^5 over Z presents a module of mean rank 0, and mrank and vnd
    # give 0 on both windows.  erank gives 1 on both and calls it converged.
    P = ModulePresentation(RingMatrix(Z, [[zp((0, 1), (5, -1))]]))
    assert [mrank_of_presentation(P, (2, 4)).limit_estimate, vnd_of_presentation(P, (2, 4)).limit_estimate] == [0, 0]
    series = erank_of_presentation(P, (2, 4))
    assert series.status != "converged" or series.limit_estimate == 0


@pytest.mark.xfail(
    strict=True,
    reason="the erank growth stops on two equal values above the restriction dimension; "
    "ROADMAP item 1 (erank as an upper bound) and item 5 (the growth loop's stop rule) fix it",
)
def test_erank_dual_restriction_matches_the_span_on_a_2x2_presentation():
    # f = [[0, 3T^-2], [0, -2T - T^2]] at F = {0}: the dual restriction
    # reports 2 as stabilized, while the quotient span of the identity, the
    # same value by the proof in its docstring, gives 1.
    f = RingMatrix(Z, [[RingElem.zero(Z), zp((-2, 3))], [RingElem.zero(Z), zp((1, -2), (2, -1))]])
    P = ModulePresentation(f)
    F = folner_set(Z, 1)
    assert quotient_span_rank(P.relations, eye(P), F).value == 1
    assert erank_dual_restriction_dim(P, F).value == 1


def test_erank_flagged_when_budget_too_small():
    # With no growth allowed, stabilization cannot be observed; the result is
    # flagged rather than guessed and the series reports exhausted-budget.
    P = ModulePresentation(one_plus_2T())
    sd = erank_dual_restriction_dim(P, folner_set(Z, 4), growth_steps=0)
    assert not sd.stabilized
    series = erank_of_presentation(P, (2, 4), growth_steps=0)
    assert series.status == "exhausted-budget"
    assert all(not r.stabilized for r in series.records)


def test_negative_growth_steps_is_an_input_error():
    P = ModulePresentation(one_plus_2T())
    F = folner_set(Z, 2)
    with pytest.raises(InputError, match="growth_steps"):
        quotient_span_rank(P.relations, eye(P), F, growth_steps=-1)
    with pytest.raises(InputError, match="growth_steps"):
        erank_dual_restriction_dim(P, F, growth_steps=-1)
    with pytest.raises(InputError, match="growth_steps"):
        quotient_span_rank(one_plus_2T(), RingMatrix(Z, [[zp((0, 1))]]), F, growth_steps=-1)
    with pytest.raises(InputError, match="growth_steps"):
        erank_of_presentation(P, (2, 4), growth_steps=-1)


@pytest.mark.parametrize("f", [RingMatrix(Z, [[RingElem.zero(Z)]]), RingMatrix(Z, [], cols=1)], ids=["zero", "free"])
def test_negative_growth_steps_is_an_input_error_without_relations(f):
    # The check comes before the shortcut for a module with no relations.
    P, F = ModulePresentation(f), folner_set(Z, 2)
    with pytest.raises(InputError, match="growth_steps"):
        quotient_span_rank(P.relations, eye(P), F, growth_steps=-1)
    with pytest.raises(InputError, match="growth_steps"):
        erank_dual_restriction_dim(P, F, growth_steps=-1)
    with pytest.raises(InputError, match="growth_steps"):
        erank_of_presentation(P, (2, 4), growth_steps=-1)
    with pytest.raises(InputError, match="growth_steps"):
        quotient_span_rank(f, RingMatrix(Z, [[zp((0, 1))]]), F, growth_steps=-1)
    # And before the shortcut for generators with no window translates.
    with pytest.raises(InputError, match="growth_steps"):
        quotient_span_rank(one_plus_2T(), RingMatrix(Z, [[RingElem.zero(Z)]]), F, growth_steps=-1)


def test_erank_dims_nonincreasing_in_window():
    # The window estimates decrease toward the stabilized value.
    f = RingMatrix(Z, [[zp((0, 1), (1, 2)), zp((0, 3), (2, -1))]])
    P = ModulePresentation(f)
    F = folner_set(Z, 3)
    values = []
    finv = inverse_set(Z, F.elements)
    E = _initial_erank_window(Z, finv, sorted(support(f)))
    finv_set = set(map(tuple, finv.tolist()))
    for _ in range(5):
        elems = list(map(tuple, E.tolist()))
        C = _sparse(*ref_dual_constraint_matrix(f, elems))
        # Columns are (k, w) for k < 2 and w in E, coordinate-major.
        keep = [k * len(E) + i for k in range(2) for i, w in enumerate(elems) if w not in finv_set]
        v = 2 * len(F) - rank_q(C).rank + rank_q(C.submatrix(range(C.rows), keep)).rank
        values.append(v)
        E = dilate(Z, E)
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert values[-1] == erank_dual_restriction_dim(P, F).value


def _sparse(shape, entries) -> SparseIntMatrix:
    keys = list(entries)
    return SparseIntMatrix(*shape, [i for i, _ in keys], [j for _, j in keys], [entries[k] for k in keys])


def _restriction_dims(P, F, growth_steps):
    """The span and dual erank values by one formula, n|F| - rank M_E +
    rank(M_E without its F^{-1} part) grown over E: for the span M_E is the
    right window on E less its rows at F^{-1}, for the dual the reference
    dual-constraint matrix on E less its columns at F^{-1}."""
    spec, F = P.spec, coords_of(P.spec, F)
    if not support(P.relations):
        return (StabilizedDim(P.n * len(F), True, 0, 0),) * 2
    finv = inverse_set(spec, F)
    f, in_finv = integral_rows(P.relations), set(map(tuple, finv.tolist())).__contains__

    def restricted(M, kept):
        return P.n * len(F) - rank_q(M).rank + rank_q(kept).rank

    def span(E, step):
        W = right_window_matrix(f, E)
        keep = [i for i, (_, w) in enumerate(_blocked(W.row_coords, W.row_blocks)) if not in_finv(w)]
        return restricted(W.data, W.data.submatrix(keep, range(W.data.cols)))

    def dual(E, step):
        C = _sparse(*ref_dual_constraint_matrix(f, list(map(tuple, E.tolist()))))
        keep = [i for i, (_, w) in enumerate(_blocked(E, P.n)) if not in_finv(w)]
        return restricted(C, C.submatrix(range(C.rows), keep))

    E0 = _initial_erank_window(spec, finv, f.terms().support)
    return tuple(
        _stabilize_all(spec, [E0], lambda _, Es, step: [value(*Es, step)], [growth_steps])[0] for value in (span, dual)
    )


def _blocked(elems, blocks):
    return [(b, tuple(w)) for b in range(blocks) for w in elems.tolist()]


@settings(max_examples=300, deadline=None)
@given(case=window_cases(), growth_steps=st.sampled_from((0, 1, 2, 3)), seed=st.integers(0, 3))
def test_erank_engines_match_the_restriction_formula(case, growth_steps, seed):
    # Every family, m = 0, zero f, empty windows and growth_steps 0 are drawn.
    f, F = case
    P = ModulePresentation(f)
    span, dual = _restriction_dims(P, F, growth_steps)
    assert quotient_span_rank(P.relations, eye(P), F, growth_steps, seed) == span
    assert erank_dual_restriction_dim(P, F, growth_steps, seed) == dual


@st.composite
def erank_schedules(draw):
    """A presentation over any group family with 0-3 relation rows and 1-2
    columns (so m > n is drawn, and a zero f one time in six) and a schedule
    of one to three windows."""
    spec = draw(st.sampled_from(SPECS))
    f = _matrix(draw, spec, m=draw(st.integers(0, 3)))
    top = 2 if spec.family == "Heisenberg" else 4
    return ModulePresentation(f), sorted(draw(st.sets(st.integers(1, top), min_size=1, max_size=3)))


@settings(max_examples=200, deadline=None)
@given(case=erank_schedules(), growth_steps=st.integers(0, 3), seed=st.integers(0, 3))
def test_erank_series_gives_each_window_its_value_alone(case, growth_steps, seed):
    # The series grows all of its windows in one batch; each record is the
    # window's own erank_dual_restriction_dim.
    P, schedule = case
    series = erank_of_presentation(P, schedule, seed=seed, growth_steps=growth_steps)
    assert [r.L for r in series.records] == schedule
    for r in series.records:
        F = folner_set(P.spec, r.L)
        alone = erank_dual_restriction_dim(P, F, growth_steps, seed)
        assert (r.f_size, r.numerator, r.density, r.stabilized) == (
            len(F), alone.value, Fraction(alone.value, len(F)), alone.stabilized
        )


def test_erank_dual_grows_from_an_empty_interior():
    # f = (1 + T^-2; T) over Z and F = {0}: E0 = {-1, 0, 2} has no u with
    # u + {-2, 0, 1} inside it, so the first W has no columns and the value
    # starts at n|F| = 1.  W anchored on E0 itself would give 0 there.
    f = RingMatrix(Z, [[zp((-2, 1), (0, 1))], [zp((1, 1))]])
    P, F, K = ModulePresentation(f), folner_set(Z, 1), f.terms().support
    E0 = _initial_erank_window(Z, inverse_set(Z, F.coords), K)
    assert E0.tolist() == [[-1], [0], [2]] and ranks._interior(Z, E0, K).tolist() == []
    assert erank_dual_restriction_dim(P, F, growth_steps=0) == StabilizedDim(1, False, 0, 3)
    assert erank_dual_restriction_dim(P, F) == StabilizedDim(0, True, 2, 8)
    assert _restriction_dims(P, F, 0)[1] == StabilizedDim(1, False, 0, 3)
    assert _restriction_dims(P, F, ranks.DEFAULT_GROWTH_STEPS)[1] == StabilizedDim(0, True, 2, 8)


# -- rationality snaps --------------------------------------------------------------------


def test_snap_examples():
    P2 = ModulePresentation(xy_minus_one())
    series = vnd_of_presentation(P2, (8, 16, 32), tolerance=Fraction(1, 8))
    snap = rationality_snap(series, Z2)
    assert snap.grid_denominator == 1
    assert snap.snapped == 1
    assert snap.residual == Fraction(63, 1024)

    fc = RingMatrix(C2, [[RingElem.from_terms(C2, [((0,), 1), ((1,), 1)])]])
    sc = vnd_of_presentation(ModulePresentation(fc), (1, 2))
    snap = rationality_snap(sc, C2)
    assert snap.snapped == Fraction(1, 2) and snap.residual == 0

    free = mrank_of_presentation(ModulePresentation.free(Z, 2), (2, 4))
    snap = rationality_snap(free, Z)
    assert snap.snapped == 2 and snap.residual == 0


def test_snap_residual_bound():
    snap = rationality_snap(Fraction(7, 10), finite_cyclic(2))
    assert snap.residual <= Fraction(1, 2 * snap.grid_denominator)


# -- oracles -----------------------------------------------------------------------------


def test_oracle_values():
    assert oracle_value(ModulePresentation(xy_minus_one())) == 1
    assert oracle_value(ModulePresentation.free(Z, 3)) == 3
    fc = RingMatrix(C2, [[RingElem.from_terms(C2, [((0,), 1), ((1,), 1)])]])
    assert oracle_value(ModulePresentation(fc)) == Fraction(1, 2)


def test_oracle_of_a_free_module_is_n():
    for spec in (Z2, finite_cyclic(2, 3), zd(0)):
        for n in (1, 3):
            assert oracle_value(ModulePresentation.free(spec, n)) == n


def test_oracle_of_a_5x5_matrix_with_fractions_is_pinned():
    # Rows 4 and 5 are r1.x + r3 and r1/2 + r2.y, so the generic rank is 3;
    # 5 rows take the random-evaluation path, each row scaled to integers.
    def e(*terms):
        return RingElem.from_terms(Z2, terms)

    x, y, one, z = e(((1, 0), 1)), e(((0, 1), 1)), e(((0, 0), 1)), RingElem.zero(Z2)
    a = e(((0, 0), Fraction(1, 2)), ((1, 0), Fraction(-2, 3)))
    b = e(((0, 1), Fraction(3, 4)), ((-1, 0), 5))
    c = e(((1, 1), Fraction(-1, 6)), ((0, 0), 2))
    d = e(((2, 0), Fraction(7, 5)))
    r1, r2, r3 = [a, b, z, c, one], [z, c, d, x, Fraction(1, 3) * y], [b, z, a, y, d]
    r4 = [p * x + q for p, q in zip(r1, r3)]
    r5 = [Fraction(1, 2) * p + q * y for p, q in zip(r1, r2)]
    P = ModulePresentation(RingMatrix(Z2, [r1, r2, r3, r4, r5]))
    assert [oracle_value(P, seed=seed) for seed in range(4)] == [2] * 4


def test_oracle_convergence_bound_small():
    P = ModulePresentation(xy_minus_one())
    oracle = oracle_value(P)
    for L in (4, 8):
        d = kernel_density(P, folner_set(Z2, L))
        assert abs(d - oracle) <= Fraction(4, L)


def test_finite_times_z_exact_half():
    # Over C2 x Z with f = 1 + t (t the torsion generator), the window kernel
    # splits into one odd vector per free coordinate: density 1/2 at every L,
    # and all three engines agree on the (1/2)Z grid.
    from folrank.groups import finite_times_zd

    spec = finite_times_zd((2,), 1)
    t = RingElem.from_terms(spec, [((0, 0), 1), ((1, 0), 1)])
    P = ModulePresentation(RingMatrix(spec, [[t]]))
    for L in (1, 2, 4):
        F = folner_set(spec, L)
        assert kernel_density(P, F) == Fraction(1, 2)
        assert submodule_density(P.relations, F, spec) == Fraction(1, 2)
        sd = erank_dual_restriction_dim(P, F)
        assert sd.stabilized and Fraction(sd.value, len(F)) == Fraction(1, 2)
    series = vnd_of_presentation(P, (2, 4))
    snap = rationality_snap(series, spec)
    assert snap.grid_denominator == 2 and snap.residual == 0


def test_finite_group_density_matches_regular_rep_exactly():
    rng = random.Random(4)
    for _ in range(5):
        f = random_ring_matrix(rng, finite_cyclic(2, 3), 2, 2, coeff_bound=2)
        P = ModulePresentation(f)
        assert kernel_density(P, folner_set(f.spec, 1)) == regular_rep_kernel(f)


# -- structural invariants -----------------------------------------------------------------


def test_inf_characterization_on_submodule_series():
    # Every submodule window density bounds the extrapolated limit from above.
    f = xy_minus_one()
    P = ModulePresentation(f)
    series = mrank_of_presentation(P, (2, 4, 8))
    sub_densities = [Fraction(r.numerator, r.f_size) for r in series.records]
    sub_limit = min(sub_densities)
    assert all(d >= sub_limit for d in sub_densities)
    assert series.limit_estimate == P.n - sub_limit
    mins = [min(sub_densities[: i + 1]) for i in range(len(sub_densities))]
    assert all(a >= b for a, b in zip(mins, mins[1:]))


def test_addition_formula_at_the_limit():
    # submodule density limit + quotient (kernel) limit = n, cross-engine.
    cases = [
        (ModulePresentation(one_plus_2T()), (4, 8, 16)),
        (ModulePresentation(RingMatrix(Z, [[zp((0, 2))]])), (4, 8, 16)),
        (ModulePresentation(xy_minus_one()), (4, 8, 16)),
    ]
    for P, schedule in cases:
        mr = mrank_of_presentation(P, schedule)
        vnd = vnd_of_presentation(P, schedule)
        sub_limit = min(Fraction(r.numerator, r.f_size) for r in mr.records)
        assert abs(sub_limit + vnd.limit_estimate - P.n) <= Fraction(2, schedule[-1])


def test_z_to_q_base_change_consistency():
    # Scaling generators by nonzero rationals changes neither window rank nor
    # density: the integral computation already is the fraction-field one.
    rng = random.Random(8)
    for _ in range(5):
        f = random_ring_matrix(rng, Z, 2, 2, radius=1, coeff_bound=3)
        F = folner_set(Z, 3)
        base = submodule_density(f, F, Z)
        scaled = [
            tuple(e * Fraction(rng.randint(1, 5), rng.randint(1, 5)) for e in row)
            for row in f.entries
        ]
        assert submodule_density(RingMatrix(Z, scaled), F, Z) == base


def test_quotient_span_rank_free_and_torsion():
    zero = RingMatrix(Z, [], cols=1)
    F = folner_set(Z, 3)
    A = RingMatrix(Z, [[zp((0, 1))]])
    q = quotient_span_rank(zero, A, F)
    assert q.value == 3 and q.stabilized
    # Quotient by the full ring: everything dies.
    one = RingMatrix(Z, [[RingElem.one(Z)]])
    q = quotient_span_rank(one, A, F)
    assert q.value == 0 and q.stabilized


def _span_plus_image_by_nullspace(A, B, C, s: int, n: int) -> int:
    """dim(rowspan A + B.ker C) from an explicit rational kernel basis."""
    images = []
    for g in nullspace_q(SparseIntMatrix.from_dense(C, cols=n)):
        img = [sum(Fraction(B[r][j]) * g[j] for j in range(n)) for r in range(s)]
        scale = lcm(*[x.denominator for x in img])
        images.append([int(x * scale) for x in img])
    return rank_q(SparseIntMatrix.from_dense(list(A) + images, cols=s)).rank


def _matrices(draw, rows: int, cols: int, zero: bool):
    entry = st.sampled_from((0, 0, 0, 1, -1, 2, -2, 3))
    return [[0 if zero else draw(entry) for _ in range(cols)] for _ in range(rows)]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_block_rank_identity(data):
    # dim(rowspan A + B.ker C) = rank [[C, 0], [B, A^T]] - rank C, the identity
    # behind quotient_span_rank.
    draw = data.draw
    a, s = draw(st.integers(0, 3)), draw(st.integers(1, 4))
    n, t = draw(st.integers(1, 4)), draw(st.integers(0, 4))
    A = _matrices(draw, a, s, draw(st.booleans()))
    B = _matrices(draw, s, n, draw(st.booleans()))
    if draw(st.booleans()):
        # C of full column rank: ker C = 0 and the value is rank A.
        t = n + draw(st.integers(0, 1))
        C = [[int(i == j) for j in range(n)] for i in range(n)] + _matrices(draw, t - n, n, False)
    else:
        C = _matrices(draw, t, n, draw(st.booleans()))
    big = [row + [0] * a for row in C] + [B[r] + [A[i][r] for i in range(a)] for r in range(s)]
    rank_c = rank_q(SparseIntMatrix.from_dense(C, cols=n)).rank
    new = rank_q(SparseIntMatrix.from_dense(big)).rank - rank_c
    assert new == _span_plus_image_by_nullspace(A, B, C, s, n)


def _quotient_span_rank_reference(f, B, F, growth_steps, seed):
    """quotient_span_rank from an explicit rational kernel basis of the out
    rows, mapped into V's layout and stacked with V."""
    spec, rows = f.spec, B.entries
    felems = list(map(tuple, coords_of(spec, F).tolist()))
    V = submodule_rank_matrix(B, F, spec)
    if V.cols == 0:
        return StabilizedDim(0, True, 0, 0)
    if not support(f):
        return StabilizedDim(rank_q(V).rank, True, 0, 0)
    inv, mul = spec.inverse, spec.mul
    support_cols = sorted(
        {mul(inv(s), u) for s in felems for row in rows for e in row for u in e.coeffs}
    )
    s_set = set(support_cols)
    s_pos = {g: i for i, g in enumerate(support_cols)}
    width = len(support_cols)
    E0 = _initial_erank_window(spec, support_cols, sorted(support(f)))

    def value(E, step):
        rng = derived_rng(seed, "quotient-span", len(E), step)
        W = right_window_matrix(f, E)
        row_index = [(k, tuple(w)) for k in range(W.row_blocks) for w in W.row_coords.tolist()]
        out_rows = [i for i, (_, w) in enumerate(row_index) if w not in s_set]
        rank_all = rank_q(W.data, rng=rng).rank
        r_out = W.data.submatrix(out_rows, range(W.data.cols))
        dim_n = rank_all - rank_q(r_out, rng=rng).rank
        stacked = dict(zip(zip(V.ii.tolist(), V.jj.tolist()), V.vals.tolist()))
        row_base = V.rows
        for g in nullspace_q(r_out):
            img: dict[int, Fraction] = {}
            for i, j, v in zip(W.data.ii.tolist(), W.data.jj.tolist(), W.data.vals.tolist()):
                k, w = row_index[i]
                if w in s_set and g[j]:
                    col = k * width + s_pos[w]
                    img[col] = img.get(col, Fraction(0)) + g[j] * v
            scale = lcm(*[x.denominator for x in img.values()]) if img else 1
            for col, x in img.items():
                if x:
                    stacked[(row_base, col)] = int(x * scale)
            row_base += 1
        ii, jj = zip(*stacked) if stacked else ((), ())
        stacked_matrix = SparseIntMatrix(row_base, V.cols, ii, jj, list(stacked.values()))
        return rank_q(stacked_matrix, rng=rng).rank - dim_n

    return _stabilize_all(spec, [E0], lambda _, Es, step: [value(*Es, step)], [growth_steps])[0]


def _quotient_case(rng: random.Random):
    """A small f over Z or Z^2, generators A and a Folner set F.  Some rows of
    A are multiples of rows of f, so they collapse in the quotient; the rest
    are random."""
    spec = rng.choice((Z, Z2))
    m, n = rng.randint(1, 2), rng.randint(1, 2)
    small = dict(radius=1, coeff_bound=2, max_terms=2)
    f = random_ring_matrix(rng, spec, m, n, **small)
    A = [
        tuple(random_ring_elem(rng, spec, **small) * x for x in rng.choice(f.entries))
        for _ in range(rng.randint(0, 2))
    ]
    A += random_ring_matrix(rng, spec, rng.randint(1, 2), n, **small).entries
    return f, RingMatrix(spec, A, cols=n), folner_set(spec, rng.randint(2, 3))


def test_quotient_span_rank_matches_nullspace_reference():
    rng = random.Random(5)
    for i in range(20):
        f, A, F = _quotient_case(rng)
        for growth_steps in (6, 14):
            new = quotient_span_rank(f, A, F, growth_steps=growth_steps, seed=i)
            assert new == _quotient_span_rank_reference(f, A, F, growth_steps, seed=i), i
    # Fraction coefficients in f and in A: row integralization and row scaling.
    half = Fraction(1, 2)
    f = RingMatrix(Z2, [[RingElem.from_terms(Z2, [((0, 0), half), ((1, 0), Fraction(-1, 3))])]])
    A = RingMatrix(Z2, [[RingElem.from_terms(Z2, [((0, 0), Fraction(2, 5)), ((0, 1), 1)])], [f.entries[0][0]]])
    F = folner_set(Z2, 2)
    for growth_steps in (6, 14):
        new = quotient_span_rank(f, A, F, growth_steps=growth_steps, seed=3)
        assert new == _quotient_span_rank_reference(f, A, F, growth_steps, seed=3)


# f with no unit entry: its windows' cores do not merge and go modular.
_NO_UNITS = {
    Z: RingMatrix(Z, [[zp((0, 2), (1, 3))], [zp((0, 5), (2, 7))]]),
    Z2: RingMatrix(
        Z2,
        [
            [RingElem.from_terms(Z2, [((0, 0), 2), ((1, 0), 3)])],
            [RingElem.from_terms(Z2, [((0, 0), 5), ((0, 1), 7)])],
        ],
    ),
}
_BATCH_KINDS = ("random", "zero f", "no relations", "empty V", "modular")


def _batch_case(rng: random.Random, kind: str):
    """An (f, B, F) case of one kind for the quotient batch."""
    if kind == "modular":
        spec = rng.choice((Z, Z2))
        B = RingMatrix(spec, [[random_ring_elem(rng, spec, radius=1, coeff_bound=3)] for _ in range(rng.randint(1, 2))])
        return _NO_UNITS[spec], B, folner_set(spec, 40 if spec.d == 1 else 4)
    f, B, F = _quotient_case(rng)
    if kind == "zero f":
        f = RingMatrix(f.spec, [[RingElem.zero(f.spec)] * f.cols] * f.rows)
    elif kind == "no relations":
        f = RingMatrix(f.spec, [], cols=f.cols)
    elif kind == "empty V":
        B = RingMatrix(f.spec, [[RingElem.zero(f.spec)] * f.cols])
    return f, B, F


def _terms_case(f, B, F, growth_steps, seed):
    """A quotient-span case as the batch takes it: f and B as ``Terms``."""
    return f.terms(), B.terms(), F, growth_steps, seed


def _record_rank_rngs(mp) -> dict:
    """Make ``ranks`` record every rank generator it makes, by key."""
    made = {}

    def make(seed, *tags):
        made[(seed, *tags)] = rng = _RankRng(seed, *tags)
        return rng

    mp.setattr(ranks, "_RankRng", make)
    return made


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_quotient_batch_matches_each_case_alone(data):
    kinds = data.draw(st.lists(st.sampled_from(_BATCH_KINDS), min_size=1, max_size=6))
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    cases = []
    for i, kind in enumerate(kinds):
        f, B, F = _batch_case(rng, kind)
        growth_steps = data.draw(st.integers(0, 2 if kind == "modular" else 5))
        cases.append((f.spec, (f, B, F, growth_steps, 7 * i)))
    with pytest.MonkeyPatch.context() as mp:
        batch_rngs = _record_rank_rngs(mp)
        batch = ranks._by_group([(spec, _terms_case(*case)) for spec, case in cases], ranks._quotient_span_ranks)
        alone_rngs = _record_rank_rngs(mp)
        alone = [quotient_span_rank(*case) for _, case in cases]
    assert batch == alone
    # Each case drew from its own generators as it does alone.
    assert batch_rngs.keys() == alone_rngs.keys()
    for key, made in batch_rngs.items():
        assert made.getrandbits(32) == alone_rngs[key].getrandbits(32), key


def test_quotient_span_rank_rejects_generators_of_another_width():
    f, F = RingMatrix(Z, [[zp((0, 1)), zp((1, 2))]]), folner_set(Z, 2)
    with pytest.raises(InputError, match="numbers of columns"):
        quotient_span_rank(f, RingMatrix(Z, [[zp((0, 1))]]), F)
    # In a batch, where the block of one case could reach into the next.
    good = _terms_case(one_plus_2T(), RingMatrix(Z, [[zp((0, 1))]]), F, 2, 0)
    with pytest.raises(InputError, match="case 1"):
        ranks._quotient_span_ranks(Z, [good, _terms_case(f, RingMatrix(Z, [[zp((0, 1))]]), F, 2, 1), good])


def test_quotient_batch_draws_primes_case_by_case():
    rng = random.Random(3)
    cases = [_batch_case(rng, kind) for kind in ("modular", "random", "modular", "modular")]
    cases = [(f, B, F, 1, 5 * i) for i, (f, B, F) in enumerate(cases)]
    with pytest.MonkeyPatch.context() as mp:
        made = _record_rank_rngs(mp)
        batch = ranks._by_group([(case[0].spec, _terms_case(*case)) for case in cases], ranks._quotient_span_ranks)
    # The cores without unit entries went modular and drew primes.
    assert any(r._rng is not None for r in made.values())
    assert batch == [quotient_span_rank(*case) for case in cases]


def test_an_unstabilized_value_reports_the_last_window_evaluated(monkeypatch):
    dilated, evaluated = [], []

    def recording_dilate(spec, E):
        dilated.append(len(E))
        return dilate(spec, E)

    def value(E, step):
        evaluated.append(len(E))
        return step  # never repeats

    monkeypatch.setattr(ranks, "dilate", recording_dilate)
    E0 = folner_set(Z2, 2).coords
    assert _stabilize_all(Z2, [E0], lambda _, Es, step: [value(*Es, step)], [3]) == [
        StabilizedDim(3, False, 3, evaluated[-1])
    ]
    assert evaluated == [4, 16, 36, 64]
    # No dilate follows the last step.
    assert dilated == evaluated[:-1]
    # The batch, and quotient_span_rank as its batch of one, likewise.
    f, B, F = one_plus_2T(), RingMatrix(Z, [[zp((0, 1))]]), folner_set(Z, 3)
    E0 = _initial_erank_window(Z, ranks._generator_windows(Z, [(B.terms(), F)])[3][0], f.terms().support)
    unstabilized = StabilizedDim(1, False, 0, len(E0))
    assert quotient_span_rank(f, B, F, growth_steps=0) == unstabilized
    batch = ranks._quotient_span_ranks(Z, [_terms_case(f, B, F, 0, 0), _terms_case(f, B, F, 4, 0)])
    assert batch == [unstabilized, quotient_span_rank(f, B, F)]


@pytest.mark.parametrize(
    "spec",
    [Z, Z2, zd(0), finite_cyclic(2, 3), finite_times_zd((2,), 1), finite_times_zd((3,), 0), heisenberg()],
    ids=lambda s: s.family + str(s.d),
)
def test_saturated_windows_are_those_dilate_leaves(spec):
    rng = random.Random(4)
    whole = folner_set(spec, 1).coords
    windows = [whole[:0], whole, whole[:1]]
    for _ in range(8):
        windows.append(unique_rows(whole[rng.sample(range(len(whole)), rng.randint(1, len(whole)))])[0])
    for E in windows:
        assert _saturated(spec, E) == (len(dilate(spec, E)) == len(E)), E.tolist()


# quotient_span_rank of the 100 superadditivity cases at job seeds 0-3, recorded
# when each case was ranked alone: value, steps and window size, case by case.
# Every case stabilized.
_SUPERADD_QUOTIENTS = {
    0: (
        (
            "0 0 3 0 0 0 2 3 2 5 3 4 0 0 0 9 0 0 0 0 3 8 3 9 3 18 1 0 2 0 2 0 0 0 0 6 0 0 0 0 0 0 0 0 "
            "0 4 0 0 0 9 0 4 2 9 3 4 0 6 0 16 0 9 3 4 1 0 0 0 3 2 4 0 2 2 2 4 0 0 2 0 0 9 0 0 3 0 0 4 "
            "0 0 3 18 0 9 0 4 0 7 2 0"
        ),
        (
            "1 0 1 1 1 0 0 1 1 1 0 0 0 1 1 1 1 0 1 1 1 0 1 1 0 1 1 2 1 1 1 1 0 1 1 2 0 0 0 0 0 1 1 1 "
            "1 1 1 1 3 0 1 1 1 0 0 1 1 1 1 0 1 1 1 1 1 1 1 1 0 1 1 1 1 1 0 1 1 0 0 1 1 1 1 1 1 1 1 0 "
            "0 0 1 0 1 1 1 1 1 1 1 1"
        ),
        (
            "8 0 8 43 7 0 0 42 9 35 0 0 0 59 6 47 5 0 7 66 5 0 9 40 0 51 7 109 9 34 7 61 0 51 7 77 0 "
            "0 0 0 0 41 8 32 7 47 5 62 14 0 8 35 8 0 0 52 8 65 5 0 8 59 7 33 7 32 6 34 0 29 6 34 6 29 "
            "0 52 9 0 0 20 6 47 5 51 9 45 4 0 0 0 9 0 4 68 10 49 5 64 11 32"
        ),
    ),
    1: (
        (
            "0 16 3 0 0 0 0 0 4 9 0 0 0 0 0 0 2 0 0 0 2 9 0 0 2 4 3 9 1 0 0 0 2 0 0 0 1 9 3 9 0 9 0 0 "
            "3 9 2 4 2 0 0 7 2 3 0 0 0 9 2 18 0 4 0 0 0 8 0 0 0 2 0 4 3 0 0 2 4 0 0 9 4 0 0 0 2 4 0 9 "
            "3 9 6 4 6 9 0 12 2 0 0 4"
        ),
        (
            "1 1 0 0 1 1 1 2 0 0 1 0 1 1 1 0 1 0 1 0 1 1 1 0 1 0 0 0 1 1 1 0 1 1 1 1 1 0 1 1 1 0 1 1 "
            "0 1 0 0 0 1 1 0 0 1 0 1 1 1 1 1 1 0 1 0 1 0 1 0 1 1 0 0 1 1 1 2 0 1 1 1 1 1 1 1 0 1 1 1 "
            "1 0 0 0 1 0 0 1 1 1 1 1"
        ),
        (
            "8 55 0 0 4 68 10 105 0 0 6 0 4 43 8 0 7 0 7 0 9 60 4 0 7 0 0 0 5 33 5 0 10 35 6 52 8 0 5 "
            "58 8 0 6 30 0 52 0 0 0 38 7 0 0 51 0 44 6 51 11 74 6 0 6 0 8 0 7 0 5 33 0 0 7 89 9 60 0 "
            "40 9 75 7 32 9 25 0 49 6 66 8 0 0 0 10 0 0 58 9 20 7 29"
        ),
    ),
    2: (
        (
            "3 8 0 8 1 0 0 0 2 6 3 4 2 4 0 0 2 9 6 0 4 8 2 0 0 0 0 0 3 4 0 9 0 14 0 4 0 2 0 8 0 3 3 "
            "18 0 0 0 4 0 0 3 12 2 7 0 0 3 3 0 8 2 0 0 0 0 0 3 0 0 0 0 0 0 4 0 8 0 7 0 2 3 0 0 0 3 0 "
            "2 2 2 0 2 0 0 9 0 5 0 0 6 0"
        ),
        (
            "0 1 1 1 1 1 1 1 1 1 0 1 0 1 0 1 1 0 0 1 1 1 0 1 0 1 1 1 1 1 0 1 1 1 1 0 1 1 1 0 2 1 0 1 "
            "1 0 1 0 1 0 0 0 1 1 1 1 0 1 0 1 0 1 1 0 1 1 1 1 1 1 1 0 0 1 0 0 1 1 1 2 1 1 1 1 1 1 1 1 "
            "0 1 1 1 1 0 1 1 1 1 1 1"
        ),
        (
            "0 53 8 38 9 54 7 47 9 61 0 54 0 23 0 48 7 0 0 45 8 61 0 37 0 41 7 34 10 40 0 59 6 40 8 0 "
            "6 47 5 0 9 30 0 72 8 0 8 0 6 0 0 0 7 87 7 52 0 34 0 56 0 48 7 0 8 46 9 23 8 70 8 0 0 16 "
            "0 0 7 80 5 83 6 60 8 59 10 37 6 24 0 45 6 40 8 0 8 79 5 34 9 40"
        ),
    ),
    3: (
        (
            "2 17 0 0 5 0 0 9 0 7 4 9 2 0 6 0 3 0 0 4 3 0 0 5 2 7 3 4 3 0 1 4 2 15 0 0 0 4 0 4 0 8 4 "
            "4 3 9 0 4 0 2 0 0 2 3 0 4 2 0 1 6 0 4 2 0 2 9 2 0 0 0 2 9 0 4 0 9 0 4 0 8 0 4 0 0 2 9 2 "
            "0 2 0 0 0 0 0 0 6 1 0 0 10"
        ),
        (
            "1 0 1 1 0 0 0 1 1 1 1 0 1 1 0 0 1 1 1 0 1 1 1 1 1 1 1 1 1 1 1 1 0 1 1 1 0 1 1 1 0 1 0 1 "
            "0 1 1 0 0 1 1 1 1 1 1 0 1 1 1 1 1 0 1 1 0 1 0 1 1 1 1 1 1 0 0 1 1 1 1 0 1 1 1 1 1 0 1 0 "
            "0 1 1 1 1 1 1 1 1 1 1 1"
        ),
        (
            "9 0 8 23 0 0 0 51 7 78 9 0 9 50 0 0 7 78 9 0 9 49 7 59 4 49 7 66 8 69 6 41 0 49 6 42 0 "
            "38 7 52 0 112 0 45 0 73 7 0 0 88 5 16 5 41 7 0 6 25 7 88 6 0 7 60 0 53 0 23 5 30 8 99 9 "
            "0 0 76 5 75 5 0 6 42 6 41 7 0 9 0 0 33 6 56 9 60 6 43 6 38 9 82"
        ),
    ),
}


@pytest.mark.parametrize("seed", range(4))
def test_superadditivity_quotients_pinned(seed, monkeypatch):
    seen = {}
    batch = ranks._quotient_span_ranks

    def recording(spec, cases):
        out = batch(spec, cases)
        seen.update((case[4], q) for case, q in zip(cases, out))
        return out

    monkeypatch.setattr(ranks, "_quotient_span_ranks", recording)
    assert run_superadditivity_suite(seed).passed
    qs = [seen[seed + i] for i in range(100)]
    assert all(q.stabilized for q in qs)
    got = tuple(" ".join(str(getattr(q, name)) for q in qs) for name in ("value", "steps", "window_size"))
    assert got == _SUPERADD_QUOTIENTS[seed]


# -- randomized suites (small smoke runs; acceptance runs the full sizes) ------------------


def run_dual_rank_equality_suite(seed: int, cases: int = 50) -> SuiteResult:
    """Randomized check that the span dimension and the dual-restriction
    dimension agree on every stabilized window."""
    spec = zd(1)
    result = SuiteResult("dual-rank-equality", cases)
    for i in range(cases):
        rng = derived_rng(seed, "dual-rank", i)
        n = rng.choice((1, 2))
        f = random_ring_matrix(rng, spec, 1, n, radius=2, coeff_bound=3)
        L = rng.randint(1, 4)
        F = folner_set(spec, L)
        P = ModulePresentation(f)
        span = quotient_span_rank(P.relations, eye(P), F, growth_steps=DEFAULT_GROWTH_STEPS, seed=seed + i)
        dual = erank_dual_restriction_dim(P, F, growth_steps=DEFAULT_GROWTH_STEPS, seed=seed + i)
        if not (span.stabilized and dual.stabilized):
            result.flagged += 1
        elif span.value != dual.value:
            result.failures.append(f"case {i}: span {span.value} != dual {dual.value} (L={L})")
    return result


def test_suites_small():
    assert run_identity_suite(11, cases=12).passed
    assert run_superadditivity_suite(11, cases=12).passed
    assert run_submodularity_suite(11, cases=12).passed
    r = run_dual_rank_equality_suite(11, cases=12)
    assert r.passed and r.flagged <= 1


# The sha256 of the JSON list of the ranks that each ranks.block_ranks call
# returns, call by call, in one verify-suite --cases 100 pass at each job
# seed: the submodule ranks and the window ranks behind the kernel
# dimensions, built in batches of up to 250 parts.
_SUITE_RANKS = {
    0: "3b7145bc0a86c95b898fd97dc456cbd17aa1a63c2a12d2092f2b94540fb4cfb0",
    1: "ac9197cb17d3adae960d975d6258ac2724578067b732e905c0a9b3c64b805342",
    2: "93c3fda897f6e43e04bbb60a4a8d10bdfaac5c3c85926974cae25d1a529a6f13",
    3: "0f264f84b6833a530de88c0799efbf3d2cfb0399869437b3cdd1640ba4ca0b30",
}


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_verify_suite_results_pinned(seed, monkeypatch):
    # verify-suite --cases 100 at job seeds 0-3, recorded before the suites
    # drew their cases first and built and ranked them in batches.
    seen = []
    block_ranks = ranks.block_ranks

    def recording(*args):
        out = block_ranks(*args)
        seen.append([c.rank for c in out])
        return out

    monkeypatch.setattr(ranks, "block_ranks", recording)
    suites = (run_identity_suite(seed), run_superadditivity_suite(seed), run_submodularity_suite(seed))
    assert [(s.name, s.cases, s.failures, s.flagged) for s in suites] == [
        ("per-window-identity", 100, [], 0),
        ("superadditivity", 100, [], 0),
        ("submodularity", 100, [], 0),
    ]
    assert hashlib.sha256(json.dumps(seen).encode()).hexdigest() == _SUITE_RANKS[seed]


def test_rank_generators_are_built_at_their_first_draw(monkeypatch):
    built = []

    def recording(*key):
        built.append(key)
        return derived_rng(*key)

    monkeypatch.setattr(ranks, "derived_rng", recording)
    rng = ranks._RankRng(5, "vnd", 8)
    assert built == []
    assert rng.getrandbits(32) == derived_rng(5, "vnd", 8).getrandbits(32)
    assert built == [(5, "vnd", 8)]
    # The binomial window ranks fraction-free, so its generator is never built.
    vnd_of_presentation(ModulePresentation(xy_minus_one()), (4, 8), seed=5)
    assert built == [(5, "vnd", 8)]


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_identity_property(seed):
    rng = random.Random(seed)
    spec = (Z, Z2)[seed % 2]
    f = random_ring_matrix(rng, spec, rng.randint(1, 2), rng.randint(1, 2), radius=1, coeff_bound=2)
    assert identity_check(f, folner_set(spec, 2))
