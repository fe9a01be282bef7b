import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from folrank import ranks
from folrank.errors import InputError
from folrank.exactla import SparseIntMatrix, nullspace_q, rank_q
from folrank.groupring import RingElem, RingMatrix, right_window_matrix
from folrank.groups import coords_of, finite_cyclic, folner_set, heisenberg, zd
from folrank.ranks import (
    GeneratorList,
    ModulePresentation,
    StabilizedDim,
    _initial_erank_window,
    _rows_of,
    _stabilize,
    derived_rng,
    window_kernel_density,
    erank_dual_restriction_dim,
    erank_of_presentation,
    erank_span_dim,
    mrank_of_presentation,
    oracle_value,
    per_window_identity_check,
    quotient_span_rank,
    random_ring_elem,
    random_ring_matrix,
    rationality_snap,
    run_dual_rank_equality_suite,
    run_identity_suite,
    run_submodularity_suite,
    run_superadditivity_suite,
    submodule_rank,
    submodule_rank_density,
    submodule_rank_matrix,
    vnd_of_presentation,
)

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


# -- submodule window densities ---------------------------------------------------


def test_submodule_density_examples():
    F4 = folner_set(Z, 4)
    A = [(zp((0, 2)),)]  # the single generator 2
    assert submodule_rank_density(A, F4, Z) == 1
    assert submodule_rank_density([(RingElem.zero(Z),)], F4, Z) == 0
    # rows of 1 + 2T generate a submodule of full density, so the quotient
    # module has mean rank 0.
    assert submodule_rank_density(one_plus_2T().entries, F4, Z) == 1


def test_generator_list_validation():
    gl = GeneratorList(Z, ((zp((0, 1)),),))
    assert gl.n == 1
    with pytest.raises(InputError):
        GeneratorList(Z, ((zp((0, 1)),), (zp((0, 1)), zp((1, 1)))))


# -- kernel densities ----------------------------------------------------------------


def test_window_kernel_density_examples():
    P = ModulePresentation(one_plus_2T())
    for L in (2, 4, 8):
        assert window_kernel_density(P, folner_set(Z, L)) == 0
    zero = ModulePresentation(RingMatrix(Z, [[RingElem.zero(Z)]]))
    assert window_kernel_density(zero, folner_set(Z, 5)) == 1
    P2 = ModulePresentation(xy_minus_one())
    d = window_kernel_density(P2, folner_set(Z2, 4))
    assert 0 < d < 2
    assert d == Fraction(9, 16)  # (L-1)^2 / L^2 at L = 4


# -- the per-window identity -----------------------------------------------------------


def test_identity_examples():
    f = one_plus_2T()
    F = folner_set(Z, 4)
    assert submodule_rank(f.entries, F, Z)[0] == 4
    assert per_window_identity_check(f, F)
    zero = RingMatrix(Z, [[RingElem.zero(Z)]])
    assert per_window_identity_check(zero, F)


def test_identity_small_random_z2():
    rng = random.Random(5)
    for i in range(5):
        f = random_ring_matrix(rng, Z2, 2, 3, radius=1, coeff_bound=3, max_terms=3)
        assert per_window_identity_check(f, folner_set(Z2, 3), rng=derived_rng(9, "t", i))


def test_identity_heisenberg():
    rng = random.Random(2)
    for i in range(3):
        f = random_ring_matrix(rng, heisenberg(), 1, 2, radius=1, coeff_bound=2, max_terms=2)
        assert per_window_identity_check(f, folner_set(heisenberg(), 1))


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
    assert erank_span_dim(P, F1).value == 1
    assert erank_dual_restriction_dim(P, F1).value == 1
    zero = ModulePresentation(RingMatrix(Z, [[RingElem.zero(Z)]]))
    F3 = folner_set(Z, 3)
    assert erank_span_dim(zero, F3).value == 3
    assert erank_dual_restriction_dim(zero, F3).value == 3
    for L in (2, 4, 8):
        sd = erank_dual_restriction_dim(P, folner_set(Z, L))
        assert sd.stabilized and sd.value == 1


def test_erank_unit_over_q():
    # f = 2 is a unit over the rationals, so the quotient has no dual rank.
    P = ModulePresentation(RingMatrix(Z, [[zp((0, 2))]]))
    for L in (1, 3):
        assert erank_span_dim(P, folner_set(Z, L)).value == 0
        assert erank_dual_restriction_dim(P, folner_set(Z, L)).value == 0


def test_erank_accepts_rational_rows():
    # Row scaling by a rational is invisible over the fraction field.
    half = RingElem.from_terms(Z, [((0,), Fraction(1, 2)), ((1,), 1)])  # (1 + 2T)/2
    P = ModulePresentation(RingMatrix(Z, [[half]]))
    F = folner_set(Z, 3)
    assert erank_span_dim(P, F).value == 1
    assert erank_dual_restriction_dim(P, F).value == 1


def test_erank_equality_on_heisenberg():
    # Same check as the Z suite but over a noncommutative group.
    rng = random.Random(6)
    H = heisenberg()
    for i in range(3):
        f = random_ring_matrix(rng, H, 1, rng.choice((1, 2)), radius=1, coeff_bound=2, max_terms=2)
        P = ModulePresentation(f)
        F = folner_set(H, 1)
        span = erank_span_dim(P, F, growth_steps=4, seed=i)
        dual = erank_dual_restriction_dim(P, F, growth_steps=4, seed=i)
        if span.stabilized and dual.stabilized:
            assert span.value == dual.value


def test_erank_series():
    P = ModulePresentation(one_plus_2T())
    series = erank_of_presentation(P, (4, 8, 16))
    assert [r.density for r in series.records] == [Fraction(1, 4), Fraction(1, 8), Fraction(1, 16)]
    assert series.limit_estimate == Fraction(1, 16)


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
        erank_span_dim(P, F, growth_steps=-1)
    with pytest.raises(InputError, match="growth_steps"):
        erank_dual_restriction_dim(P, F, growth_steps=-1)
    with pytest.raises(InputError, match="growth_steps"):
        quotient_span_rank(one_plus_2T(), [(zp((0, 1)),)], F, growth_steps=-1)
    with pytest.raises(InputError, match="growth_steps"):
        erank_of_presentation(P, (2, 4), growth_steps=-1)


@pytest.mark.parametrize("f", [RingMatrix(Z, [[RingElem.zero(Z)]]), RingMatrix(Z, [], cols=1)], ids=["zero", "free"])
def test_negative_growth_steps_is_an_input_error_without_relations(f):
    # The check comes before the shortcut for a module with no relations.
    P, F = ModulePresentation(f), folner_set(Z, 2)
    with pytest.raises(InputError, match="growth_steps"):
        erank_span_dim(P, F, growth_steps=-1)
    with pytest.raises(InputError, match="growth_steps"):
        erank_dual_restriction_dim(P, F, growth_steps=-1)
    with pytest.raises(InputError, match="growth_steps"):
        erank_of_presentation(P, (2, 4), growth_steps=-1)
    with pytest.raises(InputError, match="growth_steps"):
        quotient_span_rank(f, [(zp((0, 1)),)], F, growth_steps=-1)
    # And before the shortcut for generators with no window translates.
    with pytest.raises(InputError, match="growth_steps"):
        quotient_span_rank(one_plus_2T(), [(RingElem.zero(Z),)], F, growth_steps=-1)


def test_erank_dims_nonincreasing_in_window():
    # The window estimates decrease toward the stabilized value.
    f = RingMatrix(Z, [[zp((0, 1), (1, 2)), zp((0, 3), (2, -1))]])
    P = ModulePresentation(f)
    F = folner_set(Z, 3)
    values = []
    from folrank.groups import dilate, inverse_set
    from folrank.ranks import _dual_constraint_matrix, _initial_erank_window
    from folrank.exactla import rank_q

    finv = inverse_set(Z, F.elements)
    E = _initial_erank_window(Z, finv, sorted(f.support()))
    finv_set = set(map(tuple, finv.tolist()))
    for _ in range(5):
        C = _dual_constraint_matrix(f, E)
        # Columns are (k, w) for k < 2 and w in E, coordinate-major.
        keep = [k * len(E) + i for k in range(2) for i, w in enumerate(map(tuple, E.tolist())) if w not in finv_set]
        v = 2 * len(F) - rank_q(C).rank + rank_q(C.submatrix(range(C.rows), keep)).rank
        values.append(v)
        E = dilate(Z, E)
    assert all(a >= b for a, b in zip(values, values[1:]))


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


def test_oracle_convergence_bound_small():
    P = ModulePresentation(xy_minus_one())
    oracle = oracle_value(P)
    for L in (4, 8):
        d = window_kernel_density(P, folner_set(Z2, L))
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
        assert window_kernel_density(P, F) == Fraction(1, 2)
        assert submodule_rank_density(P.relation_rows(), F, spec) == Fraction(1, 2)
        sd = erank_dual_restriction_dim(P, F)
        assert sd.stabilized and Fraction(sd.value, len(F)) == Fraction(1, 2)
    series = vnd_of_presentation(P, (2, 4))
    snap = rationality_snap(series, spec)
    assert snap.grid_denominator == 2 and snap.residual == 0


def test_finite_group_density_matches_regular_rep_exactly():
    from folrank.exactla import regular_rep_kernel

    rng = random.Random(4)
    for _ in range(5):
        f = random_ring_matrix(rng, finite_cyclic(2, 3), 2, 2, coeff_bound=2)
        P = ModulePresentation(f)
        assert window_kernel_density(P, folner_set(f.spec, 1)) == regular_rep_kernel(f)


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
        base = submodule_rank_density(f.entries, F, Z)
        scaled = [
            tuple(e * Fraction(rng.randint(1, 5), rng.randint(1, 5)) for e in row)
            for row in f.entries
        ]
        assert submodule_rank_density(scaled, F, Z) == base


def test_quotient_span_rank_free_and_torsion():
    zero = RingMatrix(Z, [], cols=1)
    F = folner_set(Z, 3)
    A = [(zp((0, 1)),)]
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
    spec = f.spec
    rows = _rows_of(B)
    felems = list(map(tuple, coords_of(spec, F).tolist()))
    V = submodule_rank_matrix(rows, F, spec)
    if V.cols == 0:
        return StabilizedDim(0, True, 0, 0)
    if f.rows == 0 or f.is_zero():
        return StabilizedDim(rank_q(V).rank, True, 0, 0)
    inv, mul = spec.inverse, spec.mul
    support_cols = sorted(
        {mul(inv(s), u) for s in felems for row in rows for e in row for u in e.coeffs}
    )
    s_set = set(support_cols)
    s_pos = {g: i for i, g in enumerate(support_cols)}
    width = len(support_cols)
    E0 = _initial_erank_window(spec, support_cols, sorted(f.support()))

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

    return _stabilize(spec, E0, value, growth_steps)


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
    A += [tuple(row) for row in random_ring_matrix(rng, spec, rng.randint(1, 2), n, **small).entries]
    return f, A, folner_set(spec, rng.randint(2, 3))


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
    A = [(RingElem.from_terms(Z2, [((0, 0), Fraction(2, 5)), ((0, 1), 1)]),), (f.entries[0][0],)]
    F = folner_set(Z2, 2)
    for growth_steps in (6, 14):
        new = quotient_span_rank(f, A, F, growth_steps=growth_steps, seed=3)
        assert new == _quotient_span_rank_reference(f, A, F, growth_steps, seed=3)


# -- randomized suites (small smoke runs; acceptance runs the full sizes) ------------------


def test_suites_small():
    assert run_identity_suite(11, cases=12).passed
    assert run_superadditivity_suite(11, cases=12).passed
    assert run_submodularity_suite(11, cases=12).passed
    r = run_dual_rank_equality_suite(11, cases=12)
    assert r.passed and r.flagged <= 1


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_verify_suite_results_pinned(seed):
    # verify-suite --cases 100 at job seeds 0-3, recorded before the suites
    # drew their cases first and built and ranked them in batches.
    suites = (run_identity_suite(seed), run_superadditivity_suite(seed), run_submodularity_suite(seed))
    assert [(s.name, s.cases, s.failures, s.flagged) for s in suites] == [
        ("per-window-identity", 100, [], 0),
        ("superadditivity", 100, [], 0),
        ("submodularity", 100, [], 0),
    ]


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
    assert per_window_identity_check(f, folner_set(spec, 2))
