"""Acceptance gate: one test per criterion, each printing a pass/fail line
and enforcing its stated runtime budget."""

import math
import time
from contextlib import contextmanager
from fractions import Fraction

from folrank.groupring import RingElem, RingMatrix
from folrank.groups import finite_cyclic, folner_set, zd
from folrank.mmdim import mmdim_estimate, packing_report
from folrank.ranks import (
    ModulePresentation,
    erank_of_presentation,
    mrank_of_presentation,
    oracle_value,
    rationality_snap,
    run_identity_suite,
    run_submodularity_suite,
    run_superadditivity_suite,
    vnd_of_presentation,
    window_kernel_dim,
)
from test_ranks import run_dual_rank_equality_suite

Z = zd(1)
Z2 = zd(2)


def zp(*terms):
    return RingElem.from_terms(Z, [((e,), c) for e, c in terms])


def one_plus_2T():
    return RingMatrix(Z, [[zp((0, 1), (1, 2))]])


def xy_minus_one():
    x1 = RingElem.from_terms(Z2, [((1, 0), 1), ((0, 0), -1)])
    y1 = RingElem.from_terms(Z2, [((0, 1), 1), ((0, 0), -1)])
    return RingMatrix(Z2, [[x1, y1]])


@contextmanager
def criterion(name: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL {name} [{time.perf_counter() - start:.2f}s]")
        raise
    elapsed = time.perf_counter() - start
    print(f"PASS {name} [{elapsed:.2f}s, budget {budget_s:.0f}s]")
    assert elapsed < budget_s, f"{name} exceeded its runtime budget: {elapsed:.2f}s"


def test_criterion_1_one_plus_2T_over_z():
    with criterion("criterion-1 f=1+2T over Z[Z]", 5.0):
        P = ModulePresentation(one_plus_2T())
        schedule = (4, 8, 16, 32, 64, 128, 256)
        for L in schedule:
            assert window_kernel_dim(P, folner_set(Z, L))[0] == 0
        mr = mrank_of_presentation(P, schedule)
        assert mr.limit_estimate == 0
        assert all(d == 0 for d in mr.densities())
        er = erank_of_presentation(P, schedule)
        assert all(r.density == Fraction(1, r.L) for r in er.records)
        assert all(r.stabilized for r in er.records)


def test_criterion_2_free_module():
    with criterion("criterion-2 free module m=0 n=1", 1.0):
        P = ModulePresentation.free(Z, 1)
        for engine in (mrank_of_presentation, vnd_of_presentation, erank_of_presentation):
            series = engine(P, (2, 4, 8))
            assert all(d == 1 for d in series.densities())
            assert series.limit_estimate == 1


def test_criterion_3_torsion_quotient():
    with criterion("criterion-3 f=2 torsion quotient over Z and Z^2", 5.0):
        cases = [
            (ModulePresentation(RingMatrix(Z, [[zp((0, 2))]])), (4, 8, 16, 32)),
            (
                ModulePresentation(
                    RingMatrix(Z2, [[RingElem.from_terms(Z2, [((0, 0), 2)])]])
                ),
                (2, 4, 8, 16),
            ),
        ]
        for P, schedule in cases:
            mr = mrank_of_presentation(P, schedule)
            assert all(d == 0 for d in mr.densities())
            assert mr.limit_estimate == 0
            vnd = vnd_of_presentation(P, schedule)
            assert all(d == 0 for d in vnd.densities())


def test_criterion_4_z2_oracle_convergence():
    with criterion("criterion-4 Z^2 oracle convergence and snap", 60.0):
        P = ModulePresentation(xy_minus_one())
        assert oracle_value(P) == 1
        series = vnd_of_presentation(P, (8, 16, 32), tolerance=Fraction(1, 8))
        for rec in series.records:
            assert abs(rec.density - 1) <= Fraction(4, rec.L)
        snap = rationality_snap(series, Z2)
        assert snap.snapped == 1
        assert snap.residual < Fraction(1, 16)


def test_criterion_5_finite_group_grid():
    with criterion("criterion-5 Z/2 Atiyah grid", 1.0):
        C2 = finite_cyclic(2)
        f = RingMatrix(C2, [[RingElem.from_terms(C2, [((0,), 1), ((1,), 1)])]])
        P = ModulePresentation(f)
        F = folner_set(C2, 1)
        density = Fraction(window_kernel_dim(P, F)[0], len(F))
        assert density == Fraction(1, 2)
        snap = rationality_snap(density, C2)
        assert snap.grid_denominator == 2
        assert snap.snapped == Fraction(1, 2)
        assert snap.residual == 0


def test_criterion_6_identity_suite():
    with criterion("criterion-6 per-window identity suite (100 cases)", 120.0):
        result = run_identity_suite(seed=2024, cases=100, window_indices=(2, 3, 4))
        assert result.passed, result.failures[:5]


def test_criterion_7_superadditivity_and_submodularity():
    with criterion("criterion-7 superadditivity + submodularity suites (100 each)", 120.0):
        sup = run_superadditivity_suite(seed=2024, cases=100)
        assert sup.passed, sup.failures[:5]
        assert sup.flagged == 0
        sub = run_submodularity_suite(seed=2024, cases=100)
        assert sub.passed, sub.failures[:5]


def test_criterion_8_dual_rank_equality():
    with criterion("criterion-8 dual-rank equality suite (50 cases)", 120.0):
        result = run_dual_rank_equality_suite(seed=2024, cases=50)
        assert result.passed, result.failures[:5]
        assert result.flagged / result.cases < 0.10


def test_criterion_9_addition_formula_at_limit():
    with criterion("criterion-9 addition formula at the limit", 60.0):
        C2 = finite_cyclic(2)
        cases = [
            (ModulePresentation(one_plus_2T()), (4, 8, 16, 32)),
            (ModulePresentation.free(Z, 1), (4, 8, 16, 32)),
            (ModulePresentation(RingMatrix(Z, [[zp((0, 2))]])), (4, 8, 16, 32)),
            (
                ModulePresentation(
                    RingMatrix(Z2, [[RingElem.from_terms(Z2, [((0, 0), 2)])]])
                ),
                (4, 8, 16),
            ),
            (ModulePresentation(xy_minus_one()), (8, 16, 32)),
            (
                ModulePresentation(
                    RingMatrix(C2, [[RingElem.from_terms(C2, [((0,), 1), ((1,), 1)])]])
                ),
                (1, 2),
            ),
        ]
        for P, schedule in cases:
            mr = mrank_of_presentation(P, schedule)
            vnd = vnd_of_presentation(P, schedule)
            sub_limit = min(Fraction(r.numerator, r.f_size) for r in mr.records)
            gap = abs(sub_limit + vnd.limit_estimate - P.n)
            assert gap <= Fraction(2, schedule[-1]), (P.n, sub_limit, vnd.limit_estimate)


def test_criterion_10_mmdim_estimator():
    with criterion("criterion-10 metric mean dimension estimator", 120.0):
        zero = RingMatrix(Z, [[RingElem.zero(Z)]])
        two = RingMatrix(Z, [[zp((0, 2))]])
        eps_to_2_6 = [2.0**-k for k in range(3, 7)]
        eps_to_2_8 = [2.0**-k for k in range(3, 9)]
        est0 = mmdim_estimate(zero, (7, 8), eps_to_2_6, budget=200, seed=7)
        assert est0.contains(1.0)
        assert est0.upper - est0.lower <= 0.3
        for f in (two, one_plus_2T()):
            est = mmdim_estimate(f, (7, 8), eps_to_2_8, budget=200, seed=7)
            assert est.contains(0.0)
        # The hard inequality holds in every report generated along the way.
        for f in (zero, two, one_plus_2T()):
            for L in (4, 6, 8):
                for eps in eps_to_2_8:
                    rep = packing_report(f, folner_set(Z, L), eps, budget=120, seed=7)
                    assert math.log(rep.lower_count) <= rep.upper_log + 1e-9
