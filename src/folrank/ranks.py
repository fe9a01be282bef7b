"""The three rank engines for finitely presented group-ring modules.

* mean rank: normalized ranks of the subgroups generated by window
  translates of a finite generating set, combined through the addition
  formula (module density = n minus the relation-row density);
* kernel density: normalized kernel dimension of the window operator,
  whose limit is the von Neumann rank of the module;
* dual-restriction rank: normalized dimensions of window restrictions of
  the dual solution space, computed over the rationals with an explicit
  window-growth stabilization.

Every window value is an exact rational.  Series extrapolation is
deliberately conservative: per-window submodule densities are upper bounds
for their limit (the limit is an infimum), so the mean-rank estimate uses
the running minimum of the submodule side; kernel densities carry no such
one-sided guarantee and the series keeps the last computed value as its
estimate, labeled as a heuristic.
"""

from __future__ import annotations

import hashlib
import os
import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Sequence

from .errors import BudgetExceededError, InputError, UnsupportedGroupError
from .exactla import (
    MAX_PRIMES,
    RankCertificate,
    SparseIntMatrix,
    generic_rank_laurent,
    kernel_dim_q,
    nullspace_q,  # noqa: F401  no caller here; perfbench traces it as ranks.nullspace_q
    rank_q,
    regular_rep_kernel,
)
from .groupring import RingElem, RingMatrix, right_window_matrix, window_matrix
from .groups import (
    DEFAULT_MAX_WINDOW_ELEMENTS,
    FolnerSet,
    GroupElement,
    GroupSpec,
    dilate,
    elements_of,
    folner_set,
    inverse_set,
    zd,
)

DEFAULT_TOLERANCE = Fraction(1, 100)
DEFAULT_GROWTH_STEPS = 8


def derived_rng(seed: int, *tags) -> random.Random:
    """A deterministic per-task generator; independent of scheduling order."""
    h = hashlib.sha256(repr((int(seed),) + tuple(tags)).encode()).digest()
    return random.Random(int.from_bytes(h[:8], "big"))


def _thread_count() -> int:
    try:
        return max(1, int(os.environ.get("FOLRANK_THREADS", "1")))
    except ValueError:
        return 1


def _pmap(fn, items):
    items = list(items)
    workers = _thread_count()
    if workers <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# presentations and generator lists
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModulePresentation:
    """M = (ZG)^{1xn} / (ZG)^{1xm} f, presented by the m x n relation matrix f.

    m = 0 encodes the free module of rank n.
    """

    relations: RingMatrix

    @property
    def spec(self) -> GroupSpec:
        return self.relations.spec

    @property
    def n(self) -> int:
        return self.relations.cols

    @property
    def m(self) -> int:
        return self.relations.rows

    def relation_rows(self) -> tuple[tuple[RingElem, ...], ...]:
        """The canonical generating set of the relation submodule: rows of f."""
        return self.relations.entries

    @classmethod
    def free(cls, spec: GroupSpec, n: int) -> "ModulePresentation":
        return cls(RingMatrix(spec, [], cols=n))


@dataclass(frozen=True)
class GeneratorList:
    """A finite list of row vectors in (ZG)^{1xn}."""

    spec: GroupSpec
    vectors: tuple[tuple[RingElem, ...], ...]

    def __post_init__(self):
        widths = {len(v) for v in self.vectors}
        if len(widths) > 1:
            raise InputError("generator vectors have mixed lengths")
        for v in self.vectors:
            for e in v:
                if e.spec != self.spec:
                    raise InputError("generator entry lives over a different group")

    @property
    def n(self) -> int:
        return len(self.vectors[0]) if self.vectors else 0


def _rows_of(A) -> tuple[tuple[RingElem, ...], ...]:
    if isinstance(A, GeneratorList):
        return A.vectors
    if isinstance(A, RingMatrix):
        return A.entries
    return tuple(tuple(row) for row in A)


# ---------------------------------------------------------------------------
# window-level quantities
# ---------------------------------------------------------------------------


def submodule_rank_matrix(
    A, F: "FolnerSet | Sequence[GroupElement]", spec: GroupSpec
) -> SparseIntMatrix:
    """Integer matrix whose rows are the coefficient vectors of s^{-1} a
    for s in F and a in A; columns indexed by coordinate x F^{-1}.support(A)."""
    rows = _rows_of(A)
    felems = elements_of(F)
    if not rows or not felems:
        return SparseIntMatrix(0, 0, {})
    n = len(rows[0])
    inv, mul = spec.inverse, spec.mul
    support_cols = sorted(
        {mul(inv(s), u) for s in felems for row in rows for e in row for u in e.coeffs}
    )
    if not support_cols:
        return SparseIntMatrix(len(felems) * len(rows), 0, {})
    pos = {g: i for i, g in enumerate(support_cols)}
    width = len(support_cols)
    acc: dict[tuple[int, int], object] = {}
    r = 0
    for s in felems:
        sinv = inv(s)
        for row in rows:
            for k, e in enumerate(row):
                for u, c in e.coeffs.items():
                    key = (r, k * width + pos[mul(sinv, u)])
                    acc[key] = acc.get(key, 0) + c
            r += 1
    by_row: dict[int, int] = {}
    for (i, _), c in acc.items():
        if isinstance(c, Fraction):
            by_row[i] = lcm(by_row.get(i, 1), c.denominator)
    entries = {}
    for (i, j), c in acc.items():
        v = int(c * by_row.get(i, 1))
        if v:
            entries[(i, j)] = v
    return SparseIntMatrix(r, n * width, entries)


def submodule_rank(
    A, F, spec: GroupSpec, rng: random.Random | None = None, max_primes: int = MAX_PRIMES
) -> tuple[int, RankCertificate]:
    cert = rank_q(submodule_rank_matrix(A, F, spec), rng=rng, max_primes=max_primes)
    return cert.rank, cert


def submodule_rank_density(A, F, spec: GroupSpec, rng: random.Random | None = None) -> Fraction:
    """Exact rank(<F^{-1}A>) / |F|."""
    felems = elements_of(F)
    if not felems:
        raise InputError("density needs a nonempty window")
    rank, _ = submodule_rank(A, F, spec, rng=rng)
    return Fraction(rank, len(felems))


def window_kernel_dim(
    P: ModulePresentation, F, rng: random.Random | None = None, max_primes: int = MAX_PRIMES
) -> tuple[int, RankCertificate]:
    """dim over Q of ker f intersected with vectors supported in F."""
    W = window_matrix(P.relations, F)
    cert = rank_q(W.data, rng=rng, max_primes=max_primes)
    return W.data.cols - cert.rank, cert


def window_kernel_density(P: ModulePresentation, F, rng: random.Random | None = None) -> Fraction:
    felems = elements_of(F)
    if not felems:
        raise InputError("density needs a nonempty window")
    dim, _ = window_kernel_dim(P, F, rng=rng)
    return Fraction(dim, len(felems))


def per_window_identity_check(
    f: RingMatrix, F, rng: random.Random | None = None, max_primes: int = MAX_PRIMES
) -> bool:
    """rank(<F^{-1} rows(f)>) == m|F| - dim ker(window of f*): two independent
    computations of the same number; inequality is a genuine failure."""
    felems = elements_of(F)
    lhs, _ = submodule_rank(f.entries, F, f.spec, rng=rng, max_primes=max_primes)
    W = window_matrix(f.star(), F)
    rhs = f.rows * len(felems) - kernel_dim_q(W.data, rng=rng, max_primes=max_primes)
    return lhs == rhs


# ---------------------------------------------------------------------------
# density series
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeriesRecord:
    L: int
    f_size: int
    numerator: int
    density: Fraction
    certificate: RankCertificate | None = None
    stabilized: bool = True


@dataclass(frozen=True)
class RationalitySnap:
    """A value snapped to the grid (1/b)Z with b the finite-subgroup lcm."""

    raw: Fraction
    grid_denominator: int
    snapped: Fraction
    residual: Fraction

    def to_json(self) -> dict:
        return {
            "raw": _frac_str(self.raw),
            "grid_denominator": self.grid_denominator,
            "snapped": _frac_str(self.snapped),
            "residual": _frac_str(self.residual),
        }


@dataclass(frozen=True)
class DensitySeries:
    quantity: str  # "mrank-submodule" | "vnd-kernel-density" | "erank"
    records: tuple[SeriesRecord, ...]
    tolerance: Fraction
    limit_estimate: Fraction
    running_min: Fraction
    status: str  # "converged" | "exhausted-budget"

    def densities(self) -> list[Fraction]:
        return [r.density for r in self.records]


def _frac_str(x: Fraction) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def rationality_snap(series_or_value, spec: GroupSpec) -> RationalitySnap:
    """Snap an estimate to the rationality grid of the group.

    Accepts a DensitySeries (uses its limit estimate) or a bare rational.
    The residual is at most 1/(2b) by construction; whether it is small
    enough to trust travels with the series convergence status.
    """
    if isinstance(series_or_value, DensitySeries):
        raw = series_or_value.limit_estimate
    else:
        raw = Fraction(series_or_value)
    b = spec.finite_subgroup_lcm
    snapped = Fraction(round(raw * b), b)
    return RationalitySnap(raw, b, snapped, abs(raw - snapped))


def _series_status(
    records: Sequence[SeriesRecord], tolerance: Fraction, estimate: Fraction, spec: GroupSpec
) -> str:
    if len(records) < 2 or any(not r.stabilized for r in records):
        return "exhausted-budget"
    if abs(records[-1].density - records[-2].density) >= tolerance:
        return "exhausted-budget"
    if rationality_snap(estimate, spec).residual >= tolerance:
        return "exhausted-budget"
    return "converged"


def _validate_schedule(schedule: Sequence[int]) -> tuple[int, ...]:
    schedule = tuple(int(L) for L in schedule)
    if not schedule:
        raise InputError("empty window schedule")
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise InputError(f"schedule must be strictly increasing, got {list(schedule)}")
    return schedule


def _truncate_schedule(spec: GroupSpec, schedule: Sequence[int], max_elements: int):
    from .groups import window_size

    kept, truncated = [], False
    for L in schedule:
        if window_size(spec, L) > max_elements:
            truncated = True
            break
        kept.append(L)
    if not kept:
        raise BudgetExceededError(
            f"window budget {max_elements} excludes every scheduled L in {list(schedule)}"
        )
    return kept, truncated


def mrank_of_presentation(
    P: ModulePresentation,
    schedule: Sequence[int],
    tolerance: Fraction = DEFAULT_TOLERANCE,
    seed: int = 0,
    max_window_elements: int = DEFAULT_MAX_WINDOW_ELEMENTS,
    max_primes: int = MAX_PRIMES,
) -> DensitySeries:
    """Mean-rank series of the presented module: density n - rank(<F^{-1}A>)/|F|
    with A the relation rows.  The limit estimate is n minus the running
    minimum of the submodule densities (the submodule limit is an infimum)."""
    schedule = _validate_schedule(schedule)
    kept, truncated = _truncate_schedule(P.spec, schedule, max_window_elements)
    n = P.n
    rows = P.relation_rows()

    def one(L: int) -> SeriesRecord:
        F = folner_set(P.spec, L, max_window_elements)
        if P.m == 0:
            return SeriesRecord(L, len(F), 0, Fraction(n))
        rank, cert = submodule_rank(
            rows, F, P.spec, rng=derived_rng(seed, "mrank", L), max_primes=max_primes
        )
        density = n - Fraction(rank, len(F))
        if not 0 <= density <= n:
            raise InputError(f"density {density} escaped [0, {n}]")
        return SeriesRecord(L, len(F), rank, density, cert)

    records = tuple(_pmap(one, kept))
    submodule_min = min(Fraction(r.numerator, r.f_size) for r in records)
    estimate = n - submodule_min
    status = _series_status(records, tolerance, estimate, P.spec)
    if truncated:
        status = "exhausted-budget"
    return DensitySeries(
        "mrank-submodule",
        records,
        tolerance,
        estimate,
        min(r.density for r in records),
        status,
    )


def vnd_of_presentation(
    P: ModulePresentation,
    schedule: Sequence[int],
    tolerance: Fraction = DEFAULT_TOLERANCE,
    seed: int = 0,
    max_window_elements: int = DEFAULT_MAX_WINDOW_ELEMENTS,
    max_primes: int = MAX_PRIMES,
) -> DensitySeries:
    """Kernel-density series dim(ker f on F)/|F|.  The limit estimate is the
    last computed density; kernel densities are not one-sided bounds, so the
    running minimum is reported but not used as the estimate."""
    schedule = _validate_schedule(schedule)
    kept, truncated = _truncate_schedule(P.spec, schedule, max_window_elements)
    n = P.n

    def one(L: int) -> SeriesRecord:
        F = folner_set(P.spec, L, max_window_elements)
        dim, cert = window_kernel_dim(
            P, F, rng=derived_rng(seed, "vnd", L), max_primes=max_primes
        )
        density = Fraction(dim, len(F))
        if not 0 <= density <= n:
            raise InputError(f"density {density} escaped [0, {n}]")
        return SeriesRecord(L, len(F), dim, density, cert)

    records = tuple(_pmap(one, kept))
    estimate = records[-1].density
    status = _series_status(records, tolerance, estimate, P.spec)
    if truncated:
        status = "exhausted-budget"
    return DensitySeries(
        "vnd-kernel-density",
        records,
        tolerance,
        estimate,
        min(r.density for r in records),
        status,
    )


# ---------------------------------------------------------------------------
# dual-restriction rank over a field (rationals), with window stabilization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StabilizedDim:
    """A dimension computed on growing windows until it repeats."""

    value: int
    stabilized: bool
    steps: int
    window_size: int


def _integralize_rows(f: RingMatrix) -> RingMatrix:
    """Scale each row by its denominator lcm.  Row scaling by a nonzero
    rational changes neither the row module over the fraction field nor the
    dual solution space, and makes the window matrices integral."""
    if f.is_integral():
        return f
    rows = []
    for row in f.entries:
        scale = 1
        for e in row:
            for c in e.coeffs.values():
                if isinstance(c, Fraction):
                    scale = lcm(scale, c.denominator)
        rows.append(tuple(e * scale for e in row))
    return RingMatrix(f.spec, rows, cols=f.cols)


def _stabilize(spec: GroupSpec, E0, value_fn, growth_steps: int) -> StabilizedDim:
    E = tuple(sorted(set(E0)))
    prev = None
    for step in range(growth_steps + 1):
        v = value_fn(E, step)
        if prev is not None and v == prev:
            return StabilizedDim(v, True, step, len(E))
        prev = v
        grown = dilate(spec, E)
        if grown == E:
            # The window saturated (finite group): the value cannot change.
            return StabilizedDim(v, True, step, len(E))
        E = grown
    return StabilizedDim(prev, False, growth_steps, len(E))


def _initial_erank_window(spec: GroupSpec, finv, K) -> tuple:
    out = set(finv)
    inv = spec.inverse
    for s in finv:
        for k in K:
            out.add(spec.mul(s, inv(k)))
    return tuple(sorted(out))


def erank_span_dim(
    P: ModulePresentation,
    F,
    growth_steps: int = DEFAULT_GROWTH_STEPS,
    seed: int = 0,
) -> StabilizedDim:
    """dim over Q of the span of the window translates of the canonical
    generators inside the quotient: n|F| minus the dimension of the
    relation-row span supported in F^{-1}, the latter grown window by window
    from below until it stabilizes."""
    spec = P.spec
    felems = elements_of(F)
    n = P.n
    if P.m == 0 or P.relations.is_zero():
        return StabilizedDim(n * len(felems), True, 0, 0)
    finv = inverse_set(spec, felems)
    finv_set = set(finv)
    f = _integralize_rows(P.relations)
    K = sorted(f.support())
    E0 = _initial_erank_window(spec, finv, K)

    def value(E, step):
        rng = derived_rng(seed, "erank-span", len(E), step)
        W = right_window_matrix(f, E)
        out_rows = [i for i, (_, w) in enumerate(W.row_index) if w not in finv_set]
        rank_all = rank_q(W.data, rng=rng).rank
        r_out = W.data.submatrix(out_rows, range(W.data.cols))
        rank_out = rank_q(r_out, rng=rng).rank
        return n * len(felems) - (rank_all - rank_out)

    return _stabilize(spec, E0, value, growth_steps)


def _dual_constraint_matrix(f: RingMatrix, E) -> tuple[SparseIntMatrix, list]:
    """Linear constraints cutting out dual solutions h: E -> Q^{n x 1}.

    One row per (u, j) with u.K inside E: sum_{k,s} f_{j,k,s} h_{u.s, k} = 0.
    Columns are (k, w) for w in E, coordinate-major.  Returns the matrix and
    the column index map.
    """
    spec = f.spec
    E = tuple(E)
    eset = set(E)
    epos = {w: i for i, w in enumerate(E)}
    m, n = f.rows, f.cols
    K = sorted(f.support())
    col_index = [(k, w) for k in range(n) for w in E]
    if not K:
        return SparseIntMatrix(0, n * len(E), {}), col_index
    inv, mul = spec.inverse, spec.mul
    candidates = set(E)
    for w in E:
        for k in K:
            candidates.add(mul(w, inv(k)))
    interior = sorted(u for u in candidates if all(mul(u, k) in eset for k in K))
    acc: dict[tuple[int, int], object] = {}
    r = 0
    for u in interior:
        for j in range(m):
            for k in range(n):
                for s, c in f.entries[j][k].coeffs.items():
                    col = k * len(E) + epos[mul(u, s)]
                    acc[(r, col)] = acc.get((r, col), 0) + c
            r += 1
    entries = {k: int(v) for k, v in acc.items() if v}
    return SparseIntMatrix(r, n * len(E), entries), col_index


def erank_dual_restriction_dim(
    P: ModulePresentation,
    F,
    growth_steps: int = DEFAULT_GROWTH_STEPS,
    seed: int = 0,
    max_primes: int = MAX_PRIMES,
) -> StabilizedDim:
    """dim over Q of the restriction to F^{-1} of the dual solution space.

    On a finite window E containing F^{-1} the constrained solution space
    restricted to F^{-1} has dimension n|F| - rank(C_E) + rank(C_E without
    the F^{-1} columns); the value is nonincreasing in E and stabilizes at
    the true restriction dimension."""
    spec = P.spec
    felems = elements_of(F)
    n = P.n
    if P.m == 0 or P.relations.is_zero():
        return StabilizedDim(n * len(felems), True, 0, 0)
    finv = inverse_set(spec, felems)
    finv_set = set(finv)
    f = _integralize_rows(P.relations)
    K = sorted(f.support())
    E0 = _initial_erank_window(spec, finv, K)

    def value(E, step):
        rng = derived_rng(seed, "erank-dual", len(E), step)
        C, col_index = _dual_constraint_matrix(f, E)
        rank_c = rank_q(C, rng=rng, max_primes=max_primes).rank
        keep = [i for i, (_, w) in enumerate(col_index) if w not in finv_set]
        c_drop = C.submatrix(range(C.rows), keep)
        rank_drop = rank_q(c_drop, rng=rng, max_primes=max_primes).rank
        return n * len(felems) - rank_c + rank_drop

    return _stabilize(spec, E0, value, growth_steps)


def erank_of_presentation(
    P: ModulePresentation,
    schedule: Sequence[int],
    tolerance: Fraction = DEFAULT_TOLERANCE,
    seed: int = 0,
    growth_steps: int = DEFAULT_GROWTH_STEPS,
    max_window_elements: int = DEFAULT_MAX_WINDOW_ELEMENTS,
    max_primes: int = MAX_PRIMES,
) -> DensitySeries:
    """Series of dual-restriction dimensions over |F|; running-minimum estimate."""
    schedule = _validate_schedule(schedule)
    kept, truncated = _truncate_schedule(P.spec, schedule, max_window_elements)
    n = P.n

    def one(L: int) -> SeriesRecord:
        F = folner_set(P.spec, L, max_window_elements)
        sd = erank_dual_restriction_dim(
            P, F, growth_steps=growth_steps, seed=seed, max_primes=max_primes
        )
        density = Fraction(sd.value, len(F))
        if not 0 <= density <= n:
            raise InputError(f"density {density} escaped [0, {n}]")
        return SeriesRecord(L, len(F), sd.value, density, None, sd.stabilized)

    records = tuple(_pmap(one, kept))
    estimate = min(r.density for r in records)
    status = _series_status(records, tolerance, estimate, P.spec)
    if truncated:
        status = "exhausted-budget"
    return DensitySeries("erank", records, tolerance, estimate, estimate, status)


def quotient_span_rank(
    f: RingMatrix,
    B,
    F,
    growth_steps: int = DEFAULT_GROWTH_STEPS,
    seed: int = 0,
    max_primes: int = MAX_PRIMES,
) -> StabilizedDim:
    """rank of <F^{-1} pi(B)> inside the quotient by the row module of f.

    The value is dim((V + N)/N), where V is the rational span of the window
    translates of B, and N is the part of the relation-row span supported in
    the same coordinate window S, grown from below until stabilization.

    On a growth window E, let W = right_window_matrix(f, E), C its rows
    outside S and D its rows inside S, placed at V's columns.  Then
    N = D.ker C, and both dimensions come from ranks alone:

        dim N     = rank W - rank C,
        dim(V+N)  = rank [[C, 0], [D, V^T]] - rank C,

    so the value is rank [[C, 0], [D, V^T]] - rank W.  Proof of the second
    line: (g, h) |-> D g + V^T h, restricted to ker [C 0], has image
    V + D.ker C and kernel ker [[C, 0], [D, V^T]]; rank-nullity on
    ker [C 0], of dimension cols(W) - rank C + rows(V), gives it.  The first
    line is the case V = 0.
    """
    spec = f.spec
    f = _integralize_rows(f)
    rows = _rows_of(B)
    felems = elements_of(F)
    V = submodule_rank_matrix(rows, F, spec)
    if V.cols == 0:
        return StabilizedDim(0, True, 0, 0)
    if f.rows == 0 or f.is_zero():
        return StabilizedDim(rank_q(V, max_primes=max_primes).rank, True, 0, 0)
    inv, mul = spec.inverse, spec.mul
    support_cols = sorted(
        {mul(inv(s), u) for s in felems for row in rows for e in row for u in e.coeffs}
    )
    s_set = set(support_cols)
    s_pos = {g: i for i, g in enumerate(support_cols)}
    width = len(support_cols)
    K = sorted(f.support())
    E0 = _initial_erank_window(spec, support_cols, K)

    def value(E, step):
        rng = derived_rng(seed, "quotient-span", len(E), step)
        W = right_window_matrix(f, E)
        rank_all = rank_q(W.data, rng=rng, max_primes=max_primes).rank
        # big = [[C, 0], [D, V^T]]: out rows of W first, then one row per
        # coordinate of V, holding W's rows in S and V's columns.
        out_rows = [i for i, (_, w) in enumerate(W.row_index) if w not in s_set]
        n_out = len(out_rows)
        big_row = {i: r for r, i in enumerate(out_rows)}
        for i, (k, w) in enumerate(W.row_index):
            if w in s_set:
                big_row[i] = n_out + k * width + s_pos[w]
        entries = {(big_row[i], j): v for (i, j), v in W.data.entries.items()}
        entries.update({(n_out + c, W.data.cols + r): v for (r, c), v in V.entries.items()})
        big = SparseIntMatrix(n_out + V.cols, W.data.cols + V.rows, entries)
        return rank_q(big, rng=rng, max_primes=max_primes).rank - rank_all

    return _stabilize(spec, E0, value, growth_steps)


# ---------------------------------------------------------------------------
# closed-form oracles
# ---------------------------------------------------------------------------


def oracle_value(P: ModulePresentation, seed: int = 0, max_primes: int = MAX_PRIMES) -> Fraction:
    """Closed-form limit for the families with one: n minus the generic
    Laurent rank over Z^d, or the whole-group kernel density for finite
    groups."""
    spec = P.spec
    if spec.family == "Zd" and spec.d > 0:
        if P.m == 0:
            return Fraction(P.n)
        return Fraction(P.n - generic_rank_laurent(P.relations, rng=derived_rng(seed, "oracle")))
    if spec.is_finite:
        if P.m == 0:
            return Fraction(P.n)
        return regular_rep_kernel(
            P.relations, rng=derived_rng(seed, "oracle"), max_primes=max_primes
        )
    raise UnsupportedGroupError(f"no closed-form oracle for {spec.family}")


# ---------------------------------------------------------------------------
# randomized verification suites
# ---------------------------------------------------------------------------


@dataclass
class SuiteResult:
    name: str
    cases: int
    failures: list[str] = field(default_factory=list)
    flagged: int = 0

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "cases": self.cases,
            "failures": list(self.failures),
            "flagged": self.flagged,
            "passed": self.passed,
        }


def random_ring_elem(
    rng: random.Random,
    spec: GroupSpec,
    radius: int = 2,
    coeff_bound: int = 3,
    max_terms: int = 3,
) -> RingElem:
    terms = []
    for _ in range(rng.randint(0, max_terms)):
        if spec.family == "Zd":
            g = tuple(rng.randint(-radius, radius) for _ in range(spec.d))
        elif spec.family == "FiniteCyclicProduct":
            g = tuple(rng.randrange(k) for k in spec.orders)
        elif spec.family == "FiniteTimesZd":
            g = tuple(rng.randrange(k) for k in spec.orders) + tuple(
                rng.randint(-radius, radius) for _ in range(spec.d)
            )
        else:
            g = tuple(rng.randint(-radius, radius) for _ in range(3))
        terms.append((g, rng.randint(-coeff_bound, coeff_bound)))
    return RingElem.from_terms(spec, terms)


def random_ring_matrix(
    rng: random.Random,
    spec: GroupSpec,
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


def _row_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _row_scale(c: RingElem, row):
    return tuple(c * e for e in row)


def run_identity_suite(
    seed: int,
    cases: int = 100,
    window_indices: Sequence[int] = (2, 3, 4),
    max_primes: int = MAX_PRIMES,
) -> SuiteResult:
    """Randomized exact check of the window identity
    rank(<F^{-1} rows(f)>) = m|F| - dim ker(f* window)."""
    specs = (zd(1), zd(2))
    result = SuiteResult("per-window-identity", cases)
    for i in range(cases):
        rng = derived_rng(seed, "identity", i)
        spec = specs[i % len(specs)]
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        f = random_ring_matrix(rng, spec, m, n, radius=2, coeff_bound=3)
        for L in window_indices:
            F = folner_set(spec, L)
            rng_L = derived_rng(seed, "identity-rank", i, L)
            if not per_window_identity_check(f, F, rng=rng_L, max_primes=max_primes):
                result.failures.append(f"case {i}: {spec.family} d={spec.d} L={L}")
    return result


def run_superadditivity_suite(
    seed: int, cases: int = 100, max_primes: int = MAX_PRIMES
) -> SuiteResult:
    """Randomized check that window ranks are superadditive across a
    submodule/quotient split: rank<F^{-1}A2> >= rank<F^{-1}A1> +
    rank<F^{-1}pi(A2)> with A2 = A1 u A3', A1 inside the row module."""
    specs = (zd(1), zd(2))
    result = SuiteResult("superadditivity", cases)
    for i in range(cases):
        rng = derived_rng(seed, "superadd", i)
        spec = specs[i % len(specs)]
        m, n = rng.randint(1, 2), rng.randint(1, 2)
        f = random_ring_matrix(rng, spec, m, n, radius=1, coeff_bound=2, max_terms=2)
        rows = f.entries
        a1 = []
        for _ in range(rng.randint(1, 2)):
            combo = tuple(RingElem.zero(spec) for _ in range(n))
            for row in rows:
                c = random_ring_elem(rng, spec, radius=1, coeff_bound=2, max_terms=2)
                combo = _row_add(combo, _row_scale(c, row))
            a1.append(combo)
        a3 = [
            tuple(random_ring_elem(rng, spec, radius=1, coeff_bound=2, max_terms=2) for _ in range(n))
            for _ in range(rng.randint(1, 2))
        ]
        a2 = a1 + a3
        L = rng.randint(2, 3)
        F = folner_set(spec, L)
        r2, _ = submodule_rank(
            a2, F, spec, rng=derived_rng(seed, "superadd-r2", i), max_primes=max_primes
        )
        r1, _ = submodule_rank(
            a1, F, spec, rng=derived_rng(seed, "superadd-r1", i), max_primes=max_primes
        )
        q = quotient_span_rank(f, a2, F, growth_steps=6, seed=seed + i, max_primes=max_primes)
        if not q.stabilized or r2 < r1 + q.value:
            # The quotient rank is approached from above; escalate the window
            # growth once before declaring a failure.
            q = quotient_span_rank(
                f, a2, F, growth_steps=14, seed=seed + i, max_primes=max_primes
            )
        if not q.stabilized:
            result.flagged += 1
        elif r2 < r1 + q.value:
            result.failures.append(f"case {i}: {r2} < {r1} + {q.value}")
    return result


def run_submodularity_suite(
    seed: int, cases: int = 100, max_primes: int = MAX_PRIMES
) -> SuiteResult:
    """Randomized check of submodularity and right-translation invariance of
    F |-> rank(<F^{-1}A>)."""
    specs = (zd(1), zd(2))
    result = SuiteResult("submodularity", cases)
    for i in range(cases):
        rng = derived_rng(seed, "submod", i)
        spec = specs[i % len(specs)]
        n = rng.randint(1, 2)
        A = [
            tuple(random_ring_elem(rng, spec, radius=1, coeff_bound=2, max_terms=2) for _ in range(n))
            for _ in range(rng.randint(1, 2))
        ]
        box = folner_set(spec, 4 if spec.d > 1 else 8).elements
        cap = min(6, len(box))
        f1 = tuple(sorted(rng.sample(box, rng.randint(1, cap))))
        f2 = tuple(sorted(rng.sample(box, rng.randint(1, cap))))
        union = tuple(sorted(set(f1) | set(f2)))
        inter = tuple(sorted(set(f1) & set(f2)))

        def phi(F, tag):
            rng_t = derived_rng(seed, "submod-rank", i, tag)
            rank, _ = submodule_rank(A, F, spec, rng=rng_t, max_primes=max_primes)
            return rank

        if phi(union, "u") + phi(inter, "i") > phi(f1, "1") + phi(f2, "2"):
            result.failures.append(f"case {i}: submodularity broken")
        s = rng.choice(box)
        translated = tuple(sorted(spec.mul(g, s) for g in f1))
        if phi(translated, "t") != phi(f1, "1b"):
            result.failures.append(f"case {i}: translation invariance broken")
    return result


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
        span = erank_span_dim(P, F, growth_steps=DEFAULT_GROWTH_STEPS, seed=seed + i)
        dual = erank_dual_restriction_dim(P, F, growth_steps=DEFAULT_GROWTH_STEPS, seed=seed + i)
        if not (span.stabilized and dual.stabilized):
            result.flagged += 1
        elif span.value != dual.value:
            result.failures.append(f"case {i}: span {span.value} != dual {dual.value} (L={L})")
    return result
