"""The three rank engines for finitely presented group-ring modules.

* mean rank: normalized ranks of the subgroups generated by window
  translates of a finite generating set, combined through the addition
  formula (module density = n minus the relation-row density);
* kernel density: normalized kernel dimension of the window operator,
  whose limit is the von Neumann rank of the module;
* dual-restriction rank: normalized dimensions of window restrictions of
  the dual solution space, computed over the rationals with an explicit
  window-growth stabilization.

Every window value is an exact rational and a one-sided bound on its
limit.  F |-> rank<F^{-1}A> is monotone, submodular (a matroid rank) and
right-invariant, so by the infimum rule (Ornstein-Weiss; Downarowicz, Frej
and Romagnoli) its limit over windows is the infimum of rank<F^{-1}A>/|F|
over all finite F: every submodule density is an upper bound on its limit.
So every mean-rank value n - rank<F^{-1}A>/|F| is a lower bound, and the
mean-rank estimate is the largest one (n minus the running minimum of the
submodule side).  The window identity applied to f* gives dim ker(window of
f on F) = n|F| - rank<F^{-1} rows(f*)>, so every kernel density is a lower
bound on its limit too; the kernel-density series still takes its last
value as its estimate, not the running maximum, which keeps every report as
it was.  A dual-restriction value does not increase as its growth window
grows, so every computed one is an upper bound on the restricted dimension
that it approaches.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter
from typing import Sequence

import numpy as np

from .errors import BudgetExceededError, InputError, UnsupportedGroupError
from .exactla import (
    RankCertificate,
    SparseIntMatrix,
    block_ranks,
    generic_rank_laurent,
    nullspace_q,  # noqa: F401  no caller here; perfbench traces it as ranks.nullspace_q
    rank_q,
    regular_rep_kernel,
)
from .groupring import (
    RingElem,
    RingMatrix,
    Terms,
    right_window_matrix,
    terms_of,
    window_matrix,
    window_operator,
)
from .groups import (
    DEFAULT_MAX_WINDOW_ELEMENTS,
    FolnerSet,
    GroupElement,
    GroupSpec,
    coords_of,
    dilate,
    folner_set,
    inverse_set,
    positions,
    unique_rows,
    with_products,
    zd,
)

DEFAULT_TOLERANCE = Fraction(1, 100)
DEFAULT_GROWTH_STEPS = 8


def derived_rng(seed: int, *tags) -> random.Random:
    """A deterministic per-task generator; independent of scheduling order."""
    h = hashlib.sha256(repr((int(seed),) + tuple(tags)).encode()).digest()
    return random.Random(int.from_bytes(h[:8], "big"))


class _RankRng:
    """``derived_rng(seed, *tags)``, built at its first draw.  A rank draws
    from its generator only when its core goes modular, so most ranks never
    pay for the hash and the seeding."""

    __slots__ = ("_key", "_rng")

    def __init__(self, seed: int, *tags):
        self._key, self._rng = (seed, *tags), None

    def __getattr__(self, name):
        if self._rng is None:
            self._rng = derived_rng(*self._key)
        return getattr(self._rng, name)


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


def _generator_terms(A, spec: GroupSpec) -> Terms:
    if isinstance(A, RingMatrix):
        return A.terms()
    rows = _rows_of(A)
    return terms_of(spec, rows, len(rows[0]) if rows else 0)


def _generator_windows(spec: GroupSpec, cases) -> tuple[SparseIntMatrix, list[int], list[int], list]:
    """``window_operator`` of the submodule_rank_matrix of each (A, F, ...)
    case over spec: the union, its block offsets, and the sorted elements of
    each F^{-1}.support(A)."""
    batch = [[(_generator_terms(A, spec), spec.inverse_array(coords_of(spec, F)))] for A, F, *_ in cases]
    return window_operator(spec, batch, left=True, anchor_rows=True)


def _submodule_ranks(spec: GroupSpec, cases) -> list[int]:
    """rank(<F^{-1}A>) of each (A, F, rng) case over spec, built and ranked
    as one batch."""
    M, row_at, col_at, _ = _generator_windows(spec, cases)
    return [c.rank for c in block_ranks(M, row_at, col_at, [rng for *_, rng in cases])]


def submodule_rank_matrix(
    A, F: "FolnerSet | Sequence[GroupElement]", spec: GroupSpec
) -> SparseIntMatrix:
    """Integer matrix whose rows are the coefficient vectors of s^{-1} a
    for s in F and a in A; columns indexed by coordinate x F^{-1}.support(A).
    Row (s, a) sits at index(s) * |A| + index(a); a row of A with fractions is
    scaled by the lcm of its denominators."""
    return _generator_windows(spec, [(A, F)])[0]


def submodule_rank(A, F, spec: GroupSpec, rng: random.Random | None = None) -> tuple[int, RankCertificate]:
    cert = rank_q(submodule_rank_matrix(A, F, spec), rng=rng)
    return cert.rank, cert


def submodule_rank_density(A, F, spec: GroupSpec, rng: random.Random | None = None) -> Fraction:
    """Exact rank(<F^{-1}A>) / |F|."""
    F = coords_of(spec, F)
    if not len(F):
        raise InputError("density needs a nonempty window")
    rank, _ = submodule_rank(A, F, spec, rng=rng)
    return Fraction(rank, len(F))


def window_kernel_dim(
    P: ModulePresentation, F, rng: random.Random | None = None
) -> tuple[int, RankCertificate]:
    """dim over Q of ker f intersected with vectors supported in F."""
    W = window_matrix(P.relations, F)
    cert = rank_q(W.data, rng=rng)
    return W.data.cols - cert.rank, cert


def window_kernel_density(P: ModulePresentation, F, rng: random.Random | None = None) -> Fraction:
    F = coords_of(P.spec, F)
    if not len(F):
        raise InputError("density needs a nonempty window")
    dim, _ = window_kernel_dim(P, F, rng=rng)
    return Fraction(dim, len(F))


def per_window_identity_check(f: RingMatrix, F, rng: random.Random | None = None) -> bool:
    """rank(<F^{-1} rows(f)>) == m|F| - dim ker(window of f*): two independent
    computations of the same number; inequality is a genuine failure."""
    return _identity_checks(f.spec, [(f, F, rng)])[0]


def _identity_checks(spec: GroupSpec, cases) -> list[bool]:
    """``per_window_identity_check`` of each (f, F, rng) case over spec, as
    two batches: the left sides, then the windows of f*.  A case's rng
    serves both of its ranks, in that order."""
    lhs = _submodule_ranks(spec, cases)
    batch = [[(f.star().terms(), coords_of(spec, F))] for f, F, _ in cases]
    W, row_at, col_at, _ = window_operator(spec, batch, left=False)
    rhs = block_ranks(W, row_at, col_at, [rng for *_, rng in cases])
    checks = []
    for (f, _, _), [(_, F)], rank, c0, c1, cert in zip(cases, batch, lhs, col_at, col_at[1:], rhs):
        kernel_dim = c1 - c0 - cert.rank
        checks.append(rank == f.rows * len(F) - kernel_dim)
    return checks


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


def _series(
    P: ModulePresentation, schedule, quantity, tolerance, max_window_elements, record, estimate, lowest=0
):
    """The one series driver: one record per scheduled window that fits the
    budget, each density checked against [lowest, n], then the limit
    estimate (``estimate`` of the densities, at least 0, as every limit is)
    and the convergence status."""
    schedule = _validate_schedule(schedule)
    kept, truncated = _truncate_schedule(P.spec, schedule, max_window_elements)
    records = []
    for L in kept:
        records.append(record(L, folner_set(P.spec, L, max_window_elements)))
        if not lowest <= records[-1].density <= P.n:
            raise InputError(f"density {records[-1].density} escaped [{lowest}, {P.n}]")
    value = max(Fraction(0), estimate([r.density for r in records]))
    status = "exhausted-budget" if truncated else _series_status(records, tolerance, value, P.spec)
    return DensitySeries(quantity, tuple(records), tolerance, value, min(r.density for r in records), status)


def mrank_of_presentation(
    P: ModulePresentation,
    schedule: Sequence[int],
    tolerance: Fraction = DEFAULT_TOLERANCE,
    seed: int = 0,
    max_window_elements: int = DEFAULT_MAX_WINDOW_ELEMENTS,
) -> DensitySeries:
    """Mean-rank series of the presented module: density n - rank(<F^{-1}A>)/|F|
    with A the relation rows.  The limit estimate is n minus the running
    minimum of the submodule densities (the submodule limit is an infimum).
    With m relation rows the rank reaches m|F| at most, so a window value
    lies in [n - m, n], and can be below 0 when m > n."""

    def record(L: int, F) -> SeriesRecord:
        if P.m == 0:
            return SeriesRecord(L, len(F), 0, Fraction(P.n))
        rng = _RankRng(seed, "mrank", L)
        rank, cert = submodule_rank(P.relations, F, P.spec, rng=rng)
        return SeriesRecord(L, len(F), rank, P.n - Fraction(rank, len(F)), cert)

    # n - min rank/|F| is the largest density.
    return _series(P, schedule, "mrank-submodule", tolerance, max_window_elements, record, max, P.n - P.m)


def vnd_of_presentation(
    P: ModulePresentation,
    schedule: Sequence[int],
    tolerance: Fraction = DEFAULT_TOLERANCE,
    seed: int = 0,
    max_window_elements: int = DEFAULT_MAX_WINDOW_ELEMENTS,
) -> DensitySeries:
    """Kernel-density series dim(ker f on F)/|F|.  Each density is a lower
    bound on the limit: it is n - rank<F^{-1} rows(f*)>/|F| (the window
    identity applied to f*), and that rank over |F| is an upper bound on its
    limit by the infimum rule (module docstring).  The limit estimate is the
    last computed density, not the running maximum, and the running minimum
    is reported but not used as the estimate."""

    def record(L: int, F) -> SeriesRecord:
        dim, cert = window_kernel_dim(P, F, rng=_RankRng(seed, "vnd", L))
        return SeriesRecord(L, len(F), dim, Fraction(dim, len(F)), cert)

    return _series(P, schedule, "vnd-kernel-density", tolerance, max_window_elements, record, itemgetter(-1))


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


def _check_growth_steps(growth_steps: int) -> None:
    """The one check on a growth budget, made before any value is computed."""
    if growth_steps < 0:
        raise InputError(f"growth_steps must be >= 0, got {growth_steps}")


def _saturated(spec: GroupSpec, E: np.ndarray) -> bool:
    """Whether ``dilate`` leaves E as it is.  The unit ball generates the
    group, so a nonempty E closed under it is the whole group, and a finite
    E can be that only in a finite group."""
    return not len(E) or spec.is_finite and len(E) == spec.group_order()


def _stabilize(spec: GroupSpec, E: np.ndarray, value_fn, growth_steps: int) -> StabilizedDim:
    """Grow the sorted, distinct E by ``dilate`` until ``value_fn(E, step)``
    repeats: ``_stabilize_all`` of one window."""
    return _stabilize_all(spec, [E], lambda _, Es, step: [value_fn(Es[0], step)], [growth_steps])[0]


def _stabilize_all(spec: GroupSpec, windows, values, growth_steps) -> list[StabilizedDim]:
    """Grow each sorted, distinct window by ``dilate``, all of them one step
    at a time, until its value repeats.

    ``values(cases, Es, step)`` gives the values of the windows Es of the
    cases (indices into ``windows``) still growing at that step.  A case
    stops when its value repeats, when its window saturates (then the value
    cannot change) or at its last allowed step ``growth_steps[c]``, without
    a further dilate; the result reports the last window evaluated."""
    out: list = [None] * len(windows)
    active = [(c, E, None) for c, E in enumerate(windows)]
    step = 0
    while active:
        cases, Es, prevs = zip(*active)
        growing = []
        for c, E, prev, v in zip(cases, Es, prevs, values(cases, Es, step)):
            if v == prev or _saturated(spec, E):
                out[c] = StabilizedDim(v, True, step, len(E))
            elif step == growth_steps[c]:
                out[c] = StabilizedDim(v, False, step, len(E))
            else:
                growing.append((c, dilate(spec, E), v))
        active, step = growing, step + 1
    return out


def _initial_erank_window(spec: GroupSpec, finv, K) -> np.ndarray:
    """finv united with finv.K^{-1}, sorted."""
    return with_products(spec, finv, spec.inverse_array(coords_of(spec, K)))


def erank_span_dim(
    P: ModulePresentation,
    F,
    growth_steps: int = DEFAULT_GROWTH_STEPS,
    seed: int = 0,
) -> StabilizedDim:
    """dim over Q of the span of the window translates of the canonical
    generators inside the quotient: ``quotient_span_rank`` of the n x n
    identity.  Its translates span every vector on F^{-1}, so V^T is a unit
    in each row at F^{-1} and rank [W | V^T] = rank C + n|F|, with C the
    rows of W outside F^{-1}: the value is n|F| minus the
    dimension of the relation-row span supported in F^{-1}, grown window by
    window from below until it stabilizes."""
    one, zero = RingElem.one(P.spec), RingElem.zero(P.spec)
    identity = [[one if j == k else zero for k in range(P.n)] for j in range(P.n)]
    return quotient_span_rank(P.relations, identity, F, growth_steps, seed)


def _interior(spec: GroupSpec, E: np.ndarray, K: np.ndarray) -> np.ndarray:
    """The sorted elements u with u.K inside the sorted, distinct E."""
    # w.k^{-1} is one-to-one in w, so u occurs in E.K^{-1} once for each k
    # with u.k in E: u.K lies inside E when u occurs |K| times.
    cand = spec.mul_array(E[:, None], spec.inverse_array(K)[None])
    cand, at = unique_rows(cand.reshape(len(E) * len(K), spec.coord_len))
    return cand[np.bincount(at, minlength=len(cand)) == len(K)]


def erank_dual_restriction_dim(
    P: ModulePresentation,
    F,
    growth_steps: int = DEFAULT_GROWTH_STEPS,
    seed: int = 0,
) -> StabilizedDim:
    """dim over Q of the restriction to F^{-1} of the dual solution space.

    A dual solution on a finite window E is h: E -> Q^{n x 1} with
    sum_{k,s} f_{j,k,s} h_{u.s, k} = 0 for each j and each u of the interior
    I(E) = {u : u.K inside E}.  Constraint (j, u) carries f_{j,k,s} at
    (k, u.s), which is entry ((k, u.s), (j, u)) of
    W = right_window_matrix(f, I(E)): the constraint matrix is W transposed,
    with zero columns at E outside I(E).K.  So on E containing F^{-1} the
    solutions restricted to F^{-1} have dimension
    n|F| - rank W + rank(W without its rows at F^{-1}); the value is
    nonincreasing in E and stabilizes at the true restriction dimension."""
    _check_growth_steps(growth_steps)
    spec, F = P.spec, coords_of(P.spec, F)
    if P.m == 0 or P.relations.is_zero():
        return StabilizedDim(P.n * len(F), True, 0, 0)
    finv, K = inverse_set(spec, F), P.relations.terms().support

    def value(E, step):
        rng = _RankRng(seed, "erank-dual", len(E), step)
        W = right_window_matrix(P.relations, _interior(spec, E, K))
        keep = np.flatnonzero(np.tile(positions(W.row_coords, finv) < 0, W.row_blocks))
        rank = rank_q(W.data, rng=rng).rank
        return P.n * len(F) - rank + rank_q(W.data.submatrix(keep, np.arange(W.data.cols)), rng=rng).rank

    return _stabilize(spec, _initial_erank_window(spec, finv, K), value, growth_steps)


def erank_of_presentation(
    P: ModulePresentation,
    schedule: Sequence[int],
    tolerance: Fraction = DEFAULT_TOLERANCE,
    seed: int = 0,
    growth_steps: int = DEFAULT_GROWTH_STEPS,
    max_window_elements: int = DEFAULT_MAX_WINDOW_ELEMENTS,
) -> DensitySeries:
    """Series of dual-restriction dimensions over |F|; running-minimum estimate."""

    def record(L: int, F) -> SeriesRecord:
        sd = erank_dual_restriction_dim(P, F, growth_steps=growth_steps, seed=seed)
        return SeriesRecord(L, len(F), sd.value, Fraction(sd.value, len(F)), None, sd.stabilized)

    return _series(P, schedule, "erank", tolerance, max_window_elements, record, min)


def quotient_span_rank(
    f: RingMatrix,
    B,
    F,
    growth_steps: int = DEFAULT_GROWTH_STEPS,
    seed: int = 0,
) -> StabilizedDim:
    """rank of <F^{-1} pi(B)> inside the quotient by the row module of f.

    The value is dim((V + N)/N), where V is the rational span of the window
    translates of B, and N is the part of the relation-row span supported in
    the same coordinate window S = F^{-1}.support(B), grown from below until
    stabilization.

    On a growth window E, let W = right_window_matrix(f, E), with rows
    (k, y) for y in E.K (K the support of f), and V^T the right window of B
    on F^{-1}, with rows (k, s) for s in S.  The first E contains S.K^{-1}
    and E only grows, so S lies inside E.K and V^T's rows are among W's:
    [W | V^T] is one block of ``window_operator``.  Let C be W's rows
    outside S and D its rows inside S; V^T is zero outside S.  Then
    N = D.ker C, and both dimensions come from ranks alone:

        dim N     = rank W - rank C,
        dim(V+N)  = rank [W | V^T] - rank C,

    so the value is rank [W | V^T] - rank W.  Proof of the second line:
    (g, h) |-> D g + V^T h, restricted to ker [C 0], has image V + D.ker C
    and kernel ker [W | V^T]; rank-nullity on ker [C 0], of dimension
    cols(W) - rank C + cols(V^T), gives it.  The first line is the case
    V = 0.

    This is ``_quotient_span_ranks`` of one case.
    """
    return _quotient_span_ranks(f.spec, [(f, B, F, growth_steps, seed)])[0]


def _quotient_span_ranks(spec: GroupSpec, cases) -> list[StabilizedDim]:
    """``quotient_span_rank`` of each (f, B, F, growth_steps, seed) case
    over spec, built and ranked in batches.

    A case whose B has no translate on F is 0, and one with a zero f is
    rank V, from one build and rank of their generator windows.  The other
    cases take S from one build of theirs, then go one growth step at a
    time (``_stabilize_all``): one ``window_operator`` call builds each
    case's block [W | V^T], and W is its first m|E| columns.  One
    ``block_ranks`` ranks the Ws and one the blocks, and the value is
    rank [W | V^T] - rank W (``quotient_span_rank`` gives the proof).  A
    case's rank generator at a step serves its W first and its block second,
    as for the case alone."""
    # B's terms and F^{-1} of each case: the generator part of its blocks.
    gens = [(_generator_terms(B, spec), spec.inverse_array(coords_of(spec, F))) for _, B, F, *_ in cases]
    spanned = []
    for c, ((f, _, _, growth_steps, _), (terms, finv)) in enumerate(zip(cases, gens)):
        _check_growth_steps(growth_steps)
        if len(terms.support) and len(finv):
            if terms.n != f.cols:
                raise InputError(f"case {c}: the generators and the relations have different numbers of columns")
            spanned.append(c)
    out = [StabilizedDim(0, True, 0, 0)] * len(cases)
    free = [c for c in spanned if cases[c][0].is_zero()]
    grown = [c for c in spanned if not cases[c][0].is_zero()]

    def generator_windows(at):
        return window_operator(spec, [[gens[c]] for c in at], left=True, anchor_rows=True)

    if free:
        V, v_rows, v_cols, _ = generator_windows(free)
        for c, cert in zip(free, block_ranks(V, v_rows, v_cols, [None] * len(free))):
            out[c] = StabilizedDim(cert.rank, True, 0, 0)
    if not grown:
        return out

    def values(at, Es, step):
        act = [grown[a] for a in at]
        rngs = [_RankRng(cases[c][4], "quotient-span", len(E), step) for c, E in zip(act, Es)]
        batch = [[(cases[c][0].terms(), E), gens[c]] for c, E in zip(act, Es)]
        M, row_at, col_at, _ = window_operator(spec, batch, left=True)
        # W is the first m|E| columns of each block.
        w_at = np.cumsum([0] + [cases[c][0].rows * len(E) for c, E in zip(act, Es)])
        w_cols = np.arange(w_at[-1]) + np.repeat(np.subtract(col_at[:-1], w_at[:-1]), np.diff(w_at))
        W = M.submatrix(np.arange(M.rows), w_cols)
        rank_w = block_ranks(W, row_at, w_at, rngs)
        return [b.rank - w.rank for b, w in zip(block_ranks(M, row_at, col_at, rngs), rank_w)]

    Ss = generator_windows(grown)[3]
    E0s = [_initial_erank_window(spec, S, cases[c][0].terms().support) for c, S in zip(grown, Ss)]
    for c, sd in zip(grown, _stabilize_all(spec, E0s, values, [cases[c][3] for c in grown])):
        out[c] = sd
    return out


# ---------------------------------------------------------------------------
# closed-form oracles
# ---------------------------------------------------------------------------


def oracle_value(P: ModulePresentation, seed: int = 0) -> Fraction:
    """Closed-form limit for the families with one: n minus the generic
    Laurent rank over Z^d, or the whole-group kernel density for finite
    groups."""
    spec = P.spec
    if spec.family == "Zd" and spec.d > 0:
        if P.m == 0:
            return Fraction(P.n)
        return Fraction(P.n - generic_rank_laurent(P.relations, rng=_RankRng(seed, "oracle")))
    if spec.is_finite:
        if P.m == 0:
            return Fraction(P.n)
        return regular_rep_kernel(P.relations, rng=_RankRng(seed, "oracle"))
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
    # Each finite coordinate, then each free one (all three for Heisenberg).
    free = spec.coord_len - len(spec.orders)
    for _ in range(rng.randint(0, max_terms)):
        g = [rng.randrange(k) for k in spec.orders] + [rng.randint(-radius, radius) for _ in range(free)]
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


def _by_group(cases, run) -> list:
    """``run(spec, items)`` once for each group among the (spec, item)
    cases, on that group's items in order; the results in case order."""
    out = [None] * len(cases)
    for spec in dict.fromkeys(spec for spec, _ in cases):
        at = [k for k, (g, _) in enumerate(cases) if g == spec]
        for k, r in zip(at, run(spec, [cases[k][1] for k in at])):
            out[k] = r
    return out


def run_identity_suite(
    seed: int,
    cases: int = 100,
    window_indices: Sequence[int] = (2, 3, 4),
) -> SuiteResult:
    """Randomized exact check of the window identity
    rank(<F^{-1} rows(f)>) = m|F| - dim ker(f* window).

    Every case is drawn first, each from its own generator; then the checks
    of each group are built and ranked as one batch (``_identity_checks``)."""
    specs = (zd(1), zd(2))
    windows = {(spec, L): folner_set(spec, L) for spec in specs for L in window_indices}
    result = SuiteResult("per-window-identity", cases)
    checks, labels = [], []
    for i in range(cases):
        rng = derived_rng(seed, "identity", i)
        spec = specs[i % len(specs)]
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        f = random_ring_matrix(rng, spec, m, n, radius=2, coeff_bound=3)
        for L in window_indices:
            checks.append((spec, (f, windows[spec, L], _RankRng(seed, "identity-rank", i, L))))
            labels.append(f"case {i}: {spec.family} d={spec.d} L={L}")
    ok = _by_group(checks, _identity_checks)
    result.failures += [label for label, good in zip(labels, ok) if not good]
    return result


def run_superadditivity_suite(seed: int, cases: int = 100) -> SuiteResult:
    """Randomized check that window ranks are superadditive across a
    submodule/quotient split: rank<F^{-1}A2> >= rank<F^{-1}A1> +
    rank<F^{-1}pi(A2)> with A2 = A1 u A3', A1 inside the row module.

    Every case is drawn first; then the ranks of A2 and A1 of each group are
    built and ranked as one batch, and the quotient ranks of each group grow
    their windows as one batch (``_quotient_span_ranks``)."""
    specs = (zd(1), zd(2))
    windows = {(spec, L): folner_set(spec, L) for spec in specs for L in (2, 3)}
    result = SuiteResult("superadditivity", cases)
    ranked, quotients = [], []
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
                combo = tuple(x + c * e for x, e in zip(combo, row))
            a1.append(combo)
        a3 = [
            tuple(random_ring_elem(rng, spec, radius=1, coeff_bound=2, max_terms=2) for _ in range(n))
            for _ in range(rng.randint(1, 2))
        ]
        # As matrices, so that each caches its terms across the calls below.
        a1, a2 = RingMatrix(spec, a1), RingMatrix(spec, a1 + a3)
        F = windows[spec, rng.randint(2, 3)]
        ranked.append((spec, (a2, F, _RankRng(seed, "superadd-r2", i))))
        ranked.append((spec, (a1, F, _RankRng(seed, "superadd-r1", i))))
        # The quotient rank is approached from above, so the windows grow for
        # up to 14 steps before a failure is declared.
        quotients.append((spec, (f, a2, F, 14, seed + i)))
    ranks = _by_group(ranked, _submodule_ranks)
    for i, q in enumerate(_by_group(quotients, _quotient_span_ranks)):
        r2, r1 = ranks[2 * i : 2 * i + 2]
        if not q.stabilized:
            result.flagged += 1
        elif r2 < r1 + q.value:
            result.failures.append(f"case {i}: {r2} < {r1} + {q.value}")
    return result


def run_submodularity_suite(seed: int, cases: int = 100) -> SuiteResult:
    """Randomized check of submodularity and right-translation invariance of
    F |-> rank(<F^{-1}A>).

    Every case is drawn first; then the five windows of every case of each
    group (F1 u F2, F1 n F2, F1, F2 and F1.s) are built and ranked as one
    batch.  Ranks are exact, so F1's one rank serves both checks."""
    specs = (zd(1), zd(2))
    boxes = {spec: folner_set(spec, 4 if spec.d > 1 else 8).elements for spec in specs}
    result = SuiteResult("submodularity", cases)
    ranked = []
    for i in range(cases):
        rng = derived_rng(seed, "submod", i)
        spec = specs[i % len(specs)]
        n = rng.randint(1, 2)
        A = [
            tuple(random_ring_elem(rng, spec, radius=1, coeff_bound=2, max_terms=2) for _ in range(n))
            for _ in range(rng.randint(1, 2))
        ]
        A = RingMatrix(spec, A)  # a matrix caches its terms across the windows below
        box = boxes[spec]
        cap = min(6, len(box))
        f1 = tuple(sorted(rng.sample(box, rng.randint(1, cap))))
        f2 = tuple(sorted(rng.sample(box, rng.randint(1, cap))))
        union = tuple(sorted(set(f1) | set(f2)))
        inter = tuple(sorted(set(f1) & set(f2)))
        s = rng.choice(box)
        translated = tuple(sorted(spec.mul(g, s) for g in f1))
        for F, tag in ((union, "u"), (inter, "i"), (f1, "1"), (f2, "2"), (translated, "t")):
            ranked.append((spec, (A, F, _RankRng(seed, "submod-rank", i, tag))))
    ranks = _by_group(ranked, _submodule_ranks)
    for i in range(cases):
        u, meet, r1, r2, t = ranks[5 * i : 5 * i + 5]
        if u + meet > r1 + r2:
            result.failures.append(f"case {i}: submodularity broken")
        if t != r1:
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
