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
import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from math import prod
from operator import itemgetter
from typing import Sequence

import numpy as np

from .errors import BudgetExceededError, InputError, UnsupportedGroupError
from .exactla import (
    RankCertificate,
    SparseIntMatrix,
    _dense_rank_mod_p,
    block_ranks,
    nullspace_q,  # noqa: F401  no caller here; perfbench traces it as ranks.nullspace_q
    random_prime,
    rank_q,
)
from .groupring import (
    RingElem,
    RingMatrix,
    Terms,
    right_window_matrix,  # noqa: F401  no caller here; perfbench traces it as ranks.right_window_matrix
    star_terms,
    terms_by_case,
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
    unique_rows,
    window_size,
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
# presentations
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

    @classmethod
    def free(cls, spec: GroupSpec, n: int) -> "ModulePresentation":
        return cls(RingMatrix(spec, [], cols=n))


# ---------------------------------------------------------------------------
# window-level quantities
# ---------------------------------------------------------------------------


def _generator_windows(spec: GroupSpec, cases) -> tuple[SparseIntMatrix, list[int], list[int], list]:
    """``window_operator`` of the submodule_rank_matrix of each (A, F, ...)
    case over spec, A its generators' ``Terms``: the union, its block
    offsets, and the sorted elements of each F^{-1}.support(A)."""
    batch = [[(A, spec.inverse_array(coords_of(spec, F)))] for A, F, *_ in cases]
    return window_operator(spec, batch, left=True, anchor_rows=True)


def _submodule_ranks(spec: GroupSpec, cases) -> list[int]:
    """rank(<F^{-1}A>) of each (A, F, rng) case over spec, A its generators'
    ``Terms``, built and ranked as one batch."""
    M, row_at, col_at, _ = _generator_windows(spec, cases)
    return [c.rank for c in block_ranks(M, row_at, col_at, [rng for *_, rng in cases])]


def submodule_rank_matrix(
    A: RingMatrix, F: "FolnerSet | Sequence[GroupElement]", spec: GroupSpec
) -> SparseIntMatrix:
    """Integer matrix whose rows are the coefficient vectors of s^{-1} a
    for s in F and a a row of A; columns indexed by coordinate x
    F^{-1}.support(A).  Row (s, a) sits at index(s) * |A| + index(a); a row
    of A with fractions is scaled by the lcm of its denominators."""
    return _generator_windows(spec, [(A.terms(), F)])[0]


def submodule_rank(
    A: RingMatrix, F, spec: GroupSpec, rng: random.Random | None = None
) -> tuple[int, RankCertificate]:
    cert = rank_q(submodule_rank_matrix(A, F, spec), rng=rng)
    return cert.rank, cert


def window_kernel_dim(
    P: ModulePresentation, F, rng: random.Random | None = None
) -> tuple[int, RankCertificate]:
    """dim over Q of ker f intersected with vectors supported in F."""
    W = window_matrix(P.relations, F)
    cert = rank_q(W.data, rng=rng)
    return W.data.cols - cert.rank, cert


def _identity_checks(spec: GroupSpec, cases) -> list[bool]:
    """The window identity rank(<F^{-1} rows(f)>) == m|F| - dim ker(window
    of f*) of each (f, f*, F, rng) case over spec, f and f* as ``Terms``:
    two independent computations of the same number, so inequality is a
    genuine failure.  Built and ranked as two batches: the left sides, then
    the windows of f*.  A case's rng serves both of its ranks, in that
    order."""
    lhs = _submodule_ranks(spec, [(f, F, rng) for f, _, F, rng in cases])
    batch = [[(star, coords_of(spec, F))] for _, star, F, _ in cases]
    W, row_at, col_at, _ = window_operator(spec, batch, left=False)
    rhs = block_ranks(W, row_at, col_at, [rng for *_, rng in cases])
    checks = []
    for (f, *_), [(_, F)], rank, c0, c1, cert in zip(cases, batch, lhs, col_at, col_at[1:], rhs):
        kernel_dim = c1 - c0 - cert.rank
        checks.append(rank == f.m * len(F) - kernel_dim)
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
    P: ModulePresentation, schedule, quantity, tolerance, max_window_elements, records, estimate, lowest=0
):
    """The one series driver: one ``records(Ls, Fs)`` call gives a record
    for every scheduled window that fits the budget, each density checked
    against [lowest, n], then the limit estimate (``estimate`` of the
    densities, at least 0, as every limit is) and the convergence status."""
    schedule = _validate_schedule(schedule)
    kept, truncated = _truncate_schedule(P.spec, schedule, max_window_elements)
    records = list(records(kept, [folner_set(P.spec, L, max_window_elements) for L in kept]))
    for r in records:
        if not lowest <= r.density <= P.n:
            raise InputError(f"density {r.density} escaped [{lowest}, {P.n}]")
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
        rng = _RankRng(seed, "mrank", L)
        rank, cert = submodule_rank(P.relations, F, P.spec, rng=rng)
        return SeriesRecord(L, len(F), rank, P.n - Fraction(rank, len(F)), cert)

    # n - min rank/|F| is the largest density.
    records = partial(map, record)
    return _series(P, schedule, "mrank-submodule", tolerance, max_window_elements, records, max, P.n - P.m)


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

    records = partial(map, record)
    return _series(P, schedule, "vnd-kernel-density", tolerance, max_window_elements, records, itemgetter(-1))


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


def _identity(P: ModulePresentation) -> Terms:
    """The terms of the n x n identity over P's group: the canonical
    generators of P."""
    at = np.arange(P.n)
    return Terms(P.n, P.n, at, at, np.zeros_like(at), np.ones_like(at), P.spec.coords([P.spec.identity()][: P.n]))


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
    with zero columns at E outside I(E).K.  Let D be W's n|F| rows at F^{-1}
    (zero where W has none) and C the others.  With F^{-1} inside E, x on
    F^{-1} extends to a solution iff D^T x is in im C^T, so the restrictions
    are the kernel of x |-> D^T x mod im C^T, of dimension
    n|F| - rank W + rank C.  The value is nonincreasing in E and stabilizes
    at the true restriction dimension.

    It is ``quotient_span_rank`` of the n x n identity with W anchored on
    I(E) (``_quotient_span_ranks`` with ``interior``), as for B = I_n
    rank [W | V^T] - rank W = n|F| - rank W + rank C.  Proof: V^T has one
    column for each row (k, s) at F^{-1}, the unit vector there.  Column
    operations with them clear D, and the n|F| unit columns are independent
    of C, so rank [W | V^T] = n|F| + rank C."""
    return _quotient_span_ranks(P.spec, [(P.relations.terms(), _identity(P), F, growth_steps, seed)], interior=True)[0]


def erank_of_presentation(
    P: ModulePresentation,
    schedule: Sequence[int],
    tolerance: Fraction = DEFAULT_TOLERANCE,
    seed: int = 0,
    growth_steps: int = DEFAULT_GROWTH_STEPS,
    max_window_elements: int = DEFAULT_MAX_WINDOW_ELEMENTS,
) -> DensitySeries:
    """Series of ``erank_dual_restriction_dim`` over |F|, every window grown in
    one ``_quotient_span_ranks`` call; running-minimum estimate."""

    def records(Ls, Fs) -> list[SeriesRecord]:
        cases = [(P.relations.terms(), _identity(P), F, growth_steps, seed) for F in Fs]
        return [
            SeriesRecord(L, len(F), d.value, Fraction(d.value, len(F)), None, d.stabilized)
            for L, F, d in zip(Ls, Fs, _quotient_span_ranks(P.spec, cases, interior=True))
        ]

    return _series(P, schedule, "erank", tolerance, max_window_elements, records, min)


def quotient_span_rank(
    f: RingMatrix,
    B: RingMatrix,
    F,
    growth_steps: int = DEFAULT_GROWTH_STEPS,
    seed: int = 0,
) -> StabilizedDim:
    """rank of <F^{-1} pi(B)> inside the quotient by the row module of f,
    for the generators B given as the rows of a matrix.

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
    return _quotient_span_ranks(f.spec, [(f.terms(), B.terms(), F, growth_steps, seed)])[0]


def _quotient_span_ranks(spec: GroupSpec, cases, interior: bool = False) -> list[StabilizedDim]:
    """``quotient_span_rank`` of each (f, B, F, growth_steps, seed) case
    over spec, f and B as ``Terms``, built and ranked in batches.

    A case whose B has no translate on F is 0, and one with a zero f is
    rank V, from one build and rank of their generator windows.  The other
    cases take S from one build of theirs, then go one growth step at a
    time (``_stabilize_all``): one ``window_operator`` call builds each
    case's block [W | V^T], and W is its first m|X| columns, X the anchors
    of f.  One ``block_ranks`` ranks the Ws and one the blocks, and the
    value is rank [W | V^T] - rank W (``quotient_span_rank`` gives the
    proof).  A case's rank generator at a step serves its W first and its
    block second, as for the case alone.

    With ``interior``, W on a growth window E is anchored on its interior
    {u : u.K inside E}: ``erank_dual_restriction_dim`` of B = I_n."""
    # B's terms and F^{-1} of each case: the generator part of its blocks.
    gens = [(B, spec.inverse_array(coords_of(spec, F))) for _, B, F, *_ in cases]
    spanned = []
    for c, ((f, _, _, growth_steps, _), (terms, finv)) in enumerate(zip(cases, gens)):
        _check_growth_steps(growth_steps)
        if len(terms.support) and len(finv):
            if terms.n != f.n:
                raise InputError(f"case {c}: the generators and the relations have different numbers of columns")
            spanned.append(c)
    out = [StabilizedDim(0, True, 0, 0)] * len(cases)
    free = [c for c in spanned if not len(cases[c][0].vals)]
    grown = [c for c in spanned if len(cases[c][0].vals)]

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
        fs = [cases[c][0] for c in act]
        batch = [[(t, _interior(spec, E, t.support) if interior else E), gens[c]] for c, t, E in zip(act, fs, Es)]
        M, row_at, col_at, _ = window_operator(spec, batch, left=True)
        # W is the first m|X| columns of each block, X the anchors of its f.
        w_at = np.cumsum([0] + [t.m * len(X) for (t, X), _ in batch])
        w_cols = np.arange(w_at[-1]) + np.repeat(np.subtract(col_at[:-1], w_at[:-1]), np.diff(w_at))
        W = M.submatrix(np.arange(M.rows), w_cols)
        rank_w = block_ranks(W, row_at, w_at, rngs)
        return [b.rank - w.rank for b, w in zip(block_ranks(M, row_at, col_at, rngs), rank_w)]

    Ss = generator_windows(grown)[3]
    E0s = [_initial_erank_window(spec, S, cases[c][0].support) for c, S in zip(grown, Ss)]
    for c, sd in zip(grown, _stabilize_all(spec, E0s, values, [cases[c][3] for c in grown])):
        out[c] = sd
    return out


# ---------------------------------------------------------------------------
# closed-form oracles
# ---------------------------------------------------------------------------


LAURENT_TRIALS = 3


def _laurent_minor_rank(f: RingMatrix) -> int:
    # Deterministic: largest k with a nonvanishing k x k minor, determinants
    # expanded symbolically in the commutative Laurent ring.
    m, n = f.rows, f.cols
    for k in range(min(m, n), 0, -1):
        for rows in itertools.combinations(range(m), k):
            for cols in itertools.combinations(range(n), k):
                det = RingElem.zero(f.spec)
                for perm in itertools.permutations(range(k)):
                    sign = 1
                    for i in range(k):
                        for j in range(i + 1, k):
                            if perm[i] > perm[j]:
                                sign = -sign
                    term = RingElem.one(f.spec) * sign
                    for i in range(k):
                        term = term * f.entries[rows[i]][cols[perm[i]]]
                    det = det + term
                if not det.is_zero():
                    return k
    return 0


def generic_rank_laurent(f: RingMatrix, rng: random.Random | None = None) -> int:
    """Rank of a Laurent-polynomial matrix over the fraction field of Z[Z^d].

    Random evaluation at points of a ~2^62 prime field, max over
    ``LAURENT_TRIALS`` points; matrices with at most 4 rows and columns
    instead use the deterministic symbolic minor expansion.
    """
    if f.spec.family != "Zd":
        raise UnsupportedGroupError("generic Laurent rank needs a Zd group")
    if not f.terms().vals.size:
        return 0
    if max(f.rows, f.cols) <= 4:
        return _laurent_minor_rank(f)
    rng = rng if rng is not None else random.Random(0xF02)
    p = random_prime(rng, bits=62)
    best = 0
    for _ in range(LAURENT_TRIALS):
        point = tuple(rng.randrange(1, p) for _ in range(f.spec.d))
        best = max(best, point_rank_laurent(f, point, p))
    return best


def point_rank_laurent(f: RingMatrix, point: tuple[int, ...], p: int) -> int:
    """Rank of f evaluated at one point of the prime field F_p.  It evaluates
    f's terms, whose rows are scaled to integers; the scale is a unit mod p
    unless p divides a denominator of f."""
    t = f.terms()
    monomials = [prod(pow(z, e, p) for z, e in zip(point, expo)) % p for expo in t.support.tolist()]
    dense = [[0] * t.n for _ in range(t.m)]
    for j, k, g, c in zip(t.row.tolist(), t.col.tolist(), t.elem.tolist(), t.vals.tolist()):
        dense[j][k] = (dense[j][k] + c * monomials[g]) % p
    return _dense_rank_mod_p(dense, p)


def regular_rep_kernel(f: RingMatrix, rng: random.Random | None = None) -> Fraction:
    """Normalized kernel dimension of the whole-group window of a finite group.

    Returns dim ker(window) / |G|, the kernel-projection trace in the finite
    case; densities over finite groups are exact in this single window.
    """
    if not f.spec.is_finite:
        raise UnsupportedGroupError("regular representation kernel needs a finite group")
    dim, _ = window_kernel_dim(ModulePresentation(f), folner_set(f.spec, 1), rng=rng)
    return Fraction(dim, f.spec.group_order())


def oracle_value(P: ModulePresentation, seed: int = 0) -> Fraction:
    """Closed-form limit for the families with one: n minus the generic
    Laurent rank over Z^d, or the whole-group kernel density for finite
    groups.  A free module (m = 0) gets n from either."""
    spec = P.spec
    if spec.family == "Zd" and spec.d > 0:
        return Fraction(P.n - generic_rank_laurent(P.relations, rng=_RankRng(seed, "oracle")))
    if spec.is_finite:
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


class _TermTable:
    """Random matrices over one group, drawn straight into flat term lists:
    one table holds the cases of one suite and group.

    ``matrix`` draws the next case entry by entry along its rows.  An entry
    draws ``randint(0, max_terms)`` terms, each with ``randrange(k)`` for
    each finite order k and ``randint(-radius, radius)`` for each free
    coordinate (all three for Heisenberg), then ``randint(-coeff_bound,
    coeff_bound)``.  Drawn coordinates are already reduced.  ``arrays`` gives the flat
    (case, row, col, coords, vals) arrays, and ``terms`` each case's
    ``Terms``, its equal terms summed (``terms_by_case``)."""

    def __init__(self, spec: GroupSpec):
        self.spec = spec
        self.shapes: list[tuple[int, int]] = []
        self.at: list[tuple[int, int, int]] = []
        self.coords: list[list[int]] = []
        self.vals: list[int] = []

    def matrix(self, rng: random.Random, m: int, n: int, radius=2, coeff_bound=3, max_terms=3) -> int:
        """Draw an m x n matrix as the next case; its case number."""
        case = len(self.shapes)
        self.shapes.append((m, n))
        randint, randrange, orders = rng.randint, rng.randrange, self.spec.orders
        free = range(self.spec.coord_len - len(orders))
        for j in range(m):
            for k in range(n):
                for _ in range(randint(0, max_terms)):
                    self.coords.append([randrange(q) for q in orders] + [randint(-radius, radius) for _ in free])
                    self.vals.append(randint(-coeff_bound, coeff_bound))
                    self.at.append((case, j, k))
        return case

    def arrays(self) -> tuple[np.ndarray, ...]:
        at = np.array(self.at, dtype=np.int64).reshape(len(self.at), 3)
        return at[:, 0], at[:, 1], at[:, 2], self.spec.coords(self.coords), np.array(self.vals, dtype=np.int64)

    def terms(self) -> list[Terms]:
        return terms_by_case(self.shapes, *self.arrays())


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

    Every case is drawn first, each from its own generator, into one term
    table per group (``_TermTable``), and f* is taken from f's terms
    (``star_terms``); then the checks of each group are built and ranked as
    one batch (``_identity_checks``)."""
    specs = (zd(1), zd(2))
    windows = {(spec, L): folner_set(spec, L) for spec in specs for L in window_indices}
    tables = {spec: _TermTable(spec) for spec in specs}
    drawn = []
    for i in range(cases):
        rng = derived_rng(seed, "identity", i)
        spec = specs[i % len(specs)]
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        drawn.append((spec, tables[spec].matrix(rng, m, n, radius=2, coeff_bound=3)))
    terms = {spec: t.terms() for spec, t in tables.items()}
    stars = {spec: star_terms(spec, ts) for spec, ts in terms.items()}
    result = SuiteResult("per-window-identity", cases)
    checks, labels = [], []
    for i, (spec, c) in enumerate(drawn):
        for L in window_indices:
            rng = _RankRng(seed, "identity-rank", i, L)
            checks.append((spec, (terms[spec][c], stars[spec][c], windows[spec, L], rng)))
            labels.append(f"case {i}: {spec.family} d={spec.d} L={L}")
    ok = _by_group(checks, _identity_checks)
    result.failures += [label for label, good in zip(labels, ok) if not good]
    return result


def _superadditivity_terms(spec: GroupSpec, f: _TermTable, c: _TermTable, a3: _TermTable):
    """Each case's terms of f, of A1 = C.f and of A2 = [A1; A3], from the
    tables of f, C and A3 over spec.  C.f is taken over pairs of terms: each
    term of C_{a,j} times each term of f_{j,k} in the same case, C on the
    left, as the group need not commute."""
    case, row, col, coords, vals = c.arrays()
    f_arrays = f.arrays()
    f_case, f_row, f_col, f_coords, f_vals = f_arrays
    # f's terms by (case, row); a term of C_{a,j} meets the run of row j.
    radix = 1 + max(int(f_row.max(initial=0)), int(col.max(initial=0)))
    order = np.argsort(f_case * radix + f_row, kind="stable")
    key = (f_case * radix + f_row)[order]
    lo, hi = (np.searchsorted(key, case * radix + col, side) for side in ("left", "right"))
    ci = np.repeat(np.arange(len(case)), hi - lo)
    fi = order[np.arange(len(ci)) + np.repeat(lo - np.cumsum(hi - lo) + (hi - lo), hi - lo)]
    a1 = (case[ci], row[ci], f_col[fi], spec.mul_array(coords[ci], f_coords[fi]), vals[ci] * f_vals[fi])
    # A3's rows go below A1's.
    a3_case, a3_row, *a3_rest = a3.arrays()
    top = np.array([r1 for r1, _ in c.shapes], dtype=np.int64)
    a2 = [np.concatenate(x) for x in zip(a1, (a3_case, a3_row + top[a3_case], *a3_rest))]
    shapes1 = [(r1, n) for (r1, _), (_, n) in zip(c.shapes, f.shapes)]
    shapes2 = [(r1 + r3, n) for (r1, n), (r3, _) in zip(shapes1, a3.shapes)]
    return terms_by_case(f.shapes, *f_arrays), terms_by_case(shapes1, *a1), terms_by_case(shapes2, *a2)


def run_superadditivity_suite(seed: int, cases: int = 100) -> SuiteResult:
    """Randomized check that window ranks are superadditive across a
    submodule/quotient split: rank<F^{-1}A2> >= rank<F^{-1}A1> +
    rank<F^{-1}pi(A2)> with A2 = A1 u A3', A1 inside the row module.

    Every case is drawn first, f, the coefficients C of A1 = C.f and A3
    each into one term table per group; A1 and A2 are formed on the term
    arrays (``_superadditivity_terms``).  Then the ranks of A2 and A1 of
    each group are built and ranked as one batch, and the quotient ranks of
    each group grow their windows as one batch (``_quotient_span_ranks``)."""
    specs = (zd(1), zd(2))
    windows = {(spec, L): folner_set(spec, L) for spec in specs for L in (2, 3)}
    small = dict(radius=1, coeff_bound=2, max_terms=2)
    tables = {spec: [_TermTable(spec) for _ in range(3)] for spec in specs}
    drawn = []
    for i in range(cases):
        rng = derived_rng(seed, "superadd", i)
        spec = specs[i % len(specs)]
        f, c, a3 = tables[spec]
        m, n = rng.randint(1, 2), rng.randint(1, 2)
        f.matrix(rng, m, n, **small)
        # Row a of A1 is the sum over j of C_{a,j} times row j of f.
        c.matrix(rng, rng.randint(1, 2), m, **small)
        case = a3.matrix(rng, rng.randint(1, 2), n, **small)
        drawn.append((spec, case, windows[spec, rng.randint(2, 3)]))
    terms = {spec: _superadditivity_terms(spec, *tabs) for spec, tabs in tables.items()}
    result = SuiteResult("superadditivity", cases)
    ranked, quotients = [], []
    for i, (spec, case, F) in enumerate(drawn):
        f, a1, a2 = (ts[case] for ts in terms[spec])
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

    Every case is drawn first, A into one term table per group; then the
    five windows of every case of each group (F1 u F2, F1 n F2, F1, F2 and
    F1.s) are built and ranked as one batch.  Ranks are exact, so F1's one
    rank serves both checks."""
    specs = (zd(1), zd(2))
    boxes = {spec: folner_set(spec, 4 if spec.d > 1 else 8).coords for spec in specs}
    tables = {spec: _TermTable(spec) for spec in specs}
    drawn = []
    for i in range(cases):
        rng = derived_rng(seed, "submod", i)
        spec = specs[i % len(specs)]
        n = rng.randint(1, 2)
        case = tables[spec].matrix(rng, rng.randint(1, 2), n, radius=1, coeff_bound=2, max_terms=2)
        box = boxes[spec]
        # The windows are drawn as box positions: sampling them makes the
        # rng calls that sampling the elements makes, and the box is in
        # lexicographic order, so sorted positions give sorted windows.
        at, cap = range(len(box)), min(6, len(box))
        f1 = sorted(rng.sample(at, rng.randint(1, cap)))
        f2 = sorted(rng.sample(at, rng.randint(1, cap)))
        union, inter = sorted(set(f1) | set(f2)), sorted(set(f1) & set(f2))
        # A translate of a sorted window of Z^d is sorted.
        translated = spec.mul_array(box[f1], box[rng.choice(at)])
        drawn.append((spec, case, (box[union], box[inter], box[f1], box[f2], translated)))
    terms = {spec: t.terms() for spec, t in tables.items()}
    result = SuiteResult("submodularity", cases)
    ranked = []
    for i, (spec, case, Fs) in enumerate(drawn):
        for F, tag in zip(Fs, "ui12t"):
            ranked.append((spec, (terms[spec][case], F, _RankRng(seed, "submod-rank", i, tag))))
    ranks = _by_group(ranked, _submodule_ranks)
    for i in range(cases):
        u, meet, r1, r2, t = ranks[5 * i : 5 * i + 5]
        if u + meet > r1 + r2:
            result.failures.append(f"case {i}: submodularity broken")
        if t != r1:
            result.failures.append(f"case {i}: translation invariance broken")
    return result
