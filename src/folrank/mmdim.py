"""Desk-scale metric mean dimension estimator for dual solenoid actions.

The state space is the set of circle-valued vectors on a window F whose
interior constraints (f x)_t = 0 mod 1, t in F', are satisfied, where
F' = {s in F : K^{-1} s inside F} and K is the support of f.  Upper bounds
for separated-set counts come from the explicit counting bound

    N_eps <= (1 + 2/eps)^(m|KF \\ F'| + dim ker(window)) * (|f|_1 + 1)^(m|F'|),

with |f|_1 taken after each row of f is scaled to integers, as the window
operator's rows are; lower bounds come from two explicit packings: an
eps-grid over the free coordinates of the real solution space of the
interior system (certified, counted without enumeration) and a greedy
packing of sampled rational solutions (torsion points and random kernel
combinations).  All distances use the max-over-coordinates circle metric.

Nothing but the sampling depends on eps, so each window is built once
(`_window`): one window operator and its rank, F', the interior constraint
matrix C and C's rational and torsion kernel bases.  `mmdim_estimate`
shares that build across every eps; the single-eps functions build it for
their one call.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import InputError
from .exactla import SparseIntMatrix, kernel_basis, nullspace_q, rank_q
from .groupring import RingMatrix, window_matrix
from .groups import DEFAULT_MAX_WINDOW_ELEMENTS, FolnerSet, GroupElement, coords_of, folner_set, positions
from .ranks import derived_rng

CONGRUENCE_TOL = 2.0**-40
_ENUM_CAP = 4096
_FILL_ROWS = 64
_PACK_ROWS = 64


def theta(a: float, b: float) -> float:
    """Circle metric: min over integers z of |a - b - z|, in [0, 1/2]."""
    d = abs(a - b) % 1.0
    return min(d, 1.0 - d)


def _theta_arrays(x: np.ndarray, y: np.ndarray) -> float:
    d = np.abs(x - y) % 1.0
    return float(np.minimum(d, 1.0 - d).max()) if d.size else 0.0


def interior_set(f: RingMatrix, F) -> np.ndarray:
    """F' = {s in F : K^{-1} s inside F}, K the support of f (empty K keeps
    all), as coordinates in F's order."""
    spec, F = f.spec, coords_of(f.spec, F)
    kinv = spec.inverse_array(f.terms().support)
    P = spec.mul_array(kinv[:, None], F[None]).reshape(len(kinv) * len(F), spec.coord_len)
    found = positions(P, F).reshape(len(kinv), len(F)) >= 0
    return F[found.all(axis=0)]


def interior_constraint_matrix(f: RingMatrix, F) -> SparseIntMatrix:
    """The window operator rows restricted to output positions in F'."""
    return _window(f, F).C


@dataclass(frozen=True)
class SolenoidBoxPoint:
    """A circle-valued vector on (coordinate, window element) positions that
    satisfies the interior congruences up to the fixed tolerance."""

    f: RingMatrix
    window: tuple[GroupElement, ...]
    values: np.ndarray  # shape (n, |F|), entries in [0, 1)

    def __post_init__(self):
        n, nf = self.values.shape
        if n != self.f.cols or nf != len(self.window):
            raise InputError("value grid does not match the presentation and window")
        err = _congruence_error(self.f, self.window, self.values)
        if err > CONGRUENCE_TOL:
            raise InputError(f"interior congruence violated by {err:.3e}")


def _congruence_error(f: RingMatrix, felems: Sequence[GroupElement], values: np.ndarray) -> float:
    spec = f.spec
    pos = {s: i for i, s in enumerate(felems)}
    inv, mul = spec.inverse, spec.mul
    worst = 0.0
    for t in interior_set(f, felems).tolist():
        for j in range(f.rows):
            acc = 0.0
            for k in range(f.cols):
                for u, c in f.entries[j][k].coeffs.items():
                    acc += float(c) * values[k, pos[mul(inv(u), t)]]
            worst = max(worst, abs(acc - round(acc)))
    return worst


def theta_pseudometric(x: SolenoidBoxPoint, y: SolenoidBoxPoint) -> float:
    """max over window positions and coordinates of the circle distance."""
    if x.f is not y.f and x.f != y.f:
        raise InputError("points live on different solution sets")
    if x.window != y.window:
        raise InputError("points live on different windows")
    return _theta_arrays(x.values, y.values)


def _check_eps(eps: float) -> None:
    """Every bound takes a scale 0 < eps < 1.  The grid modulus is about
    1/eps and the random fill draws integers up to 4/eps, which must convert
    to finite floats, so eps must be at least about 2.2e-308."""
    if not (0.0 < eps < 1.0 and math.isfinite(4.0 / eps)):
        raise InputError(f"eps must lie in (0, 1) with 4/eps finite, got {eps}")


def _grid_modulus(eps: float) -> int:
    return max(1, int(1.0 / eps + 1e-9))


@dataclass(frozen=True)
class _Window:
    """What the bounds read of one window F: built once by `_window`, and
    shared by every eps."""

    size: int  # |F|, which keys the packing rng
    exponent: int  # m|K.F \ F'| + dim ker(window)
    interior_log: float  # m|F'| log(|f|_1 + 1)
    C: SparseIntMatrix  # the interior constraint matrix
    rational_basis: tuple  # nullspace_q(C)
    torsion_bases: tuple  # (p, basis) for each p in 2, 3, 5, 7 where C has a kernel mod p

    def upper_log(self, eps: float) -> float:
        return self.exponent * math.log1p(2.0 / eps) + self.interior_log

    @property
    def grid_dim(self) -> int:
        return len(self.rational_basis)

    def lower_count(self, eps: float, budget: int, seed: int) -> int:
        if budget < 1:
            raise InputError("sample budget must be >= 1")
        rng = derived_rng(seed, "packing", self.size, repr(eps))
        return _greedy_count(_solution_samples(self, eps, budget, rng), eps)

    def report(self, L: int, eps: float, budget: int, seed: int) -> PackingReport:
        lower = self.lower_count(eps, budget, seed)
        return PackingReport(L, self.size, eps, lower, self.upper_log(eps), self.grid_dim)


def _window(f: RingMatrix, F) -> _Window:
    """The window operator W, its rank, F', C = W's rows in F', and C's
    rational and torsion kernel bases.  The counting bound takes the l1 norm
    of f's terms, whose rows are scaled to integers as W's and C's are."""
    W, fprime = window_matrix(f, F), interior_set(f, F)
    inside = positions(W.row_coords, fprime) >= 0
    C = W.data.submatrix(np.flatnonzero(np.tile(inside, W.row_blocks)), np.arange(W.data.cols))
    norm = sum(abs(int(v)) for v in f.terms().vals)
    dense = C.to_dense()
    torsion = ((p, kernel_basis(dense, C.cols, p)) for p in (2, 3, 5, 7))
    return _Window(
        size=len(coords_of(f.spec, F)),
        exponent=f.rows * int((~inside).sum()) + W.data.cols - rank_q(W.data).rank,
        interior_log=f.rows * len(fprime) * math.log(float(norm) + 1.0),
        C=C,
        rational_basis=tuple(nullspace_q(C)),
        torsion_bases=tuple((p, np.array(b, dtype=np.int64)) for p, b in torsion if b),
    )


def separated_upper_bound(f: RingMatrix, F, eps: float) -> float:
    """log of the explicit separated-set counting bound at scale eps."""
    _check_eps(eps)
    return _window(f, F).upper_log(eps)


def kernel_grid_packing(f: RingMatrix, F, eps: float) -> tuple[int, int]:
    """(count, dim): the certified grid packing floor(1/eps)^dim built on the
    free coordinates of the real interior solution space.

    Any two grid points differ in a free coordinate by a nonzero multiple of
    the grid step, so the packing is eps-separated; the count is exact
    without enumerating it.
    """
    _check_eps(eps)
    dim = _window(f, F).grid_dim
    return _grid_modulus(eps) ** dim, dim


def _solution_samples(w: _Window, eps: float, budget: int, rng: random.Random) -> np.ndarray:
    """Deterministic (budget, columns) array of points of the interior
    solution set of the window w, flattened to window-column layout with
    entries in [0, 1]: grid points and torsion solutions are enumerated when
    small, then random combinations fill the budget.  When the enumeration
    holds every solution the fill could reach, it is the whole array, each
    row once.

    The rng is drawn per fill row in a fixed order, and each row's float sum
    is taken basis vector by basis vector, so every row is the point the
    one-row-at-a-time construction gives; adding a zero term adds a signed
    zero, which leaves the (never negative-zero) partial sum unchanged.
    """
    ncols, rational_basis, torsion_bases = w.C.cols, w.rational_basis, w.torsion_bases
    points = np.zeros((budget, ncols))
    produced = 0

    # Exact eps-grid over the free coordinates of the real solution space.
    q = _grid_modulus(eps)
    if q ** len(rational_basis) <= min(budget, _ENUM_CAP):
        step = Fraction(1, q)
        for combo in itertools.product(range(q), repeat=len(rational_basis)):
            vec = [Fraction(0)] * ncols
            for lam, basis_vec in zip(combo, rational_basis):
                if lam:
                    for idx, b in enumerate(basis_vec):
                        if b:
                            vec[idx] += lam * step * b
            points[produced] = [float(x) % 1.0 for x in vec]
            produced += 1
        if produced >= budget:
            return points

    # Torsion solutions modulo small primes; entries are exact int64.
    enumerated = not rational_basis
    for p, basis in torsion_bases:
        if p ** len(basis) <= min(budget - produced, _ENUM_CAP):
            combos = np.array(list(itertools.product(range(p), repeat=len(basis))), dtype=np.int64)
            points[produced : produced + len(combos)] = (combos @ basis) % p / p
            produced += len(combos)
            if produced >= budget:
                return points
        else:
            enumerated = False
    if enumerated:
        # With no rational kernel, a fill row is the zero row or a combination
        # of one torsion basis: an enumerated row, up to the rounding of its
        # float sum.  The fill adds no solution, so the samples are the
        # enumerated rows, each once (the bases share the zero row).
        _, first = np.unique(points[:produced], axis=0, return_index=True)
        return points[np.sort(first)]

    # Random fill: rational-kernel combinations plus torsion offsets, drawn
    # and summed one block of rows at a time to keep temporaries small.
    float_basis = [np.array([float(x) for x in bvec]) for bvec in rational_basis]
    for start in range(produced, budget, _FILL_ROWS):
        block = points[start : start + _FILL_ROWS]
        lams = []
        offsets: list[tuple[list[int], list[list[int]]]] = [([], []) for _ in torsion_bases]
        for row in range(len(block)):
            lams.append([rng.randint(-4 * q, 4 * q) for _ in float_basis])
            if torsion_bases and rng.random() < 0.5:
                t = rng.randrange(len(torsion_bases))
                p, basis = torsion_bases[t]
                offsets[t][0].append(row)
                offsets[t][1].append([rng.randrange(p) for _ in range(len(basis))])
        for lam, bvec in zip(np.array(lams, dtype=float).T / (2.0 * q), float_basis):
            block += lam[:, None] * bvec
        for (p, basis), (rows, tlams) in zip(torsion_bases, offsets):
            if rows:
                sub = block[rows]
                for lam, bvec in zip(np.array(tlams).T, basis):
                    sub += lam[:, None] * bvec / p
                block[rows] = sub
    points[produced:] %= 1.0
    return points


def _greedy_count(points: np.ndarray, eps: float) -> int:
    """Greedy eps-separated packing of the rows of ``points`` (entries in
    [0, 1]), in row order.  Kept rows are moved to the front of ``points``
    in place, so the array is overwritten; returns how many were kept.

    A row is kept iff it is at least eps from every earlier kept row.  The
    rows are taken _PACK_ROWS at a time from a (columns, samples) copy:
    each block is first moved next to the kept rows, then one pass over the
    coordinates marks, in a (block, kept + block) plane, which pairs are
    closer than eps in every coordinate.  Only the keep decisions inside the
    block are sequential, each one a test of a Python-int bitmask of the
    block rows it is close to against those already kept.

    Circle distance here is min(d, 1 - d) with d = |x - y| and no reduction
    mod 1: d lies in [0, 1], and d % 1.0 is d for d < 1, while at d = 1
    both forms give 0.  |x - y| = |y - x| exactly, and a max over the
    coordinates is below eps iff every coordinate is, so every keep
    decision is the one the reduced metric gives to the rows taken one at
    a time in order.
    """
    cols = np.ascontiguousarray(points.T)
    k = 0
    for start in range(0, cols.shape[1], _PACK_ROWS):
        b = min(_PACK_ROWS, cols.shape[1] - start)
        cols[:, k : k + b] = cols[:, start : start + b]
        close = np.ones((b, k + b), dtype=bool)
        for row in cols:
            d = np.abs(row[k : k + b, None] - row[: k + b])
            close &= np.minimum(d, 1.0 - d) < eps
        near = close[:, :k].any(axis=1).tolist()
        masks = np.packbits(close[:, k:], axis=1, bitorder="little")
        kept_bits, chosen = 0, []
        for i in range(b):
            if not near[i] and not int.from_bytes(masks[i].tobytes(), "little") & kept_bits:
                kept_bits |= 1 << i
                chosen.append(k + i)
        cols[:, k : k + len(chosen)] = cols[:, chosen]
        k += len(chosen)
    points[:k] = cols[:, :k].T
    return k


def separated_lower_count(
    f: RingMatrix, F, eps: float, budget: int = 400, seed: int = 0
) -> int:
    """Size of a greedy eps-separated packing among sampled solution points:
    a sample is kept iff its max circle distance to every earlier kept point
    is at least eps (see `_greedy_count`).  Deterministic for a fixed seed.
    """
    _check_eps(eps)
    return _window(f, F).lower_count(eps, budget, seed)


@dataclass(frozen=True)
class PackingReport:
    """Separated-set bounds for one (window, eps) pair."""

    L: int
    f_size: int
    eps: float
    lower_count: int
    upper_log: float
    kernel_grid_dim: int

    def __post_init__(self):
        if math.log(self.lower_count) > self.upper_log + 1e-9:
            raise InputError("greedy packing exceeded the counting bound")
        if self.grid_log > self.upper_log + 1e-9:
            raise InputError("grid packing exceeded the counting bound")

    @property
    def grid_log(self) -> float:
        return self.kernel_grid_dim * math.log(_grid_modulus(self.eps))


def packing_report(
    f: RingMatrix, F: FolnerSet, eps: float, budget: int = 400, seed: int = 0
) -> PackingReport:
    _check_eps(eps)
    return _window(f, F).report(F.L, eps, budget, seed)


@dataclass
class MmdimEstimate:
    """An interval estimate of the metric mean dimension, flagged as such.

    Slopes are difference quotients between the two largest windows; lower
    slopes use the certified grid packings (greedy counts are per-window
    lower bounds but their growth is budget-limited, so they do not enter
    the slope).
    """

    lower: float
    upper: float
    reports: list[PackingReport] = field(default_factory=list)
    lower_slopes: dict = field(default_factory=dict)
    upper_slopes: dict = field(default_factory=dict)
    flagged: str = "estimate"

    def contains(self, value: float, slack: float = 1e-9) -> bool:
        return self.lower - slack <= value <= self.upper + slack


def mmdim_estimate(
    f: RingMatrix,
    window_indices: Sequence[int],
    eps_schedule: Sequence[float],
    budget: int = 400,
    seed: int = 0,
    max_window_elements: int = DEFAULT_MAX_WINDOW_ELEMENTS,
) -> MmdimEstimate:
    """Two-sided metric-mean-dimension estimate over window and eps schedules.

    Every window is checked against ``max_window_elements`` before any is
    built, and each is then built once and shared by every eps."""
    window_indices = sorted(set(int(L) for L in window_indices))
    if len(window_indices) < 2:
        raise InputError("mmdim estimation needs at least two window indices")
    eps_schedule = sorted(set(float(e) for e in eps_schedule), reverse=True)
    if not eps_schedule:
        raise InputError("eps schedule must be nonempty")
    for eps in eps_schedule:
        _check_eps(eps)
    windows = {L: folner_set(f.spec, L, max_window_elements) for L in window_indices}
    l1, l2 = window_indices[-2], window_indices[-1]
    df = len(windows[l2]) - len(windows[l1])
    if df == 0:
        raise InputError(
            f"windows L={l1} and L={l2} both have {len(windows[l2])} elements, so the"
            " slopes between them are undefined (every window of a finite group is the whole group)"
        )
    built = {L: _window(f, F) for L, F in windows.items()}
    reports, lower_slopes, upper_slopes = [], {}, {}
    for eps in eps_schedule:
        row = {L: w.report(L, eps, budget, seed) for L, w in built.items()}
        reports += row.values()
        r1, r2 = row[l1], row[l2]
        norm = abs(math.log(eps))
        lower_slopes[eps] = max(0.0, (r2.grid_log - r1.grid_log) / df / norm)
        upper_slopes[eps] = max(0.0, (r2.upper_log - r1.upper_log) / df / norm)
    lower, upper = max(lower_slopes.values()), min(upper_slopes.values())
    return MmdimEstimate(lower, upper, reports, lower_slopes, upper_slopes)


DEFAULT_EPS_SCHEDULE = tuple(2.0**-k for k in range(3, 9))
