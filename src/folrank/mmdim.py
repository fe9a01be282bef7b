"""Desk-scale metric mean dimension estimator for dual solenoid actions.

The state space is the set of circle-valued vectors on a window F whose
interior constraints (f x)_t = 0 mod 1, t in F', are satisfied, where
F' = {s in F : K^{-1} s inside F} and K is the support of f.  Upper bounds
for separated-set counts come from the explicit counting bound

    N_eps <= (1 + 2/eps)^(m|KF \\ F'| + dim ker(window)) * (|f|_1 + 1)^(m|F'|),

lower bounds from two explicit packings: an eps-grid over the free
coordinates of the real solution space of the interior system (certified,
counted without enumeration) and a greedy packing of sampled rational
solutions (torsion points and random kernel combinations).  All distances
use the max-over-coordinates circle metric.  The greedy packing holds its
kept points as rows of one array, so each sample costs one reduction
against all of them rather than one numpy call per kept point.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import InputError
from .exactla import MAX_PRIMES, SparseIntMatrix, kernel_basis, nullspace_q, rank_q
from .groupring import RingMatrix, window_matrix
from .groups import FolnerSet, GroupElement, elements_of, folner_set, positions
from .ranks import derived_rng

CONGRUENCE_TOL = 2.0**-40
_ENUM_CAP = 4096


def theta(a: float, b: float) -> float:
    """Circle metric: min over integers z of |a - b - z|, in [0, 1/2]."""
    d = abs(a - b) % 1.0
    return min(d, 1.0 - d)


def _theta_arrays(x: np.ndarray, y: np.ndarray) -> float:
    d = np.abs(x - y) % 1.0
    return float(np.minimum(d, 1.0 - d).max()) if d.size else 0.0


def interior_set(f: RingMatrix, F) -> tuple[GroupElement, ...]:
    """F' = {s in F : K^{-1} s inside F}, K the support of f (empty K keeps all)."""
    spec = f.spec
    felems = elements_of(F)
    fset = set(felems)
    K = sorted(f.support())
    inv, mul = spec.inverse, spec.mul
    return tuple(s for s in felems if all(mul(inv(k), s) in fset for k in K))


def interior_constraint_matrix(f: RingMatrix, F) -> SparseIntMatrix:
    """The window operator rows restricted to output positions in F'."""
    W = window_matrix(f, F)
    inside = positions(W.row_coords, f.spec.coords(interior_set(f, F))) >= 0
    return W.data.submatrix(np.flatnonzero(np.tile(inside, W.row_blocks)), np.arange(W.data.cols))


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
    fprime = interior_set(f, felems)
    inv, mul = spec.inverse, spec.mul
    worst = 0.0
    for t in fprime:
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


def separated_upper_bound(
    f: RingMatrix, F, eps: float, rng: random.Random | None = None, max_primes: int = MAX_PRIMES
) -> float:
    """log of the explicit separated-set counting bound at scale eps."""
    if not 0.0 < eps < 1.0:
        raise InputError(f"eps must lie in (0, 1), got {eps}")
    felems = elements_of(F)
    W = window_matrix(f, F)
    kdim = W.data.cols - rank_q(W.data, rng=rng, max_primes=max_primes).rank
    fprime = interior_set(f, felems)
    boundary = int((positions(W.row_coords, f.spec.coords(fprime)) < 0).sum())
    m = f.rows
    exponent = m * boundary + kdim
    return exponent * math.log1p(2.0 / eps) + m * len(fprime) * math.log(float(f.norm1()) + 1.0)


# ---------------------------------------------------------------------------
# packings
# ---------------------------------------------------------------------------


def _grid_modulus(eps: float) -> int:
    return max(1, int(1.0 / eps + 1e-9))


def kernel_grid_packing(
    f: RingMatrix, F, eps: float, rng: random.Random | None = None, max_primes: int = MAX_PRIMES
) -> tuple[int, int]:
    """(count, dim): the certified grid packing floor(1/eps)^dim built on the
    free coordinates of the real interior solution space.

    Any two grid points differ in a free coordinate by a nonzero multiple of
    the grid step, so the packing is eps-separated; the count is exact
    without enumerating it.
    """
    C = interior_constraint_matrix(f, F)
    dim = C.cols - rank_q(C, rng=rng, max_primes=max_primes).rank
    return _grid_modulus(eps) ** dim, dim


def _solution_samples(
    f: RingMatrix, F, eps: float, budget: int, rng: random.Random
) -> Iterable[np.ndarray]:
    """Deterministic stream of points of the interior solution set, flattened
    to vectors in window-column layout: grid points and torsion solutions are
    enumerated when small, then random combinations fill the budget."""
    C = interior_constraint_matrix(f, F)
    ncols = C.cols
    produced = 0

    # Exact eps-grid over the free coordinates of the real solution space.
    rational_basis = nullspace_q(C)
    q = _grid_modulus(eps)
    if q ** len(rational_basis) <= min(budget, _ENUM_CAP):
        import itertools

        step = Fraction(1, q)
        for combo in itertools.product(range(q), repeat=len(rational_basis)):
            vec = [Fraction(0)] * ncols
            for lam, basis_vec in zip(combo, rational_basis):
                if lam:
                    for idx, b in enumerate(basis_vec):
                        if b:
                            vec[idx] += lam * step * b
            yield np.array([float(x) % 1.0 for x in vec])
            produced += 1
            if produced >= budget:
                return

    # Torsion solutions modulo small primes.
    dense = C.to_dense()
    torsion_bases = []
    for p in (2, 3, 5, 7):
        basis = kernel_basis(dense, ncols, p)
        if basis:
            torsion_bases.append((p, basis))
        if basis and p ** len(basis) <= min(budget - produced, _ENUM_CAP):
            import itertools

            for combo in itertools.product(range(p), repeat=len(basis)):
                vec = [0] * ncols
                for lam, bvec in zip(combo, basis):
                    if lam:
                        for idx, b in enumerate(bvec):
                            vec[idx] = (vec[idx] + lam * b) % p
                yield np.array([v / p for v in vec])
                produced += 1
                if produced >= budget:
                    return

    # Random fill: rational-kernel combinations plus torsion offsets.
    float_basis = [np.array([float(x) for x in bvec]) for bvec in rational_basis]
    int_bases = [(p, np.array(basis)) for p, basis in torsion_bases]
    while produced < budget:
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
        yield point % 1.0
        produced += 1


def separated_lower_count(
    f: RingMatrix, F, eps: float, budget: int = 400, seed: int = 0
) -> int:
    """Size of a greedy eps-separated packing among sampled solution points.

    A sample is kept iff its max circle distance to every kept point is at
    least eps, tested against all kept rows in one reduction.  Deterministic
    for a fixed seed.
    """
    if budget < 1:
        raise InputError("sample budget must be >= 1")
    rng = derived_rng(seed, "packing", len(elements_of(F)), repr(eps))
    samples = _solution_samples(f, F, eps, budget, rng)
    first = next(samples)  # the stream fills the budget, and the first sample is always kept
    kept = np.empty((budget, first.size))
    kept[0] = first
    k = 1
    for point in samples:
        d = np.abs(point - kept[:k]) % 1.0
        if not (np.minimum(d, 1.0 - d).max(axis=1, initial=0.0) < eps).any():
            kept[k] = point
            k += 1
    return k


@dataclass(frozen=True)
class PackingReport:
    """Separated-set bounds for one (window, eps) pair."""

    L: int
    f_size: int
    eps: float
    lower_count: int
    upper_log: float
    kernel_grid_dim: int
    grid_count: int
    samples_used: int
    seed: int

    def __post_init__(self):
        if math.log(self.lower_count) > self.upper_log + 1e-9:
            raise InputError("greedy packing exceeded the counting bound")
        if self.grid_log > self.upper_log + 1e-9:
            raise InputError("grid packing exceeded the counting bound")

    @property
    def grid_log(self) -> float:
        return self.kernel_grid_dim * math.log(_grid_modulus(self.eps))


def packing_report(
    f: RingMatrix,
    F: FolnerSet,
    eps: float,
    budget: int = 400,
    seed: int = 0,
    max_primes: int = MAX_PRIMES,
) -> PackingReport:
    rng = derived_rng(seed, "upper", F.L, repr(eps))
    upper = separated_upper_bound(f, F, eps, rng=rng, max_primes=max_primes)
    grid_count, grid_dim = kernel_grid_packing(f, F, eps, rng=rng, max_primes=max_primes)
    lower = separated_lower_count(f, F, eps, budget=budget, seed=seed)
    return PackingReport(
        L=F.L,
        f_size=len(F),
        eps=eps,
        lower_count=lower,
        upper_log=upper,
        kernel_grid_dim=grid_dim,
        grid_count=grid_count,
        samples_used=budget,
        seed=seed,
    )


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

    def csv_rows(self) -> list[dict]:
        rows = []
        for r in self.reports:
            rows.append(
                {
                    "L": r.L,
                    "F_size": r.f_size,
                    "epsilon": repr(r.eps),
                    "lower_count": r.lower_count,
                    "upper_log": repr(r.upper_log),
                    "lower_slope": repr(self.lower_slopes.get(r.eps, float("nan"))),
                    "upper_slope": repr(self.upper_slopes.get(r.eps, float("nan"))),
                }
            )
        return rows


def mmdim_estimate(
    f: RingMatrix,
    window_indices: Sequence[int],
    eps_schedule: Sequence[float],
    budget: int = 400,
    seed: int = 0,
    max_primes: int = MAX_PRIMES,
) -> MmdimEstimate:
    """Two-sided metric-mean-dimension estimate over window and eps schedules."""
    window_indices = sorted(set(int(L) for L in window_indices))
    if len(window_indices) < 2:
        raise InputError("mmdim estimation needs at least two window indices")
    eps_schedule = sorted(set(float(e) for e in eps_schedule), reverse=True)
    if not eps_schedule or not all(0.0 < e < 1.0 for e in eps_schedule):
        raise InputError("eps schedule must be nonempty with entries in (0, 1)")
    windows = {L: folner_set(f.spec, L) for L in window_indices}
    reports = []
    by_pair: dict[tuple[float, int], PackingReport] = {}
    for eps in eps_schedule:
        for L in window_indices:
            rep = packing_report(
                f, windows[L], eps, budget=budget, seed=seed, max_primes=max_primes
            )
            reports.append(rep)
            by_pair[(eps, L)] = rep
    l1, l2 = window_indices[-2], window_indices[-1]
    df = len(windows[l2]) - len(windows[l1])
    lower_slopes: dict[float, float] = {}
    upper_slopes: dict[float, float] = {}
    for eps in eps_schedule:
        r1, r2 = by_pair[(eps, l1)], by_pair[(eps, l2)]
        norm = abs(math.log(eps))
        lower_slopes[eps] = max(0.0, (r2.grid_log - r1.grid_log) / df / norm)
        upper_slopes[eps] = max(0.0, (r2.upper_log - r1.upper_log) / df / norm)
    return MmdimEstimate(
        lower=max(lower_slopes.values()),
        upper=min(upper_slopes.values()),
        reports=reports,
        lower_slopes=lower_slopes,
        upper_slopes=upper_slopes,
    )


DEFAULT_EPS_SCHEDULE = tuple(2.0**-k for k in range(3, 9))
