"""Concrete amenable groups with canonical Folner windows.

Families: Z^d, finite products of cyclic groups, a finite group times Z^d,
and the discrete Heisenberg group H3(Z).  Elements are reduced integer
coordinate tuples.  Every window is enumerated in a fixed lexicographic
order so that all derived matrix layouts are reproducible across runs and
platforms.

Each group law is an integer polynomial map on coordinates, so it also acts
on arrays of elements (``GroupSpec.mul_array``): Z^d adds, finite factors
add modulo their orders, Heisenberg is (a+a', b+b', c+c'+ab').  Coordinate
arrays are int64 while every coordinate is below 2^31 in absolute value and
exact Python ints otherwise; abelian laws only add, and a Heisenberg result
is checked again since ab' can reach 2^62.  Sets of elements held as
coordinate arrays are sorted, deduplicated and looked up by mixed-radix keys
that order like tuples (``unique_rows``, ``positions``); a window grows by
sorting its products in batches (``with_products``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import prod
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import BudgetExceededError, InputError

GroupElement = tuple[int, ...]

DEFAULT_MAX_WINDOW_ELEMENTS = 200_000

FAMILIES = ("Zd", "FiniteCyclicProduct", "FiniteTimesZd", "Heisenberg")

_INT64_SAFE = 1 << 31
_PRODUCT_ROWS = 1 << 12


def _keys(*arrays: np.ndarray) -> list[np.ndarray]:
    """Mixed-radix keys of the rows of coordinate arrays, on one radix: keys
    compare like the rows' tuples.  int64 while the radix fits, else exact."""
    lo = reduce(np.minimum, [a.min(axis=0, initial=0) for a in arrays])
    hi = reduce(np.maximum, [a.max(axis=0, initial=0) for a in arrays])
    span = (hi - lo + 1).tolist()
    dtype = np.int64 if prod(span) < 1 << 63 else object
    strides = np.array([prod(span[i + 1 :]) for i in range(len(span))], dtype=dtype)
    return [(a - lo).astype(dtype, copy=False) @ strides for a in arrays]


def unique_rows(P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of P in lexicographic order, and where each row of P is among them."""
    (key,) = _keys(P)
    order = np.argsort(key, kind="stable")
    first = np.empty(len(key), dtype=bool)
    first[:1] = True
    np.not_equal(key[order[1:]], key[order[:-1]], out=first[1:])
    inverse = np.empty(len(key), dtype=np.int64)
    inverse[order] = np.cumsum(first) - 1
    return P[order[first]], inverse


def positions(X: np.ndarray, S: np.ndarray) -> np.ndarray:
    """For every row of X its position among the rows of S, or -1."""
    if not len(S):
        return np.full(len(X), -1, dtype=np.int64)
    kx, ks = _keys(X, S)
    order = np.argsort(ks, kind="stable")
    at = order[np.searchsorted(ks[order], kx).clip(max=len(ks) - 1)]
    return np.where((ks[at] == kx).astype(bool), at, -1)


def _fit(a: np.ndarray) -> np.ndarray:
    """``a`` as int64 if every entry is below 2^31 in absolute value, else exact."""
    safe = not a.size or -_INT64_SAFE < a.min() and a.max() < _INT64_SAFE
    return a.astype(np.int64 if safe else object, copy=False)


@dataclass(frozen=True)
class GroupSpec:
    """A concrete amenable group together with its canonical window scheme.

    ``family`` is one of ``Zd`` (free abelian of rank ``d``),
    ``FiniteCyclicProduct`` (``Z/k_1 x ... x Z/k_r``), ``FiniteTimesZd``
    (finite cyclic product times ``Z^d``) or ``Heisenberg`` (upper
    unitriangular 3x3 integer matrices, coordinates ``(a, b, c)``).
    """

    family: str
    d: int = 0
    orders: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "orders", tuple(int(k) for k in self.orders))
        object.__setattr__(self, "d", int(self.d))
        if self.family not in FAMILIES:
            raise InputError(f"unknown group family {self.family!r}")
        if self.d < 0:
            raise InputError(f"free rank d must be >= 0, got {self.d}")
        if any(k < 1 for k in self.orders):
            raise InputError(f"cyclic orders must be >= 1, got {list(self.orders)}")
        if self.family == "Zd" and self.orders:
            raise InputError("Zd takes no finite cyclic orders")
        if self.family == "FiniteCyclicProduct":
            if self.d:
                raise InputError("FiniteCyclicProduct has no free part")
            if not self.orders:
                raise InputError("FiniteCyclicProduct needs at least one order")
        if self.family == "FiniteTimesZd" and not self.orders:
            raise InputError("FiniteTimesZd needs a nonempty finite part")
        if self.family == "Heisenberg" and (self.d or self.orders):
            raise InputError("Heisenberg takes no parameters")

    # -- coordinate layout ------------------------------------------------

    @property
    def coord_len(self) -> int:
        if self.family == "Zd":
            return self.d
        if self.family == "FiniteCyclicProduct":
            return len(self.orders)
        if self.family == "FiniteTimesZd":
            return len(self.orders) + self.d
        return 3

    @property
    def is_finite(self) -> bool:
        if self.family == "FiniteCyclicProduct":
            return True
        if self.family == "FiniteTimesZd":
            return self.d == 0
        if self.family == "Zd":
            return self.d == 0
        return False

    def group_order(self) -> int:
        """Order of the group; only defined for finite families."""
        if not self.is_finite:
            raise InputError(f"{self.family} with free part is infinite")
        return prod(self.orders) if self.orders else 1

    @property
    def finite_subgroup_lcm(self) -> int:
        """lcm of the orders of finite subgroups: 1 for torsion-free families,
        the order of the finite part otherwise."""
        if self.family in ("Zd", "Heisenberg"):
            return 1
        return prod(self.orders)

    # -- element arithmetic -----------------------------------------------

    def identity(self) -> GroupElement:
        return (0,) * self.coord_len

    def reduce(self, coords: Sequence[int]) -> GroupElement:
        if len(coords) != self.coord_len:
            raise InputError(
                f"element has {len(coords)} coordinates, expected {self.coord_len}"
            )
        coords = tuple(int(x) for x in coords)
        if self.family in ("FiniteCyclicProduct", "FiniteTimesZd"):
            r = len(self.orders)
            return tuple(x % k for x, k in zip(coords[:r], self.orders)) + coords[r:]
        return coords

    def mul(self, g: GroupElement, h: GroupElement) -> GroupElement:
        if len(g) != self.coord_len or len(h) != self.coord_len:
            raise InputError("group elements do not match the group's coordinate layout")
        if self.family == "Heisenberg":
            a, b, c = g
            a2, b2, c2 = h
            return (a + a2, b + b2, c + c2 + a * b2)
        return self.reduce(tuple(x + y for x, y in zip(g, h)))

    def inverse(self, g: GroupElement) -> GroupElement:
        if len(g) != self.coord_len:
            raise InputError("group element does not match the group's coordinate layout")
        if self.family == "Heisenberg":
            a, b, c = g
            return (-a, -b, -c + a * b)
        return self.reduce(tuple(-x for x in g))

    def coords(self, elems: Sequence[GroupElement]) -> np.ndarray:
        """Elements as the rows of a coordinate array, in the given order."""
        try:
            try:
                a = np.array(elems, dtype=np.int64)
            except OverflowError:
                a = np.array(elems, dtype=object)
            return _fit(a.reshape(len(elems), self.coord_len))
        except ValueError:
            raise InputError("group elements do not match the group's coordinate layout") from None

    def mul_array(self, g: np.ndarray, h: np.ndarray) -> np.ndarray:
        """``mul`` on coordinate arrays, row by row, broadcast over the
        leading axes."""
        out = g + h
        if self.family == "Heisenberg":
            out[..., 2] += g[..., 0] * h[..., 1]
            return _fit(out)
        if self.orders:
            out[..., : len(self.orders)] %= self.orders
        return out

    def inverse_array(self, g: np.ndarray) -> np.ndarray:
        """``inverse`` on the rows of a coordinate array."""
        out = -g
        if self.family == "Heisenberg":
            out[..., 2] += g[..., 0] * g[..., 1]
            return _fit(out)
        if self.orders:
            out[..., : len(self.orders)] %= self.orders
        return out

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        if self.family == "Zd":
            return {"family": "Zd", "d": self.d}
        if self.family == "FiniteCyclicProduct":
            return {"family": "FiniteCyclicProduct", "orders": list(self.orders)}
        if self.family == "FiniteTimesZd":
            return {"family": "FiniteTimesZd", "orders": list(self.orders), "d": self.d}
        return {"family": "Heisenberg"}

    @classmethod
    def from_json(cls, obj: object) -> "GroupSpec":
        if not isinstance(obj, dict):
            raise InputError(f"group: expected an object, got {type(obj).__name__}")
        family = obj.get("family")
        if not isinstance(family, str):
            raise InputError("group.family: missing or not a string")
        d = obj.get("d", 0)
        orders = obj.get("orders", [])
        if not isinstance(d, int):
            raise InputError("group.d: expected an integer")
        if not isinstance(orders, list) or not all(isinstance(k, int) for k in orders):
            raise InputError("group.orders: expected a list of integers")
        return cls(family=family, d=d, orders=tuple(orders))


def zd(d: int) -> GroupSpec:
    return GroupSpec("Zd", d=d)


def finite_cyclic(*orders: int) -> GroupSpec:
    return GroupSpec("FiniteCyclicProduct", orders=tuple(orders))


def finite_times_zd(orders: Sequence[int], d: int) -> GroupSpec:
    return GroupSpec("FiniteTimesZd", d=d, orders=tuple(orders))


def heisenberg() -> GroupSpec:
    return GroupSpec("Heisenberg")


@dataclass(frozen=True)
class FolnerSet:
    """A canonical window: ordered duplicate-free element list with reverse index."""

    spec: GroupSpec
    L: int
    elements: tuple[GroupElement, ...]
    index: dict

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[GroupElement]:
        return iter(self.elements)

    def __contains__(self, g: GroupElement) -> bool:
        return g in self.index


def window_size(spec: GroupSpec, L: int) -> int:
    """|F_L| without enumerating the window."""
    if spec.family == "Zd":
        return L**spec.d
    if spec.family == "FiniteCyclicProduct":
        return prod(spec.orders)
    if spec.family == "FiniteTimesZd":
        return prod(spec.orders) * L**spec.d
    return (2 * L + 1) ** 2 * (2 * L * L + 1)


def folner_set(
    spec: GroupSpec, L: int, max_elements: int = DEFAULT_MAX_WINDOW_ELEMENTS
) -> FolnerSet:
    """The canonical window of index L, in lexicographic coordinate order.

    Z^d uses the box [0, L)^d, finite families report the whole finite part
    for every L, and Heisenberg uses the box |a|, |b| <= L, |c| <= L^2.
    """
    if L < 1:
        raise InputError(f"window index L must be >= 1, got {L}")
    size = window_size(spec, L)
    if size > max_elements:
        raise BudgetExceededError(
            f"window of index {L} has {size} elements, budget is {max_elements}"
        )
    if spec.family == "Zd":
        ranges = [range(L)] * spec.d
    elif spec.family == "FiniteCyclicProduct":
        ranges = [range(k) for k in spec.orders]
    elif spec.family == "FiniteTimesZd":
        ranges = [range(k) for k in spec.orders] + [range(L)] * spec.d
    else:
        L2 = L * L
        ranges = [range(-L, L + 1), range(-L, L + 1), range(-L2, L2 + 1)]
    elements = tuple(itertools.product(*ranges))
    index = {g: i for i, g in enumerate(elements)}
    return FolnerSet(spec=spec, L=L, elements=elements, index=index)


def elements_of(F: "FolnerSet | Iterable[GroupElement]") -> tuple[GroupElement, ...]:
    """Normalize a window argument to an ordered element tuple."""
    if isinstance(F, FolnerSet):
        return F.elements
    return tuple(F)


def boundary_ratio(
    F: "FolnerSet | Iterable[GroupElement]", K: Iterable[GroupElement]
) -> Fraction:
    """Exact |KF \\ F| / |F| for a finite set K of group elements."""
    spec = F.spec if isinstance(F, FolnerSet) else None
    elems = elements_of(F)
    K = tuple(K)
    if not K:
        raise InputError("boundary_ratio needs a nonempty K")
    if spec is None:
        raise InputError("boundary_ratio needs a FolnerSet to know the group law")
    fset = set(elems)
    kf = {spec.mul(k, s) for k in K for s in elems}
    return Fraction(len(kf - fset), len(elems))


def translate_set(
    spec: GroupSpec,
    S: "FolnerSet | Iterable[GroupElement]",
    g: GroupElement,
    side: str = "right",
) -> tuple[GroupElement, ...]:
    """Pointwise translate {gs} (side="left") or {sg} (side="right"), sorted."""
    if side not in ("left", "right"):
        raise InputError(f"side must be 'left' or 'right', got {side!r}")
    elems = elements_of(S)
    if side == "left":
        out = {spec.mul(g, s) for s in elems}
    else:
        out = {spec.mul(s, g) for s in elems}
    return tuple(sorted(out))


def inverse_set(
    spec: GroupSpec, S: "FolnerSet | Iterable[GroupElement]"
) -> tuple[GroupElement, ...]:
    """Pointwise inverse F^{-1}, sorted."""
    return tuple(sorted({spec.inverse(s) for s in elements_of(S)}))


def unit_ball(spec: GroupSpec) -> tuple[GroupElement, ...]:
    """A fixed symmetric generating ball, used to dilate windows layer by layer."""
    if spec.family == "Zd":
        return tuple(itertools.product((-1, 0, 1), repeat=spec.d))
    if spec.family == "FiniteCyclicProduct":
        return folner_set(spec, 1).elements
    if spec.family == "FiniteTimesZd":
        finite = [range(k) for k in spec.orders]
        free = [(-1, 0, 1)] * spec.d
        return tuple(itertools.product(*finite, *free))
    return folner_set(spec, 1).elements


def with_products(
    spec: GroupSpec, E: Sequence[GroupElement], S: Sequence[GroupElement]
) -> tuple[GroupElement, ...]:
    """E united with E*S, sorted, from the group law on coordinate arrays.

    The elements of S are multiplied in a few at a time, about
    ``_PRODUCT_ROWS`` products per sort, and the union is sorted again
    after each batch: all |E|*|S| rows at once (69,000 for a Heisenberg
    growth step) raised the peak RSS of the seven-fixture tour by 2.7 MB."""
    Ec, Sc = spec.coords(E), spec.coords(S)
    out, _ = unique_rows(Ec)
    step = max(1, _PRODUCT_ROWS // max(len(Ec), 1))
    for at in range(0, len(Sc), step):
        batch = Sc[at : at + step]
        P = spec.mul_array(Ec[:, None], batch[None]).reshape(len(Ec) * len(batch), spec.coord_len)
        out, _ = unique_rows(np.concatenate([out, P]))
    return tuple(map(tuple, out.tolist()))


def dilate(
    spec: GroupSpec, E: Iterable[GroupElement], ball: Sequence[GroupElement] | None = None
) -> tuple[GroupElement, ...]:
    """One growth step: E united with E*ball, sorted."""
    return with_products(spec, tuple(E), unit_ball(spec) if ball is None else ball)
