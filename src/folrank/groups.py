"""Concrete amenable groups with canonical Folner windows.

Families: Z^d, finite products of cyclic groups, a finite group times Z^d,
and the discrete Heisenberg group H3(Z).  An element is a reduced integer
coordinate vector.

A set of elements (a window, a growth window, an inverse set) is held in
one format only: a read-only coordinate array, one element per row, rows
distinct and in lexicographic order, so every derived matrix layout is
reproducible across runs and platforms.  Tuples appear only at the edges:
in JSON, as single elements (``mul``, ``inverse``), and as arguments, which
``coords_of`` turns into an array once.

Each group law is an integer polynomial map on coordinates, so it also acts
on arrays of elements (``GroupSpec.mul_array``): Z^d adds, finite factors
add modulo their orders, Heisenberg is (a+a', b+b', c+c'+ab').  Coordinate
arrays are int64 while every coordinate is below 2^31 in absolute value and
exact Python ints otherwise; abelian laws only add, and a Heisenberg result
is checked again since ab' can reach 2^62.  Sets are sorted, deduplicated
and looked up by mixed-radix keys that order like tuples (``unique_rows``,
``positions``); a window grows by sorting its products in batches
(``with_products``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import prod
from typing import Iterable, Sequence

import numpy as np

from .errors import BudgetExceededError, InputError

GroupElement = tuple[int, ...]

DEFAULT_MAX_WINDOW_ELEMENTS = 200_000

FAMILIES = ("Zd", "FiniteCyclicProduct", "FiniteTimesZd", "Heisenberg")

_INT64_SAFE = 1 << 31
_PRODUCT_ROWS = 1 << 12


def _keys(*arrays: np.ndarray) -> list[np.ndarray]:
    """Mixed-radix keys of the rows of coordinate arrays, on one radix: keys
    compare like the rows' tuples.  int64 while the radix fits, else exact.

    Built on a transposed copy, one coordinate per row: numpy reduces or
    updates an array across its short rows about twenty times slower than
    along one contiguous row."""
    coords = [np.ascontiguousarray(a.T) for a in arrays]
    lo = reduce(np.minimum, [c.min(axis=1, initial=0) for c in coords]).tolist()
    hi = reduce(np.maximum, [c.max(axis=1, initial=0) for c in coords]).tolist()
    span = [h - l + 1 for h, l in zip(hi, lo)]
    dtype = np.int64 if prod(span) < 1 << 63 else object
    keys = []
    for c in coords:
        key = (c[0] - lo[0]).astype(dtype, copy=False) if len(c) else np.zeros(c.shape[1], dtype=dtype)
        for x, l, s in zip(c[1:], lo[1:], span[1:]):
            key *= s
            key += (x - l).astype(dtype, copy=False)
        keys.append(key)
    return keys


def unique_rows(P: np.ndarray, block: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of P in lexicographic order, read-only, and where
    each row of P is among them.  With ``block``, a nonnegative id for each
    row, the distinct (block, row) pairs instead, ordered by block first."""
    (key,) = _keys(P)
    if block is not None:
        span = int(key.max(initial=0)) + 1
        dtype = np.int64 if (int(block.max(initial=0)) + 1) * span < 1 << 63 else object
        key = block.astype(dtype) * span + key
    order = key.argsort(kind="stable")
    key = key[order]
    first = np.empty(len(key), dtype=bool)
    first[:1] = True
    np.not_equal(key[1:], key[:-1], out=first[1:])
    inverse = np.empty(len(key), dtype=np.int64)
    inverse[order] = first.cumsum() - 1
    rows = P[order[first]]
    rows.flags.writeable = False
    return rows, inverse


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
    unitriangular 3x3 integer matrices, coordinates ``(a, b, c)``).  The
    first three are one group law, Z/k_1 x ... x Z/k_r x Z^d with ``orders``
    (k_1, ..., k_r) and coordinates (x_1 mod k_1, ..., x_r mod k_r, free
    part), so the code tells only Heisenberg from the rest; ``family`` is
    the JSON label and fixes which orders and d are allowed.
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
        return 3 if self.family == "Heisenberg" else len(self.orders) + self.d

    @property
    def is_finite(self) -> bool:
        return self.family != "Heisenberg" and self.d == 0

    def group_order(self) -> int:
        """Order of the group; only defined for finite families."""
        if not self.is_finite:
            raise InputError(f"{self.family} with free part is infinite")
        return prod(self.orders)

    @property
    def finite_subgroup_lcm(self) -> int:
        """lcm of the orders of finite subgroups: the order of the finite
        part, which is 1 for the torsion-free families."""
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
        if self.orders:
            return tuple(x % k for x, k in zip(coords, self.orders)) + coords[len(self.orders) :]
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


@dataclass(frozen=True, eq=False)
class FolnerSet:
    """A canonical window: its elements as a read-only coordinate array in
    lexicographic order."""

    spec: GroupSpec
    L: int
    coords: np.ndarray

    def __len__(self) -> int:
        return len(self.coords)

    @property
    def elements(self) -> tuple[GroupElement, ...]:
        """The elements as tuples, in order."""
        return tuple(map(tuple, self.coords.tolist()))


def window_size(spec: GroupSpec, L: int) -> int:
    """|F_L| without enumerating the window."""
    if spec.family == "Heisenberg":
        return (2 * L + 1) ** 2 * (2 * L * L + 1)
    return prod(spec.orders) * L**spec.d


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
    if spec.family == "Heisenberg":
        lo, span = [-L, -L, -L * L], [2 * L + 1, 2 * L + 1, 2 * L * L + 1]
    else:
        lo, span = [0] * spec.coord_len, list(spec.orders) + [L] * spec.d
    # Row-major indices of the box enumerate it in lexicographic order.
    coords = np.indices(span, dtype=np.int64).reshape(len(span), size).T + np.array(lo, dtype=np.int64)
    coords.flags.writeable = False
    return FolnerSet(spec=spec, L=L, coords=coords)


def coords_of(spec: GroupSpec, F: "FolnerSet | np.ndarray | Iterable[GroupElement]") -> np.ndarray:
    """A window argument as a coordinate array: a FolnerSet's own array, an
    array as given, other elements in their given order."""
    if isinstance(F, FolnerSet):
        if F.spec != spec:
            raise InputError("window lives over a different group")
        return F.coords
    if isinstance(F, np.ndarray):
        return F
    return spec.coords(tuple(F))


def boundary_ratio(F: FolnerSet, K: Iterable[GroupElement]) -> Fraction:
    """Exact |KF \\ F| / |F| for a finite set K of group elements."""
    if not isinstance(F, FolnerSet):
        raise InputError("boundary_ratio needs a FolnerSet to know the group law")
    spec, Kc = F.spec, F.spec.coords(tuple(K))
    if not len(Kc):
        raise InputError("boundary_ratio needs a nonempty K")
    KF = spec.mul_array(Kc[:, None], F.coords[None]).reshape(len(Kc) * len(F), spec.coord_len)
    KF = unique_rows(KF)[0]
    return Fraction(int((positions(KF, F.coords) < 0).sum()), len(F))


def translate_set(
    spec: GroupSpec,
    S: "FolnerSet | Iterable[GroupElement]",
    g: GroupElement,
    side: str = "right",
) -> np.ndarray:
    """Pointwise translate {gs} (side="left") or {sg} (side="right"), sorted."""
    if side not in ("left", "right"):
        raise InputError(f"side must be 'left' or 'right', got {side!r}")
    Sc, gc = coords_of(spec, S), spec.coords([g])
    return unique_rows(spec.mul_array(gc, Sc) if side == "left" else spec.mul_array(Sc, gc))[0]


def inverse_set(spec: GroupSpec, S: "FolnerSet | Iterable[GroupElement]") -> np.ndarray:
    """Pointwise inverse F^{-1}, sorted."""
    return unique_rows(spec.inverse_array(coords_of(spec, S)))[0]


def unit_ball(spec: GroupSpec) -> tuple[GroupElement, ...]:
    """A fixed symmetric generating ball, used to dilate windows layer by
    layer: the window of index 1 for Heisenberg, and the whole finite part
    times {-1, 0, 1}^d otherwise."""
    if spec.family == "Heisenberg":
        return folner_set(spec, 1).elements
    return tuple(itertools.product(*(range(k) for k in spec.orders), *[(-1, 0, 1)] * spec.d))


def with_products(spec: GroupSpec, E, S) -> np.ndarray:
    """E united with E*S, sorted, from the group law on coordinate arrays.

    The elements of S are multiplied in a few at a time, about
    ``_PRODUCT_ROWS`` products per sort, and the union is sorted again
    after each batch: all |E|*|S| rows at once (69,000 for a Heisenberg
    growth step) raised the peak RSS of the seven-fixture tour by 2.7 MB.
    The first batch's sort also removes E's own repeats."""
    Ec, Sc = coords_of(spec, E), coords_of(spec, S)
    out = Ec if len(Sc) else unique_rows(Ec)[0]
    step = max(1, _PRODUCT_ROWS // max(len(Ec), 1))
    for at in range(0, len(Sc), step):
        batch = Sc[at : at + step]
        P = spec.mul_array(Ec[:, None], batch[None]).reshape(len(Ec) * len(batch), spec.coord_len)
        out, _ = unique_rows(np.concatenate([out, P]))
    return out


def dilate(spec: GroupSpec, E) -> np.ndarray:
    """One growth step: E united with E times the unit ball, sorted."""
    return with_products(spec, E, unit_ball(spec))
