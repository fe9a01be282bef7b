"""Exact arithmetic for group-ring elements and matrices, and window operators.

A ring element is a finitely supported map from group elements to rational
coefficients (integers are kept as Python ints, the exact fast path).  A
matrix over the group ring carries its support K (union of entry supports)
and its l1 coefficient norm.  ``window_matrix`` turns the left action
x |-> f.x on column vectors supported in a window F into an exact integer
matrix with rows indexed by K.F and columns by F.

Every window operator comes from one builder, ``window_operator``.  It
reads f's terms from arrays built once per matrix, with each row of f
scaled by the lcm of its denominators, applies the group law to the
coordinate arrays of (anchor, support element) pairs, and orders the
products by mixed-radix keys that sort like tuples.  Multiplication by a
group element is a bijection, so for each anchor and entry (j, k) of f
distinct terms land on distinct products: every matrix entry is exactly one
scaled coefficient and nothing is summed.  The result is a COO
``SparseIntMatrix``.  On a 2-vCPU host the Z^2 L=64 window of xy_minus_one
(4224x8192) builds in 5 ms, from 0.10-0.11 s with one Python group
multiplication per pair, and the Heisenberg L=4 window in 3 ms, from 27-34 ms.

The builder takes a batch of (terms, anchors) pairs over one group and
returns the block-diagonal union of their matrices with its block offsets;
a single window is the batch of one.  A tiny window spends most of its
build in fixed costs: the sort behind ``unique_rows`` and the checks of the
``SparseIntMatrix`` constructor.  In a batch each block's products and
entries are still broadcast over its own anchors, but one ``unique_rows``
over (block, product) numbers the products of every block and one
constructor checks the union.  A verify-suite pass at job seed 1 builds
1,532 windows in 15 such batches: the suites' 1,300 fixed windows in 8, in
about 30 ms on a 2-vCPU host, and the 232 generator and growth windows of
``quotient_span_rank`` in 7.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import lcm
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import InputError
from .exactla import SparseIntMatrix, int_array
from .groups import FolnerSet, GroupElement, GroupSpec, coords_of, positions, unique_rows

def _norm_coeff(c) -> "int | Fraction":
    if isinstance(c, Fraction):
        return int(c) if c.denominator == 1 else c
    if isinstance(c, int):
        return c
    raise InputError(f"coefficient must be an int or Fraction, got {type(c).__name__}")


class RingElem:
    """A finitely supported group-ring element sum_s c_s * s."""

    __slots__ = ("spec", "coeffs")

    def __init__(self, spec: GroupSpec, coeffs: Mapping[GroupElement, object] | None = None):
        self.spec = spec
        clean: dict[GroupElement, object] = {}
        for g, c in (coeffs or {}).items():
            c = _norm_coeff(c)
            if c:
                clean[spec.reduce(g)] = c
        self.coeffs = clean

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, spec: GroupSpec) -> "RingElem":
        return cls(spec, {})

    @classmethod
    def one(cls, spec: GroupSpec) -> "RingElem":
        return cls(spec, {spec.identity(): 1})

    @classmethod
    def from_terms(cls, spec: GroupSpec, terms: Iterable[tuple[Sequence[int], object]]) -> "RingElem":
        acc: dict[GroupElement, object] = {}
        for g, c in terms:
            g = spec.reduce(g)
            acc[g] = acc.get(g, 0) + _norm_coeff(c)
        return cls(spec, acc)

    # -- queries -------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def support(self) -> frozenset:
        return frozenset(self.coeffs)

    def norm1(self):
        return sum(abs(c) for c in self.coeffs.values())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RingElem)
            and self.spec == other.spec
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.spec, frozenset(self.coeffs.items())))

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        return " + ".join(f"{c}*{g}" for g, c in sorted(self.coeffs.items()))

    # -- arithmetic ------------------------------------------------------------

    def _check_spec(self, other: "RingElem") -> None:
        if self.spec != other.spec:
            raise InputError("ring elements live over different groups")

    def __add__(self, other: "RingElem") -> "RingElem":
        self._check_spec(other)
        acc = dict(self.coeffs)
        for g, c in other.coeffs.items():
            acc[g] = acc.get(g, 0) + c
        return RingElem(self.spec, acc)

    def __neg__(self) -> "RingElem":
        return RingElem(self.spec, {g: -c for g, c in self.coeffs.items()})

    def __sub__(self, other: "RingElem") -> "RingElem":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RingElem(self.spec, {g: c * other for g, c in self.coeffs.items()})
        if not isinstance(other, RingElem):
            return NotImplemented
        self._check_spec(other)
        mul = self.spec.mul
        acc: dict[GroupElement, object] = {}
        for u, cu in self.coeffs.items():
            for v, cv in other.coeffs.items():
                w = mul(u, v)
                acc[w] = acc.get(w, 0) + cu * cv
        return RingElem(self.spec, acc)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def star(self) -> "RingElem":
        """Involution: coefficient of s moves to s^{-1}."""
        inv = self.spec.inverse
        return RingElem(self.spec, {inv(g): c for g, c in self.coeffs.items()})


class RingMatrix:
    """An m x n matrix over the group ring, with cached support, l1 norm,
    terms and star."""

    __slots__ = ("spec", "rows", "cols", "entries", "_support", "_norm1", "_terms", "_star")

    def __init__(self, spec: GroupSpec, entries: Sequence[Sequence[RingElem]], cols: int | None = None):
        self.spec = spec
        self.entries = tuple(tuple(row) for row in entries)
        self.rows = len(self.entries)
        if self.rows:
            widths = {len(row) for row in self.entries}
            if len(widths) != 1:
                raise InputError("ragged matrix rows")
            inferred = widths.pop()
            if cols is not None and cols != inferred:
                raise InputError(f"cols={cols} but rows have {inferred} entries")
            self.cols = inferred
        else:
            if cols is None:
                raise InputError("a 0-row matrix needs an explicit column count")
            self.cols = cols
        for row in self.entries:
            for e in row:
                if e.spec != spec:
                    raise InputError("matrix entry lives over a different group")
        self._support = None
        self._norm1 = None
        self._terms = None
        self._star = None

    def support(self) -> frozenset:
        if self._support is None:
            acc: frozenset = frozenset()
            for row in self.entries:
                for e in row:
                    acc = acc | e.support()
            self._support = acc
        return self._support

    def norm1(self):
        if self._norm1 is None:
            self._norm1 = sum(e.norm1() for row in self.entries for e in row)
        return self._norm1

    def terms(self) -> "Terms":
        """The nonzero terms as arrays, built once per matrix."""
        if self._terms is None:
            self._terms = terms_of(self.spec, self.entries, self.cols)
        return self._terms

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.entries for e in row)

    def star(self) -> "RingMatrix":
        """The n x m involuted matrix: (f*)_{k,j} has coefficients f_{j,k} at
        inverses.  Built once per matrix."""
        if self._star is None:
            starred = [
                [self.entries[j][k].star() for j in range(self.rows)] for k in range(self.cols)
            ]
            self._star = RingMatrix(self.spec, starred, cols=self.rows)
        return self._star

    def __matmul__(self, other: "RingMatrix") -> "RingMatrix":
        if self.spec != other.spec:
            raise InputError("matrices live over different groups")
        if self.cols != other.rows:
            raise InputError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        z = RingElem.zero(self.spec)
        out = []
        for j in range(self.rows):
            out_row = []
            for l in range(other.cols):
                acc = z
                for k in range(self.cols):
                    acc = acc + self.entries[j][k] * other.entries[k][l]
                out_row.append(acc)
            out.append(out_row)
        return RingMatrix(self.spec, out, cols=other.cols)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RingMatrix)
            and self.spec == other.spec
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __repr__(self) -> str:
        return f"RingMatrix({self.rows}x{self.cols} over {self.spec.family})"

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> dict:
        entries = []
        for j, row in enumerate(self.entries):
            for k, e in enumerate(row):
                if e.is_zero():
                    continue
                terms = [
                    {"coeff": str(Fraction(c)), "elem": list(g)}
                    for g, c in sorted(e.coeffs.items())
                ]
                entries.append({"row": j, "col": k, "terms": terms})
        return {
            "group": self.spec.to_json(),
            "rows": self.rows,
            "cols": self.cols,
            "entries": entries,
        }

    @classmethod
    def from_json(cls, obj: object) -> "RingMatrix":
        if not isinstance(obj, dict):
            raise InputError(f"matrix: expected an object, got {type(obj).__name__}")
        for field in ("group", "rows", "cols"):
            if field not in obj:
                raise InputError(f"matrix.{field}: missing")
        spec = GroupSpec.from_json(obj["group"])
        m, n = obj["rows"], obj["cols"]
        if not isinstance(m, int) or not isinstance(n, int) or m < 0 or n < 0:
            raise InputError("matrix.rows/cols: expected nonnegative integers")
        grid: list[list[RingElem]] = [[RingElem.zero(spec) for _ in range(n)] for _ in range(m)]
        for i, ent in enumerate(obj.get("entries", [])):
            where = f"matrix.entries[{i}]"
            if not isinstance(ent, dict):
                raise InputError(f"{where}: expected an object")
            j, k = ent.get("row"), ent.get("col")
            if not isinstance(j, int) or not 0 <= j < m:
                raise InputError(f"{where}.row: out of range for {m} rows")
            if not isinstance(k, int) or not 0 <= k < n:
                raise InputError(f"{where}.col: out of range for {n} cols")
            terms = []
            for t, term in enumerate(ent.get("terms", [])):
                twhere = f"{where}.terms[{t}]"
                if not isinstance(term, dict) or "coeff" not in term or "elem" not in term:
                    raise InputError(f"{twhere}: needs 'coeff' and 'elem'")
                try:
                    # Accept typographic minus signs in hand-written fixtures.
                    coeff = Fraction(str(term["coeff"]).replace("−", "-"))
                except (ValueError, ZeroDivisionError) as exc:
                    raise InputError(f"{twhere}.coeff: not a rational: {term['coeff']!r}") from exc
                elem = term["elem"]
                if not isinstance(elem, list) or not all(isinstance(x, int) for x in elem):
                    raise InputError(f"{twhere}.elem: expected a list of integers")
                terms.append((tuple(elem), coeff))
            grid[j][k] = grid[j][k] + RingElem.from_terms(spec, terms)
        return cls(spec, grid, cols=n)


class Terms(NamedTuple):
    """Term t of an m x n matrix f: ``vals[t]`` times ``support[elem[t]]`` in
    entry (``row[t]``, ``col[t]``); ``support`` is sorted and distinct."""

    m: int
    n: int
    row: np.ndarray
    col: np.ndarray
    elem: np.ndarray
    vals: np.ndarray
    support: np.ndarray


def terms_of(spec: GroupSpec, rows: Sequence[Sequence[RingElem]], n: int) -> Terms:
    """The terms of the matrix with these rows and n columns, each row scaled
    by the lcm of its denominators (which changes neither the row module
    over Q nor the kernel), so every value is an integer."""
    found = []
    for j, row in enumerate(rows):
        scale = lcm(*(c.denominator for e in row for c in e.coeffs.values() if isinstance(c, Fraction)))
        found += [(j, k, g, int(c * scale)) for k, e in enumerate(row) for g, c in e.coeffs.items()]
    support = sorted({g for _, _, g, _ in found})
    pos = {g: i for i, g in enumerate(support)}
    j, k, g, vals = zip(*found) if found else ((), (), (), ())
    j, k, g = (np.array(x, dtype=np.int64) for x in (j, k, [pos[u] for u in g]))
    return Terms(len(rows), n, j, k, g, int_array(vals), spec.coords(support))


def window_operator(
    spec: GroupSpec,
    batch: Sequence[tuple[Terms, np.ndarray]],
    left: bool,
    anchor_rows: bool = False,
    targets: np.ndarray | None = None,
) -> tuple[SparseIntMatrix, list[int], list[int], list[np.ndarray]]:
    """The window operators of a batch of (terms of a matrix f, anchors)
    pairs over spec, as the block-diagonal union of their matrices.

    Returns the union, the offsets of the blocks' rows and of their columns
    (block b is rows ``row_at[b]:row_at[b + 1]``, columns likewise), and
    each block's products.  The term c.u of f_{j,k} at anchor x is the entry
    c at the product x.u (``left``) or u.x.  The anchor goes with j on the
    left and with k on the right; the other index of f is the block b.  Rows
    are (b, product) and columns (index, anchor), block-major; with
    ``anchor_rows``, rows are (anchor, index) and columns (b, product).
    Products are numbered among the sorted distinct products of their block,
    or among ``targets`` when given.  A zero matrix takes K = {identity}
    unless ``anchor_rows`` is set.

    Each block's products and entries are broadcast over its anchors and
    written into arrays for the whole batch, while the costs that do not
    grow with a block are paid once: one ``unique_rows`` over (block,
    product) numbers every block's products, and one constructor checks the
    union.  A matrix alone is the batch of one.
    """
    Ks = [t.support if len(t.support) or anchor_rows else spec.coords([spec.identity()]) for t, _ in batch]
    Ps = [
        spec.mul_array(anchors[:, None], K[None]) if left else spec.mul_array(K[None], anchors[:, None])
        for (_, anchors), K in zip(batch, Ks)
    ]
    p_at = list(accumulate((P.shape[0] * P.shape[1] for P in Ps), initial=0))
    P = np.concatenate([P.reshape(-1, spec.coord_len) for P in Ps])
    if targets is None:
        # Each block's products are numbered among its own; one block needs
        # no block key.
        block = np.repeat(np.arange(len(batch)), np.diff(p_at)) if len(batch) > 1 else None
        elems, pos = unique_rows(P, block)
        if block is None:
            y_at = [0, len(elems)]
        else:
            # A block's products take a run of the numbers: it ends after its largest.
            last = np.full(len(batch), -1)
            np.maximum.at(last, block, pos)
            y_at = [0] + (np.maximum.accumulate(last) + 1).tolist()
        out_elems = [elems[s:e] for s, e in zip(y_at, y_at[1:])]
    else:
        pos = positions(P, targets)
        if (pos < 0).any():
            raise InputError("a window product falls outside the target elements")
        y_at, out_elems = [0] * (len(batch) + 1), [targets] * len(batch)
    e_at = list(accumulate((len(anchors) * len(t.vals) for t, anchors in batch), initial=0))
    ii, jj = np.empty(e_at[-1], dtype=np.int64), np.empty(e_at[-1], dtype=np.int64)
    vals = np.empty(e_at[-1], dtype=object if any(t.vals.dtype == object for t, _ in batch) else np.int64)
    row_at, col_at = [0], [0]
    for (t, anchors), P, s, e, ps, ys, elems in zip(batch, Ps, e_at, e_at[1:], p_at, y_at, out_elems):
        na, ny, shape = len(anchors), len(elems), (len(anchors), len(t.vals))
        # The product of anchor a and term e, numbered ys + its number in the block.
        y = pos[ps : ps + P.shape[0] * P.shape[1]].reshape(P.shape[:2])[:, t.elem]
        inn, b, n_in, n_b = (t.row, t.col, t.m, t.n) if left else (t.col, t.row, t.n, t.m)
        r0, c0 = row_at[-1], col_at[-1]
        if anchor_rows:
            np.add(np.arange(na)[:, None] * n_in + r0, inn, out=ii[s:e].reshape(shape))
            np.add(y, b * ny + (c0 - ys), out=jj[s:e].reshape(shape))
            row_at.append(r0 + na * n_in)
            col_at.append(c0 + n_b * ny)
        else:
            np.add(y, b * ny + (r0 - ys), out=ii[s:e].reshape(shape))
            np.add(np.arange(c0, c0 + na)[:, None], inn * na, out=jj[s:e].reshape(shape))
            row_at.append(r0 + n_b * ny)
            col_at.append(c0 + n_in * na)
        vals[s:e].reshape(shape)[:] = t.vals
    M = SparseIntMatrix(row_at[-1], col_at[-1], ii, jj, vals)
    return M, row_at, col_at, out_elems


class WindowMatrix:
    """Exact integer matrix of a window operator, with its row and column index maps.

    Row (b, t) pairs block b (an output coordinate) with element t of
    ``row_coords``, at position b * len(row_coords) + index of t; columns
    likewise with ``col_coords``.
    """

    __slots__ = ("data", "row_coords", "col_coords", "row_blocks", "col_blocks")

    def __init__(self, data: SparseIntMatrix, row_coords, col_coords, row_blocks: int, col_blocks: int):
        self.data, self.row_coords, self.col_coords = data, row_coords, col_coords
        self.row_blocks, self.col_blocks = row_blocks, col_blocks

    shape = property(lambda self: (self.data.rows, self.data.cols))


def _block_operator(f: RingMatrix, anchors: np.ndarray, left: bool) -> WindowMatrix:
    data, _, _, (out_elems,) = window_operator(f.spec, [(f.terms(), anchors)], left)
    return WindowMatrix(data, out_elems, anchors, *((f.cols, f.rows) if left else (f.rows, f.cols)))


def window_matrix(f: RingMatrix, F: "FolnerSet | np.ndarray | Sequence[GroupElement]") -> WindowMatrix:
    """The matrix of x |-> f.x from vectors supported in F to vectors on K.F.

    Entry ((j, t), (k, s)) is the coefficient of f_{j,k} at t.s^{-1}; rows run
    over all of K.F because the kernel condition f.x = 0 must hold on the
    whole group.  A zero matrix has empty support and K.F is taken to be F.
    """
    return _block_operator(f, coords_of(f.spec, F), left=False)


def right_window_matrix(f: RingMatrix, E: "np.ndarray | Sequence[GroupElement]") -> WindowMatrix:
    """The matrix of g |-> g.f on row vectors supported in E.

    Rows are indexed by (output coordinate k, group element w of E.K), columns
    by (input coordinate j, element u of E); the entry is the coefficient of
    f_{j,k} at u^{-1}.w.
    """
    return _block_operator(f, coords_of(f.spec, E), left=True)


def column_vector(entries: Sequence[RingElem]) -> RingMatrix:
    """An n x 1 matrix from a sequence of ring elements."""
    if not entries:
        raise InputError("empty column vector")
    spec = entries[0].spec
    return RingMatrix(spec, [[e] for e in entries], cols=1)


def coefficient_vector(
    x: RingMatrix, elems: Sequence[GroupElement]
) -> list:
    """Flatten an n x 1 column of ring elements supported in ``elems`` into the
    coefficient layout used by ``window_matrix`` columns (coordinate-major)."""
    if x.cols != 1:
        raise InputError("expected a column vector")
    pos = {g: i for i, g in enumerate(elems)}
    out = [0] * (x.rows * len(elems))
    for k in range(x.rows):
        for g, c in x.entries[k][0].coeffs.items():
            if g not in pos:
                raise InputError("vector is not supported in the given window")
            out[k * len(elems) + pos[g]] = c
    return out
