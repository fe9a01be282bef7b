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
(4224x8192) builds in 0.7-1.2 ms, from 0.10-0.11 s with one Python group
multiplication per pair, and the Heisenberg L=4 window in 0.6-0.8 ms, from
27-34 ms (``scripts/build_times.py``).

Terms also come without ring elements: ``terms_by_case`` makes them for
many matrices at once from one flat table of (matrix, row, col, element,
value) terms, as the verify-suite samplers draw them, and ``star_terms``
takes the star of f on its terms.

The builder takes a batch of blocks over one group and returns the
block-diagonal union of their matrices with its block offsets.  A block is
one or more (terms, anchors) parts that share one numbering of their
products, side by side; a single window is the batch of one block of one
part.  ``quotient_span_rank``'s [W | V^T], a growth step of both erank
engines, is such a block of two parts: the right windows of f on a growth
window (or its interior) and of the generators on F^{-1}.  One part is
broadcast over its anchors.  A batch of more parts is laid out flat, with
no numpy call per part: the anchors, supports and terms of all parts are
concatenated once, and each (anchor, support element) pair and (anchor,
term) entry finds its part from per-anchor counts and offsets.  On one part
that layout is 1.4-2.4 times slower than the broadcast, so the builder
picks its path by the number of parts.  One ``unique_rows`` over (block,
product) numbers the products of every block and one constructor checks the
union.  A verify-suite pass at job seed 1 builds 1,652 parts in 17 batches,
in 9-15 ms on a 2-vCPU host, from 27-47 ms with a loop over the parts: the
suites' 1,300 fixed windows in 8 batches, and for ``quotient_span_rank`` 88
generator windows in 4 and 132 blocks [W | V^T] in 5.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import InputError, check_keys
from .exactla import SparseIntMatrix, int_array
from .groups import FolnerSet, GroupElement, GroupSpec, coords_of, unique_rows

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
        """The sum of the terms c.g: each g reduced and each c checked once,
        then zero sums dropped and integral sums made ints."""
        acc: dict[GroupElement, object] = {}
        for g, c in terms:
            g = spec.reduce(g)
            acc[g] = acc.get(g, 0) + _norm_coeff(c)
        elem = object.__new__(cls)
        elem.spec, elem.coeffs = spec, {g: _norm_coeff(c) for g, c in acc.items() if c}
        return elem

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
        check_keys("matrix", obj, ("group", "rows", "cols", "entries"))
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
            check_keys(where, ent, ("row", "col", "terms"))
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
                check_keys(twhere, term, ("coeff", "elem"))
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


def terms_by_case(shapes, case, row, col, coords, vals) -> list[Terms]:
    """The terms of many matrices from one flat table: term t is ``vals[t]``
    times the element ``coords[t]`` in entry (``row[t]``, ``col[t]``) of
    matrix ``case[t]``, whose shape is ``shapes[case[t]]``.

    One sort keyed by (case, row, col) sums the terms at each element of an
    entry and drops the zero sums, as ``RingElem.from_terms`` does; a second,
    keyed by case, gives each matrix its sorted support.  A matrix's terms
    come in (row, col, element) order."""
    rows, width = max([1] + [m for m, _ in shapes]), max([1] + [n for _, n in shapes])
    entries = (case * rows + row) * width + col
    keys, at = unique_rows(coords, entries)
    sums = np.zeros(len(keys), vals.dtype)
    np.add.at(sums, at, vals)
    entry = np.empty(len(keys), np.int64)
    entry[at] = entries
    (kept,) = sums.nonzero()
    keys, sums, entry = keys[kept], sums[kept], entry[kept]
    owner = entry // (rows * width)
    support, elem = unique_rows(keys, owner)
    s_owner = np.empty(len(support), np.int64)
    s_owner[elem] = owner
    cuts = np.arange(len(shapes) + 1)
    t_at, s_at = np.searchsorted(owner, cuts), np.searchsorted(s_owner, cuts)
    elem -= s_at[owner]
    row, col = entry // width % rows, entry % width
    t_at, s_at = t_at.tolist(), s_at.tolist()
    return [
        Terms(m, n, row[a:b], col[a:b], elem[a:b], sums[a:b], support[s:e])
        for (m, n), a, b, s, e in zip(shapes, t_at, t_at[1:], s_at, s_at[1:])
    ]


def star_terms(spec: GroupSpec, ts: Sequence[Terms]) -> list[Terms]:
    """The star of each matrix: (f*)_{k,j} carries the coefficients of
    f_{j,k} at the inverses, so the terms keep their values with row and
    column swapped and each element inverted."""
    if not ts:
        return []
    offsets = np.cumsum([0] + [len(t.support) for t in ts[:-1]])
    sizes = [len(t.vals) for t in ts]
    support = np.concatenate([t.support for t in ts])
    elem = np.concatenate([t.elem for t in ts]) + np.repeat(offsets, sizes)
    return terms_by_case(
        [(t.n, t.m) for t in ts],
        np.repeat(np.arange(len(ts)), sizes),
        np.concatenate([t.col for t in ts]),
        np.concatenate([t.row for t in ts]),
        spec.inverse_array(support[elem]),
        np.concatenate([t.vals for t in ts]),
    )


def window_operator(
    spec: GroupSpec,
    batch: Sequence[Sequence[tuple[Terms, np.ndarray]]],
    left: bool,
    anchor_rows: bool = False,
) -> tuple[SparseIntMatrix, list[int], list[int], list[np.ndarray]]:
    """The window operators of a batch of blocks over spec, as the
    block-diagonal union of the blocks' matrices.

    A block is a sequence of parts, each the terms of a matrix f and the
    anchors it acts on.  The term c.u of f_{j,k} at anchor x is the entry c
    at the product x.u (``left``) or u.x.  The anchor goes with j on the left
    and with k on the right; the other index of f, b, must have the same
    range in every part of a block.  Rows are (b, product) and columns
    (index, anchor), block-major, and the parts of a block sit side by side
    in its columns, in order; with ``anchor_rows``, rows are (anchor, index)
    and columns (b, product), and the parts sit one below the other.  The
    products of a block are numbered among the sorted distinct products of
    all of its parts, so a part built alone is its block's matrix with the
    rows of the other parts' products left out.  A zero matrix takes
    K = {identity} unless ``anchor_rows`` is set.

    Returns the union, the offsets of the blocks' rows and of their columns
    (block b is rows ``row_at[b]:row_at[b + 1]``, columns likewise), and
    each block's products.  ``window_matrix`` is one part on the right side.
    ``right_window_matrix`` is one part on the left; on the interior of a
    window its transpose is the dual-constraint matrix.  The submodule matrix
    of F^{-1}A is one part on the left on anchors F^{-1}, with
    ``anchor_rows``.  ``quotient_span_rank``'s matrix [W | V^T] is the block
    of f on a growth window (or its interior) and of B on F^{-1}, on the left.

    One part is broadcast over its (anchor, support element) and (anchor,
    term) grids.  More parts are laid out flat, with no numpy call per part:
    the anchors, supports and terms of all parts are concatenated once, and
    each pair and entry finds its anchor, support element and term from
    per-anchor counts and offsets.  That layout's fixed costs make it slower
    on one part, so the number of parts picks the path.  Either way one
    ``unique_rows`` over (block, product) numbers every block's products
    and one constructor checks the union.
    """
    parts = [part for block in batch for part in block]
    Ks = [t.support if len(t.support) or anchor_rows else spec.coords([spec.identity()]) for t, _ in parts]
    if len(parts) == 1:
        row_at, col_at, elems, ii, jj, vals = _one_part(spec, *parts[0], *Ks, left, anchor_rows)
    else:
        row_at, col_at, elems, ii, jj, vals = _flat_parts(spec, batch, parts, Ks, left, anchor_rows)
    return SparseIntMatrix(row_at[-1], col_at[-1], ii, jj, vals), row_at, col_at, elems


def _one_part(spec, t, anchors, K, left, anchor_rows):
    """``window_operator``'s offsets, products and entries for the one part
    (t, anchors) with products on K, broadcast over its anchors."""
    P = spec.mul_array(anchors[:, None], K[None]) if left else spec.mul_array(K[None], anchors[:, None])
    elems, pos = unique_rows(P.reshape(len(anchors) * len(K), spec.coord_len))
    inn, b, n_in, n_b = (t.row, t.col, t.m, t.n) if left else (t.col, t.row, t.n, t.m)
    # The products go first and the entries go into arrays made for them:
    # then a large build leaves no heap to hand back to the system and
    # fault in again, page by page, on the next one.
    del P
    shape = (len(anchors), len(t.vals))
    ii, jj, vals = np.empty(shape, np.int64), np.empty(shape, np.int64), np.empty(shape, t.vals.dtype)
    on_products, on_anchors = (jj, ii) if anchor_rows else (ii, jj)
    # The product of anchor a and term e, and a's index in the anchor axis.
    np.add(pos.reshape(len(anchors), len(K))[:, t.elem], b * len(elems), out=on_products)
    a = np.arange(len(anchors))[:, None]
    np.add(a * n_in if anchor_rows else a, inn if anchor_rows else inn * len(anchors), out=on_anchors)
    vals[:] = t.vals
    anchor_at, prod_at = [0, len(anchors) * n_in], [0, n_b * len(elems)]
    row_at, col_at = (anchor_at, prod_at) if anchor_rows else (prod_at, anchor_at)
    return row_at, col_at, [elems], ii.ravel(), jj.ravel(), vals.ravel()


def _flat_parts(spec, batch, parts, Ks, left, anchor_rows):
    """``window_operator``'s offsets, products and entries for many parts,
    from per-part counts: a part's anchors each pair with its support
    elements, in order, and each carry its terms, in order."""
    terms, anchors = zip(*parts)
    m, n, row, col, elem, vals, _ = zip(*terms)
    # Per part: its anchors, its products per anchor and its terms.
    na, ns, nt = (np.fromiter(map(len, x), np.int64, len(parts)) for x in (anchors, Ks, vals))
    n_in, n_b = (np.array(m), np.array(n)) if left else (np.array(n), np.array(m))
    sizes = [len(block) for block in batch]
    blk, last = np.repeat(np.arange(len(batch)), sizes), np.cumsum(sizes) - 1
    # Per anchor: its pairs and entries, and where they start.
    ns_a, nt_a = np.repeat(ns, na), np.repeat(nt, na)
    pair_at, e_at = np.cumsum(ns_a) - ns_a, np.cumsum(nt_a) - nt_a
    # Pair p of an anchor whose pairs start at pair_at takes support element
    # p - pair_at of its part, whose support starts at k_at.
    k_at = np.cumsum(ns) - ns
    k = np.arange(int(ns_a.sum()))
    k -= np.repeat(pair_at - np.repeat(k_at, na), ns_a)
    G = np.repeat(np.concatenate(anchors), ns_a, axis=0)
    H = np.concatenate(Ks)[k]
    P = spec.mul_array(G, H) if left else spec.mul_array(H, G)
    block = np.repeat(blk, na * ns) if len(batch) > 1 else None
    elems, pos = unique_rows(P, block)
    del G, H, P, k
    if block is None:
        y_at = np.array([0, len(elems)])
    else:
        # A block's products take a run of the numbers: it ends after its largest.
        top = np.full(len(batch), -1)
        np.maximum.at(top, block, pos)
        y_at = np.concatenate(([0], np.maximum.accumulate(top) + 1))
    ny = np.diff(y_at)
    prod_at = np.concatenate(([0], np.cumsum(n_b[last] * ny)))
    width = na * n_in
    anchor_at = np.concatenate(([0], np.cumsum(width)[last]))
    # Entry e of an anchor whose entries start at e_at is term e - e_at of its
    # part, whose terms start at t_at.
    t_at = np.cumsum(nt) - nt
    term = np.arange(int(nt_a.sum()))
    term -= np.repeat(e_at - np.repeat(t_at, na), nt_a)
    row, col, elem, vals = map(np.concatenate, (row, col, elem, vals))
    inn, b = (row, col) if left else (col, row)
    # An entry's product is the pair of its anchor and its term's support
    # element; its row (column with anchor_rows) adds its term's b, in
    # steps of the block's products, and the block's offset.  The entries
    # go into arrays made for them, as in ``_one_part``, filled in place;
    # on_anchors holds each entry's support element until its own fill.
    b = b * np.repeat(ny[blk], nt) + np.repeat((prod_at[:-1] - y_at[:-1])[blk], nt)
    on_products, on_anchors = np.empty(term.size, np.int64), np.empty(term.size, np.int64)
    at = np.repeat(pair_at, nt_a)
    at += np.take(elem, term, out=on_anchors)
    np.take(pos, at, out=on_products)
    on_products += np.take(b, term, out=at)
    # Each part's first anchor in the batch, and its first index on the anchor axis.
    aoff, a0 = np.cumsum(na) - na, np.cumsum(width) - width
    if anchor_rows:
        anc = (np.arange(len(ns_a)) - np.repeat(aoff, na)) * np.repeat(n_in, na) + np.repeat(a0, na)
    else:
        anc, inn = np.arange(len(ns_a)) + np.repeat(a0 - aoff, na), inn * np.repeat(na, nt)
    np.take(inn, term, out=on_anchors)
    on_anchors += np.repeat(anc, nt_a)
    vals = vals[term]
    row_at, col_at = (anchor_at, prod_at) if anchor_rows else (prod_at, anchor_at)
    ii, jj = (on_anchors, on_products) if anchor_rows else (on_products, on_anchors)
    y_at = y_at.tolist()
    return row_at.tolist(), col_at.tolist(), [elems[s:e] for s, e in zip(y_at, y_at[1:])], ii, jj, vals


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
    data, _, _, (out_elems,) = window_operator(f.spec, [[(f.terms(), anchors)]], left)
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

