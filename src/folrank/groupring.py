"""Exact arithmetic for group-ring elements and matrices, and window operators.

A ring element is a finitely supported map from group elements to rational
coefficients (integers are kept as Python ints, the exact fast path).  A
matrix over the group ring carries its support K (union of entry supports)
and its l1 coefficient norm.  ``window_matrix`` turns the left action
x |-> f.x on column vectors supported in a window F into an exact integer
matrix with rows indexed by K.F and columns by F.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping, Sequence

from .errors import InputError
from .exactla import SparseIntMatrix
from .groups import FolnerSet, GroupElement, GroupSpec, elements_of

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
    def monomial(cls, spec: GroupSpec, g: Sequence[int], coeff=1) -> "RingElem":
        return cls(spec, {tuple(g): coeff})

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

    def is_integral(self) -> bool:
        return all(isinstance(c, int) for c in self.coeffs.values())

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
    """An m x n matrix over the group ring, with cached support and l1 norm."""

    __slots__ = ("spec", "rows", "cols", "entries", "_support", "_norm1")

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

    @classmethod
    def zero(cls, spec: GroupSpec, rows: int, cols: int) -> "RingMatrix":
        z = RingElem.zero(spec)
        return cls(spec, [[z] * cols for _ in range(rows)], cols=cols)

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

    def is_integral(self) -> bool:
        return all(e.is_integral() for row in self.entries for e in row)

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.entries for e in row)

    def star(self) -> "RingMatrix":
        """The n x m involuted matrix: (f*)_{k,j} has coefficients f_{j,k} at inverses."""
        starred = [
            [self.entries[j][k].star() for j in range(self.rows)] for k in range(self.cols)
        ]
        return RingMatrix(self.spec, starred, cols=self.rows)

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


class WindowMatrix:
    """Exact integer matrix of a window operator, with its row/column index maps.

    The row index map pairs an output coordinate with a group element of K.F
    (or E.K on the right-acting side); the column map pairs an input
    coordinate with a window element.  Rows coming from rational entries are
    scaled by denominator lcms, which changes neither rank nor kernel.
    """

    __slots__ = ("data", "row_index", "col_index", "row_elems", "col_elems")

    def __init__(self, data: SparseIntMatrix, row_index, col_index, row_elems, col_elems):
        self.data = data
        self.row_index = tuple(row_index)
        self.col_index = tuple(col_index)
        self.row_elems = tuple(row_elems)
        self.col_elems = tuple(col_elems)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.data.rows, self.data.cols)


def _clear_denominators(rows: int, cols: int, acc: dict) -> SparseIntMatrix:
    by_row: dict[int, int] = {}
    for (i, _), c in acc.items():
        if isinstance(c, Fraction):
            by_row[i] = lcm(by_row.get(i, 1), c.denominator)
    entries = {}
    for (i, j), c in acc.items():
        scale = by_row.get(i, 1)
        v = c * scale
        v = int(v)
        if v:
            entries[(i, j)] = v
    return SparseIntMatrix(rows, cols, entries)


def window_matrix(f: RingMatrix, F: "FolnerSet | Sequence[GroupElement]") -> WindowMatrix:
    """The matrix of x |-> f.x from vectors supported in F to vectors on K.F.

    Entry ((j, t), (k, s)) is the coefficient of f_{j,k} at t.s^{-1}; rows run
    over all of K.F because the kernel condition f.x = 0 must hold on the
    whole group.  A zero matrix has empty support and K.F is taken to be F.
    """
    spec = f.spec
    if isinstance(F, FolnerSet) and F.spec != spec:
        raise InputError("window and matrix live over different groups")
    felems = elements_of(F)
    m, n = f.rows, f.cols
    K = f.support()
    if not K:
        K = frozenset({spec.identity()})
    kf = sorted({spec.mul(u, s) for u in K for s in felems})
    kf_pos = {t: i for i, t in enumerate(kf)}
    nf = len(felems)
    nkf = len(kf)
    acc: dict[tuple[int, int], object] = {}
    for k in range(n):
        for si, s in enumerate(felems):
            col = k * nf + si
            for j in range(m):
                for u, c in f.entries[j][k].coeffs.items():
                    t = spec.mul(u, s)
                    row = j * nkf + kf_pos[t]
                    acc[(row, col)] = acc.get((row, col), 0) + c
    data = _clear_denominators(m * nkf, n * nf, acc)
    row_index = [(j, t) for j in range(m) for t in kf]
    col_index = [(k, s) for k in range(n) for s in felems]
    return WindowMatrix(data, row_index, col_index, kf, felems)


def right_window_matrix(f: RingMatrix, E: Sequence[GroupElement]) -> WindowMatrix:
    """The matrix of g |-> g.f on row vectors supported in E.

    Rows are indexed by (output coordinate k, group element w of E.K), columns
    by (input coordinate j, element u of E); the entry is the coefficient of
    f_{j,k} at u^{-1}.w.
    """
    spec = f.spec
    eelems = tuple(E)
    m, n = f.rows, f.cols
    K = f.support()
    if not K:
        K = frozenset({spec.identity()})
    ek = sorted({spec.mul(u, v) for u in eelems for v in K})
    ek_pos = {w: i for i, w in enumerate(ek)}
    ne = len(eelems)
    nek = len(ek)
    acc: dict[tuple[int, int], object] = {}
    for ui, u in enumerate(eelems):
        for j in range(m):
            col = j * ne + ui
            for k in range(n):
                for v, c in f.entries[j][k].coeffs.items():
                    w = spec.mul(u, v)
                    row = k * nek + ek_pos[w]
                    acc[(row, col)] = acc.get((row, col), 0) + c
    data = _clear_denominators(n * nek, m * ne, acc)
    row_index = [(k, w) for k in range(n) for w in ek]
    col_index = [(j, u) for j in range(m) for u in eelems]
    return WindowMatrix(data, row_index, col_index, ek, eelems)


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
