"""Finite patterns over pointed alphabets and their support geometry.

A pattern is a finite partial map from grid cells to an alphabet with a
distinguished zero symbol. Cells are integer tuples of dimension 1 or 2;
the metric is L1 throughout. The support is the set of cells carrying a
nonzero symbol.

A :class:`Pattern` stores its support's symbols and its domain as rows
of sorted, merged x-intervals: one row in 1D, and a ``?`` hole splits a
row. Zeros are implied, so ``len`` is the domain size while the views
that list cells (``cells()``, ``items()``, ``domain``) yield zeros
lazily; pad, translation, gluing and rendering never visit a zero cell.

A blob is an r-connected piece of the support: its values, moved so the
least cell sits at the origin, plus its radius. Its domain, the piece's
r-dilation cut to the window, is implied and built from intervals only
when :attr:`Blob.pattern` is read; whether the dilation leaves the
window is an interval test per row of the piece.

:func:`connected_components` and blob scans read the r-components off
the support's sorted rows: each row is cut into runs of cells, and runs
of nearby rows are joined in a union-find, so no cell graph is built.

The public :class:`Pattern` constructor checks every cell and symbol.
Values derived only from checked patterns of one alphabet and its zero
(translates, paddings, zero-glues, rows, blobs) are built without that
check, since it could not fail. All values are immutable after
construction and every operation is a pure function, so everything here
is safe to call from concurrent workers. Coordinates are Python
integers, hence arbitrary precision.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import wraps
from math import prod
from typing import Iterable, Iterator, Mapping, TypeVar

from .errors import GlueConflict, PaddingUnavailable, UnsupportedFormat
from .limits import check_cells

Cell = tuple[int, ...]
T = TypeVar("T")
_ORIGIN = (0, 0)


class _Record:
    """An immutable value whose fields are its class's ``__slots__``.

    Two records are equal when they are of one class with equal fields,
    and hash by their field tuple; a field can be neither assigned nor
    deleted. A subclass's ``__init__`` checks its arguments and stores
    them with :meth:`_fill`, in slot order.
    """

    __slots__ = ()

    def _fill(self, *values) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def _asdict(self) -> dict:
        """Field name -> value, in field order."""
        return dict(zip(self.__slots__, self._values()))

    @classmethod
    def _rebuilt(cls, *values):
        self = object.__new__(cls)
        self._fill(*values)
        return self

    def __reduce__(self):
        # copy and pickle would set each slot through __setattr__
        return self._rebuilt, self._values()

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self.__slots__, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Alphabet(_Record):
    """Ordered symbol list with a distinguished zero symbol.

    Each symbol is one character, since every word is read one character
    at a time.
    """

    __slots__ = ("symbols", "zero")

    def __init__(self, symbols: tuple[str, ...], zero: str):
        for symbol in symbols:
            if len(symbol) != 1:
                raise ValueError("alphabet symbols must be single "
                                 f"characters, got {symbol!r}")
        if len(set(symbols)) != len(symbols):
            raise ValueError("alphabet symbols must be pairwise distinct")
        if zero not in symbols:
            raise ValueError("zero symbol must be a member of the alphabet")
        self._fill(symbols, zero)


BINARY = Alphabet(("0", "1"), "0")


def translate_values(values: Mapping[Cell, T], v: Cell) -> dict[Cell, T]:
    """values moved by v, in the order of values.

    Written per dimension; v must have the cells' dimension.
    """
    if len(v) == 1:
        (a,) = v
        return {(x + a,): s for (x,), s in values.items()}
    a, b = v
    return {(x + a, y + b): s for (x, y), s in values.items()}


# -- row intervals ---------------------------------------------------------
#
# A row is a flat tuple (lo, end, lo, end, ...) of sorted half-open
# intervals with a gap between any two, so each row has one form, and x
# lies in it exactly when bisect_right(row, x) is odd. A domain maps each
# row height (0 in 1D) to its nonempty row.


def _merged(spans: Iterable[tuple[int, int]]) -> tuple:
    """The row covering (lo, end) spans sorted by lo."""
    out: list[int] = []
    for lo, end in spans:
        if out and lo <= out[-1]:
            if end > out[-1]:
                out[-1] = end
        else:
            out += (lo, end)
    return tuple(out)


def _runs(xs: Iterable[int]) -> tuple:
    """The row of sorted distinct xs."""
    return _merged([(x, x + 1) for x in xs])


def _spans(row: tuple) -> Iterator[tuple[int, int]]:
    return zip(row[::2], row[1::2])


def _holds(row: tuple, lo: int, end: int) -> bool:
    """Whether [lo, end) lies in one interval of row."""
    i = bisect_right(row, lo)
    return i & 1 == 1 and row[i] >= end


def _meets(xs: list[int], row: tuple) -> bool:
    """Whether one of the sorted xs lies in row."""
    for k in range(0, len(row), 2):
        i = bisect_left(xs, row[k])
        if i < len(xs) and xs[i] < row[k + 1]:
            return True
    return False


def _cut(a: tuple, b: tuple) -> tuple:
    """The row of cells in both rows."""
    out: list[int] = []
    i = j = 0
    while i < len(a) and j < len(b):
        lo, end = max(a[i], b[j]), min(a[i + 1], b[j + 1])
        if lo < end:
            out += (lo, end)
        if a[i + 1] < b[j + 1]:
            i += 2
        else:
            j += 2
    return tuple(out)


def _union(a: tuple, b: tuple) -> tuple:
    """The row of cells in either row."""
    if len(a) == 2 == len(b):
        if a[1] < b[0]:
            return a + b
        if b[1] < a[0]:
            return b + a
        return (a[0] if a[0] < b[0] else b[0], a[1] if a[1] > b[1] else b[1])
    return _merged(sorted([*_spans(a), *_spans(b)]))


def _size(domain: Mapping[int, tuple]) -> int:
    return sum(sum(row[1::2]) - sum(row[::2]) for row in domain.values())


def _rows_of(cells: Iterable[Cell], dim: int,
             at: Cell = _ORIGIN) -> dict[int, list[int]]:
    """Row -> the sorted xs of the cells, moved by -at (row 0 in 1D)."""
    a, b = at
    xs_by_y: dict[int, list[int]] = {}
    for cell in cells:
        xs_by_y.setdefault(cell[-1] - b if dim == 2 else 0,
                           []).append(cell[0] - a)
    for xs in xs_by_y.values():
        xs.sort()
    return xs_by_y


def _reach(r: int, dim: int) -> list[tuple[int, int]]:
    """(dy, w): the L1 r-ball's row dy holds the x-offsets -w..w."""
    return [(dy, r - abs(dy)) for dy in range(-r, r + 1)] if dim == 2 \
        else [(0, r)]


def _half_ball(r: int, dim: int) -> int:
    """Cells of the L1 r-ball lexicographically above its centre."""
    return r if dim == 1 else r * (r + 1)


def _dilate(domain: Mapping[int, tuple], r: int, dim: int) -> dict:
    """The domain within L1 distance r: row y, widened by w, on y + dy."""
    reach, grown = _reach(r, dim), {}
    for y, row in domain.items():
        for k in range(0, len(row), 2):
            lo, end = row[k], row[k + 1]
            for dy, w in reach:
                spans = grown.get(y + dy)
                if spans is None:
                    grown[y + dy] = [(lo - w, end + w)]
                else:
                    spans.append((lo - w, end + w))
    return {y: spans[0] if len(spans) == 1 else _merged(sorted(spans))
            for y, spans in grown.items()}


class Pattern:
    """Finite map cell -> symbol, defined exactly on its domain.

    Cells are listed top row first, left to right, as the text format
    writes them. The rows may sit in another frame: cell (x, y) is in the
    domain when row y - b holds x - a, for the shift (a, b) = _at (b = 0
    in 1D), so a translate shares its source's rows.
    """

    __slots__ = ("alphabet", "_nz", "_rows", "_at", "_dim", "_support",
                 "_xs", "_size", "_hash")

    def __init__(self, alphabet: Alphabet, values: Mapping[Cell, str]):
        zero, symbols = alphabet.zero, alphabet.symbols
        dim = None
        nz = {}
        for cell, symbol in values.items():
            if dim is None:
                dim = len(cell)
                if dim not in (1, 2):
                    raise ValueError("patterns are 1- or 2-dimensional")
            elif len(cell) != dim:
                raise ValueError("mixed cell dimensions in one pattern")
            if symbol not in symbols:
                raise ValueError(f"symbol {symbol!r} not in alphabet")
            if symbol != zero:
                nz[cell] = symbol
        self._fill(alphabet, nz, {y: _runs(xs) for y, xs
                                  in _rows_of(values, dim).items()}, dim)

    def _fill(self, alphabet: Alphabet, nz: dict, rows: dict, dim) -> None:
        self.alphabet, self._nz, self._rows = alphabet, nz, rows
        self._at = _ORIGIN
        self._dim = dim if rows else 1
        self._support = self._xs = self._size = self._hash = None

    @classmethod
    def _derived(cls, alphabet: Alphabet, nz: dict[Cell, str],
                 rows: dict[int, tuple], dim: int) -> "Pattern":
        """A pattern owning nz and unshifted rows, built without checks.

        Only for cells and symbols of checked patterns of one dimension
        and alphabet; neither map may change afterwards.
        """
        self = cls.__new__(cls)
        self._fill(alphabet, nz, rows, dim)
        return self

    # -- construction helpers -------------------------------------------

    @classmethod
    def from_word(cls, word: str, alphabet: Alphabet = BINARY,
                  start: int = 0) -> "Pattern":
        """1D pattern on the interval [start, start + len(word))."""
        nz = {}
        for i, c in enumerate(word):
            if c != alphabet.zero:
                if c not in alphabet.symbols:
                    raise ValueError(f"symbol {c!r} not in alphabet")
                nz[(start + i,)] = c
        rows = {0: (start, start + len(word))} if word else {}
        return cls._derived(alphabet, nz, rows, 1)

    @classmethod
    def from_rows(cls, rows: list[str], alphabet: Alphabet = BINARY,
                  origin: Cell = _ORIGIN) -> "Pattern":
        """The pattern of text rows, top row first, each symbol checked.

        The grid's bottom-left corner lands at the origin, whose length is
        the dimension; a 1D grid is a single row. ``.`` is read as the
        zero symbol and ``?`` leaves a cell outside the domain. A symbol
        outside the alphabet raises ValueError, the first one in reading
        order.
        """
        zero, symbols = alphabet.zero, alphabet.symbols
        blank = {".", "?", zero}
        dim = len(origin)
        x0 = origin[0]
        top = (origin[1] if dim == 2 else 0) + len(rows) - 1
        nz: dict[Cell, str] = {}
        domain: dict[int, tuple] = {}
        for rix, text in enumerate(rows):
            y = top - rix if dim == 2 else 0
            for x, ch in enumerate(text):
                if ch not in blank:
                    if ch not in symbols:
                        raise ValueError(f"symbol {ch!r} not in alphabet")
                    nz[(x0 + x, y) if dim == 2 else (x0 + x,)] = ch
            row, at = [], x0
            for piece in text.split("?"):
                if piece:
                    row += (at, at + len(piece))
                at += len(piece) + 1
            if row:
                domain[y] = tuple(row)
        return cls._derived(alphabet, nz, domain, dim)

    # -- basic views ------------------------------------------------------

    @property
    def dimension(self) -> int:
        return self._dim

    def cells(self) -> Iterator[Cell]:
        rows, (a, b) = self._rows, self._at
        for y in sorted(rows, reverse=True):
            for lo, end in _spans(rows[y]):
                for x in range(lo + a, end + a):
                    yield (x, y + b) if self._dim == 2 else (x,)

    def __len__(self) -> int:
        if self._size is None:
            self._size = _size(self._rows)
        return self._size

    def __contains__(self, cell: Cell) -> bool:
        if len(cell) != self._dim:
            return False
        a, b = self._at
        row = self._rows.get(cell[1] - b if self._dim == 2 else 0)
        return row is not None and bisect_right(row, cell[0] - a) & 1 == 1

    def value(self, cell: Cell) -> str:
        symbol = self.get(cell)
        if symbol is None:
            raise KeyError(cell)
        return symbol

    def get(self, cell: Cell, default: str | None = None) -> str | None:
        symbol = self._nz.get(cell)
        if symbol is not None:
            return symbol
        return self.alphabet.zero if cell in self else default

    def items(self) -> Iterator[tuple[Cell, str]]:
        get, zero = self._nz.get, self.alphabet.zero
        return ((c, get(c, zero)) for c in self.cells())

    def support(self) -> frozenset:
        if self._support is None:
            self._support = frozenset(self._nz)
        return self._support

    def _support_rows(self) -> dict[int, list[int]]:
        """Row -> the sorted xs of its support cells, in the rows' frame."""
        if self._xs is None:
            self._xs = _rows_of(self._nz, self._dim, self._at)
        return self._xs

    def bounding_box(self) -> tuple[Cell, Cell] | None:
        """(min corner, max corner) of the domain, or None when empty."""
        rows, (a, b) = self._rows, self._at
        if not rows:
            return None
        lo = min(row[0] for row in rows.values()) + a
        hi = max(row[-1] for row in rows.values()) - 1 + a
        if self._dim == 1:
            return (lo,), (hi,)
        return (lo, min(rows) + b), (hi, max(rows) + b)

    def _plain(self) -> "Pattern":
        """This pattern with unshifted rows."""
        a, b = self._at
        if not a and not b:
            return self
        rows = {y + b: tuple([x + a for x in row])
                for y, row in self._rows.items()}
        return Pattern._derived(self.alphabet, self._nz, rows, self._dim)

    # -- pure transformations ---------------------------------------------

    def translate(self, v: Cell) -> "Pattern":
        if not self._rows:
            return self
        if len(v) != self._dim:
            raise ValueError(
                f"cannot translate a {self._dim}D pattern by {v!r}")
        a, b = self._at
        moved = Pattern._derived(self.alphabet, translate_values(self._nz, v),
                                 self._rows, self._dim)
        moved._at = (a + v[0], b + v[-1] if self._dim == 2 else 0)
        moved._xs, moved._size = self._xs, self._size
        return moved

    # -- equality ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Pattern):
            return NotImplemented
        return (self.alphabet == other.alphabet and self._dim == other._dim
                and self._nz == other._nz
                and self._plain()._rows == other._plain()._rows)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.alphabet, frozenset(self._nz.items()),
                               frozenset(self._plain()._rows.items())))
        return self._hash

    def __repr__(self) -> str:
        return (f"Pattern(dim={self._dim}, cells={len(self)}, "
                f"support={len(self._nz)})")


class Blob:
    """An r-padded pattern around one r-connected support component.

    Stored in canonical translation (lexicographically least support cell
    at the origin). Two blobs are equal exactly when their supports and the
    values on them agree; the padding is determined by the support and the
    radius, so it does not enter the comparison.
    """

    __slots__ = ("radius", "_values", "_pattern", "_source", "_key")

    @classmethod
    def _scanned(cls, values: dict[Cell, str], radius: int, source: tuple):
        """A blob of canonical values, its pattern built on demand.

        source is (alphabet, dim, the sorted xs per row where the component
        was found, the window's rows if its padding leaves them or None,
        the anchor).
        """
        self = cls.__new__(cls)
        self.radius, self._values, self._pattern = radius, values, None
        self._source, self._key = source, None
        return self

    @property
    def pattern(self) -> Pattern:
        """The component's r-dilation cut to the window, at canonical place.

        Its rows stay in the window's frame, so moving it back to its
        anchor moves only the support.
        """
        if self._pattern is None:
            alphabet, dim, xs_by_y, window, anchor = self._source
            r = self.radius
            if dim == 1:  # an r-connected set of cells on a line: one interval
                xs = xs_by_y[0]
                rows = {0: (xs[0] - r, xs[-1] + r + 1)}
            else:
                rows = _dilate({y: _runs(xs) for y, xs in xs_by_y.items()},
                               r, dim)
            if window is not None:
                cut = {y: _cut(row, window[y]) for y, row in rows.items()
                       if y in window}
                rows = {y: row for y, row in cut.items() if row}
            pattern = Pattern._derived(alphabet, self._values, rows, dim)
            pattern._at = (-anchor[0], -anchor[-1] if dim == 2 else 0)
            pattern._xs = xs_by_y
            self._pattern = pattern
        return self._pattern

    def support(self) -> frozenset:
        return frozenset(self._values)

    def _support_key(self):
        if self._key is None:
            self._key = frozenset(self._values.items())
        return self._key

    def __eq__(self, other) -> bool:
        if not isinstance(other, Blob):
            return NotImplemented
        return self._support_key() == other._support_key()

    def __hash__(self) -> int:
        return hash(self._support_key())

    def __repr__(self) -> str:
        return f"Blob(radius={self.radius}, support={len(self._values)})"


# -- connectivity ----------------------------------------------------------


def _components(xs_by_y: Mapping[int, list[int]], r: int,
                dim: int) -> list[tuple[Cell, dict[int, list[int]]]]:
    """(least cell, sorted xs per row) per r-component of the cells.

    The cells come as sorted xs per row. Each row is cut into runs
    wherever a gap exceeds r, so in 1D the runs are the components. For
    dy = 1..r and w = r - dy, each cell b of row y + dy joins every run of
    row y holding an x in [b - w, b + w], in a union-find over runs (He,
    Chao & Suzuki, "A run-based two-scan labeling algorithm", 2008).
    Components come in order of their least cell.

    The runs and the union-find hold 2 * n entries for n cells. In 2D the
    joins, a blob scan's exit test and a blob's dilation also probe each
    cell against the ball's 2r + 1 rows, so 2 * n * (r + 1) is charged
    first; in 1D, 2 * n.
    """
    if r < 0:
        raise ValueError("radius must be nonnegative")
    n = sum(map(len, xs_by_y.values()))
    check_cells(2 * n * (r + 1 if dim == 2 else 1),
                f"{r}-components of {n} cells")
    parent: list[int] = []
    runs = []  # per row: (y, xs, first run id, its runs' bounds in xs)
    for y in sorted(xs_by_y):
        xs = xs_by_y[y]
        cut = [0, *[i for i in range(1, len(xs)) if xs[i] - xs[i - 1] > r],
               len(xs)]
        runs.append((y, xs, len(parent), cut))
        parent += range(len(parent), len(parent) + len(cut) - 1)

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        return a

    for k, (y, xs, base, cut) in enumerate(runs):
        m = len(xs)
        for y2, xs2, base2, cut2 in runs[k + 1:k + 1 + r]:
            w = r - (y2 - y)
            if w < 0:
                break
            for t in range(len(cut2) - 1):
                mine = base2 + t
                for b in xs2[cut2[t]:cut2[t + 1]]:
                    i, end = bisect_left(xs, b - w), b + w
                    while i < m and xs[i] <= end:
                        j = bisect_right(cut, i)
                        a, c = find(base + j - 1), find(mine)
                        if a != c:
                            parent[c if c > a else a] = a if c > a else c
                        i = cut[j]

    found: dict[int, list] = {}
    for y, xs, base, cut in runs:
        for t in range(len(cut) - 1):
            run = xs[cut[t]:cut[t + 1]]
            comp = found.setdefault(find(base + t), [(run[0], y), {}])
            comp[0] = min(comp[0], (run[0], y))
            comp[1].setdefault(y, []).extend(run)
    return [(least if dim == 2 else least[:1], rows)
            for least, rows in sorted(found.values())]


def connected_components(cells: Iterable[Cell], r: int) -> list[frozenset]:
    """Partition cells into maximal r-connected subsets.

    Two cells are adjacent when their L1 distance is at most r. Components
    come back ordered by their lexicographically least member.
    """
    cells = set(cells)
    dims = {len(c) for c in cells}
    if len(dims) > 1 or dims - {1, 2}:
        raise ValueError("cells must be all 1D or all 2D")
    dim = dims.pop() if dims else 1
    return [frozenset((x, y) if dim == 2 else (x,)
                      for y, xs in rows.items() for x in xs)
            for _, rows in _components(_rows_of(cells, dim), r, dim)]


def blobs(pattern: Pattern, r: int) -> list[tuple[Blob, Cell]]:
    """Decompose the support into r-blobs with their anchors.

    Each blob is translated so its least support cell sits at the origin;
    the anchor records where that cell sat in the pattern. Raises
    :class:`PaddingUnavailable` when a component's r-padding exits the
    pattern's domain: a finite window can certify blobs, not guess them.
    """
    out = []
    for anchor, blob, truncated in _blob_scan(pattern, r):
        if truncated:
            raise PaddingUnavailable(
                f"padding of component at {anchor} exits the domain")
        out.append((blob, anchor))
    return out


def _blob_scan(pattern: Pattern, r: int):
    """Yield (anchor, blob, truncated) per r-component of the support.

    The blob holds the component's values with its least cell, the
    anchor, at the origin. The component's r-dilation stays inside the
    domain when, for each of its rows y with extremes lo..hi, row y + dy
    holds [lo - w, hi + w], w = r - |dy|, for every |dy| <= r (dy = 0 in
    1D). Where a row is split and that fails, each cell's [x - w, x + w]
    must lie in one interval of it.
    """
    pattern = pattern._plain()
    nz, window, dim = pattern._nz, pattern._rows, pattern._dim
    found = _components(pattern._support_rows(), r, dim)
    reach = _reach(r, dim) if found else []  # past _components' cap check
    for anchor, xs_by_y in found:
        ax, ay = anchor[0], anchor[-1] if dim == 2 else 0
        if dim == 1:
            values = {(x - ax,): nz[(x,)] for x in xs_by_y[0]}
        else:
            values = {(x - ax, y - ay): nz[(x, y)]
                      for y, xs in xs_by_y.items() for x in xs}
        truncated = _exits(window, xs_by_y, reach)
        yield anchor, Blob._scanned(values, r, (
            pattern.alphabet, dim, xs_by_y, window if truncated else None,
            anchor)), truncated


def _exits(window: dict, xs_by_y: dict, reach: list) -> bool:
    """Whether the dilation of the cells (sorted xs per row) leaves window."""
    for y, xs in xs_by_y.items():
        for dy, w in reach:
            row = window.get(y + dy)
            if row is None or not (
                    _holds(row, xs[0] - w, xs[-1] + w + 1)
                    or len(row) > 2 and all(_holds(row, x - w, x + w + 1)
                                            for x in xs)):
                return True
    return False


def zero_glue(p: Pattern, q: Pattern) -> Pattern:
    """Union of two patterns whose overlap is all-zero on both sides.

    Only rows of both domains are compared. A nonzero cell in both
    domains raises :class:`GlueConflict` naming the first such cell in
    cell order.
    """
    if p.alphabet is not q.alphabet and p.alphabet != q.alphabet:
        raise ValueError("zero_glue needs a common alphabet")
    if p._dim != q._dim and p._rows and q._rows:
        raise ValueError("zero_glue needs a common dimension")
    if not q._rows:
        return p
    if not p._rows:
        return q
    if p._at != q._at:
        p, q = p._plain(), q._plain()
    if len(p._rows) < len(q._rows):
        p, q = q, p
    pxs, qxs = p._support_rows(), q._support_rows()
    rows, xs_by_y = dict(p._rows), dict(pxs)
    clash = False
    for y, row in q._rows.items():
        theirs = qxs.get(y)
        have = rows.get(y)
        if have is not None:
            mine = pxs.get(y)
            if theirs is not None:
                clash = clash or _meets(theirs, have)
                if mine is not None:
                    theirs = sorted(mine + theirs)
            if mine is not None:
                clash = clash or _meets(mine, row)
            row = _union(have, row)
        rows[y] = row
        if theirs is not None:
            xs_by_y[y] = theirs
    if clash:
        both = [c for c in p._nz.keys() | q._nz.keys() if c in p and c in q]
        raise GlueConflict(min(both, key=lambda c: (-c[1], c[0])
                               if len(c) == 2 else c))
    glued = Pattern._derived(p.alphabet, p._nz | q._nz, rows, p._dim)
    glued._at, glued._xs = p._at, xs_by_y
    return glued


# -- width and sparsity ------------------------------------------------------


def interval_cover_count(xs: Iterable[int], r: int) -> int:
    """Greedy minimum number of radius-r intervals covering the points.

    Greedy left-to-right is optimal for 1D interval covering.
    """
    if r < 0:
        raise ValueError("radius must be nonnegative")
    count = 0
    end = None
    for x in sorted(xs):
        if end is None or x > end:
            count += 1
            end = x + 2 * r
    return count


def essential_width_lower_bound(rows: list[Pattern], r: int) -> int:
    """Minimal m with every row's support coverable by m radius-r intervals.

    A lower bound for the essential width of anything extending the rows;
    finite windows cannot certify more than a bound.
    """
    if r < 0:
        raise ValueError("radius must be nonnegative")
    best = 0
    for row in rows:
        if row.dimension != 1:
            raise ValueError("essential width is computed over 1D rows")
        best = max(best, interval_cover_count((c[0] for c in row.support()), r))
    return best


def sparsity(rows: list[Pattern]) -> int:
    """Maximum nonzero count over the rows."""
    return max((len(row.support()) for row in rows), default=0)


def rows_of(pattern: Pattern) -> list[Pattern]:
    """Split a pattern into its 1D rows, ordered by ascending height."""
    if pattern.dimension == 1:
        return [pattern]
    pattern = pattern._plain()
    nz, xs_by_y = pattern._nz, pattern._support_rows()
    return [Pattern._derived(pattern.alphabet,
                             {(x,): nz[(x, y)] for x in xs_by_y.get(y, ())},
                             {0: row}, 1)
            for y, row in sorted(pattern._rows.items())]


def pad(pattern: Pattern, r: int) -> Pattern:
    """Extend the domain by the radius-r ball around it, filled with zeros.

    The ball is charged to the cell cap first, then the padded domain,
    both as the dilation by r; only intervals are built.
    """
    if r < 0:
        raise ValueError("radius must be nonnegative")
    dim = pattern.dimension
    if not pattern._rows:
        return pattern
    pattern = pattern._plain()
    check_cells(2 * _half_ball(r, dim) + 1, f"dilation by {r}")
    rows = _dilate(pattern._rows, r, dim)
    check_cells(_size(rows), f"dilation by {r}")
    padded = Pattern._derived(pattern.alphabet, pattern._nz, rows, dim)
    padded._support, padded._xs = pattern._support, pattern._xs
    return padded


# -- text codec --------------------------------------------------------------
#
# A grid is text rows, top row first, a 1D pattern being one row; "." is
# an alias for zero and "?" marks a cell outside the domain. Pattern
# files put a header before the rows:
# line 1: "dims W" (1D) or "dims W H" (2D)
# line 2: "alphabet <zero><others...>" as single characters
# optional line 3: "origin X" or "origin X Y" when the domain's bounding
# corner is not the origin (keeps round trips bit-exact for translates)
# Substitution and rule files share the header fields and "->" lines.


def write_rows(pattern: Pattern, chars: Mapping | None = None) -> list[str]:
    """The pattern's bounding-box rows, top row first.

    chars maps each symbol, and None for a cell outside the domain, to
    one character; by default zero is "." and a hole "?", the inverse of
    :meth:`Pattern.from_rows`. The box's area is charged to the cell cap first:
    two cells far apart span a box far larger than the pattern. Each row
    is laid out from its intervals, then its support cells.
    """
    alpha, pattern = pattern.alphabet, pattern._plain()
    if chars is None:
        chars = {s: s for s in alpha.symbols} | {alpha.zero: ".", None: "?"}
    box = pattern.bounding_box()
    if box is None:
        return []
    lo, hi = box
    check_cells(prod(h - l + 1 for l, h in zip(lo, hi)), "bounding box")
    x0, width = lo[0], hi[0] - lo[0] + 1
    hole, blank = chars[None], chars[alpha.zero]
    nz, domain, xs_by_y = pattern._nz, pattern._rows, pattern._support_rows()
    two_d = pattern.dimension == 2
    out = []
    for y in (range(hi[1], lo[1] - 1, -1) if two_d else (0,)):
        line = [hole] * width
        for a, end in _spans(domain.get(y, ())):
            line[a - x0:end - x0] = [blank] * (end - a)
        for x in xs_by_y.get(y, ()):
            line[x - x0] = chars[nz[(x, y) if two_d else (x,)]]
        out.append("".join(line))
    return out


def alphabet_field(chars: str) -> Alphabet:
    """The alphabet a header lists as one word, zero symbol first."""
    if not chars or len(set(chars)) != len(chars):
        raise UnsupportedFormat(
            f"alphabet {chars!r} must list distinct symbols, zero first")
    return Alphabet(tuple(chars), chars[0])


def header_ints(line: str, start: int = 1,
                stop: int | None = None) -> list[int]:
    """The integer fields line.split()[start:stop] of a header line."""
    try:
        return [int(v) for v in line.split()[start:stop]]
    except ValueError:
        raise UnsupportedFormat(
            f"header line {line!r} needs integer fields") from None


def arrow(line: str) -> tuple[str, str]:
    """The stripped sides of a "left -> right" line."""
    left, sep, right = line.partition("->")
    if not sep:
        raise UnsupportedFormat(f"expected 'left -> right', got {line!r}")
    return left.strip(), right.strip()


def text_parser(parse):
    """Make a constructor's ValueError inside parse an UnsupportedFormat."""
    @wraps(parse)
    def checked(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise UnsupportedFormat(str(exc)) from exc
    return checked


def format_pattern(pattern: Pattern) -> str:
    for symbol in pattern.alphabet.symbols:
        if symbol in ".?":
            raise UnsupportedFormat(
                f"text format reserves '.' and '?', got the symbol {symbol!r}")
    alpha = pattern.alphabet
    others = [s for s in alpha.symbols if s != alpha.zero]
    dim = pattern.dimension
    lo, hi = pattern.bounding_box() or ((0,) * dim, (-1,) * dim)
    lines = ["dims " + " ".join(str(h - l + 1) for l, h in zip(lo, hi)),
             "alphabet " + alpha.zero + "".join(others)]
    if any(lo):
        lines.append("origin " + " ".join(map(str, lo)))
    lines += write_rows(pattern)
    return "\n".join(lines) + "\n"


@text_parser
def parse_pattern(text: str) -> Pattern:
    lines = text.splitlines()
    if len(lines) < 2 or not lines[0].startswith("dims "):
        raise UnsupportedFormat("pattern text must start with a dims line")
    dims = header_ints(lines[0])
    if not lines[1].startswith("alphabet "):
        raise UnsupportedFormat("second line must declare the alphabet")
    alphabet = alphabet_field(lines[1][len("alphabet "):].strip())
    if len(dims) not in (1, 2):
        raise UnsupportedFormat("dims line must declare one or two extents")
    body = lines[2:]
    origin = [0] * len(dims)
    if body and body[0].startswith("origin "):
        origin = header_ints(body[0])
        if len(origin) != len(dims):
            raise UnsupportedFormat("origin needs one integer per dimension")
        body = body[1:]
    if not any(dims):
        return Pattern(alphabet, {})
    rows = [ln for ln in body if ln != ""]
    width, height = (dims + [1])[:2]
    if len(rows) != height or any(len(row) != width for row in rows):
        raise UnsupportedFormat("rows do not match the declared dims")
    return Pattern.from_rows(rows, alphabet, tuple(origin))
