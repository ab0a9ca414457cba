"""Finite patterns over pointed alphabets and their support geometry.

A pattern is a finite partial map from grid cells to an alphabet with a
distinguished zero symbol. Cells are integer tuples of dimension 1 or 2;
the metric is L1 throughout. The support is the set of cells carrying a
nonzero symbol. Blobs are padded connected pieces of the support, stored
translated to a canonical origin so equality and hashing are
translation-invariant.

Neighbourhood geometry has two kernels: :func:`dilate` grows a cell set
by L1 radius r in r breadth-first layers of unit steps, each layer one
set comprehension (padding, blob scans), and :func:`adjacency` builds a
cell set's r-adjacency graph once, probing each cell pair from its lesser
cell over half of :func:`neighbours`' ball, with every list sorted.
:func:`bfs` walks such a graph from one cell; :func:`component_sweeps`
walks it from each component's least cell, which gives
:func:`connected_components` and the geodesic and ascending-path searches
of :mod:`blobshift.pathcover`. :func:`translate_values` moves a cell map
by a vector, one comprehension per dimension.

The public :class:`Pattern` constructor checks every cell and symbol.
Values derived only from checked patterns of one alphabet and its zero
(translates, paddings, zero-glues, rows, blobs) are built without that
check, since it could not fail.

All values are immutable after construction and every operation is a pure
function, so everything here is safe to call from concurrent workers.
Coordinates are Python integers, hence arbitrary precision; padded domains
cannot wrap around.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import wraps
from itertools import product
from math import prod
from typing import Iterable, Iterator, Mapping, TypeVar

from .errors import GlueConflict, PaddingUnavailable, UnsupportedFormat
from .limits import cell_cap, check_cells, too_big

Cell = tuple[int, ...]
T = TypeVar("T")


@dataclass(frozen=True)
class Alphabet:
    """Ordered symbol list with a distinguished zero symbol."""

    symbols: tuple[str, ...]
    zero: str

    def __post_init__(self):
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("alphabet symbols must be pairwise distinct")
        if self.zero not in self.symbols:
            raise ValueError("zero symbol must be a member of the alphabet")


BINARY = Alphabet(("0", "1"), "0")


def neighbours(dim: int, r: int):
    """Function mapping a cell to the cells at L1 distance 1..r, sorted.

    The only enumeration of L1 offsets, written per dimension. `adjacency`
    calls it once, at the origin, whose image is the offsets.
    """
    if dim == 1:
        steps = [d for d in range(-r, r + 1) if d]
        return lambda cell: [(cell[0] + d,) for d in steps]
    offsets = [(dx, dy) for dx in range(-r, r + 1)
               for dy in range(abs(dx) - r, r - abs(dx) + 1) if dx or dy]
    return lambda cell: [(cell[0] + dx, cell[1] + dy) for dx, dy in offsets]


def translate_values(values: Mapping[Cell, T], v: Cell,
                     cells: Iterable[Cell] | None = None) -> dict[Cell, T]:
    """values moved by v; given cells, only those of them values holds.

    Written per dimension, like :func:`neighbours`; v must have the cells'
    dimension. The result follows the order of cells, or of values when
    no cells are given.
    """
    if len(v) == 1:
        (a,) = v
        if cells is None:
            return {(x + a,): s for (x,), s in values.items()}
        return {(c[0] + a,): values[c] for c in cells if c in values}
    a, b = v
    if cells is None:
        return {(x + a, y + b): s for (x, y), s in values.items()}
    return {(c[0] + a, c[1] + b): values[c] for c in cells if c in values}


def dilate(cells: Iterable[Cell], r: int) -> set[Cell]:
    """Every cell within L1 distance r of some given cell.

    L1 distance is unit-step distance, so this runs r breadth-first
    layers of unit steps, each grown as one set. A nonempty result holds
    a whole radius-r ball, so a ball past the cell cap raises
    :class:`SizeLimit` at once; so does a layer whose size bound would
    take the set past the cap, before it is built. The cap is read once
    per call and compared inline: a guard call per layer costs more than
    a small layer.
    """
    if r < 0:
        raise ValueError("radius must be nonnegative")
    out = set(cells)
    if not out:
        return out
    dim = len(next(iter(out)))
    cap = cell_cap()
    ball = 2 * r + 1 if dim == 1 else 2 * r * (r + 1) + 1
    if ball > cap:
        raise too_big(ball, f"dilation by {r}", cap)
    frontier = out
    for _ in range(r):
        bound = len(out) + 2 * dim * len(frontier)
        if bound > cap:
            raise too_big(bound, f"dilation by {r}", cap)
        if dim == 1:
            grown = {(x + d,) for (x,) in frontier for d in (-1, 1)}
        else:
            grown = {(x + dx, y + dy) for x, y in frontier
                     for dx, dy in ((-1, 0), (1, 0), (0, -1), (0, 1))}
        frontier = grown - out
        out |= frontier
    return out


def adjacency(cells: Iterable[Cell], r: int) -> dict[Cell, list[Cell]]:
    """Each cell's r-adjacent cells within cells, in sorted order.

    Each unordered pair is probed once, from its lesser cell, over the
    lexicographically positive half of the L1 ball. Cells are visited in
    sorted order, so every list gets its lesser neighbours first, in
    order, then its greater ones. The graph's keys are sorted too. Written
    per dimension, like :func:`neighbours`. The lists can hold up to
    2 * len(cells) * len(half ball) entries; a bound past the cell cap
    raises :class:`SizeLimit` before the graph is built.
    """
    if r < 0:
        raise ValueError("radius must be nonnegative")
    order = sorted(set(cells))
    if not order:
        return {}
    dim = len(order[0])
    origin = (0,) * dim
    half = [o for o in neighbours(dim, r)(origin) if o > origin]
    check_cells(2 * len(order) * len(half),
                f"{r}-adjacency of {len(order)} cells")
    graph: dict[Cell, list[Cell]] = {c: [] for c in order}
    if dim == 1:
        steps = [d for (d,) in half]
        for c in order:
            x = c[0]
            out = graph[c]
            for d in steps:
                nb = (x + d,)
                if nb in graph:
                    out.append(nb)
                    graph[nb].append(c)
    else:
        for c in order:
            x, y = c
            out = graph[c]
            for dx, dy in half:
                nb = (x + dx, y + dy)
                if nb in graph:
                    out.append(nb)
                    graph[nb].append(c)
    return graph


def bfs(graph: Mapping[Cell, list[Cell]], start: Cell) -> tuple[dict, dict]:
    """Distances and parents from start over an adjacency graph.

    Lists are read in order, so a cell's parent is the first cell taken
    off the queue that lists it: parent ties follow the list order.
    """
    dist = {start: 0}
    parent: dict[Cell, Cell] = {}
    queue = deque([start])
    while queue:
        cell = queue.popleft()
        d = dist[cell] + 1
        for nb in graph[cell]:
            if nb not in dist:
                dist[nb] = d
                parent[nb] = cell
                queue.append(nb)
    return dist, parent


def component_sweeps(graph: Mapping[Cell, list[Cell]]) -> Iterator[dict]:
    """One :func:`bfs` distance map per component, from its least cell.

    Components come in order of their least cell, since the graph lists
    its cells in sorted order, as :func:`adjacency` does; each map's
    first key is that cell.
    """
    seen: set[Cell] = set()
    for start in graph:
        if start not in seen:
            dist = bfs(graph, start)[0]
            seen.update(dist)
            yield dist


class Pattern:
    """Finite map cell -> symbol, defined exactly on its domain."""

    __slots__ = ("alphabet", "_values", "_dim", "_support", "_hash")

    def __init__(self, alphabet: Alphabet, values: Mapping[Cell, str]):
        values = dict(values)
        dim = None
        for cell, symbol in values.items():
            if dim is None:
                dim = len(cell)
                if dim not in (1, 2):
                    raise ValueError("patterns are 1- or 2-dimensional")
            elif len(cell) != dim:
                raise ValueError("mixed cell dimensions in one pattern")
            if symbol not in alphabet.symbols:
                raise ValueError(f"symbol {symbol!r} not in alphabet")
        self.alphabet = alphabet
        self._values = values
        self._dim = 1 if dim is None else dim
        self._support = None
        self._hash = None

    @classmethod
    def _derived(cls, alphabet: Alphabet, values: dict[Cell, str]) -> "Pattern":
        """A pattern that owns values, built without any check.

        Only for values whose cells all come from checked patterns of one
        dimension and whose symbols come from checked patterns over
        alphabet or are its zero.
        """
        self = cls.__new__(cls)
        self.alphabet = alphabet
        self._values = values
        self._dim = len(next(iter(values))) if values else 1
        self._support = None
        self._hash = None
        return self

    # -- construction helpers -------------------------------------------

    @classmethod
    def from_word(cls, word: str, alphabet: Alphabet = BINARY,
                  start: int = 0) -> "Pattern":
        """1D pattern on the interval [start, start + len(word))."""
        return cls(alphabet, {(start + i,): c for i, c in enumerate(word)})

    @classmethod
    def from_rows(cls, rows: list[str], alphabet: Alphabet = BINARY) -> "Pattern":
        """2D pattern from text rows given top to bottom.

        The bottom-left grid corner lands at the origin; ``.`` is read as
        the zero symbol and ``?`` leaves a cell outside the domain.
        """
        return cls(alphabet, read_rows(rows, alphabet))

    # -- basic views ------------------------------------------------------

    @property
    def dimension(self) -> int:
        return self._dim

    @property
    def domain(self) -> frozenset:
        return frozenset(self._values)

    def cells(self) -> Iterator[Cell]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, cell: Cell) -> bool:
        return cell in self._values

    def value(self, cell: Cell) -> str:
        return self._values[cell]

    def get(self, cell: Cell, default: str | None = None) -> str | None:
        return self._values.get(cell, default)

    def items(self):
        return self._values.items()

    def support(self) -> frozenset:
        if self._support is None:
            zero = self.alphabet.zero
            self._support = frozenset(
                c for c, s in self._values.items() if s != zero)
        return self._support

    def bounding_box(self) -> tuple[Cell, Cell] | None:
        """(min corner, max corner) of the domain, or None when empty."""
        if not self._values:
            return None
        cols = list(zip(*self._values))
        return (tuple(min(c) for c in cols), tuple(max(c) for c in cols))

    # -- pure transformations ---------------------------------------------

    def translate(self, v: Cell) -> "Pattern":
        if not self._values:
            return self
        if len(v) != self._dim:
            raise ValueError(
                f"cannot translate a {self._dim}D pattern by {v!r}")
        return Pattern._derived(self.alphabet,
                                translate_values(self._values, v))

    def to_word(self) -> str:
        """The 1D pattern's symbols in cell order; domain must be an interval."""
        if self._dim != 1:
            raise ValueError("to_word needs a 1D pattern")
        if not self._values:
            return ""
        xs = sorted(c[0] for c in self._values)
        if xs[-1] - xs[0] + 1 != len(xs):
            raise ValueError("domain is not a contiguous interval")
        return "".join(self._values[(x,)] for x in range(xs[0], xs[-1] + 1))

    # -- equality ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Pattern):
            return NotImplemented
        return self.alphabet == other.alphabet and self._values == other._values

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.alphabet, frozenset(self._values.items())))
        return self._hash

    def __repr__(self) -> str:
        return f"Pattern(dim={self._dim}, cells={len(self._values)}, support={len(self.support())})"


class Blob:
    """An r-padded pattern around one r-connected support component.

    Stored in canonical translation (lexicographically least support cell
    at the origin). Two blobs are equal exactly when their supports and the
    values on them agree; the padding is determined by the support and the
    radius, so it does not enter the comparison.
    """

    __slots__ = ("pattern", "radius", "_key")

    def __init__(self, pattern: Pattern, radius: int):
        self.pattern = pattern
        self.radius = radius
        self._key = None

    def support(self) -> frozenset:
        return self.pattern.support()

    def _support_key(self):
        if self._key is None:
            self._key = frozenset(
                (c, self.pattern.value(c)) for c in self.pattern.support())
        return self._key

    def __eq__(self, other) -> bool:
        if not isinstance(other, Blob):
            return NotImplemented
        return self._support_key() == other._support_key()

    def __hash__(self) -> int:
        return hash(self._support_key())

    def __repr__(self) -> str:
        return f"Blob(radius={self.radius}, support={len(self.support())})"


# -- connectivity ----------------------------------------------------------


def connected_components(cells: Iterable[Cell], r: int) -> list[frozenset]:
    """Partition cells into maximal r-connected subsets.

    Two cells are adjacent when their L1 distance is at most r. Components
    come back ordered by their lexicographically least member.
    """
    return [frozenset(dist) for dist in component_sweeps(adjacency(cells, r))]


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

    The blob is the component's r-dilation cut to the domain, built in
    one pass with its least cell, the anchor, at the origin.
    """
    values = pattern._values
    for comp in connected_components(pattern.support(), r):
        anchor = min(comp)
        ball = dilate(comp, r)
        inside = translate_values(values, tuple(-a for a in anchor), ball)
        blob = Blob(Pattern._derived(pattern.alphabet, inside), r)
        yield anchor, blob, len(inside) < len(ball)


def zero_glue(p: Pattern, q: Pattern) -> Pattern:
    """Union of two patterns whose overlap is all-zero on both sides."""
    if p.alphabet != q.alphabet:
        raise ValueError("zero_glue needs a common alphabet")
    if p.dimension != q.dimension and len(p) and len(q):
        raise ValueError("zero_glue needs a common dimension")
    small, large = (p, q) if len(p) <= len(q) else (q, p)
    zero = p.alphabet.zero
    values = dict(large.items())
    for cell, symbol in small.items():
        prior = values.get(cell)
        if prior is None:
            values[cell] = symbol
        elif prior != zero or symbol != zero:
            raise GlueConflict(cell)
    return Pattern._derived(p.alphabet, values)


def occurrences(pattern: Pattern, probe: Pattern,
                window: Iterable[Cell] | None = None) -> list[Cell]:
    """All translations v placing probe inside pattern with equal values.

    An empty probe matches vacuously everywhere, so a search window is
    required in that case and is returned sorted. A probe of another
    dimension than a nonempty pattern raises ValueError.
    """
    if len(probe) == 0:
        if window is None:
            raise ValueError("empty probe needs an explicit search window")
        return sorted(window)
    if len(pattern) and probe.dimension != pattern.dimension:
        raise ValueError(f"a {probe.dimension}D probe cannot occur in a "
                         f"{pattern.dimension}D pattern")
    anchor = min(probe.cells())
    have = pattern.items()
    hits = []
    for base in pattern.cells():
        v = tuple(b - a for b, a in zip(base, anchor))
        if translate_values(probe._values, v).items() <= have:
            hits.append(v)
    return sorted(hits)


# -- width, sparsity, density ------------------------------------------------


def interval_cover_count(xs: Iterable[int], r: int) -> int:
    """Greedy minimum number of radius-r intervals covering the points.

    Greedy left-to-right is optimal for 1D interval covering.
    """
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
    by_y: dict[int, dict[Cell, str]] = {}
    for (x, y), symbol in pattern.items():
        by_y.setdefault(y, {})[(x,)] = symbol
    return [Pattern._derived(pattern.alphabet, by_y[y]) for y in sorted(by_y)]


def density_window(pattern: Pattern, window: int) -> Fraction:
    """Max nonzero density over all length-`window` subwords, exactly."""
    word = pattern.to_word()
    if not 1 <= window <= len(word):
        raise ValueError("window must satisfy 1 <= window <= pattern length")
    zero = pattern.alphabet.zero
    flags = [0 if c == zero else 1 for c in word]
    count = sum(flags[:window])
    best = count
    for i in range(window, len(flags)):
        count += flags[i] - flags[i - window]
        if count > best:
            best = count
    return Fraction(best, window)


def sparse_not_uniform_family(n: int) -> Pattern:
    """Binary word on [-n, n*n + n] supported on the multiples of n in [0, n*n].

    The family is sparse at every member but the nonzero counts grow with
    n, so no uniform sparsity constant works across the family.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    support = {i for i in range(0, n * n + 1, n)}
    values = {(x,): ("1" if x in support else "0")
              for x in range(-n, n * n + n + 1)}
    return Pattern(BINARY, values)


def pad(pattern: Pattern, r: int) -> Pattern:
    """Extend the domain by the radius-r ball around it, filled with zeros."""
    values = dict.fromkeys(dilate(pattern.cells(), r), pattern.alphabet.zero)
    values.update(pattern.items())
    return Pattern._derived(pattern.alphabet, values)


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
    :func:`read_rows`. The box's area is charged to the cell cap first:
    two cells far apart span a box far larger than the pattern.
    """
    alpha = pattern.alphabet
    if chars is None:
        chars = {s: s for s in alpha.symbols} | {alpha.zero: ".", None: "?"}
    box = pattern.bounding_box()
    if box is None:
        return []
    lo, hi = box
    check_cells(prod(h - l + 1 for l, h in zip(lo, hi)), "bounding box")
    get = pattern.get
    xs = range(lo[0], hi[0] + 1)
    # one empty tail in 1D, the heights from the top down in 2D
    tails = product(*(range(h, l - 1, -1) for l, h in zip(lo[1:], hi[1:])))
    return ["".join([chars[get((x,) + tail)] for x in xs]) for tail in tails]


def read_rows(rows: list[str], alphabet: Alphabet,
              origin: Cell = (0, 0)) -> dict[Cell, str]:
    """Cell -> symbol of text rows, top row first, unchecked.

    The grid's bottom-left corner lands at the origin, whose length is
    the dimension; a 1D grid is a single row.
    """
    zero = alphabet.zero
    x0, rest = origin[0], origin[1:]
    top = len(rows) - 1
    values = {}
    for rix, row in enumerate(rows):
        tail = tuple(o + top - rix for o in rest)
        for x, ch in enumerate(row):
            if ch != "?":
                values[(x0 + x,) + tail] = zero if ch == "." else ch
    return values


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
        if len(symbol) != 1 or symbol in ".?":
            raise UnsupportedFormat(
                f"text format needs single-character symbols, got {symbol!r}")
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
    return Pattern(alphabet, read_rows(rows, alphabet, tuple(origin)))
