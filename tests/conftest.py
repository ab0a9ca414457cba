"""Shared generators and independent oracles for the test suite."""
import random
from bisect import bisect_left
from collections import deque
from itertools import accumulate

import pytest

from blobshift.errors import GlueConflict
from blobshift.patterns import BINARY, Pattern, pad


def random_pattern_1d(rng: random.Random, length: int = 40,
                      density: float = 0.4) -> Pattern:
    word = "".join("1" if rng.random() < density else "0"
                   for _ in range(length))
    return Pattern.from_word(word)


def random_pattern_2d(rng: random.Random, side: int = 12,
                      density: float = 0.35) -> Pattern:
    values = {(x, y): ("1" if rng.random() < density else "0")
              for x in range(side) for y in range(side)}
    return Pattern(BINARY, values)


def random_padded_pattern(rng: random.Random, r: int = 3) -> Pattern:
    if rng.random() < 0.5:
        core = random_pattern_1d(rng)
    else:
        core = random_pattern_2d(rng)
    return pad(core, r)


def neighbours(dim: int, r: int):
    """Function mapping a cell to the cells at L1 distance 1..r, sorted.

    The oracles' own L1 ball, written per dimension; the library reads
    the ball by rows instead.
    """
    if dim == 1:
        steps = [d for d in range(-r, r + 1) if d]
        return lambda cell: [(cell[0] + d,) for d in steps]
    offsets = [(dx, dy) for dx in range(-r, r + 1)
               for dy in range(abs(dx) - r, r - abs(dx) + 1) if dx or dy]
    return lambda cell: [(cell[0] + dx, cell[1] + dy) for dx, dy in offsets]


def ball_bfs(nodes, start, r):
    """Distances and parents from start over r-adjacent cells of nodes.

    The search before adjacency graphs: each cell taken off the queue
    tests its whole sorted r-ball against the node set.
    """
    around = neighbours(len(start), r)
    dist = {start: 0}
    parent = {}
    queue = deque([start])
    while queue:
        cell = queue.popleft()
        d = dist[cell] + 1
        for nb in around(cell):
            if nb in nodes and nb not in dist:
                dist[nb] = d
                parent[nb] = cell
                queue.append(nb)
    return dist, parent


def ball_components(cells, r):
    """r-components by least member, one :func:`ball_bfs` per component."""
    cellset = set(cells)
    seen = set()
    components = []
    for start in sorted(cellset):
        if start not in seen:
            comp = frozenset(ball_bfs(cellset, start, r)[0])
            seen |= comp
            components.append(comp)
    return components


def oracle_adjacency(cells, r):
    """Each cell's r-adjacent cells, in sorted order, keyed by cell tuples.

    The graph before packed cells: every pair probed once, from its
    lesser cell, over the greater cells of its sorted ball of radius r
    clipped to the cells' span.
    """
    order = sorted(set(cells))
    if not order:
        return {}
    s = min(r, sum(max(axis) - min(axis) for axis in zip(*order)))
    around = neighbours(len(order[0]), s)
    graph = {c: [] for c in order}
    for c in order:
        for nb in around(c):
            if nb > c and nb in graph:
                graph[c].append(nb)
                graph[nb].append(c)
    return graph


def oracle_bfs(graph, start):
    """Distances and parents from start, reading each list in order."""
    dist = {start: 0}
    parent = {}
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


def oracle_sweeps(graph):
    """One :func:`oracle_bfs` distance map per component, from its least cell."""
    seen = set()
    for start in graph:
        if start not in seen:
            dist = oracle_bfs(graph, start)[0]
            seen.update(dist)
            yield dist


def three_bfs_geodesic(pattern, r):
    """The witness before adjacency graphs: components, then two sweeps.

    Every search tests each popped cell's whole r-ball (:func:`ball_bfs`).
    """
    comps = ball_components(pattern.support(), r)
    comp = max(comps, key=lambda c: (len(c), sorted(c)[0]))
    dist, _ = ball_bfs(comp, min(comp), r)
    a = max(dist, key=lambda c: (dist[c], c))
    dist, parent = ball_bfs(comp, a, r)
    cells = [max(dist, key=lambda c: (dist[c], c))]
    while cells[-1] != a:
        cells.append(parent[cells[-1]])
    return cells[::-1]


def scan_late_language(window, length, threshold):
    """Every length-`length` factor at positions >= threshold, one slice each.

    The late language before the admissible-word search.
    """
    word = window.char_word
    return {word[i:i + length]
            for i in range(threshold, len(word) - length + 1)}


def bisect_recurrence_witness(moves, r, visits):
    """Shortest window whose walk visits [h0, h0 + r - 1] `visits` times.

    The witness search before height counts: every start position
    bisects the position list of its own strip (r <= 1 reads as the one
    height h0). Returns (start, stop, count), leftmost among the shortest.
    """
    heights = [0] + list(accumulate(moves))
    by_height = {}
    for pos, h in enumerate(heights):
        by_height.setdefault(h, []).append(pos)
    strip_cache = {}
    best = None
    for start in range(len(heights)):
        h0 = heights[start]
        positions = strip_cache.get(h0)
        if positions is None:
            if r <= 1:
                positions = by_height.get(h0, [])
            else:
                positions = sorted(
                    p for h in range(h0, h0 + r)
                    for p in by_height.get(h, ()))
            strip_cache[h0] = positions
        ix = bisect_left(positions, start)
        if ix + visits - 1 >= len(positions):
            continue
        stop = positions[ix + visits - 1]
        if best is None or stop - start < best[1] - best[0]:
            best = (start, stop, visits)
    return best


def windowed_ascension_up_to(moves, m_max):
    """Least m <= m_max with every length-m window summing positive.

    The per-m generator over prefix differences, before the C-level scan.
    """
    n = len(moves)
    prefix = [0] + list(accumulate(moves))
    for m in range(1, min(m_max, n) + 1):
        if all(prefix[j + m] - prefix[j] > 0 for j in range(n - m + 1)):
            return m
    return None


# -- patterns as one dict entry per domain cell ---------------------------
#
# The representation before supports and row intervals, with the
# operations that ran on it. Every view and operation of Pattern is
# checked against these.


class DictPattern:
    """Cell -> symbol over the whole domain, zeros included."""

    def __init__(self, alphabet, values):
        self.alphabet = alphabet
        self.values = dict(values)
        self.dimension = len(next(iter(self.values))) if self.values else 1

    @classmethod
    def of(cls, pattern):
        """The oracle of a Pattern, its cells in the Pattern's order."""
        return cls(pattern.alphabet, dict(pattern.items()))

    def support(self):
        zero = self.alphabet.zero
        return frozenset(c for c, s in self.values.items() if s != zero)

    def bounding_box(self):
        if not self.values:
            return None
        cols = list(zip(*self.values))
        return tuple(min(c) for c in cols), tuple(max(c) for c in cols)

    def translate(self, v):
        return DictPattern(self.alphabet, {
            tuple(a + b for a, b in zip(c, v)): s
            for c, s in self.values.items()})

    def __eq__(self, other):
        return (self.alphabet, self.values) == (other.alphabet, other.values)

    def __hash__(self):
        return hash((self.alphabet, frozenset(self.values.items())))


def dilate(cells, r):
    """Every cell within L1 distance r of some given cell.

    r breadth-first layers of unit steps, each grown as one set.
    """
    out = set(cells)
    if not out:
        return out
    dim = len(next(iter(out)))
    frontier = out
    for _ in range(r):
        if dim == 1:
            grown = {(x + d,) for (x,) in frontier for d in (-1, 1)}
        else:
            grown = {(x + dx, y + dy) for x, y in frontier
                     for dx, dy in ((-1, 0), (1, 0), (0, -1), (0, 1))}
        frontier = grown - out
        out |= frontier
    return out


def oracle_pad(pattern, r):
    """The dilated domain filled with zeros, then the pattern's values."""
    values = dict.fromkeys(dilate(pattern.values, r), pattern.alphabet.zero)
    values.update(pattern.values)
    return DictPattern(pattern.alphabet, values)


def oracle_blob_scan(pattern, r):
    """(anchor, blob values at the origin, truncated) per component."""
    out = []
    for comp in ball_components(pattern.support(), r):
        anchor = min(comp)
        ball = dilate(comp, r)
        inside = {tuple(a - b for a, b in zip(c, anchor)): pattern.values[c]
                  for c in ball if c in pattern.values}
        out.append((anchor, DictPattern(pattern.alphabet, inside),
                    len(inside) < len(ball)))
    return out


def oracle_zero_glue(p, q):
    """Union of two dict patterns; the first clash in the smaller's order."""
    small, large = (p, q) if len(p.values) <= len(q.values) else (q, p)
    zero = p.alphabet.zero
    values = dict(large.values)
    for cell, symbol in small.values.items():
        prior = values.get(cell)
        if prior is None:
            values[cell] = symbol
        elif prior != zero or symbol != zero:
            raise GlueConflict(cell)
    return DictPattern(p.alphabet, values)


def oracle_rows_of(pattern):
    """1D rows by ascending height."""
    if pattern.dimension == 1:
        return [pattern]
    by_y = {}
    for (x, y), symbol in pattern.values.items():
        by_y.setdefault(y, {})[(x,)] = symbol
    return [DictPattern(pattern.alphabet, by_y[y]) for y in sorted(by_y)]


def oracle_write_rows(pattern):
    """Bounding-box text rows, top first, one lookup per cell."""
    if not pattern.values:
        return []
    lo, hi = pattern.bounding_box()
    chars = {s: s for s in pattern.alphabet.symbols} | {
        pattern.alphabet.zero: ".", None: "?"}
    heights = ([()] if len(lo) == 1
               else [(y,) for y in range(hi[1], lo[1] - 1, -1)])
    return ["".join(chars[pattern.values.get((x,) + tail)]
                    for x in range(lo[0], hi[0] + 1)) for tail in heights]


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xB10B)
