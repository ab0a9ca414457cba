"""Shared generators and independent oracles for the test suite."""
import random
from bisect import bisect_left
from collections import deque
from itertools import accumulate

import pytest

from blobshift.patterns import BINARY, Pattern, neighbours, pad


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


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xB10B)
