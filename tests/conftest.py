"""Shared generators and independent oracles for the test suite."""
import random
from collections import deque

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


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xB10B)
