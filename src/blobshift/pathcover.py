"""Paths drawn on pattern supports.

Geodesic witnesses certify component sizes, the ascending-path search
hunts simple paths whose height gains are window-uniform, and guided
traces build staircase-like supports from step directions. Sturmian
offset sequences come from the mechanical-word formula with exact
rationals, so there is no floating-point drift.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .errors import EmptySupport
from .limits import check_cells
from .patterns import (
    BINARY,
    Cell,
    Pattern,
    adjacency,
    bfs,
    component_sweeps,
)

if TYPE_CHECKING:
    from fractions import Fraction


@dataclass(frozen=True)
class CellPath:
    """Cell sequence with consecutive L1 steps bounded by `step`."""

    cells: tuple[Cell, ...]
    step: int

    def __post_init__(self):
        for a, b in zip(self.cells, self.cells[1:]):
            if _l1(a, b) > self.step:
                raise ValueError("consecutive path cells exceed the step bound")

    def __len__(self) -> int:
        return len(self.cells)

    def heights(self) -> list[int]:
        return [c[-1] for c in self.cells]


def _l1(a: Cell, b: Cell) -> int:
    return sum(abs(x - y) for x, y in zip(a, b))


def _farthest(dist: dict) -> Cell:
    return max(dist, key=lambda c: (dist[c], c))


def geodesic_witness(pattern: Pattern, r: int) -> CellPath:
    """Shortest path between a far pair of the largest r-component.

    Double-sweep BFS over one r-adjacency graph of the support: from the
    component's least cell to a farthest cell a, then from a to a farthest
    cell b. Exact on trees: when the component's graph is acyclic, as the
    shipped generators' supports are at r=1, a and b realise its
    diameter. Otherwise the path is a certified lower bound on the
    diameter: it is always a shortest path between its endpoints, and its
    length certifies component size at least that length. Of equal-sized
    components, the one with the greater least cell is taken.
    """
    graph = adjacency(pattern.support(), r)
    if not graph:
        raise EmptySupport("geodesic witness needs a nonzero cell")
    # each component's sweep starts at its least cell, the map's first key,
    # so the largest one's is also the double sweep's first
    dist = max(component_sweeps(graph), key=lambda d: (len(d), next(iter(d))))
    a = _farthest(dist)
    dist, parent = bfs(graph, a)
    b = _farthest(dist)
    cells = [b]
    while cells[-1] != a:
        cells.append(parent[cells[-1]])
    cells.reverse()
    return CellPath(tuple(cells), r)


def find_ascending_path(pattern: Pattern, r: int, m: int,
                        budget: int = 200_000) -> CellPath | None:
    """Longest simple r-path whose every m-step window gains height.

    Depth-first search over the support with lexicographic tie-breaks;
    the height condition is enforced as heights[t] > heights[t-m] at each
    extension, which covers every window. Only paths of at least 2m
    cells count. The search visits at most `budget` nodes.

    The result is certified (the search is complete) when the path
    spans the largest r-component of the support, since no simple r-path
    can be longer, or when every node was visited within the budget: the
    path is then a longest one, and `None` means no qualifying path
    exists. Otherwise the budget ran out first: the path is the longest
    found within budget, and `None` means none was found, nothing
    stronger. :func:`_ascend` also reports the nodes spent and whether
    the search completed.
    """
    return _ascend(pattern, r, m, budget)[0]


def _ascend(pattern: Pattern, r: int, m: int,
            budget: int) -> tuple[CellPath | None, int, bool]:
    """The ascending-path search: (path or None, nodes spent, complete).

    Backtracking over one r-adjacency graph of the support: one path
    list and one used set, a stack of pending extension iterators, and
    each step undone on the way back. The search returns as soon as the
    best path has the size of the largest r-component, because a simple
    r-path stays inside one component and the best changes only for a
    strictly longer path.
    """
    if m < 1 or budget < 1:
        raise ValueError("window and budget must be at least 1")
    graph = adjacency(pattern.support(), r)
    if not graph:
        return None, 0, True
    longest = max(map(len, component_sweeps(graph)))
    best: list[Cell] | None = None
    best_len = 2 * m - 1  # a path counts from 2m cells on
    spent = 0

    def extensions(path: list[Cell], used: set) -> list[Cell]:
        t = len(path)
        floor = path[t - m][-1] if t >= m else None
        return [nb for nb in graph[path[-1]]
                if nb not in used and (floor is None or nb[-1] > floor)]

    # `best` is copied from `path` only when the search backs out of it
    # or stops, so a run of ever longer paths costs no copy per node
    fresh = False
    for start in graph:
        if spent >= budget:
            return _cell_path(best, r), spent, False
        path, used = [start], {start}
        spent += 1
        pending = [iter(extensions(path, used))]
        while pending:
            nb = next(pending[-1], None)
            if nb is None:
                if fresh:
                    best, fresh = path[:best_len], False
                pending.pop()
                used.discard(path.pop())
                continue
            if spent >= budget:
                if fresh:
                    best = path[:best_len]
                return _cell_path(best, r), spent, False
            path.append(nb)
            used.add(nb)
            spent += 1
            if len(path) > best_len:
                best_len, fresh = len(path), True
                if best_len == longest:
                    return _cell_path(path, r), spent, True
            pending.append(iter(extensions(path, used)))
    return _cell_path(best, r), spent, True


def _cell_path(cells: list[Cell] | None, r: int) -> CellPath | None:
    return None if cells is None else CellPath(tuple(cells), r)


def trace_guided_path(vertical_steps: Sequence[int], offsets: Sequence[int],
                      length: int) -> Pattern:
    """Support traced by a walk climbing and sidestepping per the guides.

    Step i climbs vertical_steps[i] cells one at a time, then moves
    horizontally by offsets[i] one cell at a time; the trace is therefore
    1-connected and ascending by construction, and its 1 + sum of the
    steps + sum of the |offsets| cells are charged to the cell cap first.
    """
    if length < 0:
        raise ValueError("length must be nonnegative")
    if len(vertical_steps) < length or len(offsets) < length:
        raise ValueError("guide sequences must cover the requested length")
    ups, sides = vertical_steps[:length], offsets[:length]
    if min(ups, default=1) < 1:
        raise ValueError("vertical steps must be at least 1")
    check_cells(1 + sum(ups) + sum(map(abs, sides)), "guided trace")
    x, y = 0, 0
    cells = {(x, y)}
    for up, side in zip(ups, sides):
        for _ in range(up):
            y += 1
            cells.add((x, y))
        direction = 1 if side >= 0 else -1
        for _ in range(abs(side)):
            x += direction
            cells.add((x, y))
    return Pattern(BINARY, {c: "1" for c in cells})


def sturmian_word(alpha: Fraction, length: int) -> str:
    """Mechanical 0/1 word of slope alpha and intercept 0.

    Symbol i is floor((i+1) alpha) - floor(i alpha), computed in integers
    from alpha's numerator and denominator.
    """
    if not 0 <= alpha <= 1:
        raise ValueError("slope must lie in [0, 1]")
    check_cells(length, "Sturmian word")
    p, q = alpha.numerator, alpha.denominator
    return "".join(str((i + 1) * p // q - i * p // q) for i in range(length))
