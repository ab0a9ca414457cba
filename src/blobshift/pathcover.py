"""Paths drawn on pattern supports.

Geodesic witnesses certify component sizes, the ascending-path search
hunts simple paths whose height gains are window-uniform, and guided
traces build staircase-like supports from step directions. Sturmian
offset sequences come from the mechanical-word formula with exact
rationals, so there is no floating-point drift.

The path searches need paths, not only the partition that
:func:`~blobshift.patterns.connected_components` reads off the rows:
:func:`_adjacency` builds their r-adjacency graph, probing each pair
from its lesser cell over half of the L1 ball, and :func:`_bfs` and
:func:`_sweeps` walk it. The graph is keyed by cells packed into ints,
whose order is the cells' order, so a probe adds two ints instead of
building and hashing a tuple; keys become cells again only in the paths
returned.
"""
from __future__ import annotations

from collections import deque
from operator import sub
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .errors import EmptySupport
from .limits import check_cells
from .patterns import BINARY, Cell, Pattern, _Record, _half_ball

if TYPE_CHECKING:
    from fractions import Fraction


class CellPath(_Record):
    """Cell sequence with consecutive L1 steps bounded by `step`."""

    __slots__ = ("cells", "step")

    def __init__(self, cells: tuple[Cell, ...], step: int):
        for a, b in zip(cells, cells[1:]):
            if sum(map(abs, map(sub, a, b))) > step:
                raise ValueError("consecutive path cells exceed the step bound")
        self._fill(cells, step)

    def __len__(self) -> int:
        return len(self.cells)


# -- the r-adjacency graph on packed cells -------------------------------------


def _adjacency(cells: Iterable[Cell],
               r: int) -> tuple[dict[int, list[int]], dict[int, Cell]]:
    """Each cell's r-adjacent cells, keyed by packed ints; and each key's cell.

    A 1D cell (x,) packs to x. A 2D cell packs to (x - x0) * W + (y - y0),
    (x0, y0) being the cells' least coordinates and W = y-extent + 2s + 1,
    for s below. Keys then sort as their cells do, and the half ball's
    offsets dx * W + dy sort as their (dx, dy) do, since |dy| <= s < W / 2.
    No probe aliases: if key k + dx * W + dy is the key of (x', y'), then
    (x + dx - x') * W = y' - y - dy, at most y-extent + s < W in size, so
    both sides are 0.

    Each unordered pair is probed once, from its lesser cell, over the
    lexicographically positive half of the L1 ball. Cells are visited in
    sorted order, so every list gets its lesser neighbours first, in
    order, then its greater ones. The graph's keys are sorted too. Every
    pair lies within the cells' span (x-extent plus y-extent), so the
    half ball is that of s = min(r, span): 1..s in 1D. The lists can hold
    up to 2 * len(cells) * len(half ball) entries; a bound past the cell
    cap raises :class:`SizeLimit` before it is listed.
    """
    if r < 0:
        raise ValueError("radius must be nonnegative")
    cells = frozenset(cells)
    if not cells:
        return {}, {}
    dim = len(next(iter(cells)))
    if dim == 1:
        xs = [x for x, in cells]
        s = min(r, max(xs) - min(xs))
    else:
        xs, ys = zip(*cells)
        x0, y0 = min(xs), min(ys)
        s = min(r, max(xs) - x0 + max(ys) - y0)
    check_cells(2 * len(cells) * _half_ball(s, dim),
                f"{r}-adjacency of {len(cells)} cells")
    if dim == 1:
        cell_of = dict(zip(xs, cells))
        half = range(1, s + 1)
    else:
        width = max(ys) - y0 + 2 * s + 1
        cell_of = dict(zip([(x - x0) * width + y - y0 for x, y in cells],
                           cells))
        half = [dx * width + dy for dx in range(s + 1)
                for dy in range(dx - s if dx else 1, s - dx + 1)]
    graph: dict[int, list[int]] = {k: [] for k in sorted(cell_of)}
    get = graph.get
    for k, out in graph.items():
        for d in half:
            theirs = get(k + d)
            if theirs is not None:
                out.append(k + d)
                theirs.append(k)
    return graph, cell_of


def _bfs(graph: dict[int, list[int]], start: int) -> tuple[dict, dict]:
    """Distances and parents from start over an adjacency graph.

    Lists are read in order, so a key's parent is the first key taken off
    the queue that lists it: parent ties follow the list order.
    """
    dist = {start: 0}
    parent: dict[int, int] = {}
    queue = deque([start])
    while queue:
        k = queue.popleft()
        d = dist[k] + 1
        for nb in graph[k]:
            if nb not in dist:
                dist[nb] = d
                parent[nb] = k
                queue.append(nb)
    return dist, parent


def _sweeps(graph: dict[int, list[int]]) -> Iterator[dict]:
    """One :func:`_bfs` distance map per component, from its least key.

    Components come in order of their least cell, since the graph lists
    its keys in sorted order; each map's first key is that cell's.
    """
    seen: set[int] = set()
    for start in graph:
        if start not in seen:
            dist = _bfs(graph, start)[0]
            seen.update(dist)
            yield dist


def _farthest(dist: dict) -> int:
    return max(dist, key=lambda k: (dist[k], k))


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
    graph, cell_of = _adjacency(pattern.support(), r)
    if not graph:
        raise EmptySupport("geodesic witness needs a nonzero cell")
    # each component's sweep starts at its least cell, the map's first key,
    # so the largest one's is also the double sweep's first
    dist = max(_sweeps(graph), key=lambda d: (len(d), next(iter(d))))
    a = _farthest(dist)
    dist, parent = _bfs(graph, a)
    keys = [_farthest(dist)]
    while keys[-1] != a:
        keys.append(parent[keys[-1]])
    keys.reverse()
    return _cell_path(keys, cell_of, r)


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
    graph, cell_of = _adjacency(pattern.support(), r)
    if not graph:
        return None, 0, True
    height = {k: cell[-1] for k, cell in cell_of.items()}
    longest = max(map(len, _sweeps(graph)))
    best: list[int] | None = None
    best_len = 2 * m - 1  # a path counts from 2m cells on
    spent = 0

    def extensions(path: list[int], used: set) -> list[int]:
        t = len(path)
        floor = height[path[t - m]] if t >= m else None
        return [nb for nb in graph[path[-1]]
                if nb not in used and (floor is None or height[nb] > floor)]

    # `best` is copied from `path` only when the search backs out of it
    # or stops, so a run of ever longer paths costs no copy per node
    fresh = False
    for start in graph:
        if spent >= budget:
            return _cell_path(best, cell_of, r), spent, False
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
                return _cell_path(best, cell_of, r), spent, False
            path.append(nb)
            used.add(nb)
            spent += 1
            if len(path) > best_len:
                best_len, fresh = len(path), True
                if best_len == longest:
                    return _cell_path(path, cell_of, r), spent, True
            pending.append(iter(extensions(path, used)))
    return _cell_path(best, cell_of, r), spent, True


def _cell_path(keys: list[int] | None, cell_of: dict[int, Cell],
               r: int) -> CellPath | None:
    return None if keys is None else CellPath(
        tuple(map(cell_of.__getitem__, keys)), r)


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
    if length < 0:
        raise ValueError("length must be nonnegative")
    check_cells(length, "Sturmian word")
    p, q = alpha.numerator, alpha.denominator
    return "".join(str((i + 1) * p // q - i * p // q) for i in range(length))
