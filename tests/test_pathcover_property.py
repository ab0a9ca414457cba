"""The path searches on packed cells against the same searches on cell tuples.

`_adjacency` keys its graph by cells packed into ints; the oracles below
are the searches as they ran on the tuple-keyed graph of
:func:`conftest.oracle_adjacency`. Every path, node count and
completeness flag must come out the same.
"""
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from blobshift.errors import EmptySupport
from blobshift.pathcover import _ascend, geodesic_witness
from blobshift.patterns import BINARY, Pattern
from conftest import oracle_adjacency, oracle_bfs, oracle_sweeps


def oracle_farthest(dist):
    return max(dist, key=lambda c: (dist[c], c))


def oracle_geodesic(pattern, r):
    """Double sweep over the tuple graph: the witness's cells, or None."""
    graph = oracle_adjacency(pattern.support(), r)
    if not graph:
        return None
    dist = max(oracle_sweeps(graph), key=lambda d: (len(d), next(iter(d))))
    a = oracle_farthest(dist)
    dist, parent = oracle_bfs(graph, a)
    cells = [oracle_farthest(dist)]
    while cells[-1] != a:
        cells.append(parent[cells[-1]])
    return tuple(reversed(cells))


def oracle_ascend(pattern, r, m, budget):
    """Backtracking over the tuple graph: (cells or None, spent, complete)."""
    graph = oracle_adjacency(pattern.support(), r)
    if not graph:
        return None, 0, True
    longest = max(map(len, oracle_sweeps(graph)))
    best, best_len, spent = None, 2 * m - 1, 0

    def extensions(path, used):
        t = len(path)
        floor = path[t - m][-1] if t >= m else None
        return [nb for nb in graph[path[-1]]
                if nb not in used and (floor is None or nb[-1] > floor)]

    for start in graph:
        if spent >= budget:
            return best, spent, False
        path, used = [start], {start}
        spent += 1
        pending = [iter(extensions(path, used))]
        while pending:
            nb = next(pending[-1], None)
            if nb is None:
                pending.pop()
                used.discard(path.pop())
                continue
            if spent >= budget:
                return best, spent, False
            path.append(nb)
            used.add(nb)
            spent += 1
            if len(path) > best_len:
                best_len, best = len(path), tuple(path)
                if best_len == longest:
                    return best, spent, True
            pending.append(iter(extensions(path, used)))
    return best, spent, True


@st.composite
def supports(draw):
    """A support with negative coordinates, square or tall and thin."""
    if draw(st.booleans()):
        lo = draw(st.integers(-30, 5))
        xs = st.integers(lo, lo + draw(st.integers(0, 30)))
        return {(x,) for x in draw(st.lists(xs, max_size=20))}
    x0, y0 = draw(st.integers(-20, 5)), draw(st.integers(-20, 5))
    w, h = draw(st.one_of(st.tuples(st.integers(0, 6), st.integers(0, 6)),
                          st.tuples(st.integers(0, 1), st.integers(15, 40))))
    cell = st.tuples(st.integers(x0, x0 + w), st.integers(y0, y0 + h))
    return set(draw(st.lists(cell, max_size=20)))


def span(cells):
    return sum(max(axis) - min(axis) for axis in zip(*cells)) if cells else 0


@settings(max_examples=300, deadline=None)
@given(supports(), st.data())
def test_geodesic_matches_the_tuple_graph(cells, data):
    r = data.draw(st.one_of(st.integers(0, 4),
                            st.integers(span(cells), span(cells) + 3)))
    p = Pattern(BINARY, dict.fromkeys(cells, "1"))
    want = oracle_geodesic(p, r)
    if want is None:
        with pytest.raises(EmptySupport):
            geodesic_witness(p, r)
    else:
        assert geodesic_witness(p, r).cells == want


@settings(max_examples=300, deadline=None)
@given(supports(), st.data(), st.integers(1, 3))
def test_ascend_matches_the_tuple_graph(cells, data, m):
    r = data.draw(st.one_of(st.integers(0, 3),
                            st.integers(span(cells), span(cells) + 3)))
    p = Pattern(BINARY, dict.fromkeys(cells, "1"))
    for budget in (1, 5, 10 ** 5):
        path, spent, complete = _ascend(p, r, m, budget)
        want = oracle_ascend(p, r, m, budget)
        assert (path.cells if path else None, spent, complete) == want
