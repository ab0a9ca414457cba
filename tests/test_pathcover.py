"""Paths on supports: geodesics, ascending search, guided traces."""
import hashlib
import json
import random
from fractions import Fraction
from itertools import product

import pytest

from blobshift.cli import main
from blobshift.patterns import (
    BINARY,
    Pattern,
    connected_components,
    essential_width_lower_bound,
    rows_of,
    sparsity,
)
from blobshift.pathcover import (
    _adjacency,
    _ascend,
    find_ascending_path,
    geodesic_witness,
    sturmian_word,
    trace_guided_path,
)
from blobshift.substitution import (
    block_spec,
    build_unbounded_rows,
    cantor_substitution,
    density_word,
    iterate_1d,
    iterate_2d,
    plus_substitution,
)
from conftest import ball_bfs, ball_components, neighbours, three_bfs_geodesic

GOLDEN = Fraction(377, 610)  # continued-fraction approximant of 1/phi


def plus_level(n: int) -> Pattern:
    return iterate_2d(plus_substitution(), Pattern(BINARY, {(0, 0): "1"}), n)


# ------------------------------------------------------------------ geodesics


def test_geodesic_single_cell():
    p = Pattern(BINARY, {(0, 0): "1"})
    path = geodesic_witness(p, 1)
    assert path.cells == ((0, 0),)


def test_geodesic_diagonal_line():
    p = Pattern(BINARY, {(i, i): "1" for i in range(20)})
    path = geodesic_witness(p, 2)
    assert len(path) == 20
    assert path.step == 2


def test_geodesic_plus_levels_increase():
    lengths = []
    for n in range(1, 6):
        path = geodesic_witness(plus_level(n), 1)
        lengths.append(len(path))
    assert lengths == sorted(lengths)
    assert all(b > a for a, b in zip(lengths, lengths[1:]))


def test_geodesic_certifies_component_size():
    p = plus_level(3)
    path = geodesic_witness(p, 1)
    assert len(path) <= len(p.support())
    # endpoints realize the diameter on this tree-shaped support
    assert len(path) == 27  # frozen from the BFS oracle


def test_geodesic_respects_step_bound():
    p = plus_level(2)
    path = geodesic_witness(p, 1)
    for a, b in zip(path.cells, path.cells[1:]):
        assert sum(abs(x - y) for x, y in zip(a, b)) <= 1


def staircase(length):
    offsets = [int(c) for c in sturmian_word(GOLDEN, length)]
    return trace_guided_path([1] * length, offsets, length)


def shipped_patterns():
    """One small instance of every generator this package ships."""
    out = {"plus": plus_level(3),
           "cantor": Pattern.from_word(
               iterate_1d(cantor_substitution(), "1", 5)),
           "thinning": Pattern.from_word(density_word(3).word),
           "staircase": staircase(300)}
    for k, level in ((2, 3), (3, 2)):
        for j in range(1, k + 1):
            out[f"block{k}_{j}"] = build_unbounded_rows(block_spec(k),
                                                        level, j)
    return out


def test_geodesic_matches_the_three_bfs_witness():
    rng = random.Random(80)
    patterns = list(shipped_patterns().values())
    patterns += [random_pattern(rng, dim, rng.randint(1, 30))
                 for dim in (1, 2) for _ in range(10)]
    for p in patterns:
        for r in range(5):
            assert list(geodesic_witness(p, r).cells) == \
                three_bfs_geodesic(p, r)


def cycle_rank(support, r):
    """Edges - cells + components of the r-adjacency graph, by ball probing."""
    ends = sum(nb in support for c in support
               for nb in neighbours(len(c), r)(c))
    return ends // 2 - len(support) + len(ball_components(support, r))


@pytest.mark.parametrize("name", sorted(shipped_patterns()))
def test_geodesic_is_a_diameter_on_shipped_trees(name):
    # at r=1 every shipped generator's support graph is a forest, where
    # the double sweep is exact: compare with all-pairs distances
    p = shipped_patterns()[name]
    support = p.support()
    assert cycle_rank(support, 1) == 0
    path = geodesic_witness(p, 1)
    comp = max(ball_components(support, 1), key=lambda c: (len(c), min(c)))
    diameter = max(max(ball_bfs(comp, c, 1)[0].values()) for c in comp)
    assert len(path) == diameter + 1


@pytest.mark.parametrize("name", sorted(shipped_patterns()))
def test_geodesic_is_a_shortest_path_at_every_radius(name):
    # off trees the witness is only a lower bound on the diameter, but
    # always a shortest path between its endpoints
    p = shipped_patterns()[name]
    support = p.support()
    for r in range(1, 5):
        path = geodesic_witness(p, r)
        dist = ball_bfs(support, path.cells[0], r)[0]
        assert dist[path.cells[-1]] == len(path) - 1


def test_shipped_supports_have_cycles_past_radius_one():
    patterns = shipped_patterns()
    assert cycle_rank(patterns["staircase"].support(), 2) == 484
    assert cycle_rank(patterns["staircase"].support(), 3) == 967
    assert cycle_rank(patterns["plus"].support(), 2) == 198
    assert cycle_rank(patterns["block2_1"].support(), 3) == 14


def test_negative_radius_is_refused():
    for p in (Pattern.from_word("0110"), Pattern.from_word("000"),
              Pattern(BINARY, {(0, 0): "1", (0, 1): "1"})):
        for call in (lambda: _adjacency(p.support(), -1),
                     lambda: connected_components(p.support(), -1),
                     lambda: geodesic_witness(p, -1),
                     lambda: find_ascending_path(p, -1, 1)):
            with pytest.raises(ValueError):
                call()


SQUARE = "dims 5 5\nalphabet 01\n" + "11111\n" * 5


@pytest.mark.parametrize("radius, cells, digest", [
    ("1", [[4, 4], [3, 4], [2, 4], [1, 4], [0, 4],
           [0, 3], [0, 2], [0, 1], [0, 0]],
     "ed95e7f79e428ad41357587675bc4f467394c20a706ab67ca8fe4aa4db99cd7b"),
    ("2", [[4, 4], [2, 4], [1, 3], [1, 1], [1, 0]],
     "4affc366db34aebbee8a9fb3ce762daed1072e04951ffefcd750c48d6c007315"),
])
def test_geodesic_cli_ties_are_pinned(tmp_path, monkeypatch, capsys, radius,
                                      cells, digest):
    # a filled square has many equal shortest paths; sorted adjacency
    # lists must keep the parent ties, so stdout is pinned byte for byte
    monkeypatch.chdir(tmp_path)
    (tmp_path / "square.pat").write_text(SQUARE)
    code = main(["pathcover", "geodesic", "--pattern", "square.pat",
                 "--radius", radius])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["result"] == {"length": len(cells), "cells": cells}
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_geodesic_cli_refuses_a_graph_past_the_cap(tmp_path, monkeypatch,
                                                   capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "square.pat").write_text(SQUARE)
    # 25 cells, half ball of 6 at r=2: up to 300 list entries
    monkeypatch.setenv("BLOBSHIFT_CELL_CAP", "299")
    code = main(["pathcover", "geodesic", "--pattern", "square.pat",
                 "--radius", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert json.loads(captured.err)["error"]["kind"] == "SizeLimit"


# ------------------------------------------------------------ ascending paths


def test_ascending_vertical_column():
    p = Pattern(BINARY, {(0, y): "1" for y in range(10)})
    path = find_ascending_path(p, 1, 1)
    assert path is not None
    assert len(path) == 10
    heights = [c[-1] for c in path.cells]
    assert all(b > a for a, b in zip(heights, heights[1:]))


def test_ascending_horizontal_row_absent():
    p = Pattern(BINARY, {(x, 0): "1" for x in range(10)})
    assert find_ascending_path(p, 1, 1) is None


@pytest.mark.parametrize("budget", [0, -5])
def test_ascending_needs_a_positive_budget(budget):
    p = Pattern(BINARY, {(0, y): "1" for y in range(4)})
    with pytest.raises(ValueError):
        find_ascending_path(p, 1, 1, budget=budget)


def test_ascending_staircase():
    offsets = [int(c) for c in sturmian_word(GOLDEN, 200)]
    p = trace_guided_path([1] * 200, offsets, 120)
    path = find_ascending_path(p, 1, 3)
    assert path is not None
    assert len(path) == len(p.support())
    heights = [c[-1] for c in path.cells]
    for j in range(len(heights) - 3):
        assert heights[j + 3] > heights[j]


def test_ascending_window_replay():
    p = trace_guided_path([1] * 40, [int(c) for c in sturmian_word(GOLDEN, 40)], 30)
    path = find_ascending_path(p, 1, 2)
    assert path is not None
    heights = [c[-1] for c in path.cells]
    for j in range(len(heights) - 2):
        assert heights[j + 2] > heights[j]


def copying_dfs(pattern, r, m, budget):
    """The search before backtracking: (cells, nodes spent, finished early).

    Each node carries its own copy of the path and of the used set.
    """
    support = pattern.support()
    around = neighbours(pattern.dimension, r)
    best, spent = None, 0
    for start in sorted(support):
        stack = [([start], {start})]
        while stack and spent < budget:
            path, used = stack.pop()
            spent += 1
            if len(path) >= 2 * m and (best is None or len(path) > len(best)):
                best = list(path)
            t = len(path)
            extensions = [nb for nb in around(path[-1])
                          if nb in support and nb not in used
                          and not (t >= m and nb[-1] <= path[t - m][-1])]
            for nb in reversed(extensions):
                stack.append((path + [nb], used | {nb}))
        if spent >= budget:
            break
    return best, spent, spent < budget


def random_pattern(rng, dim, size):
    """Up to `size` ones scattered near the origin, whose cell is always set."""
    span = rng.randint(1, 5)
    values = {(0,) * dim: "0"}
    for _ in range(size):
        if dim == 1:
            values[(rng.randint(-2 * span, 2 * span),)] = "1"
        else:
            values[(rng.randint(-span, span), rng.randint(-span, span))] = "1"
    return Pattern(BINARY, values)


@pytest.mark.parametrize("dim", [1, 2])
def test_ascending_matches_the_copying_search(dim):
    rng = random.Random(60 + dim)
    for r, m in product((1, 2, 3), repeat=2):
        for k in range(8):
            p = random_pattern(rng, dim, rng.randint(1, 14) if k else 0)
            for budget in (1, 2, 5, 30, 300, 3000):
                want, old_spent, finished = copying_dfs(p, r, m, budget)
                got, spent, complete = _ascend(p, r, m, budget)
                assert find_ascending_path(p, r, m, budget) == got
                assert (list(got.cells) if got else None) == want
                assert spent <= old_spent
                # an unfinished search has spent its whole budget
                assert complete or spent == budget
                assert complete or not finished


@pytest.mark.parametrize("budget", [10 ** 4, 10 ** 6])
def test_ascending_staircase_stops_at_its_component_size(budget):
    # the staircase is one 1-component; the path spanning it is provably
    # longest, so the search ends after visiting exactly its cells
    offsets = [int(c) for c in sturmian_word(GOLDEN, 1000)]
    p = trace_guided_path([1] * 1000, offsets, 1000)
    assert len(p.support()) == 1619
    path, spent, complete = _ascend(p, 1, 3, budget)
    assert len(path) == 1619
    assert (spent, complete) == (1619, True)


def test_ascending_budget_cut_is_not_complete():
    offsets = [int(c) for c in sturmian_word(GOLDEN, 200)]
    p = trace_guided_path([1] * 200, offsets, 200)
    path, spent, complete = _ascend(p, 1, 3, 100)
    assert (len(path), spent, complete) == (100, 100, False)


def test_ascending_absence_can_be_complete():
    row = Pattern(BINARY, {(x, 0): "1" for x in range(10)})
    assert _ascend(row, 1, 1, 1000) == (None, 10, True)
    assert _ascend(row, 1, 1, 5) == (None, 5, False)
    assert _ascend(Pattern.from_word("000"), 1, 1, 5) == (None, 0, True)


# -------------------------------------------------------------- guided traces


def test_guided_vertical_column():
    p = trace_guided_path([1] * 10, [0] * 10, 10)
    assert sorted(p.support()) == [(0, y) for y in range(11)]


def test_guided_sturmian_stays_in_strip():
    # support within the strip of the line x = alpha * y, width 2 in L1
    length = 300
    offsets = [int(c) for c in sturmian_word(GOLDEN, length)]
    p = trace_guided_path([1] * length, offsets, length)
    worst = max(abs(Fraction(x) - GOLDEN * y) for (x, y) in p.support())
    assert worst <= 2


def test_guided_zigzag_width_one():
    offsets = [1 if i % 2 == 0 else -1 for i in range(40)]
    p = trace_guided_path([1] * 40, offsets, 40)
    assert essential_width_lower_bound(rows_of(p), 1) == 1


def test_guided_row_sparsity_bounded():
    for n, length in ((2, 60), (3, 45)):
        offsets = [(i % (2 * n + 1)) - n for i in range(length)]
        steps = [1 + (i % n) for i in range(length)]
        p = trace_guided_path(steps, offsets, length)
        assert sparsity(rows_of(p)) <= n + 1


def test_guided_trace_is_connected_and_ascending():
    offsets = [int(c) for c in sturmian_word(GOLDEN, 50)]
    p = trace_guided_path([1] * 50, offsets, 50)
    assert len(connected_components(p.support(), 1)) == 1


# ------------------------------------------------------------------- sturmian


def test_sturmian_is_balanced_prefix():
    word = sturmian_word(GOLDEN, 200)
    assert set(word) == {"0", "1"}
    # golden slope: no two consecutive zeros, no three consecutive ones
    assert "00" not in word
    assert "111" not in word


def test_sturmian_counts_track_slope():
    word = sturmian_word(GOLDEN, 610)
    assert word.count("1") == 377


# ------------------------------------------------------------------ line gate


def drive_pathcover():
    """Find geodesics and ascending paths on seeded random patterns, and
    trace a guided path."""
    rng = random.Random(0x9C0E)
    for _ in range(30):
        dim = rng.choice((1, 2))
        p = random_pattern(rng, dim, rng.randint(1, 12))
        r = rng.randint(0, 3)
        assert len(geodesic_witness(p, r)) >= 1
        m = rng.randint(1, 3)
        for budget in (1, 7, 500):
            found = find_ascending_path(p, r, m, budget)
            assert found is None or len(found) >= 2 * m
    length = rng.randint(1, 40)
    ups = [rng.randint(1, 3) for _ in range(length)]
    sides = [rng.randint(-2, 2) for _ in range(length)]
    trace = trace_guided_path(ups, sides, length)
    assert len(connected_components(trace.support(), 1)) == 1
    # the budget runs out on a path longer than any before it
    stair = trace_guided_path([1] * 40, [int(c) for c in sturmian_word(
        GOLDEN, 40)], 40)
    best, spent, complete = _ascend(stair, 1, 3, 30)
    assert (len(best), spent, complete) == (30, 30, False)
    assert _ascend(Pattern.from_word("000"), 1, 1, 5) == (None, 0, True)
    assert sturmian_word(Fraction(2, 7), 14).count("1") == 4
