"""Pattern geometry: components, blobs, gluing, width, sparsity."""
import random
from itertools import combinations

import pytest

from blobshift.blobfractal import build_hierarchy
from blobshift.errors import (
    GlueConflict,
    PaddingUnavailable,
    SizeLimit,
)
from blobshift.pathcover import _adjacency, _bfs, _sweeps, geodesic_witness
from blobshift.patterns import (
    BINARY,
    Alphabet,
    Pattern,
    blobs,
    connected_components,
    essential_width_lower_bound,
    format_pattern,
    interval_cover_count,
    pad,
    parse_pattern,
    rows_of,
    sparsity,
    text_parser,
    zero_glue,
)
from conftest import (
    DictPattern,
    ball_bfs,
    dilate,
    ball_components,
    neighbours,
    random_padded_pattern,
    random_pattern_1d,
)
from test_sparse_patterns import (check_blobs, check_derived, check_equality,
                                  check_glue)
import test_value_classes


# ---------------------------------------------------------------- components


def components_oracle(cells, r):
    """Independent union-find over explicit pairwise distances."""
    cells = sorted(cells)
    parent = {c: c for c in cells}

    def find(c):
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    for a, b in combinations(cells, 2):
        if sum(abs(x - y) for x, y in zip(a, b)) <= r:
            parent[find(a)] = find(b)
    groups = {}
    for c in cells:
        groups.setdefault(find(c), set()).add(c)
    return sorted(groups.values(), key=min)


def test_components_1d_hand():
    comps = connected_components({(0,), (1,), (5,)}, 1)
    assert comps == [frozenset({(0,), (1,)}), frozenset({(5,)})]


def test_components_empty():
    assert connected_components(set(), 3) == []


def test_components_distance_two_chain():
    comps = connected_components({(0,), (2,), (4,)}, 2)
    assert comps == [frozenset({(0,), (2,), (4,)})]


def test_components_match_oracle(rng):
    for _ in range(40):
        cells = {(rng.randrange(10), rng.randrange(10))
                 for _ in range(rng.randrange(1, 18))}
        for r in (1, 2, 3):
            got = connected_components(cells, r)
            want = components_oracle(cells, r)
            assert [set(c) for c in got] == [set(c) for c in want]


def test_one_cell_joins_every_run_it_reaches():
    # (0, 0) and (4, 0) are 4 apart, two runs of row 0 at r = 3, and
    # (2, 1) lies within 3 of both
    cells = {(0, 0), (4, 0), (2, 1)}
    assert connected_components(cells, 3) == [frozenset(cells)]
    window = pad(Pattern(BINARY, dict.fromkeys(cells, "1")), 3)
    [(blob, anchor)] = blobs(window, 3)
    assert anchor == (0, 0)
    assert blob.support() == frozenset(cells)


def test_components_radius_zero_is_singletons():
    cells = {(0,), (1,), (7,)}
    assert connected_components(cells, 0) == [
        frozenset({(0,)}), frozenset({(1,)}), frozenset({(7,)})]


def sparse_wide_rows(rng):
    """A few cells on each of 3 rows 30 wide: at r >= 3 a row's runs lie
    more than r apart, and often only a cell of a nearby row joins them."""
    return {(rng.randrange(30), rng.randrange(3))
            for _ in range(rng.randrange(6, 16))}


def decoded(cells, r):
    """(cell, its neighbour cells) per key of the packed r-adjacency graph."""
    graph, cell_of = _adjacency(cells, r)
    return [(cell_of[k], [cell_of[nb] for nb in nbs])
            for k, nbs in graph.items()]


@pytest.mark.parametrize("dim", [1, 2])
def test_adjacency_bfs_and_components_match_ball_probing(dim):
    rng = random.Random(70 + dim)
    span = 40 if dim == 1 else 12
    sets = [set()] + [{tuple(rng.randrange(span) for _ in range(dim))
                       for _ in range(rng.randrange(1, 40))}
                      for _ in range(12)]
    # tiny supports, whose span the radii pass
    sets += [{tuple(rng.randrange(3) for _ in range(dim))
              for _ in range(rng.randrange(1, 4))} for _ in range(6)]
    if dim == 2:
        sets += [sparse_wide_rows(rng) for _ in range(30)]
    past = below = 0
    for cells in sets:
        extent = sum(max(axis) - min(axis) for axis in zip(*cells))
        for r in range(7):
            past += bool(cells) and r > extent
            below += r < extent
            graph, cell_of = _adjacency(cells, r)
            key_of = {cell: k for k, cell in cell_of.items()}
            assert list(graph) == sorted(graph)
            assert [cell_of[k] for k in graph] == sorted(cells)
            around = neighbours(dim, r)
            for cell, nbs in decoded(cells, r):
                assert nbs == [nb for nb in around(cell) if nb in cells]
            for start in sorted(cells)[::3]:
                dist, parent = _bfs(graph, key_of[start])
                want_dist, want_parent = ball_bfs(cells, start, r)
                # same insertion order too: the queue order is pinned
                assert [(cell_of[k], d) for k, d in dist.items()] == \
                    list(want_dist.items())
                assert [(cell_of[k], cell_of[p]) for k, p in parent.items()] \
                    == list(want_parent.items())
            assert [frozenset(map(cell_of.get, dist))
                    for dist in _sweeps(graph)] == ball_components(cells, r)
            assert connected_components(cells, r) == ball_components(cells, r)
            assert connected_components(sorted(cells) * 2, r) == \
                ball_components(cells, r)
    assert past and below


@pytest.mark.parametrize("cells, r, bound", [
    ({(0,), (1,), (5,)}, 2, 2 * 3 * 2),  # half ball of r cells
    ({(0, 0), (1, 0), (4, 4)}, 2, 2 * 3 * 6),  # half ball of r(r+1) cells
])
def test_adjacency_checks_the_cell_cap_at_its_edge(monkeypatch, cells, r,
                                                   bound):
    monkeypatch.setenv("BLOBSHIFT_CELL_CAP", str(bound))
    graph, _ = _adjacency(cells, r)
    assert sum(map(len, graph.values())) <= bound
    monkeypatch.setenv("BLOBSHIFT_CELL_CAP", str(bound - 1))
    with pytest.raises(SizeLimit):
        _adjacency(cells, r)
    # components charge two entries per cell, times r + 1 in 2D
    charge = 2 * len(cells) * (r + 1 if len(min(cells)) == 2 else 1)
    monkeypatch.setenv("BLOBSHIFT_CELL_CAP", str(charge))
    assert connected_components(cells, r) == ball_components(cells, r)
    monkeypatch.setenv("BLOBSHIFT_CELL_CAP", str(charge - 1))
    with pytest.raises(SizeLimit):
        connected_components(cells, r)


# ------------------------------------------------------ dilation kernel


def ball_oracle(dim, r):
    """Brute-force enumeration of every offset of L1 norm at most r."""
    if dim == 1:
        return [(d,) for d in range(-r, r + 1)]
    out = []
    for dx in range(-r, r + 1):
        rest = r - abs(dx)
        for dy in range(-rest, rest + 1):
            out.append((dx, dy))
    return out


def dilate_oracle(cells, r, dim):
    return {tuple(a + b for a, b in zip(c, off))
            for c in cells for off in ball_oracle(dim, r)}


def random_cells(rng, dim):
    """A random 1D or 2D cell set of 0 to 8 cells."""
    span = 30 if dim == 1 else 10
    return {tuple(rng.randrange(span) for _ in range(dim))
            for _ in range(rng.randrange(0, 9))}


def random_window(rng, dim):
    """Random support inside a domain padded by a random radius 0-6."""
    support = random_cells(rng, dim)
    margin = rng.randrange(0, 7)
    domain = dilate_oracle(support, margin, dim) | random_cells(rng, dim)
    return Pattern(BINARY, {c: ("1" if c in support else "0") for c in domain})


def test_neighbours_are_the_sorted_nonzero_ball():
    for dim in (1, 2):
        for r in range(7):
            want = sorted(o for o in ball_oracle(dim, r) if any(o))
            assert neighbours(dim, r)((0,) * dim) == want
            cell = (5, -3)[:dim]
            assert neighbours(dim, r)(cell) == [
                tuple(a + b for a, b in zip(cell, o)) for o in want]


def domain(pattern):
    return frozenset(pattern.cells())


def test_dilate_and_pad_match_oracle(rng):
    for dim in (1, 2):
        for cells in [set()] + [random_cells(rng, dim) for _ in range(15)]:
            core = Pattern(BINARY, {c: rng.choice("01") for c in cells})
            for r in range(7):
                want = dilate_oracle(cells, r, dim)
                assert dilate(cells, r) == want
                padded = pad(core, r)
                assert domain(padded) == want
                assert all(padded.value(c) == core.get(c, "0") for c in want)


def blob_scan_oracle(pattern, r):
    """(anchor, truncated, absolute padded cells) per component."""
    out = []
    for comp in components_oracle(pattern.support(), r):
        ball = dilate_oracle(comp, r, pattern.dimension)
        out.append((min(comp), not ball <= domain(pattern),
                    ball & domain(pattern)))
    return out


def absolute_domain(blob, anchor):
    return {tuple(c + a for c, a in zip(cell, anchor))
            for cell in blob.pattern.cells()}


def test_blobs_and_hierarchy_match_oracle(rng):
    for dim in (1, 2):
        zeros = Pattern(BINARY, {(0,) * dim: "0"})
        for p in [zeros] + [random_window(rng, dim) for _ in range(15)]:
            hierarchy = build_hierarchy(p, range(7))
            for level in hierarchy.levels:
                want = blob_scan_oracle(p, level.radius)
                got = [(pl.anchor, pl.truncated,
                        absolute_domain(pl.blob, pl.anchor))
                       for pl in level.placements]
                assert got == want
                if any(truncated for _, truncated, _ in want):
                    with pytest.raises(PaddingUnavailable):
                        blobs(p, level.radius)
                else:
                    assert [(anchor, absolute_domain(blob, anchor))
                            for blob, anchor in blobs(p, level.radius)] == \
                        [(anchor, cells) for anchor, _, cells in want]


def test_pad_checks_the_cell_cap(monkeypatch):
    monkeypatch.setenv("BLOBSHIFT_CELL_CAP", "100")
    assert len(pad(Pattern(BINARY, {(0, 0): "1"}), 4)) == 41
    square = Pattern(BINARY, {(x, y): "1" for x in range(5) for y in range(5)})
    with pytest.raises(SizeLimit):
        pad(square, 10)


# ------------------------------------------------- derived patterns


TERNARY = Alphabet(("0", "1", "2"), "0")


def assert_as_checked(result):
    """result is what the validating constructor builds from its items."""
    checked = Pattern(result.alphabet, dict(result.items()))
    assert dict(result.items()) == dict(checked.items())
    assert result == checked
    assert result.dimension == checked.dimension
    assert result.support() == checked.support()
    assert hash(result) == hash(checked)


def derived_inputs(rng):
    """Empty, all-zero and random windows with holes, 1D and 2D."""
    yield Pattern(BINARY, {})
    for dim in (1, 2):
        yield Pattern(BINARY, {(0,) * dim: "0"})
        for _ in range(8):
            yield random_window(rng, dim)
        cells = random_cells(rng, dim) | {(0,) * dim}
        yield Pattern(TERNARY, {c: rng.choice("012") for c in cells})


def test_derived_patterns_match_checked_construction(rng):
    for p in derived_inputs(rng):
        dim = p.dimension
        far = p.translate((1000,) * dim)
        for result in (p.translate((-3, 5)[:dim]), far, zero_glue(p, far),
                       *rows_of(p)):
            assert_as_checked(result)
        for r in range(5):
            padded = pad(p, r)
            assert_as_checked(padded)
            ring = Pattern(p.alphabet, dict.fromkeys(
                domain(padded) - domain(p), p.alphabet.zero))
            glued = zero_glue(p, ring)
            assert_as_checked(glued)
            assert glued == padded
            for blob, anchor in blobs(padded, r):
                assert_as_checked(blob.pattern)
                assert_as_checked(blob.pattern.translate(anchor))


def test_other_dimensions_are_refused():
    plane = Pattern.from_rows(["111", "1.1"])
    word = Pattern.from_word("101")
    with pytest.raises(ValueError):
        plane.translate((5,))
    with pytest.raises(ValueError):
        word.translate((1, 2))
    # a cell of the other dimension is in neither pattern, so has no value
    assert (0,) not in plane and (0, 0) not in word
    assert word.get((0, 0)) is None
    empty = Pattern(BINARY, {})
    assert empty.translate((1, 2)) == empty


# ---------------------------------------------------------------------- blobs


def test_blobs_two_components():
    p = Pattern.from_word("0110010")
    found = blobs(p, 1)
    assert len(found) == 2
    first, second = found
    assert sorted(first[0].support()) == [(0,), (1,)]
    assert first[1] == (1,)
    assert sorted(second[0].support()) == [(0,)]
    assert second[1] == (5,)


def test_blobs_all_zero():
    assert blobs(Pattern.from_word("0000"), 2) == []


def test_blobs_singleton_full_padding():
    p = pad(Pattern(BINARY, {(0,): "1"}), 2)
    [(blob, anchor)] = blobs(p, 2)
    assert anchor == (0,)
    assert sorted(blob.support()) == [(0,)]
    assert domain(blob.pattern) == frozenset((x,) for x in range(-2, 3))


def test_a_scan_charges_the_ball_rows_it_probes(monkeypatch):
    # 5 support cells in 2D: 2 * 5 * (r + 1)
    p = Pattern.from_rows(["1.?1", "..1.", "1..1"], origin=(0, 0))
    monkeypatch.setenv("BLOBSHIFT_CELL_CAP", str(2 * 5 * 4))
    [level] = build_hierarchy(p, [3]).levels
    [placement] = level.placements
    assert (placement.anchor, placement.truncated) == ((0, 0), True)
    assert domain(placement.blob.pattern.translate((0, 0))) == domain(p)
    monkeypatch.setenv("BLOBSHIFT_CELL_CAP", str(2 * 5 * 4 - 1))
    with pytest.raises(SizeLimit, match="3-components of 5 cells needs 40"):
        build_hierarchy(p, [3])
    monkeypatch.delenv("BLOBSHIFT_CELL_CAP")
    with pytest.raises(SizeLimit, match="10000000010 cells"):
        blobs(p, 10 ** 9)


def test_adjacency_clips_its_radius_to_the_span(monkeypatch):
    # 5 cells of a 4x3 window span 3 + 2 = 5, so every pair is 5-adjacent;
    # the ball oracles cannot list a 10000-ball, so r = 5 stands in
    p = Pattern.from_rows(["1.?1", "..1.", "1..1"], origin=(0, 0))
    cells = p.support()
    graph = decoded(cells, 10_000)
    assert graph == decoded(cells, 5)
    assert all(len(nbs) == 4 for _, nbs in graph)
    assert geodesic_witness(p, 10_000).cells == geodesic_witness(p, 5).cells
    # charged for the clipped half ball, 2 * 5 * 5 * 6 entries
    monkeypatch.setenv("BLOBSHIFT_CELL_CAP", "300")
    assert decoded(cells, 10_000) == graph
    monkeypatch.setenv("BLOBSHIFT_CELL_CAP", "299")
    with pytest.raises(SizeLimit,
                       match="^10000-adjacency of 5 cells needs 300 "):
        _adjacency(cells, 10_000)


def test_blob_equality_ignores_construction_route():
    a = pad(Pattern(BINARY, {(3,): "1", (4,): "1"}), 1)
    b = pad(Pattern(BINARY, {(9,): "1", (10,): "1"}), 1)
    [(blob_a, _)] = blobs(a, 1)
    [(blob_b, _)] = blobs(b, 1)
    assert blob_a == blob_b
    assert hash(blob_a) == hash(blob_b)


def test_blob_partition_law(rng):
    for _ in range(60):
        p = random_padded_pattern(rng)
        for r in (1, 2, 3):
            found = blobs(p, r)
            covered = set()
            for blob, anchor in found:
                absolute = {tuple(c + a for c, a in zip(cell, anchor))
                            for cell in blob.support()}
                assert not absolute & covered, "blob supports must be disjoint"
                covered |= absolute
            assert covered == set(p.support())


def test_blob_reconstruction_bit_exact(rng):
    for _ in range(25):
        p = random_padded_pattern(rng)
        found = blobs(p, 2)
        if not found:
            continue
        rebuilt = None
        for blob, anchor in found:
            piece = blob.pattern.translate(anchor)
            rebuilt = piece if rebuilt is None else zero_glue(rebuilt, piece)
        assert rebuilt.support() == p.support()
        for cell in rebuilt.cells():
            assert rebuilt.value(cell) == p.value(cell)


# ------------------------------------------------------------------ zero glue


def test_zero_glue_disjoint():
    p = pad(Pattern(BINARY, {(0,): "1"}), 1)
    q = pad(Pattern(BINARY, {(5,): "1"}), 1)
    glued = zero_glue(p, q)
    assert sorted(glued.support()) == [(0,), (5,)]
    assert domain(glued) == domain(p) | domain(q)


def test_zero_glue_commutative(rng):
    made = 0
    while made < 100:
        a = random_pattern_1d(rng, length=12, density=0.3)
        b = random_pattern_1d(rng, length=12, density=0.3)
        shift = rng.randrange(0, 25)
        b = b.translate((shift,))
        try:
            left = zero_glue(a, b)
        except GlueConflict:
            continue
        made += 1
        assert left == zero_glue(b, a)


def test_zero_glue_zero_pattern_keeps_support():
    p = Pattern.from_word("101")
    z = Pattern.from_word("000", start=10)
    assert zero_glue(p, z).support() == p.support()


def test_zero_glue_associative_when_defined():
    a = Pattern.from_word("1", start=0)
    b = Pattern.from_word("1", start=5)
    c = Pattern.from_word("1", start=10)
    assert zero_glue(zero_glue(a, b), c) == zero_glue(a, zero_glue(b, c))


# ------------------------------------------------------- width and sparsity


def min_cover_oracle(xs, r):
    """Exact minimal radius-r interval cover by dynamic programming."""
    xs = sorted(xs)
    if not xs:
        return 0
    best = {0: 0}  # points covered so far -> intervals used
    count = 0
    i = 0
    while i < len(xs):
        count += 1
        end = xs[i] + 2 * r
        while i < len(xs) and xs[i] <= end:
            i += 1
    # greedy is optimal in 1D; the oracle double-checks via brute force
    # for small inputs
    if len(xs) <= 12:
        from itertools import product
        n = len(xs)
        best_brute = n
        for picks in product([0, 1], repeat=n):
            starts = [xs[j] for j in range(n) if picks[j]]
            if all(any(s <= x <= s + 2 * r for s in starts) for x in xs):
                best_brute = min(best_brute, sum(picks))
        assert best_brute == count
    return count


def test_interval_cover_vs_brute(rng):
    for _ in range(40):
        xs = sorted({rng.randrange(0, 30)
                     for _ in range(rng.randrange(1, 10))})
        for r in (0, 1, 2):
            assert interval_cover_count(xs, r) == min_cover_oracle(xs, r)


def test_width_single_interval_rows():
    rows = [Pattern.from_word("0111"), Pattern.from_word("1110")]
    assert essential_width_lower_bound(rows, 1) == 1
    assert essential_width_lower_bound([], 2) == 0


def test_width_empty_rows():
    rows = [Pattern.from_word("000")]
    assert essential_width_lower_bound(rows, 0) == 0


def test_width_monotone_in_radius_and_bounded_by_sparsity(rng):
    for _ in range(30):
        rows = [random_pattern_1d(rng, length=25) for _ in range(3)]
        widths = [essential_width_lower_bound(rows, r) for r in (0, 1, 2, 3)]
        assert widths == sorted(widths, reverse=True)
        assert widths[-1] <= sparsity(rows)


def test_sparsity_counts():
    # the multiples of 5 in [0, 25]
    row = Pattern.from_word("10000" * 5 + "1")
    assert sparsity([row]) == 6
    assert sparsity([Pattern.from_word("0000")]) == 0
    assert sparsity([Pattern.from_word("11011")]) == 4


# ------------------------------------------------------------- text format


def test_round_trip_1d():
    p = Pattern.from_word("0110010")
    assert parse_pattern(format_pattern(p)) == p


def test_round_trip_2d_with_holes():
    p = Pattern.from_rows(["1.?", ".11", "?.1"])
    text = format_pattern(p)
    assert parse_pattern(text) == p
    assert parse_pattern(format_pattern(parse_pattern(text))) == p


def test_round_trip_random(rng):
    for _ in range(25):
        p = random_padded_pattern(rng, r=1)
        assert parse_pattern(format_pattern(p)) == p


def test_round_trip_translated():
    p = Pattern.from_word("101", start=-7)
    assert parse_pattern(format_pattern(p)) == p
    q = Pattern.from_rows(["1.", ".1"]).translate((3, -4))
    assert parse_pattern(format_pattern(q)) == q


def test_parse_dot_alias_and_alphabet():
    text = "dims 3\nalphabet 0ab\n.ab\n"
    p = parse_pattern(text)
    assert p.value((0,)) == "0"
    assert p.value((1,)) == "a"
    assert p.alphabet.zero == "0"


def test_rows_of_splits_by_height():
    p = Pattern.from_rows(["11", ".."])
    rows = rows_of(p)
    assert len(rows) == 2
    assert len(rows[0].support()) == 0  # y = 0 row is the blank one
    assert len(rows[1].support()) == 2


# ------------------------------------------------------------------ line gate


def drive_patterns():
    """Check seeded windows against the oracles, and the records' value
    behaviour."""
    rng = random.Random(0x5A75)
    inputs = list(derived_inputs(rng))
    for p in inputs:
        check_derived(p, DictPattern.of(p))
        check_blobs(pad(p, rng.randrange(3)), (1,))
        for q in inputs:
            if q.alphabet == p.alphabet and rng.random() < 0.1:
                check_equality(p, q)
                if q.dimension == p.dimension:
                    check_glue(p, q.translate(
                        tuple(rng.randint(-6, 6) for _ in range(p.dimension))))
    for test in (test_components_match_oracle, test_interval_cover_vs_brute,
                 test_width_monotone_in_radius_and_bounded_by_sparsity,
                 test_blob_partition_law):
        test(rng)
    test_sparsity_counts()
    test_other_dimensions_are_refused()
    for row in test_value_classes.RECORDS:
        test_value_classes.test_a_record_is_a_frozen_value(*row)
    assert BINARY._asdict() == {"symbols": ("0", "1"), "zero": "0"}
    # text_parser runs at import; here it wraps a parser afresh
    assert text_parser(int)("12") == 12
