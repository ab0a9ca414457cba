"""Blob hierarchies: levels, the three axioms, the trichotomy."""
import pytest

from blobshift.blobfractal import (
    auto_radii,
    build_hierarchy,
    classify,
    verify_axioms,
)
from blobshift.errors import RadiiNotIncreasing
from blobshift.patterns import BINARY, Pattern, pad
from blobshift.substitution import (
    cantor_substitution,
    iterate_1d,
    iterate_2d,
    plus_substitution,
)

CANTOR_RADII = (2, 4, 10, 28)  # 3^(i-1) + 1


def cantor_pattern(level: int) -> Pattern:
    word = iterate_1d(cantor_substitution(), "1", level)
    return pad(Pattern.from_word(word), CANTOR_RADII[-1])


def plus_pattern(level: int) -> Pattern:
    p = iterate_2d(plus_substitution(), Pattern(BINARY, {(0, 0): "1"}), level)
    return pad(p, 2)


# ------------------------------------------------------------------ hierarchy


def test_single_cell_hierarchy():
    p = pad(Pattern(BINARY, {(0,): "1"}), 4)
    h = build_hierarchy(p, (1, 2, 4))
    for level in h.levels:
        assert len(level.placements) == 1
        assert not level.placements[0].truncated
        assert sorted(level.placements[0].blob.support()) == [(0,)]


def test_radii_must_increase():
    p = pad(Pattern(BINARY, {(0,): "1"}), 4)
    with pytest.raises(RadiiNotIncreasing):
        build_hierarchy(p, (2, 2))
    with pytest.raises(RadiiNotIncreasing):
        build_hierarchy(p, ())


def test_cantor_levels_are_substitution_blocks():
    h = build_hierarchy(cantor_pattern(6), CANTOR_RADII)
    for i, level in enumerate(h.levels, start=1):
        distinct = level.distinct()
        assert len(distinct) == 1
        [blob] = distinct
        block = iterate_1d(cantor_substitution(), "1", i)
        want = frozenset((x,) for x, c in enumerate(block) if c == "1")
        assert blob.support() == want
    counts = [len(lvl.placements) for lvl in h.levels]
    assert counts == [32, 16, 8, 4]


def test_truncation_flagged_not_fatal():
    # no padding: the outermost blobs at every level exit the window
    word = iterate_1d(cantor_substitution(), "1", 4)
    p = Pattern.from_word(word)
    h = build_hierarchy(p, CANTOR_RADII)
    top = h.levels[-1]
    assert all(pl.truncated for pl in top.placements)


def test_block_pattern_hierarchy_distinct_counts():
    # oracle-computed: at radius m1 the slice's adjacent seed blocks merge
    # (closest cells sit at L1 distance 2 <= 3), giving 3 distinct shapes,
    # not a clean one-per-seed split
    from blobshift.substitution import block_side, block_spec, build_unbounded_rows
    spec = block_spec(2)
    p = build_unbounded_rows(spec, 4, 1)
    radii = tuple(block_side(spec, i) for i in (1, 2, 3))
    h = build_hierarchy(pad(p, radii[-1]), radii)
    shapes = [(len(lvl.placements), len(lvl.distinct())) for lvl in h.levels]
    assert shapes == [(13, 3), (4, 3), (1, 1)]


def test_cell_conservation_across_levels():
    p = cantor_pattern(5)
    h = build_hierarchy(p, (2, 4, 10))
    total = len(p.support())
    for level in h.levels:
        cells = sum(len(pl.blob.support()) for pl in level.placements)
        assert cells == total


# --------------------------------------------------------------------- axioms


def test_cantor_axioms_pass_four_levels():
    report = verify_axioms(build_hierarchy(cantor_pattern(6), CANTOR_RADII))
    assert len(report) == 3
    for pair in report:
        assert pair.checked > 0
        assert pair.passed(), pair


def test_repeated_single_blob_fails_split():
    # two copies of one blob far apart: bigger radii only re-pad them
    cells = {(0,): "1", (2,): "1", (100,): "1", (102,): "1"}
    p = pad(Pattern(BINARY, cells), 6)
    report = verify_axioms(build_hierarchy(p, (2, 4)))
    [pair] = report
    assert not pair.splits_in_two
    assert pair.counterexample["axiom"] == "splits_in_two"
    assert pair.glue_exact and pair.contains_all


def test_plus_fractal_fails_split_axiom():
    report = verify_axioms(build_hierarchy(plus_pattern(4), (1, 2)))
    [pair] = report
    assert pair.checked == 1
    assert not pair.splits_in_two
    assert pair.glue_exact and pair.contains_all


def test_axiom_counts_conserved_inside_parents():
    p = cantor_pattern(5)
    h = build_hierarchy(p, (2, 4, 10))
    from blobshift.blobfractal import _constituents
    for lower, upper in zip(h.levels, h.levels[1:]):
        for pl in upper.placements:
            if pl.truncated:
                continue
            parts = _constituents(p, pl, lower.radius)
            assert sum(len(q.blob.support()) for q in parts) == \
                len(pl.blob.support())


def test_heterogeneous_parents_fail_contains_all():
    # two far-apart parents with different contents: neither contains a
    # translate of the other's blob type
    cells = {(0,): "1", (40,): "1", (42,): "1"}
    p = pad(Pattern(BINARY, cells), 10)
    h = build_hierarchy(p, (2, 10))
    [pair] = verify_axioms(h)
    assert pair.checked == 2
    assert not pair.contains_all
    assert not pair.splits_in_two
    assert pair.glue_exact


# ------------------------------------------------------------------ classify


def test_classify_single_point():
    p = pad(Pattern(BINARY, {(0,): "1"}), 6)
    verdict = classify(p, (1, 2, 4), 50)
    assert verdict.tag == "finite_point"


def test_classify_staircase_unbounded():
    cells = {}
    x = y = 0
    while len(cells) < 300:
        cells[(x, y)] = "1"
        if len(cells) % 2:
            y += 1
        else:
            x += 1
    p = pad(Pattern(BINARY, cells), 1)
    verdict = classify(p, (1, 2), 100)
    assert verdict.tag == "unbounded_component"
    assert verdict.radius == 1
    assert verdict.witness_length >= 100


def test_classify_cantor_blob_fractal():
    verdict = classify(cantor_pattern(6), CANTOR_RADII, 100)
    assert verdict.tag == "blob_fractal"
    assert verdict.levels_verified >= 4


def test_classify_without_a_passing_pair_is_inconclusive():
    # two isolated ones 51 cells apart: no level pair passes the axioms
    p = pad(Pattern(BINARY, {(0,): "1", (51,): "1"}), 30)
    verdict = classify(p, (1, 2, 4), 100)
    assert [pair.passed() for pair in verdict.report] == [False, False]
    assert verdict.tag == "inconclusive"
    assert verdict.levels_verified == 1


def test_classify_plus_unbounded():
    verdict = classify(plus_pattern(4), (1, 2), 50)
    assert verdict.tag == "unbounded_component"
    assert verdict.radius == 1
    assert verdict.witness_length >= 50


def test_classify_monotone_in_window():
    # growing the Cantor window never flips the fractal verdict to finite
    for level in (4, 5, 6):
        verdict = classify(cantor_pattern(level), CANTOR_RADII[:level - 1], 100)
        assert verdict.tag == "blob_fractal"


def test_auto_radii_stabilizes():
    p = pad(Pattern(BINARY, {(0,): "1"}), 8)
    radii = auto_radii(p)
    assert radii[0] == 1
    assert all(b == 2 * a for a, b in zip(radii, radii[1:]))
    assert len(radii) <= 3
