"""Blob hierarchies: levels, the three axioms, the trichotomy."""
import json
import random
from typing import NamedTuple

from blobshift.blobfractal import (
    BlobHierarchy,
    BlobPlacement,
    FractalVerdict,
    HierarchyLevel,
    LevelPairReport,
    auto_radii,
    build_hierarchy,
    classify,
    verify_axioms,
)
from blobshift.cli import main
from blobshift.patterns import (
    BINARY,
    Alphabet,
    Pattern,
    format_pattern,
    pad,
)
from blobshift.substitution import (
    cantor_substitution,
    iterate_1d,
    iterate_2d,
    plus_substitution,
)

from conftest import (DictPattern, ball_components, dilate, oracle_zero_glue,
                      three_bfs_geodesic)

CANTOR_RADII = (2, 4, 10, 28)  # 3^(i-1) + 1


def cantor_pattern(level: int) -> Pattern:
    word = iterate_1d(cantor_substitution(), "1", level)
    return pad(Pattern.from_word(word), CANTOR_RADII[-1])


def plus_pattern(level: int) -> Pattern:
    p = iterate_2d(plus_substitution(), Pattern(BINARY, {(0, 0): "1"}), level)
    return pad(p, 2)


# -------------------------------------------------------------------- oracles
#
# The axioms checked by rescanning: every upper blob's support is split
# into r-components afresh, each blob cut from the window and then moved
# to its anchor.


class PieceBlob(NamedTuple):
    """The oracle's blob: its radius and its piece at canonical place."""

    radius: int
    pattern: Pattern

    def support(self) -> frozenset:
        return self.pattern.support()


def blob_key(blob) -> frozenset:
    """What makes two blobs equal: their support cells and values."""
    return frozenset((c, blob.pattern.value(c)) for c in blob.support())


def oracle_scan(pattern: Pattern, r: int, cells) -> list[BlobPlacement]:
    out = []
    for comp in ball_components(cells, r):
        anchor = min(comp)
        ball = dilate(comp, r)
        inside = {c: pattern.value(c) for c in ball if c in pattern}
        piece = Pattern(pattern.alphabet, inside)
        blob = PieceBlob(r, piece.translate(tuple(-a for a in anchor)))
        out.append(BlobPlacement(anchor, blob, len(inside) < len(ball)))
    return out


class OracleHierarchy(NamedTuple):
    """A source and levels put together by hand, from any windows."""

    source: Pattern
    levels: tuple[HierarchyLevel, ...]


def oracle_hierarchy(pattern: Pattern, radii) -> OracleHierarchy:
    return OracleHierarchy(pattern, tuple(
        HierarchyLevel(r, tuple(oracle_scan(pattern, r, pattern.support())))
        for r in radii))


def oracle_constituents(pattern: Pattern, placement: BlobPlacement, r: int):
    return oracle_scan(pattern, r, placement.absolute_support())


def oracle_verify_axioms(hierarchy: BlobHierarchy | OracleHierarchy):
    pattern = hierarchy.source
    reports = []
    for lower, upper in zip(hierarchy.levels, hierarchy.levels[1:]):
        lower_set = set(map(blob_key, lower.distinct()))
        checked = skipped = 0
        glue_exact = contains_all = splits = True
        counterexample = None
        for pl in upper.placements:
            if pl.truncated:
                skipped += 1
                continue
            checked += 1
            parts = oracle_constituents(pattern, pl, lower.radius)
            part_blobs = {blob_key(p.blob) for p in parts}
            if len(parts) < 2 and splits:
                splits = False
                counterexample = counterexample or {
                    "axiom": "splits_in_two", "anchor": list(pl.anchor),
                    "constituents": len(parts)}
            missing = lower_set - part_blobs
            if missing and contains_all:
                contains_all = False
                counterexample = counterexample or {
                    "axiom": "contains_all", "anchor": list(pl.anchor),
                    "missing": len(missing)}
            if part_blobs - lower_set and glue_exact:
                glue_exact = False
                counterexample = counterexample or {
                    "axiom": "glue_exact", "anchor": list(pl.anchor),
                    "reason": "constituent missing from the lower level"}
            if glue_exact:
                rebuilt = None
                for part in parts:
                    piece = DictPattern.of(part.blob.pattern).translate(
                        part.anchor)
                    rebuilt = (piece if rebuilt is None
                               else oracle_zero_glue(rebuilt, piece))
                target = pl.absolute_support()
                if not (rebuilt is not None and rebuilt.support() == target
                        and all(rebuilt.values[c] == pattern.value(c)
                                for c in target)):
                    glue_exact = False
                    counterexample = counterexample or {
                        "axiom": "glue_exact", "anchor": list(pl.anchor)}
        reports.append(LevelPairReport(
            lower.radius, upper.radius, checked, skipped,
            glue_exact, contains_all, splits, counterexample))
    return tuple(reports)


def oracle_classify(pattern: Pattern, radii, threshold: int) -> FractalVerdict:
    hierarchy = oracle_hierarchy(pattern, radii)
    if not pattern.support():
        return FractalVerdict("finite_point")
    for r in radii:
        witness = three_bfs_geodesic(pattern, r)
        if len(witness) >= threshold:
            return FractalVerdict("unbounded_component", radius=r,
                                  witness_length=len(witness))
    suffix = 0
    prev_support = None
    for level in reversed(hierarchy.levels):
        if len(level.placements) != 1 or level.placements[0].truncated:
            break
        support = level.placements[0].absolute_support()
        if prev_support is not None and support != prev_support:
            break
        prev_support = support
        suffix += 1
    if suffix >= 2:
        return FractalVerdict("finite_point", levels_verified=suffix)
    report = oracle_verify_axioms(hierarchy) if len(radii) >= 2 else ()
    verified = 1
    for pair in report:
        if not pair.passed():
            break
        verified += 1
    tag = "blob_fractal" if verified >= 2 else "inconclusive"
    return FractalVerdict(tag, levels_verified=verified, report=report)


def placements_in_full(hierarchy: BlobHierarchy | OracleHierarchy) -> list:
    """Every level's placements with the whole blob pattern, padding too."""
    return [(lvl.radius, [(pl.anchor, pl.blob.radius, pl.blob.pattern,
                           pl.truncated) for pl in lvl.placements])
            for lvl in hierarchy.levels]


def random_window(rng: random.Random) -> Pattern:
    """A 1D or 2D, binary or ternary window, padded, sometimes with holes."""
    alphabet = rng.choice([BINARY, Alphabet(("0", "1", "2"), "0")])
    density = rng.choice([0.1, 0.25, 0.5])
    dim = rng.choice([1, 2])
    cells = ([(x,) for x in range(rng.randint(1, 40))] if dim == 1 else
             [(x, y) for x in range(rng.randint(1, 9))
              for y in range(rng.randint(1, 9))])
    values = {c: (rng.choice(alphabet.symbols[1:])
                  if rng.random() < density else "0") for c in cells}
    window = pad(Pattern(alphabet, values), rng.randint(0, 6))
    if rng.random() < 0.3:
        holes = rng.sample(sorted(window.cells()), len(window) // 10)
        window = Pattern(alphabet, {c: v for c, v in window.items()
                                    if c not in holes})
    return window


# ------------------------------------------------------------------ hierarchy


def test_single_cell_hierarchy():
    p = pad(Pattern(BINARY, {(0,): "1"}), 4)
    h = build_hierarchy(p, (1, 2, 4))
    for level in h.levels:
        assert len(level.placements) == 1
        assert not level.placements[0].truncated
        assert sorted(level.placements[0].blob.support()) == [(0,)]


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
    for lower, upper in zip(h.levels, h.levels[1:]):
        for pl in upper.placements:
            if pl.truncated:
                continue
            parts = oracle_constituents(p, pl, lower.radius)
            assert sum(len(q.blob.support()) for q in parts) == \
                len(pl.blob.support())


def test_hierarchy_axioms_and_verdicts_match_the_rescanning_oracle():
    rng = random.Random(0xA710)
    passing = pairs = 0
    tags = set()
    for _ in range(320):
        window = random_window(rng)
        radii = sorted(rng.sample(range(9), rng.randint(2, 4)))
        h = build_hierarchy(window, radii)
        assert placements_in_full(h) == \
            placements_in_full(oracle_hierarchy(window, radii))
        report = verify_axioms(h)
        oracle_report = oracle_verify_axioms(h)
        assert report == oracle_report
        # axiom (a) is a lemma on one window: the oracle's rebuild agrees
        assert all(pair.glue_exact for pair in oracle_report)
        pairs += len(report)
        passing += sum(pair.passed() for pair in report)
        threshold = rng.choice([3, 8, 50])
        verdict = classify(window, radii, threshold)
        assert verdict == oracle_classify(window, radii, threshold)
        tags.add(verdict.tag)
    assert pairs > 600 and passing > 20, (pairs, passing)
    assert tags == {"finite_point", "unbounded_component", "blob_fractal",
                    "inconclusive"}


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


def test_first_counterexample_is_kept_when_glue_fails_twice():
    # levels scanned from one window paired with another as the source,
    # which no BlobHierarchy can hold: the oracle's glue fails at two
    # upper blobs, first at 8, and its report keeps that first
    # counterexample
    window = Pattern.from_word("110101001010100011000")
    other = Pattern.from_word("110101001010110001000")
    levels = build_hierarchy(window, (1, 2)).levels
    (pair,) = oracle_verify_axioms(OracleHierarchy(other, levels))
    assert not (pair.glue_exact or pair.contains_all or pair.splits_in_two)
    assert pair.counterexample == {"axiom": "glue_exact", "anchor": [8]}


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


def test_blob_fractal_needs_the_first_pair_to_pass():
    # the second pair passes, the first does not: levels_verified counts
    # only the leading run of passing pairs, so the tag is inconclusive
    p = pad(Pattern.from_word(iterate_1d(cantor_substitution(), "1", 4)), 28)
    verdict = classify(p, (2, 3, 4), 1000)
    assert [pair.passed() for pair in verdict.report] == [False, True]
    assert verdict.tag == "inconclusive"
    assert verdict.levels_verified == 1


def test_a_finite_point_counts_its_single_blob_levels(tmp_path, capsys):
    # levels_verified counts levels here, not passing pairs: none is checked
    window = pad(Pattern.from_word("111"), 10)
    verdict = classify(window, (1, 2, 3, 4), 100)
    assert verdict.tag == "finite_point"
    assert verdict.levels_verified == 4
    assert verdict.report == ()
    (tmp_path / "w.pat").write_text(format_pattern(window))
    assert main(["fractal", "classify", "--pattern", str(tmp_path / "w.pat"),
                 "--radii", "1,2,3,4", "--threshold", "100"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert (result["tag"], result["levels_verified"], result["pairs"]) == (
        "finite_point", 4, [])


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


# ------------------------------------------------------------- line gate


def drive_blobfractal():
    """Build, verify and classify hierarchies of seeded random windows."""
    rng = random.Random(0x11E5)
    for _ in range(100):
        window = random_window(rng)
        radii = sorted(rng.sample(range(9), rng.randint(2, 4)))
        verify_axioms(build_hierarchy(window, radii))
        classify(window, radii, rng.choice([3, 8, 50]))
        auto_radii(window)
