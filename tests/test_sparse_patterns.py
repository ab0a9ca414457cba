"""Supports and row intervals against the dict-per-cell oracle.

Random 1D and 2D windows over two alphabets, with ``?`` holes that split
rows, at radii 0-4: every view and operation of :class:`Pattern` must
agree with :class:`conftest.DictPattern` and the operations kept with it.
"""
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blobshift.blobfractal import build_hierarchy
from blobshift.errors import GlueConflict, PaddingUnavailable
from blobshift.patterns import (
    BINARY,
    Alphabet,
    Pattern,
    blobs,
    format_pattern,
    pad,
    parse_pattern,
    rows_of,
    write_rows,
    zero_glue,
)
from blobshift.substitution import Substitution2D, iterate_2d, plus_substitution
from conftest import (
    DictPattern,
    oracle_blob_scan,
    oracle_pad,
    oracle_rows_of,
    oracle_write_rows,
    oracle_zero_glue,
)
from test_substitution import iterate_2d_oracle

TERNARY = Alphabet(("0", "1", "2"), "0")
RADII = range(7)


@st.composite
def windows(draw, dim=None, max_side=9):
    """A window as text-order values: holes, zeros and nonzeros at random."""
    dim = dim or draw(st.sampled_from([1, 2]))
    alphabet = draw(st.sampled_from([BINARY, TERNARY]))
    width = draw(st.integers(0, 3 * max_side if dim == 1 else max_side))
    height = draw(st.integers(1, max_side)) if dim == 2 else 1
    x0, y0 = draw(st.integers(-5, 5)), draw(st.integers(-5, 5))
    kinds = draw(st.lists(st.sampled_from("??000011112"),
                          min_size=width * height, max_size=width * height))
    values = {}
    for ix, kind in enumerate(kinds):
        x, row = x0 + ix % width, ix // width
        cell = (x,) if dim == 1 else (x, y0 + height - 1 - row)
        if kind != "?":
            values[cell] = kind if kind in alphabet.symbols else "1"
    return Pattern(alphabet, values)


def as_dict(pattern):
    return dict(pattern.items())


def text_order(cells):
    return sorted(cells, key=lambda c: (-c[1], c[0]) if len(c) == 2 else c)


def check_views(p, oracle):
    assert list(p.cells()) == text_order(oracle.values)
    assert as_dict(p) == oracle.values
    assert len(p) == len(oracle.values)
    assert p.support() == oracle.support()
    assert p.bounding_box() == oracle.bounding_box()
    assert p.dimension == oracle.dimension
    box = oracle.bounding_box()
    if box is None:
        return
    lo, hi = box
    around = ([(x,) for x in range(lo[0] - 1, hi[0] + 2)] if len(lo) == 1
              else [(x, y) for x in range(lo[0] - 1, hi[0] + 2)
                    for y in range(lo[1] - 1, hi[1] + 2)])
    for cell in around:
        want = oracle.values.get(cell)
        assert (cell in p) == (want is not None)
        assert p.get(cell, "?") == (want or "?")
        if want is None:
            with pytest.raises(KeyError):
                p.value(cell)
        else:
            assert p.value(cell) == want


def check_derived(p, oracle, radii=(1,)):
    """Views, padding, rows and the text round trip of p against oracle."""
    check_views(p, oracle)
    assert p == Pattern(p.alphabet, oracle.values)
    assert hash(p) == hash(Pattern(p.alphabet, oracle.values))
    for r in radii:
        check_views(pad(p, r), oracle_pad(oracle, r))
    assert [as_dict(row) for row in rows_of(p)] == \
        [row.values for row in oracle_rows_of(oracle)]
    assert write_rows(p) == oracle_write_rows(oracle)
    assert parse_pattern(format_pattern(p)) == p


@settings(max_examples=150, deadline=None)
@given(windows())
def test_views_pad_and_rows_match_the_oracle(p):
    check_derived(p, DictPattern.of(p), RADII)


@settings(max_examples=120, deadline=None)
@given(windows(), st.integers(0, 4))
def test_blobs_flags_and_translates_match_the_oracle(p, margin):
    check_blobs(pad(p, margin))


def check_blobs(window, radii=RADII):
    """The blob scans of window, their blobs and translates."""
    oracle = DictPattern.of(window)
    for r in radii:
        want = oracle_blob_scan(oracle, r)
        [level] = build_hierarchy(window, [r]).levels
        got = [(pl.anchor, DictPattern.of(pl.blob.pattern), pl.truncated)
               for pl in level.placements]
        assert got == want
        for pl, (anchor, blob, _) in zip(level.placements, want):
            check_derived(pl.blob.pattern, blob)
            moved = pl.blob.pattern.translate(anchor)
            check_derived(moved, blob.translate(anchor))
            assert moved.translate(tuple(-a for a in anchor)) == pl.blob.pattern
        if any(truncated for _, _, truncated in want):
            with pytest.raises(PaddingUnavailable):
                blobs(window, r)
        else:
            assert [(anchor, as_dict(blob.pattern))
                    for blob, anchor in blobs(window, r)] == \
                [(anchor, blob.values) for anchor, blob, _ in want]


def glue_outcome(glue, p, q):
    try:
        return as_dict(glue(p, q)) if glue is zero_glue else glue(p, q).values
    except GlueConflict as exc:
        return ("conflict", exc.cell)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_zero_glue_matches_the_oracle(data):
    p = data.draw(windows())
    q = data.draw(windows(dim=p.dimension if len(p) else None))
    if q.alphabet != p.alphabet:
        q = Pattern(p.alphabet, {c: "1" if s != "0" else "0"
                                 for c, s in q.items()})
    shift = data.draw(st.tuples(*[st.integers(-6, 6)] * q.dimension))
    check_glue(p, q.translate(shift))


def check_glue(p, q):
    """zero_glue of p and q both ways against the oracle's glue."""
    want = glue_outcome(oracle_zero_glue, DictPattern.of(p), DictPattern.of(q))
    assert glue_outcome(zero_glue, p, q) == want
    assert glue_outcome(zero_glue, q, p) == want
    if not isinstance(want, tuple):
        assert zero_glue(p, q) == Pattern(p.alphabet, want)


@settings(max_examples=100, deadline=None)
@given(windows(), windows())
def test_equality_and_hash_follow_the_oracle(p, q):
    check_equality(p, q)


def check_equality(p, q):
    """Equality and hash of p and q, and a translate and back, against the
    oracle."""
    same = DictPattern.of(p) == DictPattern.of(q)
    assert (p == q) == same
    if same:
        assert hash(p) == hash(q)
    v = (3, -2)[:p.dimension]
    back = tuple(-a for a in v)
    assert p.translate(v).translate(back) == p
    assert hash(p.translate(v).translate(back)) == hash(p)


def test_glue_conflict_names_the_first_cell_in_cell_order():
    p = Pattern.from_rows(["1.1", "..."])
    q = Pattern.from_rows(["..1", "1.."]).translate((0, 0))
    with pytest.raises(GlueConflict) as caught:
        zero_glue(p, q)
    assert caught.value.cell == (0, 1)
    with pytest.raises(GlueConflict) as caught:
        zero_glue(q, p)
    assert caught.value.cell == (0, 1)


def test_sparse_plus_iterate_stores_only_its_support():
    one = Pattern(BINARY, {(0, 0): "1"})
    tracemalloc.start()
    try:
        level = iterate_2d(plus_substitution(), one, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(level) == 3 ** 12 == 531441
    assert len(level.support()) == 5 ** 6 == 15625
    assert peak < 16 * 2 ** 20


def test_dense_zero_block_iterates_every_domain_cell():
    zero_grows = Substitution2D(BINARY, 2, {
        "0": Pattern.from_rows(["1.", ".."]),
        "1": Pattern.from_rows(["..", ".1"])})
    seed = Pattern.from_rows(["1?", ".1"])
    assert iterate_2d(zero_grows, seed, 3) == iterate_2d_oracle(zero_grows,
                                                                seed, 3)
