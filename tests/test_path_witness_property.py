"""The path-layer scans against their per-start, per-window and DFS oracles."""
from collections import Counter
from itertools import accumulate
from operator import ge, le

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from blobshift.paths import (
    _ascension_up_to,
    _recurrence_witness,
    cut_path_search,
    integrate,
    move_word,
    visit_profile,
)
from conftest import bisect_recurrence_witness, windowed_ascension_up_to
from test_paths import oracle_cut_path_search

steps = st.integers(-3, 3)
move_lists = st.one_of(
    st.lists(steps, max_size=80),
    st.lists(st.just(0), max_size=80),
    # a walk that never turns back: no height repeats, so a strip holds
    # at most r of its heights and most searches find nothing
    st.lists(st.integers(1, 3), max_size=80),
    st.lists(st.integers(-3, -1), max_size=80),
)


def walk(moves):
    return list(accumulate(moves, initial=0))


@settings(max_examples=600, deadline=None)
@given(move_lists, st.integers(0, 4), st.integers(1, 8))
def test_recurrence_witness_is_the_bisect_search(moves, r, visits):
    assert _recurrence_witness(walk(moves), r, visits) == \
        bisect_recurrence_witness(moves, r, visits)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(1, 3), min_size=1, max_size=80),
       st.integers(0, 4), st.integers(2, 8))
def test_recurrence_witness_without_a_qualifying_strip(moves, r, visits):
    # every strip holds at most max(r, 1) heights of a rising walk
    if visits > max(r, 1):
        assert _recurrence_witness(walk(moves), r, visits) is None
    assert _recurrence_witness(walk(moves), r, visits) == \
        bisect_recurrence_witness(moves, r, visits)


@settings(max_examples=400, deadline=None)
@given(move_lists, st.integers(0, 90))
def test_ascension_is_the_windowed_scan(moves, m_max):
    assert _ascension_up_to(walk(moves), m_max, le) == \
        windowed_ascension_up_to(moves, m_max)


@settings(max_examples=200, deadline=None)
@given(move_lists, st.integers(0, 90))
def test_descension_is_the_windowed_scan_of_the_reversed_steps(moves, m_max):
    assert _ascension_up_to(walk(moves), m_max, ge) == \
        windowed_ascension_up_to([-m for m in moves], m_max)


@settings(max_examples=300, deadline=None)
@given(move_lists)
def test_visit_profile_counts_the_integrated_heights(moves):
    word = move_word(moves)
    heights = integrate(word).heights
    profile = visit_profile(word)
    assert profile.counts == Counter(heights)
    assert profile.total == len(heights)


@st.composite
def cut_cases(draw):
    """A language of one word length (0 allowed) with repeats, r, horizon."""
    length = draw(st.integers(0, 8))
    alphabet = draw(st.sampled_from([(-1, 1), (-1, 0, 1), (-2, -1, 1, 2),
                                     (0, 1), (-1, 0, 2), (0,)]))
    word = st.lists(st.sampled_from(alphabet), min_size=length,
                    max_size=length).map(tuple)
    words = draw(st.lists(word, min_size=1, max_size=10))
    words += draw(st.lists(st.sampled_from(words), min_size=1, max_size=3))
    r = draw(st.integers(0, 3))
    horizon = draw(st.sampled_from([0, length]) | st.integers(0, length))
    return words, r, horizon


@settings(max_examples=500, deadline=None)
@given(cut_cases())
def test_cut_path_search_is_the_oracle_search(case):
    words, r, horizon = case
    assert cut_path_search([move_word(w) for w in words], r, horizon) == \
        oracle_cut_path_search(words, r, horizon)
