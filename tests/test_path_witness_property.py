"""The path-layer scans against their per-start and per-window oracles."""
from collections import Counter

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from blobshift.paths import (
    _ascension_up_to,
    _recurrence_witness,
    integrate,
    move_word,
    visit_profile,
)
from conftest import bisect_recurrence_witness, windowed_ascension_up_to

steps = st.integers(-3, 3)
move_lists = st.one_of(
    st.lists(steps, max_size=80),
    st.lists(st.just(0), max_size=80),
    # a walk that never turns back: no height repeats, so a strip holds
    # at most r of its heights and most searches find nothing
    st.lists(st.integers(1, 3), max_size=80),
    st.lists(st.integers(-3, -1), max_size=80),
)


@settings(max_examples=600, deadline=None)
@given(move_lists, st.integers(0, 4), st.integers(1, 8))
def test_recurrence_witness_is_the_bisect_search(moves, r, visits):
    assert _recurrence_witness(moves, r, visits) == \
        bisect_recurrence_witness(moves, r, visits)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(1, 3), min_size=1, max_size=80),
       st.integers(0, 4), st.integers(2, 8))
def test_recurrence_witness_without_a_qualifying_strip(moves, r, visits):
    # every strip holds at most max(r, 1) heights of a rising walk
    if visits > max(r, 1):
        assert _recurrence_witness(moves, r, visits) is None
    assert _recurrence_witness(moves, r, visits) == \
        bisect_recurrence_witness(moves, r, visits)


@settings(max_examples=400, deadline=None)
@given(move_lists, st.integers(0, 90))
def test_ascension_is_the_windowed_scan(moves, m_max):
    assert _ascension_up_to(moves, m_max) == \
        windowed_ascension_up_to(moves, m_max)


@settings(max_examples=300, deadline=None)
@given(move_lists)
def test_visit_profile_counts_the_integrated_heights(moves):
    word = move_word(moves)
    heights = integrate(word).heights
    profile = visit_profile(word)
    assert profile.counts == Counter(heights)
    assert profile.total == len(heights)
