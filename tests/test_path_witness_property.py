"""The path-layer scans against their per-start, per-window and DFS oracles."""
from collections import Counter
from itertools import accumulate
from operator import ge, le

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from blobshift import paths
from blobshift.paths import (
    _ascension_up_to,
    _recurrence_witness,
    always_up,
    classify_path_space,
    cut_path_search,
    integrate,
    move_word,
    visit_profile,
)
from conftest import bisect_recurrence_witness, windowed_ascension_up_to
from test_paths import CANNED, oracle_cut_path_search, steps_of

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


@st.composite
def long_walks(draw):
    """Walks of up to 600 moves, in runs of one step each, rests included.

    A drawn pool of steps tilts some walks up and some down, so both signs
    find an ascension at some lags, and a start that refutes one lag is
    often the one that refutes the next.
    """
    pool = draw(st.sampled_from([(-3, -2, -1, 0, 1, 2, 3), (-1, 0, 1, 2, 3),
                                 (-3, -2, -1, 0, 1), (-1, 1), (0, 1, 2),
                                 (-2, 0)]))
    size = draw(st.integers(0, 40))
    runs = draw(st.lists(st.tuples(st.sampled_from(pool), st.integers(1, 30)),
                         min_size=size, max_size=size))
    return [step for step, length in runs for _ in range(length)][:600]


@settings(max_examples=150, deadline=None)
@given(long_walks(), st.integers(0, 300))
def test_ascension_on_long_walks_is_the_windowed_scan(moves, m_max):
    heights = walk(moves)
    assert _ascension_up_to(heights, m_max, le) == \
        windowed_ascension_up_to(moves, m_max)
    assert _ascension_up_to(heights, m_max, ge) == \
        windowed_ascension_up_to([-m for m in moves], m_max)


class Counted:
    """A comparison that counts its calls."""

    def __init__(self, op):
        self.op, self.calls = op, 0

    def __call__(self, a, b):
        self.calls += 1
        return self.op(a, b)


# name: (le calls, ge calls) of the lag test on the horizon-512 window;
# rescanning the window for every lag took 69 910, 242 108, 13 095 and
# 769 le calls on the first four. always_up is ascending, so ge never runs
WORK = {"deep": (829, 512), "drift": (11947, 512), "floor": (1066, 512),
        "thue_morse": (513, 512), "always_up": (2048, None)}


@pytest.mark.parametrize("name", sorted(WORK))
def test_ascension_on_the_horizon_windows(monkeypatch, name):
    subst, moves = dict(CANNED, always_up=(always_up(), None))[name]
    calls = dict.fromkeys((le, ge))

    def counted(heights, m_max, fails):
        counter = Counted(fails)
        found = _ascension_up_to(heights, m_max, counter)
        sign = 1 if fails is le else -1
        assert found == windowed_ascension_up_to(steps_of(heights, sign),
                                                 m_max)
        calls[fails] = counter.calls
        return found

    monkeypatch.setattr(paths, "_ascension_up_to", counted)
    classify_path_space(subst, 512, moves=moves)
    # the start that refuted one lag settles most of the next ones
    assert (calls[le], calls[ge]) == WORK[name]


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
