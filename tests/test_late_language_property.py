"""The late-language search against the plain scan, on drawn windows."""
from functools import lru_cache

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from blobshift.primes import late_language, sieve
from conftest import scan_late_language

window_of = lru_cache(maxsize=None)(sieve)


@st.composite
def late_cases(draw):
    # small limits put length + 1 past the last position, so the search
    # has nothing left after the direct slices
    limit = draw(st.one_of(st.integers(2, 40), st.integers(2, 5000)))
    length = draw(st.integers(1, min(16, limit - 1)))
    most = limit - length
    threshold = draw(st.one_of(
        st.integers(0, max(0, length - 1)), st.just(length),
        st.just(length + 1), st.integers(0, most)).filter(lambda t: t <= most))
    return limit, length, threshold


@settings(max_examples=400, deadline=None)
@given(late_cases())
def test_late_language_is_the_scan(case):
    limit, length, threshold = case
    window = window_of(limit)
    assert late_language(window, length, threshold) == \
        scan_late_language(window, length, threshold)
