"""Move-word conjugacy, visit profiles, cut paths, classification."""
import random
from collections import Counter
from itertools import accumulate

import pytest

from blobshift.paths import (
    _is_cut,
    HeightWord,
    MoveWord,
    always_up,
    ascension_constant,
    classify_path_space,
    cut_path_search,
    deep_zigzag,
    derivative,
    drift_zigzag,
    floor_zigzag,
    format_moves,
    integrate,
    move_word,
    normalize_heights,
    parse_moves,
    thue_morse_moves,
    visit_profile,
)
from blobshift.substitution import iterate_1d


def zig(word: str) -> MoveWord:
    return parse_moves(word)


# ------------------------------------------------------------------ conjugacy


def test_derivative_ramp():
    assert derivative(HeightWord((0, 1, 2, 3))).moves == (1, 1, 1)


def test_derivative_of_deep_zigzag_image():
    assert derivative(HeightWord((0, 1, 2, 1, 0, 1, 2))).moves == \
        (1, 1, -1, -1, 1, 1)


def test_integrate_examples():
    assert integrate(zig("++--++")).heights == (0, 1, 2, 1, 0, 1, 2)
    assert integrate(move_word([])).heights == (0,)
    assert integrate(move_word([-1, -1, -1])).heights == (0, -1, -2, -3)


def test_round_trips_random():
    rng = random.Random(11)
    for _ in range(10 ** 4):
        moves = tuple(rng.choice((-2, -1, 0, 1, 2))
                      for _ in range(rng.randrange(1, 12)))
        w = move_word(moves, 2)
        assert derivative(integrate(w)).moves == moves
        heights = integrate(w).heights
        assert normalize_heights(heights).heights == heights


def test_shift_equivariance_random():
    rng = random.Random(12)
    for _ in range(10 ** 4):
        moves = [rng.choice((-1, 1)) for _ in range(14)]
        heights = [0] + list(accumulate(moves))
        j = rng.randrange(0, 8)
        window = heights[j:j + 6]
        shifted = derivative(normalize_heights(window))
        assert shifted.moves == tuple(moves[j:j + 5])


# ------------------------------------------------------------------- profiles


def profile_oracle(word: str) -> Counter:
    mv = [1 if c == "+" else -1 for c in word]
    return Counter([0] + list(accumulate(mv)))


def test_visit_profile_small():
    assert visit_profile(zig("++--++")).counts == {0: 2, 1: 3, 2: 2}
    assert visit_profile(zig("+")).counts == {0: 1, 1: 1}
    assert visit_profile(zig("++-")).counts == {0: 1, 1: 2, 2: 1}


def test_deep_zigzag_counts_double_exponentially():
    word = "+"
    sizes = []
    for n in range(0, 9):
        prof = visit_profile(zig(word))
        assert prof.min_count() >= 2 ** n
        assert dict(prof.counts) == dict(profile_oracle(word))
        sizes.append(len(prof.counts))
        word = deep_zigzag().apply(word)
    # support sizes follow s(n) = 2 s(n-1) - 1, strictly increasing
    assert sizes == [2, 3, 5, 9, 17, 33, 65, 129, 257]
    assert all(b == 2 * a - 1 for a, b in zip(sizes, sizes[1:]))


def test_floor_zigzag_profile_law():
    # computed law: support [0, n+1], floor visited once, min over the
    # rest equals min(n + 1, 2^(n-1)); the bound 2^(n-1) holds up to n = 3
    # and the boundary heights grow linearly afterwards
    word = "+"
    for n in range(1, 13):
        word = floor_zigzag().apply(word)
        prof = visit_profile(zig(word))
        assert prof.support() == list(range(0, n + 2))
        assert prof[0] == 1
        rest = min(prof[i] for i in range(1, n + 2))
        assert rest == min(n + 1, 2 ** (n - 1))


def test_drift_zigzag_center_counts_stabilize():
    # counts around the two-sided center settle to [2,2,2,1,2,2,2] from
    # the second level on
    stable = None
    for m in range(2, 9):
        half = iterate_1d(drift_zigzag(), "+", m)
        word = half + half
        heights = [0] + list(accumulate(1 if c == "+" else -1 for c in word))
        center = heights[len(half)]
        z = Counter(h - center for h in heights)
        window = [z.get(d, 0) for d in range(-3, 4)]
        if stable is None:
            stable = window
        assert window == stable
    assert stable == [2, 2, 2, 1, 2, 2, 2]


# ------------------------------------------------------------------ ascension


def ascension_oracle(moves):
    n = len(moves)
    for m in range(1, n + 1):
        if all(sum(moves[j:j + m]) > 0 for j in range(n - m + 1)):
            return m
    return None


def test_ascension_examples():
    assert ascension_constant(zig("+++")) == 1
    assert ascension_constant(zig("++--++")) == 5
    assert ascension_constant(zig("---")) is None


def test_ascension_matches_oracle():
    rng = random.Random(13)
    for _ in range(200):
        moves = tuple(rng.choice((-1, 1)) for _ in range(rng.randrange(1, 14)))
        assert ascension_constant(move_word(moves)) == ascension_oracle(moves)


# ------------------------------------------------------------------ cut paths


def full_shift_language(length):
    words = [()]
    for _ in range(length):
        words = [w + (m,) for w in words for m in (-1, 1)]
    return [move_word(w) for w in words]


def factor_language(word: str, length: int):
    mv = [1 if c == "+" else -1 for c in word]
    return [move_word(tuple(mv[i:i + length]))
            for i in range(len(mv) - length + 1)]


def test_cut_path_full_shift_absent():
    lang = full_shift_language(12)
    assert cut_path_search(lang, 1, 10) is None


def test_cut_path_monotone_language():
    lang = [move_word((1,) * 8)]
    found = cut_path_search(lang, 1, 8)
    assert found is not None
    assert found.moves == (1,)


def test_cut_path_floor_zigzag_absent():
    word = iterate_1d(floor_zigzag(), "+", 9)
    lang = factor_language(word, 20)
    assert cut_path_search(lang, 1, 16) is None


def oracle_is_cut(cand, factors, length, moves, r, horizon) -> bool:
    """The one-sided cut searches written out once per direction."""
    heights = list(accumulate(cand))
    stack = [(cand, heights[-1])]
    while stack:
        word, h = stack.pop()
        if len(word) >= horizon:
            continue
        for m in moves:
            nxt = word + (m,)
            l = min(len(nxt), length)
            if nxt[-l:] not in factors[l]:
                continue
            nh = h + m
            if 0 <= nh <= r - 1:
                return False
            stack.append((nxt, nh))
    stack = [(cand, 0)]
    while stack:
        word, h = stack.pop()
        if len(word) >= horizon:
            continue
        for m in moves:
            nxt = (m,) + word
            l = min(len(nxt), length)
            if nxt[:l] not in factors[l]:
                continue
            nh = h - m
            if 0 <= nh <= r - 1:
                return False
            stack.append((nxt, nh))
    return True


def test_is_cut_matches_the_oracle():
    rng = random.Random(41)
    drift = [1 if c == "+" else -1
             for c in iterate_1d(drift_zigzag(), "+", 7)]
    cases = [({tuple(drift[i:i + 20]) for i in range(len(drift) - 19)}, 1, 16)]
    for _ in range(300):
        length = rng.randint(1, 9)
        steps = rng.choice([(-1, 1), (-1, 0, 1), (-2, -1, 1, 2), (0, 1),
                            (-1, 0, 2)])
        words = {tuple(rng.choice(steps) for _ in range(length))
                 for _ in range(rng.randint(1, 12))}
        cases.append((words, rng.randint(1, 3), rng.randint(1, length)))
    outcomes = Counter()
    for words, r, horizon in cases:
        length = len(next(iter(words)))
        factors = {l: {w[i:i + l] for w in words
                       for i in range(length - l + 1)}
                   for l in range(1, length + 1)}
        moves = sorted({m for w in words for m in w})
        for l in range(1, horizon // 2 + 1):
            for cand in factors[l]:
                got = _is_cut(cand, factors, moves, r, horizon)
                assert got == oracle_is_cut(cand, factors, length, moves,
                                            r, horizon), (words, cand)
                outcomes[got] += 1
    assert outcomes[True] > 100 and outcomes[False] > 100, outcomes


# -------------------------------------------------------------- serialization


def test_moves_round_trip():
    for text in ("++--", "0+-0", "+2-3+", "-12"):
        assert format_moves(parse_moves(text)) == text


def test_parse_moves_values():
    assert parse_moves("+2-3+0").moves == (2, -3, 1, 0)
    with pytest.raises(ValueError):
        parse_moves("x")


# ------------------------------------------------------------- classification


def test_classify_always_up():
    verdict = classify_path_space(always_up(), 32)
    assert verdict.tag == "ascending"
    assert verdict.constant == 1


def test_classify_descending():
    from blobshift.patterns import Alphabet
    from blobshift.substitution import Substitution1D
    always_down = Substitution1D(Alphabet(("-",), "-"), {"-": "-"})
    verdict = classify_path_space(always_down, 32)
    assert verdict.tag == "descending"
    assert verdict.constant == 1


def test_classify_thue_morse_bounded():
    subst, moves = thue_morse_moves()
    verdict = classify_path_space(subst, 32, moves=moves)
    assert verdict.tag == "bounded"
    assert verdict.constant == 1


def test_classify_deep_zigzag_recurrent():
    verdict = classify_path_space(deep_zigzag(), 32)
    assert verdict.tag == "unbounded_recurrent"
    assert verdict.witness is not None
    assert verdict.details["witness_visits"] >= 32
    # replay: the witness really does visit the strip that often
    heights = integrate(verdict.witness).heights
    visits = sum(1 for h in heights if 0 <= h <= verdict.witness.bound - 1)
    assert visits >= 32


def test_classify_verdict_replay_ascending():
    verdict = classify_path_space(always_up(), 16)
    assert verdict.details["window_length"] >= 4 * 16
    assert verdict.constant == 1


def test_classify_inconclusive_budget():
    # with a tiny witness budget the recurrent case cannot certify
    verdict = classify_path_space(deep_zigzag(), 32, witness_cells=100)
    assert verdict.tag == "inconclusive"


def test_classify_all_rests_is_bounded():
    from blobshift.patterns import Alphabet
    from blobshift.substitution import Substitution1D
    rests = Substitution1D(Alphabet(("0",), "0"), {"0": "0"})
    verdict = classify_path_space(rests, 16)
    assert (verdict.tag, verdict.constant) == ("bounded", 0)
