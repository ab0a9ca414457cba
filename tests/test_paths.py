"""Move-word conjugacy, visit profiles, cut paths, classification."""
import random
from collections import Counter
from itertools import accumulate
from operator import ge, le

import pytest

from blobshift import paths
from blobshift.errors import SizeLimit
from blobshift.paths import (
    HeightWord,
    MoveWord,
    always_up,
    classify_path_space,
    cut_path_search,
    deep_zigzag,
    derivative,
    drift_zigzag,
    floor_zigzag,
    format_moves,
    integrate,
    move_substitution,
    move_word,
    normalize_heights,
    parse_move_symbol,
    parse_moves,
    thue_morse_moves,
    visit_profile,
)
from blobshift.substitution import iterate_1d
from conftest import bisect_recurrence_witness, windowed_ascension_up_to


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


def ascension(moves, fails=le):
    """classify_path_space's kernel: ascending (le) or descending (ge)."""
    heights = list(accumulate(moves, initial=0))
    return paths._ascension_up_to(heights, len(moves), fails)


def test_ascension_examples():
    assert ascension(zig("+++").moves) == 1
    assert ascension(zig("++--++").moves) == 5
    assert ascension(zig("---").moves) is None
    assert ascension(zig("---").moves, ge) == 1
    assert ascension(zig("--++--").moves, ge) == 5


def test_ascension_matches_oracle():
    rng = random.Random(13)
    for _ in range(200):
        moves = tuple(rng.choice((-1, 1)) for _ in range(rng.randrange(1, 14)))
        assert ascension(moves) == ascension_oracle(moves)
        assert ascension(moves, ge) == ascension_oracle([-m for m in moves])


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


def test_cut_path_of_empty_words_is_none():
    # L = 0 allows only horizons <= 0, so there is no candidate to try
    assert cut_path_search([move_word(())] * 3, 1, 0) is None
    assert cut_path_search([move_word(())], 0, -2) is None


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


def oracle_cut_verdicts(words, r, horizon):
    """(candidate, oracle_is_cut) in the search's order: shortest, then least."""
    length = len(next(iter(words)))
    factors = {l: {w[i:i + l] for w in words for i in range(length - l + 1)}
               for l in range(1, length + 1)}
    moves = sorted({m for w in words for m in w})
    return [(cand, oracle_is_cut(cand, factors, length, moves, r, horizon))
            for l in range(1, horizon // 2 + 1)
            for cand in sorted(factors[l])]


def oracle_cut_path_search(words, r, horizon):
    """cut_path_search as the first candidate the oracle certifies."""
    cut = next((cand for cand, ok in oracle_cut_verdicts(words, r, horizon)
                if ok), None)
    if cut is None:
        return None
    return MoveWord(cut, max(abs(m) for w in words for m in w))


def test_is_cut_matches_the_oracle():
    # whole searches, each against the first candidate the oracle certifies
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
    outcomes, found = Counter(), Counter()
    for words, r, horizon in cases:
        outcomes.update(ok for _, ok in oracle_cut_verdicts(words, r, horizon))
        got = cut_path_search([move_word(w) for w in words], r, horizon)
        assert got == oracle_cut_path_search(words, r, horizon), (
            words, r, horizon)
        found[got is not None] += 1
    # the cases exercise both candidate verdicts and both search outcomes
    assert outcomes[True] > 100 and outcomes[False] > 100, outcomes
    assert found[True] > 50 and found[False] > 50, found


# -------------------------------------------------------------- serialization


def test_moves_round_trip():
    for text in ("++--", "0+-0", "+2-3+", "-12", "-2.0+", "+3.00", "+20.0"):
        assert format_moves(parse_moves(text)) == text
    # a rest after a larger step once read back as that step's last digit
    for moves in [(-2, 0, 1), (3, 0, 0), (20, 0), (0, -2, 0, 2)]:
        assert parse_moves(format_moves(move_word(moves))).moves == moves


def test_parse_moves_values():
    assert parse_moves("+2-3+0").moves == (2, -3, 1, 0)
    assert parse_moves("-20+").moves == (-20, 1)
    for text in ("x", ".0", "+.0", "0.0", "+2.", "+2.+"):
        with pytest.raises(ValueError):
            parse_moves(text)


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


def test_classify_length_preserving_swap_classifies_the_first_image():
    # + -> -, - -> +: the first image is as long as its seed but differs,
    # so the window is that image, tiled
    verdict = classify_path_space(move_substitution("-", "+"), 8)
    assert (verdict.tag, verdict.constant) == ("descending", 1)
    assert verdict.details == {"window_length": 32, "iterations": 1,
                               "tiled": True, "step_bound": 1}


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


def test_classify_inconclusive_budget(monkeypatch):
    # with a tiny witness budget the recurrent case cannot certify
    monkeypatch.setattr(paths, "_WITNESS_CELLS", 100)
    verdict = classify_path_space(deep_zigzag(), 32)
    assert verdict.tag == "inconclusive"


def test_classify_all_rests_is_bounded():
    from blobshift.patterns import Alphabet
    from blobshift.substitution import Substitution1D
    rests = Substitution1D(Alphabet(("0",), "0"), {"0": "0"})
    verdict = classify_path_space(rests, 16)
    assert (verdict.tag, verdict.constant) == ("bounded", 0)


CANNED = {"deep": (deep_zigzag(), None), "drift": (drift_zigzag(), None),
          "floor": (floor_zigzag(), None), "thue_morse": thue_morse_moves()}


def steps_of(heights, sign=1):
    """The moves a height list integrates, times sign: the oracles' input."""
    return [sign * (b - a) for a, b in zip(heights, heights[1:])]


@pytest.mark.parametrize("horizon", [1, 8, 32, 512])
@pytest.mark.parametrize("name", sorted(CANNED))
def test_classify_matches_the_oracle_scans(monkeypatch, name, horizon):
    subst, moves = CANNED[name]
    verdict = classify_path_space(subst, horizon, moves=moves)
    monkeypatch.setattr(paths, "_recurrence_witness",
                        lambda heights, r, visits: bisect_recurrence_witness(
                            steps_of(heights), r, visits))
    monkeypatch.setattr(paths, "_ascension_up_to",
                        lambda heights, m_max, fails: windowed_ascension_up_to(
                            steps_of(heights, 1 if fails is le else -1), m_max))
    assert classify_path_space(subst, horizon, moves=moves) == verdict


@pytest.mark.parametrize("horizon", [8, 32, 512])
@pytest.mark.parametrize("name", ["deep", "drift"])
def test_recurrent_witness_is_a_window_of_the_searched_word(name, horizon):
    subst, _ = CANNED[name]
    verdict = classify_path_space(subst, horizon)
    assert verdict.tag == "unbounded_recurrent"
    word = "+"
    while len(word) < verdict.details["search_length"]:
        word = subst.apply(word)
    start, witness = verdict.details["witness_start"], verdict.witness
    assert witness == parse_moves(word[start:start + len(witness)])
    # a shortest window ends on a visit to its start height
    heights = integrate(witness).heights
    assert heights[-1] == 0
    assert heights.count(0) == verdict.details["witness_visits"]


@pytest.mark.parametrize("subst,horizon,cells", [
    # '+' -> '+' tiles its one-cell iterate to 4 x horizon cells
    (always_up(), 250, 1000),
    # deep's window at horizon 32 is 216 cells; the witness hunt
    # substitutes once more, to 1296
    (deep_zigzag(), 32, 1296),
    # the window itself is the largest word drift builds at horizon 32
    (drift_zigzag(), 32, 625),
])
def test_classify_checks_the_cell_cap_before_it_builds(monkeypatch, subst,
                                                       horizon, cells):
    verdict = classify_path_space(subst, horizon)
    monkeypatch.setenv("BLOBSHIFT_CELL_CAP", str(cells))
    assert classify_path_space(subst, horizon) == verdict
    monkeypatch.setenv("BLOBSHIFT_CELL_CAP", str(cells - 1))
    with pytest.raises(SizeLimit):
        classify_path_space(subst, horizon)


def drive_paths(monkeypatch):
    """Convert, profile and classify seeded random move words and
    substitutions, and the canned ones."""
    rng = random.Random(0x9A75)
    for _ in range(40):
        word = move_word(rng.choice((-12, -3, -2, -1, 0, 0, 1, 2, 3, 12))
                         for _ in range(rng.randrange(12)))
        assert parse_moves(format_moves(word)).moves == word.moves
        heights = integrate(word)
        if len(word):
            assert derivative(heights).moves == word.moves
        assert normalize_heights([h + 3 for h in heights.heights]) \
            == heights
        profile = visit_profile(word)
        assert sum(profile[h] for h in profile.support()) == profile.total
        assert profile.min_count() >= 1 and len(word) == profile.total - 1
        images = ["".join(rng.choice("+-") for _ in range(rng.randrange(
            1, 5))) for _ in "+-"]
        subst = move_substitution(*images)
        classify_path_space(subst, rng.choice([1, 4, 16]))
        # larger moves widen the strip a witness must re-enter
        classify_path_space(subst, rng.choice([4, 16]), moves={
            "+": rng.randint(1, 3), "-": -rng.randint(1, 3)})
        language = {w.moves for w in factor_language(
            iterate_1d(subst, "+", 4) * 3, 6)}
        cut_path_search([MoveWord(w, 1) for w in language],
                        rng.randrange(1, 3), rng.randrange(1, 7))
    for subst, moves in [(always_up(), None), (deep_zigzag(), None),
                         (drift_zigzag(), None), (floor_zigzag(), None),
                         thue_morse_moves()]:
        classify_path_space(subst, 32, moves=moves)
    # the first word's strips end on their start heights: no witness
    # there, one a word later
    assert classify_path_space(move_substitution("--++", "-"), 8, moves={
        "+": 3, "-": -1}).tag == "unbounded_recurrent"
    with monkeypatch.context() as patched:
        patched.setattr(paths, "_WITNESS_CELLS", 100)
        assert classify_path_space(deep_zigzag(), 32).tag == "inconclusive"
    assert format_moves(parse_moves("+2-30")) == "+2-30"
    assert parse_move_symbol("-3") == -3
    assert cut_path_search([], 1, 1) is None
