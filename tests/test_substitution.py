"""Substitution iteration, the plus fractal, blocks, density words."""
import random
from fractions import Fraction

import pytest

from blobshift.errors import SizeLimit
from blobshift.patterns import BINARY, Alphabet, Pattern, connected_components, rows_of
from blobshift.substitution import (
    Substitution1D,
    Substitution2D,
    block_side,
    block_spec,
    build_unbounded_rows,
    cantor_substitution,
    density_word,
    format_substitution,
    iterate_1d,
    iterate_2d,
    parse_substitution,
    plus_substitution,
    thinning_substitution,
)
from blobshift.patterns import essential_width_lower_bound, sparsity


# ------------------------------------------------------------------ 1D basics


def test_identity_substitution():
    s = Substitution1D(Alphabet(("a",), "a"), {"a": "a"})
    assert iterate_1d(s, "a", 10) == "a"


def test_thinning_stage_two():
    s = thinning_substitution(2)
    assert iterate_1d(s, "1", 1) == "1110"
    assert s.rules["0"] == "0000"


def test_uniform_length_law():
    s = Substitution1D(Alphabet(("+", "-"), "+"),
                       {"+": "++--++", "-": "--++--"})
    assert len(iterate_1d(s, "+", 2)) == 36


def test_composition_law():
    s = cantor_substitution()
    for m, n in ((1, 2), (2, 3), (0, 4)):
        assert iterate_1d(s, "1", m + n) == iterate_1d(s, iterate_1d(s, "1", m), n)


def test_size_limit_1d(monkeypatch):
    s = thinning_substitution(3)
    monkeypatch.setenv("BLOBSHIFT_CELL_CAP", str(10 ** 4))
    with pytest.raises(SizeLimit):
        iterate_1d(s, "1", 20)


# ------------------------------------------------------------------ 2D basics


def test_zero_block_stays_zero():
    s = plus_substitution()
    zero_seed = Pattern(BINARY, {(0, 0): "0"})
    out = iterate_2d(s, zero_seed, 3)
    assert out.support() == frozenset()
    assert len(out) == 27 * 27


def test_plus_level_one_is_five_cells():
    s = plus_substitution()
    out = iterate_2d(s, Pattern(BINARY, {(0, 0): "1"}), 1)
    assert sorted(out.support()) == [(0, 1), (1, 0), (1, 1), (1, 2), (2, 1)]


def test_plus_level_two_connected():
    s = plus_substitution()
    out = iterate_2d(s, Pattern(BINARY, {(0, 0): "1"}), 2)
    assert len(out.support()) == 25
    assert len(connected_components(out.support(), 1)) == 1


def test_plus_growth_and_connectivity():
    s = plus_substitution()
    current = Pattern(BINARY, {(0, 0): "1"})
    for n in range(1, 7):
        current = iterate_2d(s, current, 1)
        assert len(current.support()) == 5 ** n
        assert len(connected_components(current.support(), 1)) == 1


def test_seed_with_another_zero_iterates_by_symbol():
    # the seed's zero is "1", so its support is the "0" cell alone; the
    # level still maps each cell by its symbol, as over BINARY
    seed = Pattern(Alphabet(("1", "0"), "1"), {(0, 0): "1", (1, 0): "0"})
    out = iterate_2d(plus_substitution(), seed, 1)
    assert len(out.support()) == 5
    assert out == iterate_2d(plus_substitution(), Pattern(
        BINARY, {(0, 0): "1", (1, 0): "0"}), 1)


def test_seed_without_zero_cells_needs_no_rule_for_its_zero():
    seed = Pattern(Alphabet(("x", "1"), "x"), {(0, 0): "1"})
    assert iterate_2d(plus_substitution(), seed, 2) == iterate_2d(
        plus_substitution(), Pattern(BINARY, {(0, 0): "1"}), 2)


def test_a_seed_over_a_larger_alphabet_may_use_the_common_symbols():
    seed = Pattern(Alphabet(("0", "1", "2"), "0"), {(0, 0): "1", (1, 0): "0"})
    assert iterate_2d(plus_substitution(), seed, 1) == iterate_2d(
        plus_substitution(), Pattern(BINARY, {(0, 0): "1", (1, 0): "0"}), 1)


def test_size_limit_2d(monkeypatch):
    s = plus_substitution()
    monkeypatch.setenv("BLOBSHIFT_CELL_CAP", str(10 ** 5))
    with pytest.raises(SizeLimit):
        iterate_2d(s, Pattern(BINARY, {(0, 0): "1"}), 9)


# ------------------------------------------------------------- block builder


def row_census(pattern):
    """height -> sorted nonzero columns."""
    rows = {}
    for (x, y) in pattern.support():
        rows.setdefault(y, []).append(x)
    return {y: sorted(xs) for y, xs in rows.items()}


@pytest.mark.parametrize("k", [2, 3])
def test_block_invariants(k):
    spec = block_spec(k)
    for i in range(1, 5):
        side = block_side(spec, i)
        assert side == (k + 1) ** (i - 1) * spec.seed_side
        previous = block_side(spec, i - 1) if i > 1 else 1
        row_sets = []
        for j in range(1, k + 1):
            p = build_unbounded_rows(spec, i, j)
            census = row_census(p)
            assert census[0] == [0], "bottom row holds exactly the corner"
            assert max(len(xs) for xs in census.values()) <= k
            assert any(
                len(xs) == k and all(b - a >= previous
                                     for a, b in zip(xs, xs[1:]))
                for xs in census.values()), "a spread-out k-row must exist"
            row_sets.append(set(census))
        for a in range(k):
            for b in range(a + 1, k):
                assert row_sets[a] & row_sets[b] == {0}, \
                    "across j only row zero may be shared"


def test_block_base_case_returns_seed():
    # one assembly step from single cells: a corner 1 and k 1s on row j
    spec = block_spec(2)
    for j, rows in ((1, ["...", ".11", "1.."]), (2, [".11", "...", "1.."])):
        assert build_unbounded_rows(spec, 1, j) == Pattern.from_rows(rows)


def test_block_side_recursion():
    spec = block_spec(2)
    assert block_side(spec, 2) == 3 * block_side(spec, 1)


def test_block_level_three_spread():
    spec = block_spec(2)
    p = build_unbounded_rows(spec, 3, 1)
    m1 = block_side(spec, 1)
    census = row_census(p)
    assert any(len(xs) == 2 and xs[1] - xs[0] >= m1
               for xs in census.values())


def test_block_width_lower_bounds():
    # oracle-computed: at level 2 the k-row spread (m_1 = 3) still fits one
    # radius-3 interval; from level 3 on the spread forces two
    spec = block_spec(2)
    m1 = block_side(spec, 1)
    for i, expected in ((2, 1), (3, 2), (4, 2)):
        rows = rows_of(build_unbounded_rows(spec, i, 1))
        assert essential_width_lower_bound(rows, m1) == expected


def test_block_sparsity_matches_k():
    for k in (2, 3):
        spec = block_spec(k)
        p = build_unbounded_rows(spec, 3, 1)
        assert sparsity(rows_of(p)) == k


# -------------------------------------------------------------- density word


def test_density_word_k2():
    out = density_word(2)
    assert out.word == "1110"
    assert out.density == Fraction(3, 4)


def test_density_word_k3():
    out = density_word(3)
    assert out.length == 32
    assert out.density == Fraction(21, 32)
    assert out.word.count("1") == out.ones == 21


def test_density_word_matches_product_formula():
    for k in range(2, 17):
        out = density_word(k)
        formula = Fraction(1)
        for i in range(2, k + 1):
            formula *= 1 - Fraction(1, 2 ** i)
        assert out.density == formula
        assert out.density > Fraction(1, 2)


def test_density_word_count_recursion_matches_materialized():
    for k in range(2, 7):
        out = density_word(k)
        assert out.word is not None
        assert len(out.word) == out.length
        assert out.word.count("1") == out.ones


def test_density_word_omits_oversized_word(monkeypatch):
    monkeypatch.setenv("BLOBSHIFT_CELL_CAP", str(10 ** 4))
    out = density_word(8)
    assert out.word is None
    assert out.length == 2 ** (2 + 3 + 4 + 5 + 6 + 7 + 8)


# ---------------------------------------------------------------- file format


@pytest.mark.parametrize("subst,text", [
    (cantor_substitution(), "subst 1d 01\n0 -> 000\n1 -> 101\n"),
    (Substitution1D(Alphabet(("a", "b"), "b"), {"a": "ab", "b": "a"}),
     "subst 1d ba\na -> ab\nb -> a\n"),
    (plus_substitution(),
     "subst 2d 3 01\n0 ->\n...\n...\n...\n1 ->\n.1.\n111\n.1.\n"),
    (Substitution2D(Alphabet(("0", "1", "2"), "0"), 2, {
        "0": Pattern.from_rows(["..", ".."], Alphabet(("0", "1", "2"), "0")),
        "1": Pattern.from_rows(["12", ".."], Alphabet(("0", "1", "2"), "0")),
        "2": Pattern.from_rows([".2", "1."], Alphabet(("0", "1", "2"), "0"))}),
     "subst 2d 2 012\n0 ->\n..\n..\n1 ->\n12\n..\n2 ->\n.2\n1.\n"),
])
def test_format_substitution_golden_bytes(subst, text):
    assert format_substitution(subst) == text
    assert parse_substitution(text).rules.keys() == subst.rules.keys()


def test_substitution_round_trip_1d():
    s = cantor_substitution()
    assert parse_substitution(format_substitution(s)).rules == s.rules


def test_substitution_round_trip_2d():
    s = plus_substitution()
    back = parse_substitution(format_substitution(s))
    assert back.expansion == 3
    assert back.rules["1"] == s.rules["1"]


# ----------------------------------------------------------------- line gate


def iterate_2d_oracle(subst, seed, n):
    """The level n values, one block per domain cell."""
    values = dict(seed.items())
    s = subst.expansion
    for _ in range(n):
        values = {(s * x + dx, s * y + dy): b
                  for (x, y), a in values.items()
                  for (dx, dy), b in subst.rules[a].items()}
    return Pattern(subst.alphabet, values)


def drive_substitution(monkeypatch):
    """Iterate, format and parse seeded random substitutions, and build
    the canned systems, density words and block patterns."""
    rng = random.Random(0x5B57)
    ternary = Alphabet(("0", "1", "2"), "0")
    for _ in range(12):
        alphabet = rng.choice([BINARY, ternary])
        symbols = alphabet.symbols
        subst = Substitution1D(alphabet, {s: "".join(rng.choices(
            symbols, k=rng.randint(1, 3))) for s in symbols})
        word = iterate_1d(subst, symbols[-1], 3)
        assert subst.image_length(word) == len(subst.apply(word))
        assert parse_substitution(format_substitution(subst)) == subst
        s = rng.randint(2, 3)
        blocks = Substitution2D(alphabet, s, {a: Pattern.from_rows(
            ["".join(rng.choices(symbols, k=s)) for _ in range(s)], alphabet)
            for a in symbols})
        # a blank line between rules is skipped
        assert parse_substitution(format_substitution(blocks).replace(
            "\n", "\n\n", 1)) == blocks
        seed = Pattern.from_rows(["".join(rng.choices(symbols + ("?",), k=3))
                                  for _ in range(2)], alphabet)
        assert iterate_2d(blocks, seed, 2) == iterate_2d_oracle(blocks, seed,
                                                                2)
    plus = iterate_2d(plus_substitution(), Pattern(BINARY, {(0, 0): "1"}), 2)
    assert len(plus.support()) == 25
    assert iterate_1d(cantor_substitution(), "1", 2) == "101000101"
    for k in range(2, 6):
        density = density_word(k)
        assert density.word.count("1") == density.ones
    for k in (1, 2, 3):
        for j in range(1, k + 1):
            assert len(build_unbounded_rows(block_spec(k), 2, j)) == \
                block_side(block_spec(k), 2) ** 2
    with monkeypatch.context() as patched:
        patched.setenv("BLOBSHIFT_CELL_CAP", "100")
        assert density_word(4).word is None
