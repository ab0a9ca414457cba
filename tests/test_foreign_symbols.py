"""A symbol outside the alphabet is a bad argument: ValueError, at its owner.

The generators, finite configurations and the path classifier check their
own inputs, so a library caller gets the ValueError that the CLI turns
into exit 1, never a KeyError or AttributeError from deep inside.
"""
import pytest

from blobshift.automata import FiniteConfig, evolve, xor_rule
from blobshift.patterns import BINARY, Alphabet, Pattern
from blobshift.paths import classify_path_space
from blobshift.substitution import (cantor_substitution, iterate_1d,
                                    iterate_2d, parse_substitution,
                                    plus_substitution)

TERNARY = Alphabet(("0", "1", "2"), "0")
# a 2D substitution whose symbols are moves, so only its shape is wrong
MOVES_2D = "subst 2d 2 +-\n+ ->\n+-\n-+\n- ->\n-+\n+-\n"


@pytest.mark.parametrize("call", [
    lambda: iterate_1d(cantor_substitution(), "x", 1),
    lambda: iterate_1d(cantor_substitution(), "11x", 3),
    lambda: cantor_substitution().apply("1x"),
    lambda: iterate_2d(plus_substitution(),
                       Pattern(TERNARY, {(0, 0): "2"}), 1),
    lambda: iterate_2d(plus_substitution(),
                       Pattern(TERNARY, {(0, 0): "1", (1, 0): "2"}), 0),
    # a zero cell carries the seed's own zero, which plus cannot map
    lambda: iterate_2d(plus_substitution(), Pattern(
        Alphabet(("a", "1"), "a"), {(0, 0): "1", (1, 0): "a"}), 1),
    lambda: FiniteConfig(BINARY, 0, "1x1"),
    lambda: FiniteConfig.make("1x1"),
    lambda: FiniteConfig.make("0x", 3),
    lambda: evolve(xor_rule(), FiniteConfig.make("1x1"), 2),
    lambda: classify_path_space(plus_substitution(), 8),
    lambda: classify_path_space(parse_substitution(MOVES_2D), 8),
], ids=["iterate_1d", "iterate_1d_later_symbol", "apply", "iterate_2d",
        "iterate_2d_zero_iterations", "iterate_2d_foreign_zero",
        "FiniteConfig", "FiniteConfig.make", "FiniteConfig.make_trimmed",
        "evolve", "classify_path_space_2d",
        "classify_path_space_2d_moves"])
def test_a_foreign_symbol_raises_value_error(call):
    with pytest.raises(ValueError):
        call()


def test_the_messages_name_the_symbol():
    with pytest.raises(ValueError, match="^symbol 'x' not in alphabet$"):
        iterate_1d(cantor_substitution(), "1x", 1)
    with pytest.raises(ValueError, match="^symbol 'x' not in alphabet$"):
        FiniteConfig.make("1x1")
    with pytest.raises(ValueError, match="^seed symbol '2' outside the "
                                         "substitution's alphabet$"):
        iterate_2d(plus_substitution(), Pattern(TERNARY, {(0, 0): "2"}), 1)
    with pytest.raises(ValueError, match="needs a 1D substitution"):
        classify_path_space(parse_substitution(MOVES_2D), 8)


def test_a_seed_over_a_larger_alphabet_may_use_the_common_symbols():
    seed = Pattern(TERNARY, {(0, 0): "1", (1, 0): "0"})
    assert iterate_2d(plus_substitution(), seed, 1) == iterate_2d(
        plus_substitution(), Pattern(BINARY, {(0, 0): "1", (1, 0): "0"}), 1)
