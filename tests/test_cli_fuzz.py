"""Fuzzing the CLI's integer arguments and the text parsers.

Every argument value ends in exit 0, 1 or 2; every text either parses or
raises UnsupportedFormat or SizeLimit.
"""
import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from blobshift.automata import parse_ca_rule, parse_tfg_element
from blobshift.cli import main
from blobshift.errors import SizeLimit, UnsupportedFormat
from blobshift.patterns import (Alphabet, Pattern, format_pattern,
                                parse_pattern)
from blobshift.substitution import parse_substitution

XOR_CA = "ca 01 radius 1\n* -> 0\n001 -> 1\n010 -> 1\n101 -> 1\n110 -> 1\n"
SWAP_TFG = ("ca 01 radius 1\n* -> shift 0\n010 -> shift 1\n110 -> shift 1\n"
            "100 -> shift -1\n101 -> shift -1\n")
FIB_SUB = "subst 1d ab\na -> ab\nb -> a\n"
PLUS_SUB = "subst 2d 3 01\n0 ->\n...\n...\n...\n1 ->\n.1.\n111\n.1.\n"


def upto(high):
    """Any integer up to high: the low side is unbounded, the high side
    stops where the work an argument asks for would take seconds."""
    return st.integers(max_value=high).map(str)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "xor.ca").write_text(XOR_CA)
    (root / "swap.tfg").write_text(SWAP_TFG)
    (root / "fib.sub").write_text(FIB_SUB)
    (root / "plus.sub").write_text(PLUS_SUB)
    return root


def commands(root):
    xor, swap, fib = (str(root / name) for name in
                      ("xor.ca", "swap.tfg", "fib.sub"))
    return st.one_of(
        st.tuples(st.sampled_from(["glider", "nilpotent"]), upto(6),
                  upto(16)).map(lambda t: [
                      "ca", t[0], "--rule", xor, "--max-width", t[1],
                      "--max-time", t[2]]),
        st.tuples(upto(64), st.integers().map(str)).map(lambda t: [
            "ca", "profile", "--rule", xor, "--horizon", t[0],
            "--offset", t[1]]),
        st.tuples(upto(8), upto(4)).map(lambda t: [
            "tfg", "order", "--rule", swap, "--max-order", t[0],
            "--max-period", t[1]]),
        upto(30).map(lambda n: ["primes", "crt", "--n", n]),
        st.tuples(upto(3), upto(10 ** 4)).map(lambda t: [
            "primes", "dirichlet", "--n", t[0], "--scan-limit", t[1]]),
        st.tuples(upto(10 ** 4), upto(20), upto(10 ** 4)).map(lambda t: [
            "primes", "lang", "--limit", t[0], "--length", t[1],
            "--threshold", t[2]]),
        upto(12).map(lambda n: ["gen", "--subst", fib, "--iters", n]),
    )


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_integer_arguments_never_escape(files, capsys, data):
    argv = data.draw(commands(files))
    code = main(argv)
    capsys.readouterr()
    assert code in (0, 1, 2)


# Time and sieve arguments with no upper bound: under a small cell cap the
# light-cone and sieve checks refuse what would run for long.

SMALL_CAP = 2 ** 16


def from_(low, near):
    """Integers unbounded above: from low to near (around the cap's edge),
    from low up, or any integer at all."""
    return st.one_of(st.integers(low, near), st.integers(min_value=low),
                     st.integers()).map(str)


def capped_commands(root):
    xor = str(root / "xor.ca")
    return st.one_of(
        st.tuples(st.sampled_from(["glider", "nilpotent"]),
                  st.integers(1, 6).map(str), from_(1, 400)).map(lambda t: [
                      "ca", t[0], "--rule", xor, "--max-width", t[1],
                      "--max-time", t[2]]),
        from_(0, 400).map(lambda n: [
            "ca", "profile", "--rule", xor, "--horizon", n]),
        st.tuples(from_(2, 2 * SMALL_CAP), st.integers(1, 20).map(str),
                  st.integers(0, 1000).map(str)).map(lambda t: [
                      "primes", "lang", "--limit", t[0], "--length", t[1],
                      "--threshold", t[2]]),
    )


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_unbounded_time_and_limit_meet_the_cell_cap(files, capsys,
                                                    monkeypatch, data):
    monkeypatch.setenv("BLOBSHIFT_CELL_CAP", str(SMALL_CAP))
    argv = data.draw(capped_commands(files))
    code = main(argv)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert code in (0, 1, 2)
    if code == 1:
        assert json.loads(err)["error"]["kind"] == "UsageError"
    if code == 2:
        assert json.loads(err)["error"]["kind"] == "SizeLimit"


# A symbol outside the alphabet, in an argument or a seed file, is a usage
# error that the library reports: exit 1 with the JSON error, no traceback.

FOREIGN = st.characters(min_codepoint=33, max_codepoint=126).filter(
    lambda c: c not in "01ab.?")


@st.composite
def with_foreign(draw, alphabet):
    """A word over alphabet with one foreign symbol put in somewhere."""
    word = draw(st.text(alphabet, max_size=6))
    at = draw(st.integers(0, len(word)))
    return word[:at] + draw(FOREIGN) + word[at:]


@st.composite
def foreign_seed_file(draw):
    """A 2D pattern over 01 and a foreign symbol, which it uses."""
    width, height = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    cells = list(draw(st.text("01.", min_size=width * height,
                              max_size=width * height)))
    foreign = draw(FOREIGN)
    cells[draw(st.integers(0, len(cells) - 1))] = foreign
    rows = ["".join(cells[y * width:(y + 1) * width]) for y in range(height)]
    return "\n".join([f"dims {width} {height}", "alphabet 01" + foreign,
                      *rows]) + "\n"


def foreign_commands(root):
    """(argv, the seed file's text or None)."""
    fib, plus, xor = (str(root / name) for name in
                      ("fib.sub", "plus.sub", "xor.ca"))
    iters = st.integers(0, 4).map(str)
    return st.one_of(
        st.tuples(with_foreign("ab"), iters).map(lambda t: ([
            "gen", "--subst", fib, "--seed=" + t[0], "--iters", t[1]], None)),
        st.tuples(with_foreign("01"), iters).map(lambda t: ([
            "gen", "--subst", plus, "--seed=" + t[0], "--iters", t[1]], None)),
        st.tuples(foreign_seed_file(), iters).map(lambda t: ([
            "gen", "--subst", plus, "--seed-file", "seed.pat",
            "--iters", t[1]], t[0])),
        st.tuples(with_foreign("01"), st.integers(-5, 5).map(str),
                  st.integers(0, 8).map(str)).map(lambda t: ([
                      "ca", "profile", "--rule", xor, "--config=" + t[0],
                      "--offset", t[1], "--horizon", t[2]], None)),
    )


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_a_foreign_symbol_is_a_usage_error(files, capsys, monkeypatch, data):
    monkeypatch.chdir(files)
    argv, seed_file = data.draw(foreign_commands(files))
    if seed_file is not None:
        (files / "seed.pat").write_text(seed_file)
    code = main(argv)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert code == 1, err
    error = json.loads(err)["error"]
    assert error["kind"] == "UsageError" and error["message"]


# -- the text parsers ------------------------------------------------------------
#
# Each format's strategy writes a file of the right shape from its own
# tokens, mostly well formed, then edits up to two lines into noise.

SMALL = st.one_of(st.integers(-1, 3), st.integers()).map(str)
NOISE = st.one_of(
    st.lists(st.sampled_from(["dims", "alphabet", "origin", "subst", "1d",
                              "2d", "ca", "radius", "->", "*", "shift", "0",
                              "1", "2", ".", "?", "01", "x", "-1"]),
             max_size=5).map(" ".join),
    st.text(max_size=8))


def mostly(draw, value, other):
    """value three times in four, else a draw from other."""
    return value if draw(st.integers(0, 3)) else draw(other)


def alphabet_word(draw):
    return "".join(draw(st.lists(st.sampled_from("01a2"), min_size=1,
                                 max_size=3, unique=True)))


def cells(draw, chars, n):
    return draw(st.text(chars, min_size=n, max_size=n))


@st.composite
def pattern_file(draw):
    chars = alphabet_word(draw)
    dims = draw(st.lists(st.integers(0, 4), min_size=1, max_size=2))
    width, height = (dims + [1])[:2]
    lines = ["dims " + " ".join(map(str, dims)), "alphabet " + chars]
    if draw(st.booleans()):
        lines.append("origin " + " ".join(draw(SMALL) for _ in dims))
    return lines + [cells(draw, chars + ".?", width) for _ in range(height)]


@st.composite
def substitution_file(draw):
    chars = alphabet_word(draw)
    symbols = draw(st.permutations(chars))[mostly(draw, 0, st.just(1)):]
    symbols += draw(st.lists(st.sampled_from(chars + "2"), max_size=1))
    if draw(st.booleans()):
        return [f"subst 1d {chars}"] + [
            f"{s} -> " + cells(draw, chars, mostly(draw, 2, st.integers(0, 3)))
            for s in symbols]
    side = mostly(draw, 2, st.integers(1, 3))
    lines = [f"subst 2d {mostly(draw, side, SMALL)} {chars}"]
    for s in symbols:
        lines += [f"{s} ->"] + [cells(draw, chars + ".", side)
                                for _ in range(side)]
    return lines


def rule_file(image):
    @st.composite
    def rule(draw):
        chars = alphabet_word(draw)
        radius = draw(st.integers(-1, 2))
        width = max(2 * radius + 1, 0)
        lines = [f"ca {chars} radius {mostly(draw, radius, SMALL)}"]
        if mostly(draw, True, st.just(False)):
            lines.append(f"* -> {draw(image(chars))}")
        return lines + [f"{cells(draw, chars, width)} -> {draw(image(chars))}"
                        for _ in range(draw(st.integers(0, 4)))]
    return rule()


def edited(files):
    """A file's lines with up to two of them replaced by noise."""
    @st.composite
    def text(draw):
        lines = draw(files)
        for _ in range(draw(st.sampled_from((0, 0, 1, 2)))):
            if lines:
                lines[draw(st.integers(0, len(lines) - 1))] = draw(NOISE)
        return "\n".join(lines) + "\n"
    return text()


FORMATS = {
    parse_pattern: edited(pattern_file()),
    parse_substitution: edited(substitution_file()),
    parse_ca_rule: edited(rule_file(
        lambda chars: st.sampled_from(chars + "2"))),
    parse_tfg_element: edited(rule_file(lambda chars: st.integers(-2, 2).map(
        lambda k: f"shift {k}"))),
}


@pytest.mark.parametrize("parse", list(FORMATS), ids=lambda f: f.__name__)
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_parsers_raise_only_format_errors(parse, monkeypatch, data):
    # a drawn wildcard at a large radius would write millions of table
    # words under the default cap; under the small one it ends in SizeLimit
    monkeypatch.setenv("BLOBSHIFT_CELL_CAP", str(SMALL_CAP))
    text = data.draw(FORMATS[parse])
    try:
        parse(text)
    except (UnsupportedFormat, SizeLimit):
        pass


@st.composite
def patterns(draw):
    symbols = draw(st.lists(st.sampled_from("01ab#"), min_size=1, max_size=4,
                            unique=True))
    alphabet = Alphabet(tuple(symbols), symbols[0])
    dim = draw(st.sampled_from((1, 2)))
    values = draw(st.dictionaries(
        st.tuples(*[st.integers(-20, 20)] * dim), st.sampled_from(symbols),
        max_size=30))
    return Pattern(alphabet, values)


@settings(max_examples=300, deadline=None)
@given(pattern=patterns())
def test_format_then_parse_round_trips(pattern):
    assert parse_pattern(format_pattern(pattern)) == pattern
