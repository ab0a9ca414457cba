"""Substitution systems in one and two dimensions.

1D substitutions map symbols to nonempty words, 2D substitutions map
symbols to square blocks of a fixed side. Iteration grows exponentially,
so every generator checks the cell cap before materializing the next
level and fails with :class:`SizeLimit` instead of exhausting memory.
"""
from __future__ import annotations

from typing import TYPE_CHECKING, Mapping

from .errors import UnsupportedFormat
from .limits import cell_cap, check_cells
from .patterns import (
    Alphabet,
    BINARY,
    Pattern,
    _Record,
    alphabet_field,
    arrow,
    header_ints,
    text_parser,
    translate_values,
    write_rows,
)

if TYPE_CHECKING:
    from fractions import Fraction


class Substitution1D(_Record):
    """Symbol-to-word rule table; every symbol rewrites to a nonempty word."""

    __slots__ = ("alphabet", "rules")

    def __init__(self, alphabet: Alphabet, rules: Mapping[str, str]):
        if unknown := set(rules) - set(alphabet.symbols):
            raise ValueError(f"rule for {min(unknown)!r} outside the alphabet")
        for symbol in alphabet.symbols:
            image = rules.get(symbol)
            if not image:
                raise ValueError(f"missing or empty rule for {symbol!r}")
            for ch in image:
                if ch not in alphabet.symbols:
                    raise ValueError(f"rule image uses unknown symbol {ch!r}")
        self._fill(alphabet, rules)

    def apply(self, word: str) -> str:
        """The word's image; a foreign symbol raises ValueError."""
        try:
            return "".join(map(self.rules.__getitem__, word))
        except KeyError as exc:
            raise ValueError(
                f"symbol {exc.args[0]!r} not in alphabet") from None

    def image_length(self, word: str) -> int:
        """Length of ``apply(word)``, from letter counts; nothing is built."""
        return sum(word.count(c) * len(image)
                   for c, image in self.rules.items())


class Substitution2D(_Record):
    """Symbol-to-block rule table with a common square side (expansion)."""

    __slots__ = ("alphabet", "expansion", "rules")

    def __init__(self, alphabet: Alphabet, expansion: int,
                 rules: Mapping[str, Pattern]):
        s = expansion
        if s < 2:
            raise ValueError("expansion must be at least 2")
        if unknown := set(rules) - set(alphabet.symbols):
            raise ValueError(f"rule for {min(unknown)!r} outside the alphabet")
        for symbol in alphabet.symbols:
            block = rules.get(symbol)
            if block is None:
                raise ValueError(f"missing rule for {symbol!r}")
            if not _fills_square(block, s):
                raise ValueError(
                    f"rule for {symbol!r} must be a full {s}x{s} block")
        self._fill(alphabet, expansion, rules)


def _fills_square(pattern: Pattern, side: int) -> bool:
    """Whether the domain is the side-by-side square at the origin; side *
    side cells inside its box fill it, so no cell set is built."""
    return (len(pattern) == side * side
            and pattern.bounding_box() == ((0, 0), (side - 1, side - 1)))


def iterate_1d(subst: Substitution1D, seed: str, n: int) -> str:
    """Apply the substitution n times to the seed word.

    For n >= 1, a seed symbol outside the alphabet raises ValueError.
    """
    if n < 0:
        raise ValueError("iteration count must be nonnegative")
    word = seed
    for _ in range(n):
        check_cells(subst.image_length(word), "1D iterate")
        word = subst.apply(word)
    return word


def iterate_2d(subst: Substitution2D, seed: Pattern, n: int) -> Pattern:
    """Apply the block substitution n times; side multiplies by the expansion.

    Each domain interval [lo, end) of row y becomes [lo*s, end*s) on rows
    y*s .. y*s + s - 1. Only the support's images are placed when the
    level's zero (the seed's at the first level) has an all-zero block or
    no rule; otherwise every domain cell's is. Either way the level is
    charged for its whole domain before it is built. A seed symbol, zero
    included, outside the substitution's alphabet raises ValueError.
    """
    if n < 0:
        raise ValueError("iteration count must be nonnegative")
    if len(seed) and seed.dimension != 2:
        raise ValueError("iterate_2d needs a 2D seed")
    s = subst.expansion
    images = {symbol: list(block._nz.items())
              for symbol, block in subst.rules.items()}
    zeros = [seed.alphabet.zero] if len(seed) > len(seed._nz) else []
    if foreign := {*seed._nz.values(), *zeros} - images.keys():
        raise ValueError(f"seed symbol {min(foreign)!r} outside the "
                         "substitution's alphabet")
    current = seed._plain()
    for _ in range(n):
        check_cells(len(current) * s * s, "2D iterate")
        values = {}
        sparse = not images.get(current.alphabet.zero)
        for (x, y), symbol in (current._nz.items() if sparse
                               else current.items()):
            bx, by = x * s, y * s
            for (dx, dy), b in images[symbol]:
                values[(bx + dx, by + dy)] = b
        rows = {y * s + dy: tuple([x * s for x in row])
                for y, row in current._rows.items() for dy in range(s)}
        current = Pattern._derived(subst.alphabet, values, rows, 2)
    return current


# -- canned systems ----------------------------------------------------------


def plus_substitution() -> Substitution2D:
    """Binary expansion-3 substitution growing a plus shape from every 1.

    The nonzero image is the 5-cell plus; iterated from a single 1 the
    support stays one 1-connected component while the nonzero count
    multiplies by 5 per level.
    """
    plus = Pattern.from_rows([".1.", "111", ".1."])
    zeros = Pattern.from_rows(["...", "...", "..."])
    return Substitution2D(BINARY, 3, {"1": plus, "0": zeros})


def cantor_substitution() -> Substitution1D:
    """1 -> 101, 0 -> 000: middle-thirds support on the line."""
    return Substitution1D(BINARY, {"1": "101", "0": "000"})


def thinning_substitution(n: int) -> Substitution1D:
    """0 -> 0^(2^n), 1 -> 1^(2^n - 1) 0: keeps all but one cell of each block."""
    if n < 1:
        raise ValueError("n must be at least 1")
    size = 2 ** n
    return Substitution1D(BINARY, {"0": "0" * size, "1": "1" * (size - 1) + "0"})


class DensityWord(_Record):
    """Composed thinning word with its exact nonzero density.

    Every extra stage multiplies the length by another power of two, so
    the word itself is included only while it fits the cap; the counts
    and the density are exact regardless, computed by count recursion.
    """

    __slots__ = ("k", "length", "ones", "density", "word")

    def __init__(self, k: int, length: int, ones: int, density: Fraction,
                 word: str | None):
        self._fill(k, length, ones, density, word)


def density_word(k: int) -> DensityWord:
    """Compose thinning stages k, k-1, ..., 2 onto the seed 1.

    Returns the resulting word (when it fits the cap) together with its
    exact nonzero density as a rational.
    """
    from fractions import Fraction

    if k < 2:
        raise ValueError("k must be at least 2")
    cap = cell_cap()
    zeros, ones = 0, 1
    word: str | None = "1"
    for stage in range(k, 1, -1):
        block = 2 ** stage
        zeros, ones = zeros * block + ones, ones * (block - 1)
        if word is not None:
            if zeros + ones > cap:
                word = None
            else:
                word = thinning_substitution(stage).apply(word)
    length = zeros + ones
    return DensityWord(k, length, ones, Fraction(ones, length), word)


# -- block hierarchy ---------------------------------------------------------


def _assemble(k: int, level: dict[int, Pattern], j: int, side: int) -> Pattern:
    """One recursion step: bottom-left self block plus a slice on block-row j.

    The level patterns fill side-by-side squares, so the result fills its
    (k+1)*side square; only the placed support is written.
    """
    big = (k + 1) * side
    values = dict(level[j]._nz)
    for col in range(1, k + 1):
        values.update(translate_values(level[col]._nz, (col * side, j * side)))
    return Pattern._derived(BINARY, values,
                            dict.fromkeys(range(big), (0, big)), 2)


class BlockHierarchySpec(_Record):
    """The unbounded-rows block construction for k, grown from k single
    cells."""

    __slots__ = ("k",)

    def __init__(self, k: int):
        if k < 1:
            raise ValueError("k must be at least 1")
        self._fill(k)

    @property
    def seed_side(self) -> int:
        return self.k + 1


def block_spec(k: int) -> BlockHierarchySpec:
    """Spec whose level-1 patterns have side k+1."""
    return BlockHierarchySpec(k)


def build_unbounded_rows(spec: BlockHierarchySpec, i: int, j: int) -> Pattern:
    """Level-i block pattern number j.

    Side m_i = (k+1)^(i-1) * seed_side. Level 0 is k single cells, and
    level i+1 places the horizontal slice of all k level-i patterns on
    block-row j and the j-th level-i pattern at the bottom-left block;
    everything else is zero.
    """
    if not 1 <= j <= spec.k:
        raise ValueError("j must be in [1, k]")
    side = block_side(spec, i)
    check_cells(side * side, f"level {i} pattern")
    level = dict.fromkeys(range(1, spec.k + 1),
                          Pattern(BINARY, {(0, 0): "1"}))
    current_side = 1
    for _ in range(i):
        level = {jj: _assemble(spec.k, level, jj, current_side)
                 for jj in range(1, spec.k + 1)}
        current_side *= spec.k + 1
    return level[j]


def block_side(spec: BlockHierarchySpec, i: int) -> int:
    """m_i = (k+1)^(i-1) * seed_side."""
    if i < 1:
        raise ValueError("i must be at least 1")
    return spec.seed_side * (spec.k + 1) ** (i - 1)


# -- substitution file format -------------------------------------------------
#
# header: "subst 1d <alphabet>" or "subst 2d <expansion> <alphabet>"
# 1D rules: "a -> word"
# 2D rules: "a ->" followed by expansion-many rows (top to bottom)


@text_parser
def parse_substitution(text: str) -> Substitution1D | Substitution2D:
    lines = text.splitlines()
    if not lines or not lines[0].startswith("subst "):
        raise UnsupportedFormat("substitution text must start with 'subst'")
    head = lines[0].split()
    if len(head) >= 3 and head[1] == "1d":
        rules = dict(arrow(ln) for ln in lines[1:] if ln.strip())
        return Substitution1D(alphabet_field(head[2]), rules)
    if len(head) >= 4 and head[1] == "2d":
        (expansion,) = header_ints(lines[0], 2, 3)
        alphabet = alphabet_field(head[3])
        rules = {}
        ix = 1
        while ix < len(lines):
            line = lines[ix].strip()
            ix += 1
            if not line:
                continue
            symbol, _ = arrow(line)
            rows = lines[ix:ix + expansion]
            ix += expansion
            if len(rows) != expansion:
                raise UnsupportedFormat("2D rule block is incomplete")
            rules[symbol] = Pattern.from_rows(rows, alphabet)
        return Substitution2D(alphabet, expansion, rules)
    raise UnsupportedFormat("malformed substitution header")


def format_substitution(subst: Substitution1D | Substitution2D) -> str:
    alpha = subst.alphabet
    chars = alpha.zero + "".join(s for s in alpha.symbols if s != alpha.zero)
    if isinstance(subst, Substitution1D):
        lines = [f"subst 1d {chars}"]
        lines += [f"{s} -> {subst.rules[s]}" for s in alpha.symbols]
    else:
        lines = [f"subst 2d {subst.expansion} {chars}"]
        for symbol in alpha.symbols:
            lines.append(f"{symbol} ->")
            lines += write_rows(subst.rules[symbol])
    return "\n".join(lines) + "\n"
