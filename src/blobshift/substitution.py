"""Substitution systems in one and two dimensions.

1D substitutions map symbols to nonempty words, 2D substitutions map
symbols to square blocks of a fixed side. Iteration grows exponentially,
so every generator checks the cell cap before materializing the next
level and fails with :class:`SizeLimit` instead of exhausting memory.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from .errors import SizeLimit, UnsupportedFormat
from .limits import cell_cap
from .patterns import (
    Alphabet,
    BINARY,
    Pattern,
    alphabet_field,
    arrow,
    header_ints,
    text_parser,
    write_rows,
)


@dataclass(frozen=True)
class Substitution1D:
    """Symbol-to-word rule table; every symbol rewrites to a nonempty word."""

    alphabet: Alphabet
    rules: Mapping[str, str]

    def __post_init__(self):
        if unknown := set(self.rules) - set(self.alphabet.symbols):
            raise ValueError(f"rule for {min(unknown)!r} outside the alphabet")
        for symbol in self.alphabet.symbols:
            image = self.rules.get(symbol)
            if not image:
                raise ValueError(f"missing or empty rule for {symbol!r}")
            for ch in image:
                if ch not in self.alphabet.symbols:
                    raise ValueError(f"rule image uses unknown symbol {ch!r}")

    def apply(self, word: str) -> str:
        rules = self.rules
        return "".join(rules[c] for c in word)


@dataclass(frozen=True)
class Substitution2D:
    """Symbol-to-block rule table with a common square side (expansion)."""

    alphabet: Alphabet
    expansion: int
    rules: Mapping[str, Pattern]

    def __post_init__(self):
        s = self.expansion
        if s < 2:
            raise ValueError("expansion must be at least 2")
        if unknown := set(self.rules) - set(self.alphabet.symbols):
            raise ValueError(f"rule for {min(unknown)!r} outside the alphabet")
        for symbol in self.alphabet.symbols:
            block = self.rules.get(symbol)
            if block is None:
                raise ValueError(f"missing rule for {symbol!r}")
            # s*s cells inside the s-by-s box fill it; no s*s set is built
            if (len(block) != s * s
                    or block.bounding_box() != ((0, 0), (s - 1, s - 1))):
                raise ValueError(
                    f"rule for {symbol!r} must be a full {s}x{s} block")


def iterate_1d(subst: Substitution1D, seed: str, n: int,
               cap: int | None = None) -> str:
    """Apply the substitution n times to the seed word."""
    if n < 0:
        raise ValueError("iteration count must be nonnegative")
    cap = cell_cap() if cap is None else cap
    word = seed
    for _ in range(n):
        nxt_len = sum(len(subst.rules[c]) for c in word)
        if nxt_len > cap:
            raise SizeLimit(f"next word would have {nxt_len} > {cap} cells")
        word = subst.apply(word)
    return word


def iterate_2d(subst: Substitution2D, seed: Pattern, n: int,
               cap: int | None = None) -> Pattern:
    """Apply the block substitution n times; side multiplies by the expansion."""
    if n < 0:
        raise ValueError("iteration count must be nonnegative")
    cap = cell_cap() if cap is None else cap
    s = subst.expansion
    current = seed
    for _ in range(n):
        if len(current) * s * s > cap:
            raise SizeLimit(
                f"next pattern would have {len(current) * s * s} > {cap} cells")
        values = {}
        for (x, y), symbol in current.items():
            bx, by = x * s, y * s
            for (dx, dy), b in subst.rules[symbol].items():
                values[(bx + dx, by + dy)] = b
        current = Pattern(subst.alphabet, values)
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


@dataclass(frozen=True)
class DensityWord:
    """Composed thinning word with its exact nonzero density.

    Every extra stage multiplies the length by another power of two, so
    the word itself is included only while it fits the cap; the counts
    and the density are exact regardless, computed by count recursion.
    """

    k: int
    length: int
    ones: int
    density: Fraction
    word: str | None


def density_word(k: int, cap: int | None = None) -> DensityWord:
    """Compose thinning stages k, k-1, ..., 2 onto the seed 1.

    Returns the resulting word (when it fits the cap) together with its
    exact nonzero density as a rational.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    cap = cell_cap() if cap is None else cap
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


def _single_cell(alphabet: Alphabet) -> Pattern:
    nonzero = next(s for s in alphabet.symbols if s != alphabet.zero)
    return Pattern(alphabet, {(0, 0): nonzero})


def _assemble(k: int, level: dict[int, Pattern], j: int, side: int,
              alphabet: Alphabet) -> Pattern:
    """One recursion step: bottom-left self block plus a slice on block-row j."""
    big = (k + 1) * side
    values = {(x, y): alphabet.zero for x in range(big) for y in range(big)}
    for (x, y), symbol in level[j].items():
        values[(x, y)] = symbol
    for col in range(1, k + 1):
        ox, oy = col * side, j * side
        for (x, y), symbol in level[col].items():
            values[(ox + x, oy + y)] = symbol
    return Pattern(alphabet, values)


def default_block_seeds(k: int, alphabet: Alphabet = BINARY) -> tuple[Pattern, ...]:
    """Seeds produced by one assembly step from single-cell blocks.

    Side k+1; seed j carries a 1 at the corner and a row of k 1s at height
    j, which gives pairwise disjoint nonzero rows above row zero across
    the k seeds. Any seeds with the required structure may replace these.
    """
    singles = {j: _single_cell(alphabet) for j in range(1, k + 1)}
    return tuple(_assemble(k, singles, j, 1, alphabet) for j in range(1, k + 1))


@dataclass(frozen=True)
class BlockHierarchySpec:
    """Seed patterns for the unbounded-rows block construction."""

    k: int
    seed_side: int
    seeds: tuple[Pattern, ...] = field(default=())

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if not self.seeds:
            if self.seed_side != self.k + 1:
                raise ValueError("the default seeds have side k+1")
            object.__setattr__(self, "seeds", default_block_seeds(self.k))
        if len(self.seeds) != self.k:
            raise ValueError("need exactly k seed patterns")
        side = self.seed_side
        full = frozenset((x, y) for x in range(side) for y in range(side))
        for seed in self.seeds:
            if seed.domain != full:
                raise ValueError("seed domains must be the full seed square")
            bottom = sorted(c for c in seed.support() if c[1] == 0)
            if bottom != [(0, 0)]:
                raise ValueError(
                    "seed bottom row must hold exactly one nonzero, at the corner")
            rows: dict[int, int] = {}
            for (_, y) in seed.support():
                rows[y] = rows.get(y, 0) + 1
            if any(count > self.k for count in rows.values()):
                raise ValueError("no seed row may exceed k nonzeros")


def block_spec(k: int) -> BlockHierarchySpec:
    """Spec with the default seeds (side k+1)."""
    return BlockHierarchySpec(k=k, seed_side=k + 1)


def build_unbounded_rows(spec: BlockHierarchySpec, i: int, j: int,
                         cap: int | None = None) -> Pattern:
    """Level-i block pattern number j.

    Side m_i = (k+1)^(i-1) * seed_side. Level i+1 places the horizontal
    slice of all k level-i patterns on block-row j and the j-th level-i
    pattern at the bottom-left block; everything else is zero.
    """
    if not 1 <= j <= spec.k:
        raise ValueError("j must be in [1, k]")
    if i < 1:
        raise ValueError("i must be at least 1")
    cap = cell_cap() if cap is None else cap
    side = block_side(spec, i)
    if side * side > cap:
        raise SizeLimit(f"level {i} pattern would have {side * side} cells")
    level = {jj: spec.seeds[jj - 1] for jj in range(1, spec.k + 1)}
    current_side = spec.seed_side
    for _ in range(i - 1):
        level = {jj: _assemble(spec.k, level, jj, current_side,
                               spec.seeds[0].alphabet)
                 for jj in range(1, spec.k + 1)}
        current_side *= spec.k + 1
    return level[j]


def block_side(spec: BlockHierarchySpec, i: int) -> int:
    """m_i = (k+1)^(i-1) * seed_side."""
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
