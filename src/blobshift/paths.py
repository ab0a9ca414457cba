"""Finite move-word path dynamics.

A move word is a bounded sequence of integer steps; integrating it gives
the height word of the walk it drives. Visit profiles count how often the
walk touches each height. The classifier looks at the words a substitution
generates and tags the path space ascending, descending, bounded or
unbounded-but-recurrent, with an explicit inconclusive verdict when the
examined horizon cannot certify any of those: finite windows certify,
they do not decide.
"""
from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Iterable, Mapping, Sequence

from .substitution import Substitution1D
from .patterns import Alphabet

@dataclass(frozen=True)
class MoveWord:
    """Finite sequence of integer moves with a recorded step bound."""

    moves: tuple[int, ...]
    bound: int

    def __post_init__(self):
        if self.bound < 0:
            raise ValueError("step bound must be nonnegative")
        if any(abs(m) > self.bound for m in self.moves):
            raise ValueError("a move exceeds the step bound")

    def __len__(self) -> int:
        return len(self.moves)


def move_word(moves: Iterable[int], bound: int | None = None) -> MoveWord:
    """MoveWord with the bound inferred from the moves when not given."""
    moves = tuple(moves)
    if bound is None:
        bound = max((abs(m) for m in moves), default=1)
    return MoveWord(moves, bound)


@dataclass(frozen=True)
class HeightWord:
    """Walk heights normalized to start at zero."""

    heights: tuple[int, ...]

    def __post_init__(self):
        if not self.heights or self.heights[0] != 0:
            raise ValueError("height words start at height 0")

    def __len__(self) -> int:
        return len(self.heights)


@dataclass(frozen=True)
class VisitProfile:
    """Height -> visit count for one finite walk, endpoints included."""

    counts: Mapping[int, int]
    total: int

    def support(self) -> list[int]:
        return sorted(self.counts)

    def __getitem__(self, height: int) -> int:
        return self.counts.get(height, 0)

    def min_count(self) -> int:
        return min(self.counts.values())


@dataclass(frozen=True)
class PathClassVerdict:
    """Classification outcome at a finite horizon, with replay data."""

    tag: str  # ascending | descending | bounded | unbounded_recurrent | inconclusive
    horizon: int
    constant: int | None = None
    witness: MoveWord | None = None
    details: dict = field(default_factory=dict)


# -- conjugacy ----------------------------------------------------------------


def derivative(heights: HeightWord | Sequence[int]) -> MoveWord:
    """Consecutive differences of a height word."""
    hs = heights.heights if isinstance(heights, HeightWord) else tuple(heights)
    if len(hs) < 2:
        raise ValueError("need at least two heights")
    return move_word(b - a for a, b in zip(hs, hs[1:]))


def integrate(word: MoveWord) -> HeightWord:
    """Heights of the walk the moves drive, starting at zero."""
    return HeightWord((0,) + tuple(accumulate(word.moves)))


def normalize_heights(heights: Sequence[int]) -> HeightWord:
    """Shift a height window so it starts at zero."""
    base = heights[0]
    return HeightWord(tuple(h - base for h in heights))


def visit_profile(word: MoveWord) -> VisitProfile:
    """Visit counts of every height along the walk, start and end included."""
    heights = integrate(word).heights
    return VisitProfile(dict(Counter(heights)), len(heights))


def ascension_constant(word: MoveWord) -> int | None:
    """Least m with every length-m window summing positive, if any.

    Quadratic in the word length; meant for the short words it certifies.
    """
    return _ascension_up_to(word.moves, len(word.moves))


def _ascension_up_to(moves: Sequence[int], m_max: int) -> int | None:
    n = len(moves)
    prefix = [0] + list(accumulate(moves))
    for m in range(1, min(m_max, n) + 1):
        if all(prefix[j + m] - prefix[j] > 0 for j in range(n - m + 1)):
            return m
    return None


# -- move-word serialization ---------------------------------------------------
#
# "+" and "-" are unit moves, "0" a rest, and a sign with digits carries a
# larger step, e.g. "+2" or "-3".


def format_moves(word: MoveWord) -> str:
    parts = []
    for m in word.moves:
        if m == 0:
            parts.append("0")
        elif abs(m) == 1:
            parts.append("+" if m > 0 else "-")
        else:
            parts.append(f"{m:+d}")
    return "".join(parts)


def parse_moves(text: str, bound: int | None = None) -> MoveWord:
    # digits follow a sign only for |move| >= 2, so "+0" reads as +1, 0
    moves = []
    pos = 0
    while pos < len(text):
        ch = text[pos]
        if ch == "0":
            moves.append(0)
            pos += 1
            continue
        if ch not in "+-":
            raise ValueError(f"bad move token at {text[pos:]!r}")
        sign = 1 if ch == "+" else -1
        end = pos + 1
        while end < len(text) and text[end].isdigit():
            end += 1
        digits = text[pos + 1:end]
        if digits and int(digits) >= 2:
            moves.append(sign * int(digits))
            pos = end
        else:
            moves.append(sign)
            pos += 1
    return move_word(moves, bound)


def parse_move_symbol(symbol: str) -> int:
    word = parse_moves(symbol)
    if len(word.moves) != 1:
        raise ValueError(f"{symbol!r} is not a single move")
    return word.moves[0]


# -- canned move substitutions --------------------------------------------------


def _move_alphabet(symbols: str) -> Alphabet:
    return Alphabet(tuple(symbols), symbols[0])


def move_substitution(up_image: str, down_image: str) -> Substitution1D:
    """Substitution over the unit-move symbols '+' and '-'."""
    return Substitution1D(_move_alphabet("+-"),
                          {"+": up_image, "-": down_image})


def always_up() -> Substitution1D:
    """Fixed rule '+' -> '+': the all-ascending path space."""
    return Substitution1D(_move_alphabet("+"), {"+": "+"})


def deep_zigzag() -> Substitution1D:
    """Zigzag whose walks revisit every height they touch, ever more often."""
    return move_substitution("++--++", "--++--")


def drift_zigzag() -> Substitution1D:
    """Zigzag whose two-sided center is left behind after finitely many visits."""
    return move_substitution("++-++", "--+--")


def floor_zigzag() -> Substitution1D:
    """Zigzag whose walk touches its floor exactly once."""
    return move_substitution("++-", "+--")


def thue_morse_moves() -> tuple[Substitution1D, dict[str, int]]:
    """Pair-coded substitution generating the differences of Thue-Morse.

    The four symbols track the overlapping 2-blocks of the 0/1 sequence,
    so two of them carry the same zero move; the explicit move map
    resolves them.
    """
    subst = Substitution1D(
        _move_alphabet("abcd"),
        {"a": "ab", "b": "ca", "c": "cd", "d": "ac"})
    return subst, {"a": 1, "b": 0, "c": -1, "d": 0}


# -- cut paths -------------------------------------------------------------------


def cut_path_search(language: Iterable[MoveWord], r: int,
                    horizon: int) -> MoveWord | None:
    """Search for a word after which walks certifiably avoid [0, r-1].

    The language is given by its words of one fixed length L (pre:
    factor-closed up to L, so shorter factors are derived). A candidate
    certifies at the horizon when no language-consistent one-sided
    extension of total length up to the horizon re-enters the strip
    [0, r-1] outside the candidate's span; heights on each side depend
    only on that side, so the two sides are searched independently.
    Candidates are tried shortest first, then lexicographically, and the
    first certificate wins. Returns None when nothing certifies.
    """
    words = [w.moves for w in language]
    if not words:
        return None
    length = len(words[0])
    if any(len(w) != length for w in words):
        raise ValueError("language words must share one length")
    if horizon > length:
        raise ValueError("horizon cannot exceed the language length")
    factors: dict[int, set[tuple[int, ...]]] = {}
    for l in range(1, length + 1):
        factors[l] = {w[i:i + l] for w in words for i in range(length - l + 1)}
    moves = sorted({m for w in words for m in w})
    bound = max(abs(m) for m in moves)

    candidates = sorted(
        {f for l in range(1, horizon // 2 + 1) for f in factors[l]},
        key=lambda f: (len(f), f))
    for cand in candidates:
        if _is_cut(cand, factors, moves, r, horizon):
            return MoveWord(cand, bound)
    return None


def _is_cut(cand, factors, moves, r, horizon) -> bool:
    # rightward the walk continues from the candidate's final height;
    # leftward the heights before the start are relative to the start.
    # Extensions stay within the horizon, hence within the language length.
    for sign, start in ((1, sum(cand)), (-1, 0)):
        stack = [(cand, start)]
        while stack:
            word, h = stack.pop()
            if len(word) >= horizon:
                continue
            for m in moves:
                nxt = word + (m,) if sign > 0 else (m,) + word
                if nxt not in factors[len(nxt)]:
                    continue
                nh = h + sign * m
                if 0 <= nh <= r - 1:
                    return False
                stack.append((nxt, nh))
    return True


# -- classification ---------------------------------------------------------------


def classify_path_space(subst: Substitution1D, horizon: int,
                        moves: Mapping[str, int] | None = None,
                        seed: str | None = None,
                        witness_cells: int = 2 ** 20) -> PathClassVerdict:
    """Classify the path space a move substitution generates.

    The base window is the least iterate of the seed reaching 4x the
    horizon (tiled when the substitution does not grow). Verdicts, in
    order of checks: ascending/descending when the whole window passes a
    window-sum test with constant at most the horizon; bounded when the
    height range of successive iterates has stabilized; unbounded
    recurrent when the range keeps growing and some factor re-enters the
    strip [0, r-1] at least horizon times, searching deeper iterates up
    to ``witness_cells`` for the shortest such factor; inconclusive
    otherwise. Every verdict carries replay data in ``details``.
    """
    if horizon < 1:
        raise ValueError("horizon must be positive")
    if moves is None:
        moves = {s: parse_move_symbol(s) for s in subst.alphabet.symbols}
    if seed is None:
        seed = subst.alphabet.symbols[0]

    target = 4 * horizon
    words = [seed]
    tiled = False
    while len(words[-1]) < target:
        nxt = subst.apply(words[-1])
        if len(nxt) <= len(words[-1]):
            tiled = True
            if nxt != words[-1]:
                words.append(nxt)
            break
        words.append(nxt)
    if len(words) == 1 and not tiled:
        words.append(subst.apply(words[-1]))
    window = words[-1]
    if tiled:
        reps = -(-target // len(window))
        window = window * reps

    step = max(abs(m) for m in moves.values())
    mv = [moves[c] for c in window]
    detail = {"window_length": len(window), "iterations": len(words) - 1,
              "tiled": tiled, "step_bound": step}

    m_up = _ascension_up_to(mv, horizon)
    if m_up is not None:
        return PathClassVerdict("ascending", horizon, constant=m_up,
                                details=detail)
    m_down = _ascension_up_to([-m for m in mv], horizon)
    if m_down is not None:
        return PathClassVerdict("descending", horizon, constant=m_down,
                                details=detail)

    ranges = [_height_range([moves[c] for c in w]) for w in words]
    if tiled:
        ranges.append(_height_range(mv))
    detail["iterate_ranges"] = ranges
    if len(ranges) >= 2 and ranges[-1] == ranges[-2]:
        return PathClassVerdict("bounded", horizon, constant=ranges[-1],
                                details=detail)

    # growing heights: hunt for a factor re-entering [0, r-1] horizon times
    word = window
    while True:
        found = _recurrence_witness(
            [moves[c] for c in word], step, horizon)
        if found is not None:
            start, stop, count = found
            witness = MoveWord(tuple(moves[c] for c in word[start:stop]), step)
            detail.update({"witness_start": start, "witness_visits": count,
                           "search_length": len(word)})
            return PathClassVerdict("unbounded_recurrent", horizon,
                                    witness=witness, details=detail)
        projected = sum(len(subst.rules[c]) for c in word)
        if projected > witness_cells or projected <= len(word):
            detail["search_length"] = len(word)
            return PathClassVerdict("inconclusive", horizon, details=detail)
        word = subst.apply(word)


def _height_range(moves: Sequence[int]) -> int:
    top = bottom = cur = 0
    for m in moves:
        cur += m
        if cur > top:
            top = cur
        elif cur < bottom:
            bottom = cur
    return top - bottom


def _recurrence_witness(moves: Sequence[int], r: int,
                        visits: int) -> tuple[int, int, int] | None:
    """Shortest window whose walk visits [h0, h0 + r - 1] `visits` times.

    h0 is the window's starting height. Returns (start, stop, count) over
    move indices, leftmost among the shortest.
    """
    heights = [0] + list(accumulate(moves))
    by_height: dict[int, list[int]] = {}
    for pos, h in enumerate(heights):
        by_height.setdefault(h, []).append(pos)
    strip_cache: dict[int, list[int]] = {}
    best: tuple[int, int, int] | None = None
    for start in range(len(heights)):
        h0 = heights[start]
        positions = strip_cache.get(h0)
        if positions is None:
            if r <= 1:
                positions = by_height.get(h0, [])
            else:
                positions = sorted(
                    p for h in range(h0, h0 + r)
                    for p in by_height.get(h, ()))
            strip_cache[h0] = positions
        ix = bisect_left(positions, start)
        if ix + visits - 1 >= len(positions):
            continue
        stop = positions[ix + visits - 1]
        if best is None or stop - start < best[1] - best[0]:
            best = (start, stop, visits)
    return best
