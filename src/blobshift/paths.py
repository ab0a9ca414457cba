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

from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate, chain, compress, count, islice
from operator import ge, le, sub
from typing import Iterable, Mapping, Sequence

from .limits import check_cells
from .substitution import Substitution1D, iterate_1d
from .patterns import alphabet_field

@dataclass(frozen=True)
class MoveWord:
    """Finite sequence of integer moves with a recorded step bound."""

    moves: tuple[int, ...]
    bound: int

    def __post_init__(self):
        if self.bound < 0:
            raise ValueError("step bound must be nonnegative")
        moves = self.moves
        if moves and max(max(moves), -min(moves)) > self.bound:
            raise ValueError("a move exceeds the step bound")

    def __len__(self) -> int:
        return len(self.moves)


def move_word(moves: Iterable[int], bound: int | None = None) -> MoveWord:
    """MoveWord with the bound inferred from the moves when not given."""
    moves = tuple(moves)
    if bound is None:
        bound = max(max(moves), -min(moves)) if moves else 1
    return MoveWord(moves, bound)


@dataclass(frozen=True)
class HeightWord:
    """Walk heights normalized to start at zero."""

    heights: tuple[int, ...]

    def __post_init__(self):
        if not self.heights or self.heights[0] != 0:
            raise ValueError("height words start at height 0")


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
    constant: int | None = None
    witness: MoveWord | None = None
    horizon: int = field(kw_only=True)
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
    if not heights:
        raise ValueError("need at least one height")
    base = heights[0]
    return HeightWord(tuple(h - base for h in heights))


def visit_profile(word: MoveWord) -> VisitProfile:
    """Visit counts of every height along the walk, start and end included."""
    return VisitProfile(dict(Counter(accumulate(word.moves, initial=0))),
                        len(word.moves) + 1)


def _ascension_up_to(heights: list[int], m_max: int, fails) -> int | None:
    # every length-m window sums positive (le) or negative (ge) iff no
    # height m places on fails against the one it starts from
    n = len(heights)
    last = n  # the start that refuted the previous lag; none yet
    for m in range(1, min(m_max, n - 1) + 1):
        # a lag is refuted iff some start refutes it, so one refuting
        # start settles it; the one that refuted lag m - 1 usually
        # refutes lag m too, and only when it does not is the walk scanned
        if last + m < n and fails(heights[last + m], heights[last]):
            continue
        last = next(compress(count(), map(fails, islice(heights, m, None),
                                          heights)), None)
        if last is None:
            return m
    return None


# -- move-word serialization ---------------------------------------------------
#
# "+" and "-" are unit moves, "0" a rest, and a sign with digits carries a
# larger step, e.g. "+2" or "-3". A dot parts a larger step from a rest
# right after it: "-2.0+" is -2, 0, +1, where "-20+" is -20, +1.


def format_moves(word: MoveWord) -> str:
    parts = []
    for before, m in zip((0,) + word.moves, word.moves):
        if m == 0:
            parts.append(".0" if abs(before) > 1 else "0")
        elif abs(m) == 1:
            parts.append("+" if m > 0 else "-")
        else:
            parts.append(f"{m:+d}")
    return "".join(parts)


def parse_moves(text: str) -> MoveWord:
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
            pos = end + text.startswith(".0", end)
        else:
            moves.append(sign)
            pos += 1
    return move_word(moves)


def parse_move_symbol(symbol: str) -> int:
    word = parse_moves(symbol)
    if len(word.moves) != 1:
        raise ValueError(f"{symbol!r} is not a single move")
    return word.moves[0]


# -- canned move substitutions --------------------------------------------------


def move_substitution(up_image: str, down_image: str) -> Substitution1D:
    """Substitution over the unit-move symbols '+' and '-'."""
    return Substitution1D(alphabet_field("+-"),
                          {"+": up_image, "-": down_image})


def always_up() -> Substitution1D:
    """Fixed rule '+' -> '+': the all-ascending path space."""
    return Substitution1D(alphabet_field("+"), {"+": "+"})


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
        alphabet_field("abcd"),
        {"a": "ab", "b": "ca", "c": "cd", "d": "ac"})
    return subst, {"a": 1, "b": 0, "c": -1, "d": 0}


# -- cut paths -------------------------------------------------------------------


def cut_path_search(language: Iterable[MoveWord], r: int,
                    horizon: int) -> MoveWord | None:
    """Search for a word after which walks certifiably avoid [0, r-1].

    The language is given by its words of one fixed length L (pre:
    factor-closed up to L). A candidate certifies at the horizon when no
    language-consistent one-sided extension of total length up to the
    horizon re-enters the strip [0, r-1] (heights from the candidate's
    start) outside the candidate's span. Candidates are tried shortest
    first, then lexicographically; the first certificate wins, and None
    means nothing certifies.

    Occurrence lemma: a one-sided extension is language-consistent
    exactly when it is a window of some word around an occurrence of the
    candidate. So with P a word's prefix sums, the candidate of length l
    at position i re-enters when some P[j] - P[i] lies in [0, r-1] for j
    in [max(0, i+l-horizon), i) or (i+l, min(L, i+horizon)], and a
    factor is a cut exactly when none of its occurrences re-enters.
    """
    words = {w.moves for w in language}
    if not words:
        return None
    length = len(next(iter(words)))
    if any(len(w) != length for w in words):
        raise ValueError("language words must share one length")
    if horizon > length:
        raise ValueError("horizon cannot exceed the language length")
    walks = [(w, list(accumulate(w, initial=0))) for w in words]
    for l in range(1, horizon // 2 + 1):
        seen, entered = set(), set()
        for w, heights in walks:
            for i in range(length - l + 1):
                factor = w[i:i + l]
                if factor in entered:
                    continue
                seen.add(factor)
                inside = range(heights[i], heights[i] + r).__contains__
                if any(map(inside, chain(heights[max(0, i + l - horizon):i],
                                         heights[i + l + 1:i + horizon + 1]))):
                    entered.add(factor)
        cuts = seen - entered
        if cuts:
            return MoveWord(min(cuts), max(map(abs, chain(*words))))
    return None


# -- classification ---------------------------------------------------------------


# the deepest iterate the unbounded-recurrent witness search builds
_WITNESS_CELLS = 2 ** 20


def classify_path_space(subst: Substitution1D, horizon: int,
                        moves: Mapping[str, int] | None = None
                        ) -> PathClassVerdict:
    """Classify the path space a move substitution generates.

    The base window is the least iterate of the alphabet's first symbol
    reaching 4x the horizon (tiled when the substitution does not grow).
    Verdicts, in order of checks: ascending/descending when the whole
    window passes a window-sum test with constant at most the horizon;
    bounded when the height range of successive iterates has stabilized;
    unbounded recurrent when the range keeps growing and some factor
    re-enters the strip [0, r-1] at least horizon times, searching deeper
    iterates of up to ``_WITNESS_CELLS`` (2^20) cells for the shortest
    such factor; inconclusive otherwise. Every verdict carries replay data
    in ``details``. Each iterate and the tiled window check their length
    against the cell cap before they are built and raise
    :class:`SizeLimit` past it. Any other than a 1D substitution raises
    ValueError.
    """
    if not isinstance(subst, Substitution1D):
        raise ValueError("classify_path_space needs a 1D substitution")
    if horizon < 1:
        raise ValueError("horizon must be positive")
    if moves is None:
        moves = {s: parse_move_symbol(s) for s in subst.alphabet.symbols}
    elif missing := set(subst.alphabet.symbols) - moves.keys():
        raise ValueError(f"no move given for {min(missing)!r}")
    to_moves = moves.__getitem__

    target = 4 * horizon
    words = [subst.alphabet.symbols[0]]
    tiled = False
    while len(words[-1]) < target:
        nxt = iterate_1d(subst, words[-1], 1)
        if len(nxt) <= len(words[-1]):
            tiled = True
            if nxt != words[-1]:
                words.append(nxt)
            break
        words.append(nxt)
    window = words[-1]
    if tiled:
        reps = -(-target // len(window))
        check_cells(len(window) * reps, "tiled window")
        window = window * reps

    step = max(abs(m) for m in moves.values())
    heights = _heights(window, to_moves)
    detail = {"window_length": len(window), "iterations": len(words) - 1,
              "tiled": tiled, "step_bound": step}

    m_up = _ascension_up_to(heights, horizon, le)
    if m_up is not None:
        return PathClassVerdict("ascending", m_up, horizon=horizon,
                                details=detail)
    m_down = _ascension_up_to(heights, horizon, ge)
    if m_down is not None:
        return PathClassVerdict("descending", m_down, horizon=horizon,
                                details=detail)

    # the window is the last iterate unless it was tiled
    walks = [_heights(w, to_moves) for w in (words if tiled else words[:-1])]
    ranges = [max(hs) - min(hs) for hs in walks + [heights]]
    detail["iterate_ranges"] = ranges
    if len(ranges) >= 2 and ranges[-1] == ranges[-2]:
        return PathClassVerdict("bounded", ranges[-1], horizon=horizon,
                                details=detail)

    # growing heights: hunt for a factor re-entering [0, r-1] horizon times
    word = window
    while True:
        found = _recurrence_witness(heights, step, horizon)
        if found is not None:
            start, stop, count = found
            witness = MoveWord(tuple(map(to_moves, word[start:stop])), step)
            detail.update({"witness_start": start, "witness_visits": count,
                           "search_length": len(word)})
            return PathClassVerdict("unbounded_recurrent", witness=witness,
                                    horizon=horizon, details=detail)
        projected = subst.image_length(word)
        if projected > _WITNESS_CELLS or projected <= len(word):
            detail["search_length"] = len(word)
            return PathClassVerdict("inconclusive", horizon=horizon,
                                    details=detail)
        word = iterate_1d(subst, word, 1)
        heights = _heights(word, to_moves)


def _heights(word: str, to_moves) -> list[int]:
    """Heights of the walk a symbol word drives, starting at zero."""
    return list(accumulate(map(to_moves, word), initial=0))


def _recurrence_witness(heights: list[int], r: int,
                        visits: int) -> tuple[int, int, int] | None:
    """Shortest window whose walk visits [h0, h0 + r - 1] `visits` times.

    `heights` are the walk's prefix sums; h0 is the window's starting
    height, and r <= 1 means the one height h0. Returns (start, stop,
    count) over move indices, leftmost among the shortest.
    """
    counts = Counter(heights)
    width = max(r, 1)
    in_strip = counts if width == 1 else {
        h: sum(counts.get(h + i, 0) for i in range(width)) for h in counts}
    bases = [h for h, c in in_strip.items() if c >= visits]
    if not bases:
        return None
    # positions only of the heights some qualifying strip covers
    at = {b + i: [] for b in bases for i in range(width)}
    for pos, h in enumerate(heights):
        if h in at:
            at[h].append(pos)
    ahead = visits - 1
    found = []  # (length, start)
    for h0 in bases:
        if width == 1:
            # each start's stop is `ahead` entries on in its own height's list
            starts = at[h0]
            found.append(min(zip(map(sub, starts[ahead:], starts), starts)))
        else:
            strip = sorted(p for h in range(h0, h0 + width) for p in at[h])
            found.extend((strip[ix + ahead] - p, p)
                         for ix, p in enumerate(strip[:len(strip) - ahead])
                         if heights[p] == h0)
    if not found:
        return None
    length, start = min(found)
    return start, start + length, visits
