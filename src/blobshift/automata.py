"""One-dimensional cellular automata on finite-support configurations,
plus order searches in the topological full group of the full shift.

The probes work on the two witness families that finite machinery can
actually exhaust: finite-support configurations (evolved directly) and
spatially periodic configurations (evolved as cyclic words). Verdicts
carry replayable witnesses and an explicit inconclusive tag; none of this
decides anything about the full space.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Iterator, Mapping

from .errors import (
    InvariantViolation,
    NotInvertible,
    NotZeroPreserving,
    SizeLimit,
    UnsupportedFormat,
)
from .limits import cell_cap
from .patterns import (
    Alphabet,
    BINARY,
    alphabet_field,
    arrow,
    header_ints,
    text_parser,
)


def _check_table(alphabet: Alphabet, radius: int, table: Mapping) -> None:
    """Every key is a (2 radius + 1)-word and every such word is a key."""
    width = 2 * radius + 1
    for word in table:
        if len(word) != width:
            raise ValueError(f"table key {word!r} is not a {width}-word")
    # with every key width cells long, only an empty table, never total,
    # leaves the power unbounded by the input
    if not table or len(table) != len(alphabet.symbols) ** width:
        raise ValueError("table must be total")


@dataclass(frozen=True)
class CARule:
    """Radius-rho local rule: (2 rho + 1)-word -> symbol, total."""

    alphabet: Alphabet
    radius: int
    table: Mapping[str, str]

    def __post_init__(self):
        if self.radius < 0:
            raise ValueError("radius must be nonnegative")
        _check_table(self.alphabet, self.radius, self.table)
        for out in self.table.values():
            if out not in self.alphabet.symbols:
                raise ValueError(f"table value {out!r} not in the alphabet")

    @property
    def zero_preserving(self) -> bool:
        zero = self.alphabet.zero
        return self.table[zero * (2 * self.radius + 1)] == zero


@dataclass(frozen=True)
class FiniteConfig:
    """Finite-support configuration: a word at an offset, zeros outside.

    Canonical form never carries a leading or trailing zero; the all-zero
    configuration is the empty word at offset 0.
    """

    alphabet: Alphabet
    offset: int
    word: str

    def __post_init__(self):
        zero = self.alphabet.zero
        if self.word and (self.word[0] == zero or self.word[-1] == zero):
            raise ValueError("canonical form trims boundary zeros")
        if not self.word and self.offset != 0:
            raise ValueError("the all-zero configuration sits at offset 0")

    @classmethod
    def make(cls, word: str, offset: int = 0,
             alphabet: Alphabet = BINARY) -> "FiniteConfig":
        zero = alphabet.zero
        start, end = 0, len(word)
        while start < end and word[start] == zero:
            start += 1
        while end > start and word[end - 1] == zero:
            end -= 1
        if start == end:
            return cls(alphabet, 0, "")
        return cls(alphabet, offset + start, word[start:end])

    def is_zero(self) -> bool:
        return not self.word

    def support_size(self) -> int:
        zero = self.alphabet.zero
        return sum(1 for c in self.word if c != zero)


# -- the stepping kernel -------------------------------------------------------
#
# Every probe steps words, not cells: the image of a word is read off a
# table of blocks, each mapping a (2 rho + 8)-window to its 8 image cells.
# The table fills on first sight of a window, so a rule pays only for the
# windows its trajectories reach.

_BLOCK = 8


class _BlockTable(dict):
    """(2 rho + 8)-window -> its 8 image cells, computed when first asked."""

    def __init__(self, rule: CARule):
        super().__init__()
        self.table = rule.table
        self.width = 2 * rule.radius + 1

    def __missing__(self, window: str) -> str:
        table, width = self.table, self.width
        block = "".join([table[window[j:j + width]] for j in range(_BLOCK)])
        self[window] = block
        return block


def _stepper(rule: CARule):
    """(step_word, step_cycle) for the rule, sharing one block table.

    step_word(word) returns the image of a finite configuration's word as
    (trimmed image word, offset change); the image word is "" when it is
    all zero. step_cycle(word) returns the image of the cyclic word.
    """
    rho = rule.radius
    zero = rule.alphabet.zero
    span = 2 * rho + _BLOCK
    blocks = _BlockTable(rule)
    join = "".join
    margin = zero * (2 * rho)
    # tails[k] closes a finite word's padding with k more zeros, so the
    # last block's window is full
    tails = [margin + zero * k for k in range(_BLOCK)]

    def image(padded: str, n: int) -> str:
        # padded[j:j + 2 rho + 1] is image cell j's window, for j up to n
        # rounded up to whole blocks
        return join([blocks[padded[k:k + span]]
                     for k in range(0, n, _BLOCK)])[:n]

    def step_word(word: str) -> tuple[str, int]:
        n = len(word) + 2 * rho
        out = image(margin + word + tails[-n % _BLOCK], n)
        core = out.lstrip(zero)
        return core.rstrip(zero), n - len(core) - rho

    def step_cycle(word: str) -> str:
        n = len(word)
        total = -(-n // _BLOCK) * _BLOCK + 2 * rho
        start = -rho % n
        return image((word * (total // n + 2))[start:start + total], n)

    return step_word, step_cycle


def step(rule: CARule, config: FiniteConfig) -> FiniteConfig:
    """One application of the rule; support grows at most rho per side."""
    if config.is_zero():
        return config
    word, shift = _stepper(rule)[0](config.word)
    if not word:
        return FiniteConfig(rule.alphabet, 0, "")
    return FiniteConfig(rule.alphabet, config.offset + shift, word)


def evolve(rule: CARule, config: FiniteConfig,
           steps: int) -> list[FiniteConfig]:
    """Trajectory [c, f(c), ..., f^steps(c)] for a zero-preserving rule."""
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    if not rule.zero_preserving:
        raise NotZeroPreserving("finite evolution needs a zero-preserving rule")
    step_word, _ = _stepper(rule)
    rho = rule.radius
    lo, hi = config.offset, config.offset + len(config.word)
    zero = FiniteConfig(rule.alphabet, 0, "")
    out = [config]
    word, offset = config.word, config.offset
    for t in range(1, steps + 1):
        if word:
            word, shift = step_word(word)
            offset += shift
        # light cone: support stays within rho*t of the original
        if word and (offset < lo - rho * t
                     or offset + len(word) > hi + rho * t):
            raise InvariantViolation(
                f"step {t} left the light cone of {config.word!r}")
        out.append(FiniteConfig(rule.alphabet, offset, word) if word else zero)
    return out


def _canonical_words(alphabet: Alphabet, max_width: int) -> Iterator[str]:
    """Words of the nonzero canonical configurations, in enumeration order."""
    zero = alphabet.zero
    nonzero = [s for s in alphabet.symbols if s != zero]
    for width in range(1, max_width + 1):
        if width == 1:
            yield from nonzero
            continue
        for first in nonzero:
            for middle in product(alphabet.symbols, repeat=width - 2):
                inner = first + "".join(middle)
                for last in nonzero:
                    yield inner + last


def canonical_configs(alphabet: Alphabet, max_width: int) -> Iterator[FiniteConfig]:
    """Nonzero canonical configurations by width, then lexicographically."""
    for word in _canonical_words(alphabet, max_width):
        yield FiniteConfig(alphabet, 0, word)


def _check_probe_size(alphabet: Alphabet, max_width: int,
                      max_time: int) -> None:
    if max_width < 1 or max_time < 1:
        raise ValueError("max_width and max_time must be at least 1")
    _check_table_cap(alphabet, max_width, f"probe of width {max_width}")


def _finite_fates(step_word, alphabet: Alphabet, max_width: int,
                  max_time: int) -> Iterator[tuple]:
    """What becomes of each canonical seed within max_time steps.

    Yields (seed, n, m) when f^n(seed) is the seed shifted by m (the first
    such n), (seed, n, None) when f^n(seed) is zero, and (seed, None,
    None) when neither happens by max_time.
    """
    for seed in _canonical_words(alphabet, max_width):
        word, offset = seed, 0
        for n in range(1, max_time + 1):
            word, shift = step_word(word)
            if not word:
                yield seed, n, None
                break
            offset += shift
            if word == seed:
                yield seed, n, -offset
                break
        else:
            yield seed, None, None


def find_glider(rule: CARule, max_width: int,
                max_time: int) -> tuple[FiniteConfig, int, int] | None:
    """First enumerated config whose trajectory revisits a translate.

    Returns (config, n, m) with f^n(config) equal to the config shifted by
    m. Finite nonzero configurations are never shift-periodic, so every
    revisit qualifies, including m = 0.
    """
    _check_probe_size(rule.alphabet, max_width, max_time)
    if not rule.zero_preserving:
        raise NotZeroPreserving("glider search needs a zero-preserving rule")
    step_word, _ = _stepper(rule)
    for seed, n, m in _finite_fates(step_word, rule.alphabet,
                                    max_width, max_time):
        if m is not None:
            return FiniteConfig(rule.alphabet, 0, seed), n, m
    return None


# -- nilpotency ---------------------------------------------------------------


@dataclass(frozen=True)
class NilpotencyVerdict:
    tag: str  # nilpotent_on_probe | not_nilpotent | inconclusive
    steps: int | None = None
    witness: dict = field(default_factory=dict)


def _cyclic_words(alphabet: Alphabet, max_len: int) -> Iterator[str]:
    """One representative per rotation class, all-zero excluded.

    The representative is the least rotation; classes come in the order
    their first member is enumerated.
    """
    zero = alphabet.zero
    for length in range(1, max_len + 1):
        seen = {zero * length}
        for tup in product(alphabet.symbols, repeat=length):
            word = "".join(tup)
            if word in seen:
                continue
            rotations = {word[i:] + word[:i] for i in range(length)}
            seen |= rotations
            yield min(rotations)


def nilpotency_probe(rule: CARule, max_width: int,
                     max_time: int) -> NilpotencyVerdict:
    """Bounded nilpotency probe over finite and periodic witnesses.

    Nilpotent-on-probe reports the max death time over all canonical
    finite configurations of bounded width, provided the cyclic words die
    too. A glider or a surviving cycle is a definite counterexample; a
    survivor without either is inconclusive at this probe size.
    """
    _check_probe_size(rule.alphabet, max_width, max_time)
    if not rule.zero_preserving:
        raise NotZeroPreserving("the probe needs a zero-preserving rule")
    step_word, step_cycle = _stepper(rule)
    deaths = 0
    survivor = None
    for seed, n, m in _finite_fates(step_word, rule.alphabet,
                                    max_width, max_time):
        if m is not None:
            return NilpotencyVerdict(
                "not_nilpotent",
                witness={"kind": "glider", "word": seed,
                         "time": n, "shift": m})
        if n is None:
            survivor = survivor or seed
        else:
            deaths = max(deaths, n)
    zero = rule.alphabet.zero
    for word in _cyclic_words(rule.alphabet, max_width):
        dead = zero * len(word)
        current = word
        seen = {current}
        for t in range(1, max_time + 1):
            current = step_cycle(current)
            if current == dead:
                deaths = max(deaths, t)
                break
            if current in seen:
                return NilpotencyVerdict(
                    "not_nilpotent",
                    witness={"kind": "periodic", "word": word, "time": t})
            seen.add(current)
        else:
            survivor = survivor or word
    if survivor is None:
        return NilpotencyVerdict("nilpotent_on_probe", steps=deaths)
    return NilpotencyVerdict("inconclusive",
                             witness={"survivor": survivor})


def asymptotic_profile(rule: CARule, config: FiniteConfig,
                       horizon: int) -> list[int]:
    """Nonzero-cell counts along the trajectory, step 0 included."""
    return [c.support_size() for c in evolve(rule, config, horizon)]


# -- topological full group -----------------------------------------------------


@dataclass(frozen=True)
class TFGElement:
    """Shift-cocycle table: central (2 rho + 1)-window -> shift in [-rho, rho]."""

    alphabet: Alphabet
    radius: int
    table: Mapping[str, int]

    def __post_init__(self):
        _check_table(self.alphabet, self.radius, self.table)
        for shift in self.table.values():
            if abs(shift) > self.radius:
                raise ValueError("shift exceeds the radius")


def tfg_validate(element: TFGElement) -> TFGElement:
    """Check injectivity of the induced map on all windows of width 4 rho + 1.

    The induced map sends x to its translate by the central window's
    shift, so two points can only collide when one is a translate of the
    other by at most 2 rho; scanning every offset in that range over all
    joint windows is a complete injectivity check, and 4 rho + 1 cells
    cover the widest case.
    """
    rho = element.radius
    _check_table_cap(element.alphabet, 4 * rho + 1,
                     f"injectivity check at radius {rho}")
    symbols = element.alphabet.symbols
    width = 2 * rho + 1
    for j in range(1, 2 * rho + 1):
        span = j + width
        for tup in product(symbols, repeat=span):
            word = "".join(tup)
            if element.table[word[:width]] - element.table[word[j:j + width]] == j:
                raise NotInvertible(word, j)
    return element


def compose(outer: TFGElement, inner: TFGElement) -> TFGElement:
    """outer after inner, via cocycle addition along the inner shift."""
    if outer.alphabet != inner.alphabet:
        raise ValueError("composition needs a common alphabet")
    radius = outer.radius + inner.radius
    width = 2 * radius + 1
    symbols = outer.alphabet.symbols
    _check_table_cap(outer.alphabet, width,
                     f"composed table at radius {radius}")
    iw = 2 * inner.radius + 1
    ow = 2 * outer.radius + 1
    table = {}
    for tup in product(symbols, repeat=width):
        word = "".join(tup)
        ic = radius - inner.radius
        c_inner = inner.table[word[ic:ic + iw]]
        oc = radius + c_inner - outer.radius
        c_outer = outer.table[word[oc:oc + ow]]
        table[word] = c_inner + c_outer
    return TFGElement(outer.alphabet, radius, table)


def _check_table_cap(alphabet: Alphabet, width: int, what: str) -> None:
    """Raise SizeLimit when |A|^width words of width cells pass the cap."""
    cap = cell_cap()
    # past cap.bit_length() letters a power of |A| >= 2 is over the cap anyway
    cells = len(alphabet.symbols) ** min(width, cap.bit_length()) * width
    if cells > cap:
        raise SizeLimit(f"{what} passes the {cap}-cell cap")


def identity_element(alphabet: Alphabet = BINARY) -> TFGElement:
    return TFGElement(alphabet, 0, {s: 0 for s in alphabet.symbols})


def shift_element(alphabet: Alphabet = BINARY, amount: int = 1) -> TFGElement:
    rho = abs(amount)
    width = 2 * rho + 1
    table = {"".join(t): amount
             for t in product(alphabet.symbols, repeat=width)}
    return TFGElement(alphabet, rho, table)


def block_swap_element() -> TFGElement:
    """Involution exchanging the two cells of every aligned '10' block.

    Shift +1 when cells 0,1 read '10'; shift -1 when cells -1,0 read
    '10'; 0 otherwise. The two triggers are mutually exclusive and each
    image window triggers the opposite rule, so the element squares to
    the identity.
    """
    table = {}
    for tup in product("01", repeat=3):
        word = "".join(tup)
        if word[1:] == "10":
            table[word] = 1
        elif word[:2] == "10":
            table[word] = -1
        else:
            table[word] = 0
    return TFGElement(BINARY, 1, table)


def is_identity(element: TFGElement) -> bool:
    return all(v == 0 for v in element.table.values())


@dataclass(frozen=True)
class OrderVerdict:
    tag: str  # torsion | infinite_order | inconclusive
    order: int | None = None
    witness: dict = field(default_factory=dict)


def cocycle_on_cycle(element: TFGElement, word: str, position: int) -> int:
    """Cocycle value at a rotation of a periodic word."""
    rho = element.radius
    n = len(word)
    window = "".join(word[(position + d) % n] for d in range(-rho, rho + 1))
    return element.table[window]


def tfg_order_search(element: TFGElement, max_order: int,
                     max_period: int) -> OrderVerdict:
    """Torsion via symbolic powers, infinite order via periodic drift.

    Composing the element with itself keeps the accumulated cocycle
    exact, so an all-zero table certifies the order. On a periodic point
    the orbit state is the shift total mod the period; once a state
    repeats with nonzero drift, the cocycle totals are strictly monotone
    along that subsequence forever, certifying infinite order.
    """
    power = element
    for n in range(1, max_order + 1):
        if is_identity(power):
            return OrderVerdict("torsion", order=n)
        if n < max_order:
            power = compose(element, power)

    _check_table_cap(element.alphabet, max_period,
                     f"drift search up to period {max_period}")
    for period in range(1, max_period + 1):
        for tup in product(element.alphabet.symbols, repeat=period):
            word = "".join(tup)
            total = 0
            seen = {0: (0, 0)}
            for t in range(1, max_order + 1):
                total += cocycle_on_cycle(element, word, total % period)
                state = total % period
                if state in seen:
                    prev_t, prev_total = seen[state]
                    drift = total - prev_total
                    if drift != 0:
                        return OrderVerdict(
                            "infinite_order",
                            witness={"word": word, "k": t - prev_t,
                                     "drift": drift})
                    break
                seen[state] = (t, total)
    return OrderVerdict("inconclusive")


# -- rule files -----------------------------------------------------------------
#
# "ca <alphabet> radius <rho>" then "<word> -> <symbol>" lines for local
# rules or "<word> -> shift <k>" lines for cocycle tables; a
# "* -> ..." wildcard line supplies the default for every other word.


def _parse_rule_lines(text: str, value) -> tuple[Alphabet, int, dict]:
    """(alphabet, radius, table) of a rule file, value() reading each image."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("ca "):
        raise UnsupportedFormat("rule text must start with 'ca'")
    head = lines[0].split()
    if len(head) != 4 or head[2] != "radius":
        raise UnsupportedFormat("header must read 'ca <alphabet> radius <rho>'")
    alphabet = alphabet_field(head[1])
    (radius,) = header_ints(lines[0], 3)
    if radius < 0:
        raise UnsupportedFormat("radius must be nonnegative")
    entries = [arrow(line) for line in lines[1:]]
    for left, _ in entries:
        # a foreign window could stand in for a missing one and pass the count
        if left != "*" and not set(left) <= set(alphabet.symbols):
            raise UnsupportedFormat(f"window {left!r} leaves the alphabet")
    defaults = [right for left, right in entries if left == "*"]
    table = {}
    if defaults:
        width = 2 * radius + 1
        _check_table_cap(alphabet, width, f"wildcard at radius {radius}")
        fill = value(defaults[-1])
        table = {"".join(t): fill
                 for t in product(alphabet.symbols, repeat=width)}
    table.update((left, value(right)) for left, right in entries
                 if left != "*")
    return alphabet, radius, table


def _shift(right: str) -> int:
    shift = header_ints(right) if right.split()[:1] == ["shift"] else []
    if len(shift) != 1:
        raise UnsupportedFormat(f"expected 'shift <k>', got {right!r}")
    return shift[0]


@text_parser
def parse_ca_rule(text: str) -> CARule:
    return CARule(*_parse_rule_lines(text, str))


@text_parser
def parse_tfg_element(text: str) -> TFGElement:
    return TFGElement(*_parse_rule_lines(text, _shift))


# -- canned rules ----------------------------------------------------------------


def zero_rule(alphabet: Alphabet = BINARY) -> CARule:
    return CARule(alphabet, 0, {s: alphabet.zero for s in alphabet.symbols})


def identity_rule(alphabet: Alphabet = BINARY) -> CARule:
    return CARule(alphabet, 0, {s: s for s in alphabet.symbols})


def shift_rule(alphabet: Alphabet = BINARY) -> CARule:
    """f(x)_i = x_(i+1): contents drift one cell to the left."""
    table = {"".join(t): t[2]
             for t in product(alphabet.symbols, repeat=3)}
    return CARule(alphabet, 1, table)


def xor_rule() -> CARule:
    """f(x)_i = x_i xor x_(i+1) over the binary alphabet."""
    table = {}
    for t in product("01", repeat=3):
        word = "".join(t)
        table[word] = str(int(word[1]) ^ int(word[2]))
    return CARule(BINARY, 1, table)


def decrement_rule() -> CARule:
    """Pointwise max(a - 1, 0) on the alphabet 0,1,2."""
    alphabet = Alphabet(("0", "1", "2"), "0")
    table = {"0": "0", "1": "0", "2": "1"}
    return CARule(alphabet, 0, table)
