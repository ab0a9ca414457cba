"""One-dimensional cellular automata on finite-support configurations,
plus order searches in the topological full group of the full shift.

The probes work on the two witness families that finite machinery can
actually exhaust: finite-support configurations (evolved directly) and
spatially periodic configurations (evolved as cyclic words). Verdicts
carry replayable witnesses and an explicit inconclusive tag; none of this
decides anything about the full space. A linear rule over a prime
alphabet is decided on the finite seeds from its coefficients instead
(see _linear_coefficients), and a nilpotent rule whose index fits the
probe certifies that index (see _nilpotency_index); both give the
verdicts the seeds would give.
"""
from __future__ import annotations

from itertools import chain, compress, filterfalse, repeat
from operator import add, getitem, gt, mul
from typing import Iterator, Mapping

from .errors import (
    InvariantViolation,
    NotInvertible,
    NotZeroPreserving,
    SizeLimit,
    UnsupportedFormat,
)
from .limits import cell_cap, check_cells
from .patterns import (
    Alphabet,
    BINARY,
    _Record,
    alphabet_field,
    arrow,
    header_ints,
    text_parser,
)


def _check_table(alphabet: Alphabet, radius: int, table: Mapping) -> None:
    """The keys are exactly the (2 radius + 1)-words over the alphabet."""
    width = 2 * radius + 1
    # all keys' letters are checked at once, by deleting the alphabet's;
    # the searches below, like the value checks of the two table types,
    # run only to name the first offender
    drop = str.maketrans("", "", "".join(alphabet.symbols))
    if "".join(table).translate(drop):
        word = next(word for word in table if word.translate(drop))
        raise ValueError(f"window {word!r} leaves the alphabet")
    for word in compress(table, map(width.__ne__, map(len, table))):
        raise ValueError(f"table key {word!r} is not a {width}-word")
    # with every key width cells long, only an empty table, never total,
    # leaves the power unbounded by the input
    if not table or len(table) != len(alphabet.symbols) ** width:
        raise ValueError("table must be total")


def _spread(column: list, each: int, times: int) -> Iterator:
    """column with every entry repeated each times, then tiled times times.

    In product order a word's letter j steps every |A|^(width - 1 - j)
    words, so a w-letter table read at letters a..a+w-1 of every
    width-word, in product order, is its own column spread with each =
    |A|^(width - a - w) and times = |A|^a.
    """
    period = list(chain.from_iterable(map(repeat, column, repeat(each))))
    return chain.from_iterable(repeat(period, times))


def _words(symbols, width: int) -> list[str]:
    """The width-words over symbols in product order.

    Each word is a head of width - width // 2 letters plus a tail of
    width // 2, so the two halves are built once and paired by _spread.
    """
    if width < 2:
        return list(symbols) if width else [""]
    heads = _words(symbols, width - width // 2)
    tails = _words(symbols, width // 2)
    return list(map(add, _spread(heads, len(tails), 1),
                    _spread(tails, 1, len(heads))))


class CARule(_Record):
    """Radius-rho local rule: (2 rho + 1)-word -> symbol, total."""

    __slots__ = ("alphabet", "radius", "table")

    def __init__(self, alphabet: Alphabet, radius: int,
                 table: Mapping[str, str]):
        if radius < 0:
            raise ValueError("radius must be nonnegative")
        _check_table(alphabet, radius, table)
        for out in filterfalse(alphabet.symbols.__contains__, table.values()):
            raise ValueError(f"table value {out!r} not in the alphabet")
        self._fill(alphabet, radius, table)

    @property
    def zero_preserving(self) -> bool:
        zero = self.alphabet.zero
        return self.table[zero * (2 * self.radius + 1)] == zero


class FiniteConfig(_Record):
    """Finite-support configuration: a word at an offset, zeros outside.

    Canonical form never carries a leading or trailing zero; the all-zero
    configuration is the empty word at offset 0. A word symbol outside
    the alphabet raises ValueError.
    """

    __slots__ = ("alphabet", "offset", "word")

    def __init__(self, alphabet: Alphabet, offset: int, word: str):
        if foreign := set(word) - set(alphabet.symbols):
            raise ValueError(f"symbol {min(foreign)!r} not in alphabet")
        zero = alphabet.zero
        if word and (word[0] == zero or word[-1] == zero):
            raise ValueError("canonical form trims boundary zeros")
        if not word and offset != 0:
            raise ValueError("the all-zero configuration sits at offset 0")
        self._fill(alphabet, offset, word)

    @classmethod
    def make(cls, word: str, offset: int = 0,
             alphabet: Alphabet = BINARY) -> "FiniteConfig":
        core = word.lstrip(alphabet.zero)
        if not core:
            return cls(alphabet, 0, "")
        return cls(alphabet, offset + len(word) - len(core),
                   core.rstrip(alphabet.zero))

    def support_size(self) -> int:
        return len(self.word) - self.word.count(self.alphabet.zero)


# -- the stepping kernel -------------------------------------------------------
#
# Every probe steps words, not cells: the image of a word is read off a
# table of blocks, each mapping a (2 rho + 8)-window to its 8 image cells.
# The table fills on first sight of a window, so a rule pays only for the
# windows its trajectories reach. The finite-seed probes also keep, per
# call, each distinct word's image: the image of a width-k seed is often a
# later width-(k + 1) seed, so about half of their steps repeat a word.
# That memo holds at most the cells of the seeds' light cones, which
# _check_probe_size has already charged against the cap.

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


def evolve(rule: CARule, config: FiniteConfig,
           steps: int) -> list[FiniteConfig]:
    """Trajectory [c, f(c), ..., f^steps(c)] for a zero-preserving rule."""
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    if not rule.zero_preserving:
        raise NotZeroPreserving("finite evolution needs a zero-preserving rule")
    rho = rule.radius
    # the trajectory holds steps + 1 configurations, each at least one entry
    check_cells(_light_cone(max(len(config.word), 1), steps, rho),
                f"trajectory of {steps} steps")
    step_word, _ = _stepper(rule)
    lo, hi = config.offset, config.offset + len(config.word)
    zero = FiniteConfig(rule.alphabet, 0, "")
    out = [config]
    word, offset = config.word, config.offset
    for t in range(1, steps + 1):
        if word:
            word, shift = step_word(word)
            offset += shift
        # lemma: the light cone of a radius-rho rule grows by rho a step
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
        middles = _words(alphabet.symbols, width - 2)
        for first in nonzero:
            for middle in middles:
                inner = first + middle
                for last in nonzero:
                    yield inner + last


def canonical_configs(alphabet: Alphabet, max_width: int) -> Iterator[FiniteConfig]:
    """Nonzero canonical configurations by width, then lexicographically."""
    for word in _canonical_words(alphabet, max_width):
        yield FiniteConfig(alphabet, 0, word)


def _light_cone(width: int, steps: int, rho: int) -> int:
    """Cells of a trajectory from a width-cell word, steps steps long.

    Step t holds at most width + 2 rho t cells.
    """
    return (steps + 1) * width + rho * steps * (steps + 1)


def _check_probe_size(rule: CARule, max_width: int, max_time: int) -> None:
    """Each of the |A|^max_width seeds may run its whole light cone."""
    if max_width < 1 or max_time < 1:
        raise ValueError("max_width and max_time must be at least 1")
    check_cells(_table_cells(rule.alphabet, max_width,
                             _light_cone(max_width, max_time, rule.radius)),
                f"probe of width {max_width} and time {max_time}")


def _finite_fates(step_word, alphabet: Alphabet, max_width: int,
                  max_time: int) -> Iterator[tuple]:
    """What becomes of each canonical seed within max_time steps.

    Yields (seed, n, m) when f^n(seed) is the seed shifted by m (the first
    such n), (seed, n, None) when f^n(seed) is zero, and (seed, None,
    None) when neither happens by max_time. Each distinct word is stepped
    once.
    """
    images = {}
    for seed in _canonical_words(alphabet, max_width):
        word, offset = seed, 0
        for n in range(1, max_time + 1):
            image = images.get(word)
            if image is None:
                image = images[word] = step_word(word)
            word, shift = image
            if not word:
                yield seed, n, None
                break
            offset += shift
            if word == seed:
                yield seed, n, -offset
                break
        else:
            yield seed, None, None


def _linear_coefficients(rule: CARule) -> tuple[int, ...] | None:
    """(a_-rho, ..., a_rho) of a linear rule over a prime alphabet, else None.

    Symbol i of the alphabet reads as (i - z) mod p, z the zero's index
    and p = |A|; the rule is linear when every table entry reads as
    sum_j a_j x_j mod p over its window's letters x_-rho .. x_rho.

    Such a rule sends a finite configuration x, read as the Laurent
    polynomial sum_i x_i X^i, to P x with P = sum_j a_j X^-j over Z_p.
    Z_p is a field, so Z_p[X, X^-1] has no zero divisors, and the spread
    between the highest and the lowest degree of a product is the sum of
    its factors' spreads. With two or more nonzero a_j, P has a positive
    spread; so for x != 0 and n >= 1, P^n x != 0 (no seed dies) and
    P^n != X^m (a monomial has spread 0), so P^n x != X^m x (no seed
    returns to a translate), at every width and time.
    """
    symbols, zero = rule.alphabet.symbols, rule.alphabet.zero
    p = len(symbols)
    if p < 2 or any(p % d == 0 for d in range(2, p)):
        return None
    z = symbols.index(zero)
    value = {symbol: (i - z) % p for i, symbol in enumerate(symbols)}
    one, width, table = symbols[(z + 1) % p], 2 * rule.radius + 1, rule.table
    coefficients = tuple(value[table[zero * j + one + zero * (width - 1 - j)]]
                         for j in range(width))
    for word, out in table.items():
        if sum(map(mul, coefficients, map(value.__getitem__, word))) % p \
                != value[out]:
            return None
    return coefficients


def find_glider(rule: CARule, max_width: int,
                max_time: int) -> tuple[FiniteConfig, int, int] | None:
    """First enumerated config whose trajectory revisits a translate.

    Returns (config, n, m) with f^n(config) equal to the config shifted by
    m. Finite nonzero configurations are never shift-periodic, so every
    revisit qualifies, including m = 0. A linear rule over a prime
    alphabet with two or more nonzero coefficients has no glider of any
    width or time (see _linear_coefficients): it gets None unstepped.
    """
    _check_probe_size(rule, max_width, max_time)
    if not rule.zero_preserving:
        raise NotZeroPreserving("glider search needs a zero-preserving rule")
    if sum(map(bool, _linear_coefficients(rule) or ())) > 1:
        return None
    step_word, _ = _stepper(rule)
    for seed, n, m in _finite_fates(step_word, rule.alphabet,
                                    max_width, max_time):
        if m is not None:
            return FiniteConfig(rule.alphabet, 0, seed), n, m
    return None


# -- nilpotency ---------------------------------------------------------------


class NilpotencyVerdict(_Record):
    # tag: nilpotent_on_probe | not_nilpotent | inconclusive
    __slots__ = ("tag", "steps", "witness")

    def __init__(self, tag: str, steps: int | None = None,
                 witness: dict | None = None):
        self._fill(tag, steps, {} if witness is None else witness)


def _cyclic_words(alphabet: Alphabet, max_len: int) -> Iterator[str]:
    """One representative per rotation class, all-zero excluded.

    The representative is the least rotation; classes come in the order
    their first member is enumerated.
    """
    zero = alphabet.zero
    for length in range(1, max_len + 1):
        seen = {zero * length}
        for word in _words(alphabet.symbols, length):
            if word in seen:
                continue
            rotations = {word[i:] + word[:i] for i in range(length)}
            seen |= rotations
            yield min(rotations)


def _nilpotency_index(rule: CARule, max_width: int,
                      max_time: int) -> int | None:
    """The index N of a nilpotent rule f when the probe would report it.

    Tries N = 1, 2, ...: the N-fold local rule reads width-(2 N rho + 1)
    words, so stepping every such word N times to one cell and seeing
    only zero proves f^N x = 0 for every configuration x, which is what
    nilpotent means (Culik, Pachl and Yu, SIAM J. Comput. 1989, show
    these are the rules whose limit set is one point). The first such N
    is the index: f^(N - 1) is not zero, so some word w of width
    2 (N - 1) rho + 1 has a nonzero (N - 1)-fold image, and the finite
    seed w, trimmed, lives N - 1 steps and dies at step N.

    So when N <= max_time and w fits in max_width, every finite seed and
    every cyclic word of the probe dies within N steps, and at least one
    at step N: the probe's verdict is nilpotent_on_probe with N steps.
    Stage N starts from |A|^(2 N rho + 1) words, and it runs only while
    that is at most the (|A| - 1) |A|^(max_width - 1) canonical seeds
    the probe would enumerate, so no stage steps more words than the
    probe has seeds. That bound is below |A|^max_width, so it also keeps
    2 N rho + 1, and with it w, under max_width. Returns None once a
    bound stops it.
    """
    symbols, zero, rho = rule.alphabet.symbols, rule.alphabet.zero, rule.radius
    table, span, k = rule.table, 2 * rule.radius + 1, len(symbols)
    seeds = (k - 1) * k ** (max_width - 1)
    # at radius 0 every stage starts from the alphabet A, so stage n is
    # stage n - 1 stepped once more; as f(A) is within A the stages only
    # shrink, and one that a step leaves as it was stays so for good
    layer, stepped = set(), 0
    for n in range(1, max_time + 1):
        width = 2 * n * rho + 1
        if k ** width > seeds:
            return None
        if rho or not stepped:
            check_cells(k ** width * width,
                        f"nilpotency certificate of index {n}")
            layer, stepped = set(_words(symbols, width)), 0
        before = layer
        for _ in range(stepped, n):
            layer = {"".join([table[word[j:j + span]]
                              for j in range(len(word) - 2 * rho)])
                     for word in layer}
        stepped = n
        if layer == {zero}:
            return n
        if not rho and layer == before:
            return None
    return None


def nilpotency_probe(rule: CARule, max_width: int,
                     max_time: int) -> NilpotencyVerdict:
    """Bounded nilpotency probe over finite and periodic witnesses.

    Nilpotent-on-probe reports the max death time over all canonical
    finite configurations of bounded width, provided the cyclic words die
    too. A glider or a surviving cycle is a definite counterexample; a
    survivor without either is inconclusive at this probe size. Under a
    linear rule over a prime alphabet with two or more nonzero
    coefficients every finite seed survives and none glides, at every
    width and time (see _linear_coefficients), so the first canonical
    word is the survivor, unstepped; the cyclic words run as for any rule.
    Any other rule that is nilpotent, with an index that fits the probe's
    width, time and seed count, certifies that index (see
    _nilpotency_index) and gets the verdict the seeds would give, with
    no seed stepped.
    """
    _check_probe_size(rule, max_width, max_time)
    if not rule.zero_preserving:
        raise NotZeroPreserving("the probe needs a zero-preserving rule")
    step_word, step_cycle = _stepper(rule)
    deaths = 0
    survivor = None
    if sum(map(bool, _linear_coefficients(rule) or ())) > 1:
        survivor = next(_canonical_words(rule.alphabet, max_width))
    elif index := _nilpotency_index(rule, max_width, max_time):
        return NilpotencyVerdict("nilpotent_on_probe", steps=index)
    else:
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


class TFGElement(_Record):
    """Shift-cocycle table: central (2 rho + 1)-window -> shift in [-rho, rho]."""

    __slots__ = ("alphabet", "radius", "table")

    def __init__(self, alphabet: Alphabet, radius: int,
                 table: Mapping[str, int]):
        _check_table(alphabet, radius, table)
        if any(map(gt, map(abs, table.values()), repeat(radius))):
            raise ValueError("shift exceeds the radius")
        self._fill(alphabet, radius, table)


def tfg_validate(element: TFGElement) -> TFGElement:
    """Check injectivity of the induced map on all windows of width 4 rho + 1.

    The induced map sends x to its translate by the central window's
    shift, so two points can only collide when one is a translate of the
    other by at most 2 rho; scanning every offset in that range over all
    joint windows is a complete injectivity check, and 4 rho + 1 cells
    cover the widest case.
    """
    rho = element.radius
    check_cells(_table_cells(element.alphabet, 4 * rho + 1),
                f"injectivity check at radius {rho}")
    symbols = element.alphabet.symbols
    width = 2 * rho + 1
    for j in range(1, 2 * rho + 1):
        span = j + width
        for word in _words(symbols, span):
            if element.table[word[:width]] - element.table[word[j:j + width]] == j:
                raise NotInvertible(word, j)
    return element


def _column(element: TFGElement) -> list[int]:
    """The element's shifts in product order of its windows."""
    words = _words(element.alphabet.symbols, 2 * element.radius + 1)
    return list(map(element.table.__getitem__, words))


def compose(outer: TFGElement, inner: TFGElement) -> TFGElement:
    """outer after inner, via cocycle addition along the inner shift.

    The composed window's inner shift c is read at letters ro..ro+2ri and
    the outer one at ri+c..ri+c+2ro (ro, ri the radii): the table is built
    column by column, one outer column per shift the inner element picks.
    The table skips the constructor's per-window checks, which it passes
    by construction: its keys are every word of the composed width, and
    each shift, an inner one plus an outer one, is at most ri + ro in size.
    Those two facts are checked once, over the distinct shifts. The test
    oracle ``oracle_compose`` builds the same table window by window
    through the constructor.
    """
    if outer.alphabet != inner.alphabet:
        raise ValueError("composition needs a common alphabet")
    radius = outer.radius + inner.radius
    width = 2 * radius + 1
    symbols = outer.alphabet.symbols
    check_cells(_table_cells(outer.alphabet, width),
                f"composed table at radius {radius}")
    k, ro, ri = len(symbols), outer.radius, inner.radius
    inner_column = _column(inner)
    # per window, candidates holds the composed shift for each inner shift
    # in use, and picks the index of the one the window's inner shift is
    index = {c: i for i, c in enumerate(set(inner_column))}
    picks = _spread(list(map(index.__getitem__, inner_column)),
                    k ** ro, k ** ro)
    outer_column = _column(outer)
    candidates = zip(*[_spread([c + v for v in outer_column],
                               k ** (ri - c), k ** (ri + c)) for c in index])
    table = dict(zip(_words(symbols, width), map(getitem, candidates, picks)))
    # lemma: the table is total, and |c + v| <= ri + ro for every shift
    if len(table) != k ** width or max(
            abs(c + v) for c in index for v in set(outer_column)) > radius:
        raise InvariantViolation(f"composed table at radius {radius} "
                                 "is not a full-group element")
    return TFGElement._rebuilt(outer.alphabet, radius, table)


def _table_cells(alphabet: Alphabet, width: int,
                 per_word: int | None = None) -> int:
    """Cells of |A|^width words of per_word cells, width when None.

    Past the cap's bit length a power of |A| >= 2 is over the cap anyway,
    so the count saturates there, and is then a lower bound.
    """
    per_word = width if per_word is None else per_word
    letters = min(width, cell_cap().bit_length())
    return len(alphabet.symbols) ** letters * per_word


def identity_element() -> TFGElement:
    return TFGElement(BINARY, 0, dict.fromkeys("01", 0))


def shift_element(amount: int = 1) -> TFGElement:
    rho = abs(amount)
    width = 2 * rho + 1
    check_cells(_table_cells(BINARY, width), f"shift table at radius {rho}")
    table = dict.fromkeys(_words("01", width), amount)
    return TFGElement(BINARY, rho, table)


def block_swap_element() -> TFGElement:
    """Involution exchanging the two cells of every aligned '10' block.

    Shift +1 when cells 0,1 read '10'; shift -1 when cells -1,0 read
    '10'; 0 otherwise. The two triggers are mutually exclusive and each
    image window triggers the opposite rule, so the element squares to
    the identity.
    """
    table = {}
    for word in _words("01", 3):
        if word[1:] == "10":
            table[word] = 1
        elif word[:2] == "10":
            table[word] = -1
        else:
            table[word] = 0
    return TFGElement(BINARY, 1, table)


def is_identity(element: TFGElement) -> bool:
    return all(v == 0 for v in element.table.values())


class OrderVerdict(_Record):
    # tag: torsion | infinite_order | inconclusive
    __slots__ = ("tag", "order", "witness")

    def __init__(self, tag: str, order: int | None = None,
                 witness: dict | None = None):
        self._fill(tag, order, {} if witness is None else witness)


def tfg_order_search(element: TFGElement, max_order: int,
                     max_period: int) -> OrderVerdict:
    """Torsion via symbolic powers, infinite order via periodic drift.

    Composing the element with itself keeps the accumulated cocycle
    exact, so an all-zero table certifies the order; the powers stop
    where the next one's table would pass the cell cap, and the drift
    search runs all the same. On a periodic point the orbit state is the
    shift total mod the period; once a state repeats with nonzero drift,
    the cocycle totals are strictly monotone along that subsequence
    forever, certifying infinite order.

    The two certificates exclude each other, so the drift search runs
    before the first power whose table has at least as many cells as it
    reads, or last. Were that many cells past the cap, so would be the
    power's: the same SizeLimit comes from the drift search, only sooner.
    """
    if max_order < 1 or max_period < 1:
        raise ValueError("max_order and max_period must be at least 1")
    alphabet = element.alphabet
    drift_cells = _table_cells(alphabet, max_period)
    drift = None
    power = element
    for n in range(1, max_order + 1):
        if is_identity(power):
            return OrderVerdict("torsion", order=n)
        if n < max_order:
            width = 2 * (power.radius + element.radius) + 1
            if drift is None and drift_cells <= _table_cells(alphabet, width):
                drift = _drift_search(element, max_order, max_period)
                if drift.tag == "infinite_order":
                    return drift
            try:
                power = compose(element, power)
            except SizeLimit:
                break
    if drift is None:
        drift = _drift_search(element, max_order, max_period)
    return drift


def _drift_search(element: TFGElement, max_order: int,
                  max_period: int) -> OrderVerdict:
    """infinite_order at the first periodic word that drifts."""
    check_cells(_table_cells(element.alphabet, max_period),
                f"drift search up to period {max_period}")
    rho, table = element.radius, element.table
    width = 2 * rho + 1
    for period in range(1, max_period + 1):
        for word in _words(element.alphabet.symbols, period):
            ring = word * (width // period + 2)
            shifts = [table[ring[(j - rho) % period:][:width]]  # centred at j
                      for j in range(period)]
            total = 0
            seen = {0: (0, 0)}
            for t in range(1, max_order + 1):
                total += shifts[total % period]
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
    defaults = [right for left, right in entries if left == "*"]
    table = {}
    if defaults:
        width = 2 * radius + 1
        check_cells(_table_cells(alphabet, width),
                    f"wildcard at radius {radius}")
        table = dict.fromkeys(_words(alphabet.symbols, width),
                              value(defaults[-1]))
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


def shift_rule() -> CARule:
    """f(x)_i = x_(i+1): contents drift one cell to the left."""
    table = {word: word[2] for word in _words("01", 3)}
    return CARule(BINARY, 1, table)


def xor_rule() -> CARule:
    """f(x)_i = x_i xor x_(i+1) over the binary alphabet."""
    table = {word: str(int(word[1]) ^ int(word[2]))
             for word in _words("01", 3)}
    return CARule(BINARY, 1, table)


def decrement_rule() -> CARule:
    """Pointwise max(a - 1, 0) on the alphabet 0,1,2."""
    alphabet = Alphabet(("0", "1", "2"), "0")
    table = {"0": "0", "1": "0", "2": "1"}
    return CARule(alphabet, 0, table)
