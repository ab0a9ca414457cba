"""Constructive experiments on the characteristic sequence of the primes.

A prime window is that sequence's 0/1 word on [0, limit], and the sieve
builds only the word. The probes read the word itself; the tuple of the
primes is built from it only when asked for, once per window.

The sieve feeds three kinds of probes: the late language (factors that
keep occurring past a threshold), residue-class zero runs built with the
Chinese remainder theorem, and isolated primes found either by scanning
or by constructing an admissible progression and walking it until a
prime appears. Everything returns verified witnesses, with one limit:
`is_prime` is a proof only below psi_12 (about 3.2e23), so a prime past
it, as `dirichlet_isolated` finds with its default injection from n = 8
on, is a strong probable prime. Composites are certified by their
injected divisors.

The late language is searched for, not scanned for, by one lemma. Say
the 1-positions S of a word w cover every residue mod some prime p. Then
an occurrence of w at n puts a multiple of p on a 1-cell, and that
multiple is at least n. If n >= len(w) + 1 > p, the multiple is larger
than p, so it is composite, and w cannot occur there. S can only cover
the residues mod p if |S| >= p, so the primes p <= len(w) decide it. A
word whose 1-positions cover no such residue system is *admissible*, the
condition of the Hardy-Littlewood prime k-tuples conjecture; only
admissible words occur at positions past their own length. So
`late_language` slices the positions up to the word length directly and
searches the admissible words past them by prefix. An admissible word
that never occurs costs one `str.find` to the end of the window; once
the search has read as many cells as slicing every position would, it
falls back to that scan.
"""
from __future__ import annotations

import re
from itertools import compress
from math import gcd

from .errors import (
    InjectionNotDistinct,
    InjectionNotPrime,
    InvariantViolation,
    NoPrimeInRange,
)
from .limits import check_cells
from .patterns import BINARY, Pattern, _Record

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Miller-Rabin to the twelve prime bases 2..37.

    Exact below psi_12 = 318665857834031151167461, about 3.2e23, the least
    strong pseudoprime to all twelve bases (Sorenson and Webster, "Strong
    pseudoprimes to twelve prime bases", Math. Comp. 2017), which it
    calls prime. At and above it, True means a strong probable prime.
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_composite(n: int) -> bool:
    """n has a nontrivial divisor: at least 4 and not prime."""
    return n >= 4 and not is_prime(n)


class _PrimesMemo:
    """The slot where a window keeps its primes once they are read.

    It lives on a base of its own, so it is no field of the record:
    equality, hash, repr, copy and pickle see only the window's fields.
    """

    __slots__ = ("_primes",)


class PrimeWindow(_Record, _PrimesMemo):
    """The 0/1 characteristic word of the primes on [0, limit].

    `primes`, the tuple of the primes up to the limit, is read off the
    word the first time it is asked for and kept with the window; no
    probe in this module reads it.
    """

    __slots__ = ("limit", "char_word")

    def __init__(self, limit: int, char_word: str):
        if len(char_word) != limit + 1:
            raise ValueError("the characteristic word needs limit + 1 digits")
        self._fill(limit, char_word)

    @property
    def primes(self) -> tuple[int, ...]:
        try:
            return self._primes
        except AttributeError:
            primes = _primes_of(self.char_word)
            object.__setattr__(self, "_primes", primes)
            return primes


_DIGIT_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


def _primes_of(char_word: str) -> tuple[int, ...]:
    """The primes a window's word marks: 2, then each odd 1-position."""
    flags = char_word.encode("ascii").translate(_DIGIT_FLAGS)
    return (2,) + tuple(compress(range(3, len(flags), 2), flags[3::2]))


def sieve(limit: int) -> PrimeWindow:
    """Sieve of Eratosthenes up to the limit, one cell per integer 0..limit.

    Only the odd numbers are sieved, as digits: cell i of `odd` is 2i + 1.
    An odd prime q strikes its odd multiples from q^2 on, every q-th cell.
    The word is then the odd cells at the odd positions, 2 a 1 and every
    other even position a 0.
    """
    if limit < 2:
        raise ValueError("limit must be at least 2")
    check_cells(limit + 1, f"sieve up to {limit}")
    odd = bytearray(b"1") * ((limit + 1) // 2)
    odd[0] = ord("0")
    q = 3
    while q * q <= limit:
        if odd[q // 2] == ord("1"):
            start = q * q // 2
            odd[start::q] = b"0" * len(range(start, len(odd), q))
        q += 2
    word = bytearray(b"0") * (limit + 1)
    word[1::2] = odd
    word[2] = ord("1")
    return PrimeWindow(limit, word.decode("ascii"))


def late_language(window: PrimeWindow, length: int, threshold: int) -> set[str]:
    """All length-`length` factors occurring at positions >= threshold.

    Exact, by search. The positions n <= length, at most length + 1 of
    them, are sliced directly. Past them only admissible words occur
    (see the module docstring), so the rest of the language is found by
    a depth-first search over prefixes. A prefix is pruned once its
    1-positions cover every residue mod some prime p <= length (one
    bitmask per prime). Otherwise it is looked up by its first
    occurrence, which is never before its parent's: the child that the
    parent's first occurrence continues into starts there too, and the
    other child costs one `str.find` from just past it. An admissible
    word that never occurs costs one `find` to the end of the window.

    Each `find` is charged the cells it spans, and a child read at its
    parent's occurrence the cells it covers. Once the total passes the
    (last - threshold + 1) * length cells that slicing every position up
    to last = limit + 1 - length reads, the search stops and that scan
    answers instead. So long words, where most admissible words never
    occur, cost the scan plus at most its cells in `find` work. The
    budget is set by the scan, not by a knob.
    """
    if length < 1:
        raise ValueError("length must be at least 1")
    if threshold < 0:
        raise ValueError("threshold must be nonnegative")
    if threshold + length > window.limit:
        raise ValueError("threshold + length must stay within the window")
    word = window.char_word
    last = len(word) - length
    words = _slices(word, length, threshold, min(length, last))
    budget = (last - threshold + 1) * length
    spent = 0
    small = [p for p in range(2, length + 1) if word[p] == "1"]
    # a node: a prefix, its first occurrence, its 1-positions, and the
    # residue bitmask of those positions mod each prime up to their count
    # (a larger prime cannot be covered yet)
    start = max(threshold, length + 1)
    stack = [("", start, (), ())] if start <= last else []
    while stack:
        prefix, hit, ones, masks = stack.pop()
        j = len(prefix)
        if j == length:
            words.add(prefix)
            continue
        # the child read at the parent's first occurrence starts there too
        natural = word[hit + j]
        spent += j + 1
        for symbol in "01":
            child_ones, child_masks = ones, masks
            if symbol == "1":
                child_ones += (j,)
                child_masks = tuple(m | 1 << j % p
                                    for m, p in zip(masks, small))
                count = len(child_ones)
                if len(masks) < len(small) and small[len(masks)] == count:
                    child_masks += (sum({1 << s % count for s in child_ones}),)
                if any(m == (1 << p) - 1 for m, p in zip(child_masks, small)):
                    continue
            child = prefix + symbol
            found = hit
            if symbol != natural:
                end = last + j + 1
                found = word.find(child, hit + 1, end)
                spent += (end if found == -1 else found + j + 1) - hit - 1
                if found == -1:
                    continue
            stack.append((child, found, child_ones, child_masks))
        if spent > budget:
            return _slices(word, length, threshold, last)
    return words


def _slices(word: str, length: int, first: int, last: int) -> set[str]:
    """The length-`length` factors of word at positions first..last."""
    return {word[n:n + length] for n in range(first, last + 1)}


def late_contains(window: PrimeWindow, factor: str, threshold: int) -> bool:
    """Membership probe equivalent to `factor in late_language(...)`."""
    if threshold < 0:
        raise ValueError("threshold must be nonnegative")
    if threshold + len(factor) > window.limit:
        raise ValueError("threshold + length must stay within the window")
    return window.char_word.find(factor, threshold) != -1


def gap_floor(window: PrimeWindow, threshold: int) -> int:
    """Minimum gap between consecutive primes that are both >= threshold.

    Walks the 1s of the characteristic word from the threshold on, one
    `str.find` a prime. Stops at the first gap of 1 (only 2, 3) or of 2
    (twin odd primes): every later gap is between odd primes, so none is
    smaller.
    """
    if threshold >= window.limit:
        raise ValueError("threshold must be below the window limit")
    word = window.char_word
    # a negative start would count from the word's end
    p = word.find("1", max(threshold, 0))
    q = word.find("1", p + 1) if p != -1 else -1
    if q == -1:
        raise ValueError("fewer than two primes above the threshold")
    best = window.limit
    while q != -1:
        best = min(best, q - p)
        if best <= 2:
            break
        p, q = q, word.find("1", q + 1)
    return best


# -- CRT zero runs -----------------------------------------------------------


def crt_solve(residues: list[int], moduli: list[int]) -> tuple[int, int]:
    """Solve x = residues[i] mod moduli[i] for pairwise coprime moduli.

    Returns (x, N) with x in [0, N) and N the product of the moduli.
    """
    x, n = 0, 1
    for r, m in zip(residues, moduli):
        try:
            p = pow(n, -1, m)
        except ValueError:
            raise ValueError("moduli are not pairwise coprime") from None
        x = (x + (r - x) * p % m * n) % (n * m)
        n *= m
    return x, n


def _primes_above(bound: int, count: int) -> list[int]:
    out = []
    candidate = bound + 1
    while len(out) < count:
        if is_prime(candidate):
            out.append(candidate)
        candidate += 1
    return out


class CRTWitness(_Record):
    """Residue class whose members start all-composite runs of length n.

    k + i is divisible by injection[i], so once k + i is at least twice
    its divisor the whole stretch k..k+n-1 is composite; `start` is the
    least member of the class making every quotient at least 2, each cell
    checked against its divisor.
    """

    __slots__ = ("n", "injection", "k", "modulus", "start")

    def __init__(self, n: int, injection: tuple[int, ...], k: int,
                 modulus: int, start: int):
        self._fill(n, injection, k, modulus, start)


def _injection(injection: list[int], count: int, what: str) -> list[int]:
    """The injection as a list, checked to hold count distinct primes."""
    injection = list(injection)
    if len(set(injection)) != len(injection) or len(injection) != count:
        raise InjectionNotDistinct(f"need {what} distinct primes")
    for p in injection:
        if not is_prime(p):
            raise InjectionNotPrime(f"{p} is not prime")
    return injection


def crt_zero_run(n: int, injection: list[int] | None = None) -> CRTWitness:
    """Build a verified run of n composites from a prime injection.

    The default injection takes the first n primes above 2n. Solves
    k = -i mod injection[i] and returns the class with one concrete
    verified start.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if injection is None:
        injection = _primes_above(2 * n, n)
    injection = _injection(injection, n, "n")
    k, modulus = crt_solve([(-i) % p for i, p in enumerate(injection)],
                           injection)
    floor = max(2 * p - i for i, p in enumerate(injection))
    start = k + ((floor - k + modulus - 1) // modulus) * modulus if k < floor else k
    for i, p in enumerate(injection):
        # lemma: p = injection[i] divides start + i >= 2p > p: composite
        if (start + i) % p or start + i < 2 * p:
            raise InvariantViolation(f"run member {start + i} is not composite")
    return CRTWitness(n, tuple(injection), k, modulus, start)


def isolated_prime_search(n: int, window: PrimeWindow) -> int | None:
    """Least prime whose n neighbors on both sides are all composite.

    One regex search of the characteristic word for a 1 with n 0s on
    each side. A prime p also needs p - n >= 2 and p + n <= limit, and
    the word implies both: the lookahead cannot pass the last cell, the
    lookbehind cannot pass cell 0, and cells 0..3 read 0011, so n 0s on
    each side of p rule out p - n < 2 (for p = 2, cell 3 is a 1). No
    prime counts once 2n + 2 > limit, so then no regex is built.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if 2 * n + 2 > window.limit:
        return None
    found = re.search(f"(?<=0{{{n}}})1(?=0{{{n}}})", window.char_word)
    return None if found is None else found.start()


def dirichlet_isolated(n: int, scan_limit: int = 10 ** 5,
                       injection: list[int] | None = None
                       ) -> tuple[int, int, int]:
    """Construct a progression of isolated-prime candidates and walk it.

    Indices -n..-1, 1..n inject into primes above 2n; solving
    k = i mod injection(i) makes every p in the class k + N Z satisfy
    that p - i and p + i are divisible by the injected primes. gcd(k, N)
    is 1 by construction (checked), the progression is walked up to
    scan_limit steps, and the first prime found is verified isolated.
    Returns (k, N, p).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if scan_limit < 0:
        raise ValueError("scan_limit must be nonnegative")
    indices = list(range(-n, 0)) + list(range(1, n + 1))
    if injection is None:
        injection = _primes_above(2 * n, 2 * n)
    injection = _injection(injection, 2 * n, "2n")
    for p in injection:
        if p <= 2 * n:
            raise InjectionNotPrime(f"{p} is not above 2n")
    k, modulus = crt_solve([i % p for i, p in zip(indices, injection)],
                           injection)
    # lemma: k = i mod p with 0 < |i| <= n < p, so no injected p divides k
    if gcd(k, modulus) != 1:
        raise InvariantViolation(
            f"gcd({k}, {modulus}) is not 1, against the construction")
    for ell in range(scan_limit + 1):
        p = k + ell * modulus
        # p - i is a positive multiple of its injected prime q, so it is
        # composite exactly when it is not q itself
        if p > max(injection) and is_prime(p):
            if all(p - i != q for i, q in zip(indices, injection)):
                return k, modulus, p
    raise NoPrimeInRange(
        f"no verified isolated prime in {scan_limit} progression steps")


def char_pattern(window: PrimeWindow, start: int = 0,
                 end: int | None = None) -> Pattern:
    """The characteristic word as a 1D pattern, for the blob pipeline."""
    end = window.limit if end is None else end
    if not 0 <= start <= end <= window.limit:
        raise ValueError("need 0 <= start <= end <= limit")
    return Pattern.from_word(window.char_word[start:end + 1], BINARY, start)
