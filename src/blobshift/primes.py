"""Constructive experiments on the characteristic sequence of the primes.

The sieve feeds three kinds of probes: the late language (factors that
keep occurring past a threshold), residue-class zero runs built with the
Chinese remainder theorem, and isolated primes found either by scanning
or by constructing an admissible progression and walking it until a
prime appears. Everything returns verified witnesses; nothing relies on
unproved bounds.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from math import gcd

from .errors import (
    InjectionNotDistinct,
    InjectionNotPrime,
    InvariantViolation,
    NoPrimeInRange,
    SizeLimit,
)
from .patterns import BINARY, Pattern

DEFAULT_SIEVE_CAP = 10 ** 8

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin (exact far beyond 64-bit inputs)."""
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


@dataclass(frozen=True)
class PrimeWindow:
    """Primes up to a limit with the 0/1 characteristic word on [0, limit]."""

    limit: int
    primes: tuple[int, ...]
    char_word: str


def sieve(limit: int, cap: int | None = None) -> PrimeWindow:
    """Sieve of Eratosthenes up to the limit."""
    if limit < 2:
        raise ValueError("limit must be at least 2")
    cap = DEFAULT_SIEVE_CAP if cap is None else cap
    if limit > cap:
        raise SizeLimit(f"sieve limit {limit} exceeds the cap {cap}")
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    i = 2
    while i * i <= limit:
        if flags[i]:
            start = i * i
            flags[start::i] = bytearray(len(range(start, limit + 1, i)))
        i += 1
    primes = tuple(i for i, f in enumerate(flags) if f)
    char_word = flags.decode("latin1").translate({0: "0", 1: "1"})
    return PrimeWindow(limit, primes, char_word)


def late_language(window: PrimeWindow, length: int, threshold: int) -> set[str]:
    """All length-`length` factors occurring at positions >= threshold."""
    if threshold + length > window.limit:
        raise ValueError("threshold + length must stay within the window")
    word = window.char_word
    return {word[i:i + length] for i in range(threshold, len(word) - length + 1)}


def late_contains(window: PrimeWindow, factor: str, threshold: int) -> bool:
    """Membership probe equivalent to `factor in late_language(...)`."""
    if threshold + len(factor) > window.limit:
        raise ValueError("threshold + length must stay within the window")
    return window.char_word.find(factor, threshold) != -1


def gap_floor(window: PrimeWindow, threshold: int) -> int:
    """Minimum gap between consecutive primes that are both >= threshold."""
    if threshold >= window.limit:
        raise ValueError("threshold must be below the window limit")
    start = bisect_left(window.primes, threshold)
    tail = window.primes[start:]
    if len(tail) < 2:
        raise ValueError("fewer than two primes above the threshold")
    return min(b - a for a, b in zip(tail, tail[1:]))


# -- CRT zero runs -----------------------------------------------------------


def crt_solve(residues: list[int], moduli: list[int]) -> tuple[int, int]:
    """Solve x = residues[i] mod moduli[i] for pairwise coprime moduli.

    Returns (x, N) with x in [0, N) and N the product of the moduli.
    """
    x, n = 0, 1
    for r, m in zip(residues, moduli):
        g, p, _ = _xgcd(n, m)
        if g != 1:
            raise ValueError("moduli are not pairwise coprime")
        x = (x + (r - x) * p % m * n) % (n * m)
        n *= m
    return x, n


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def _primes_above(bound: int, count: int) -> list[int]:
    out = []
    candidate = bound + 1
    while len(out) < count:
        if is_prime(candidate):
            out.append(candidate)
        candidate += 1
    return out


@dataclass(frozen=True)
class CRTWitness:
    """Residue class whose members start all-composite runs of length n.

    k + i is divisible by injection[i], so once k + i is at least twice
    its divisor the whole stretch k..k+n-1 is composite; `start` is the
    least member of the class making every quotient at least 2, verified
    composite cell by cell.
    """

    n: int
    injection: tuple[int, ...]
    k: int
    modulus: int
    start: int


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
    injection = list(injection)
    if len(set(injection)) != len(injection) or len(injection) != n:
        raise InjectionNotDistinct("need n distinct primes")
    for p in injection:
        if not is_prime(p):
            raise InjectionNotPrime(f"{p} is not prime")
    k, modulus = crt_solve([(-i) % p for i, p in enumerate(injection)],
                           injection)
    floor = max(2 * p - i for i, p in enumerate(injection))
    start = k + ((floor - k + modulus - 1) // modulus) * modulus if k < floor else k
    for i in range(n):
        if not is_composite(start + i):
            raise InvariantViolation(f"run member {start + i} is not composite")
    return CRTWitness(n, tuple(injection), k, modulus, start)


def isolated_prime_search(n: int, window: PrimeWindow) -> int | None:
    """Least prime whose n neighbors on both sides are all composite."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    flags = window.char_word
    for p in window.primes:
        if p + n > window.limit:
            return None
        if p - n < 2:
            continue
        if all(flags[p - i] == "0" and flags[p + i] == "0"
               for i in range(1, n + 1)):
            return p
    return None


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
    indices = list(range(-n, 0)) + list(range(1, n + 1))
    if injection is None:
        injection = _primes_above(2 * n, 2 * n)
    injection = list(injection)
    if len(set(injection)) != len(injection) or len(injection) != 2 * n:
        raise InjectionNotDistinct("need 2n distinct primes")
    for p in injection:
        if not is_prime(p):
            raise InjectionNotPrime(f"{p} is not prime")
        if p <= 2 * n:
            raise InjectionNotPrime(f"{p} is not above 2n")
    k, modulus = crt_solve([i % p for i, p in zip(indices, injection)],
                           injection)
    if gcd(k, modulus) != 1:
        raise InvariantViolation(
            f"gcd({k}, {modulus}) is not 1, against the construction")
    for ell in range(scan_limit + 1):
        p = k + ell * modulus
        if p > max(injection) and is_prime(p):
            if all(is_composite(p - i) and is_composite(p + i)
                   for i in range(1, n + 1)):
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
