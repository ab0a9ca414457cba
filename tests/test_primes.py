"""Sieve cross-checks, late language, CRT runs, isolated primes, gaps."""
import random
from math import gcd

import pytest

from blobshift import primes
from blobshift.errors import (
    InjectionNotDistinct,
    InjectionNotPrime,
    SizeLimit,
)
from blobshift.primes import (
    char_pattern,
    crt_solve,
    crt_zero_run,
    dirichlet_isolated,
    gap_floor,
    is_composite,
    is_prime,
    isolated_prime_search,
    late_contains,
    late_language,
    sieve,
)
from conftest import scan_late_language


@pytest.fixture(scope="module")
def million():
    return sieve(10 ** 6)


def segmented_sieve_count(limit: int, segment: int = 10 ** 4) -> int:
    """Independent prime counter working one segment at a time."""
    base = []
    n = 2
    while n * n <= limit:
        if all(n % p for p in base):
            base.append(n)
        n += 1
    count = 0
    lo = 2
    while lo <= limit:
        hi = min(lo + segment - 1, limit)
        flags = bytearray([1]) * (hi - lo + 1)
        for p in base:
            start = max(p * p, (lo + p - 1) // p * p)
            for multiple in range(start, hi + 1, p):
                flags[multiple - lo] = 0
        count += sum(flags)
        lo = hi + 1
    return count


# ---------------------------------------------------------------------- sieve


def old_sieve(limit):
    """The sieve's output as it was first generated, cell by cell."""
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for i in range(2, int(limit ** 0.5) + 1):
        if flags[i]:
            flags[i * i::i] = bytearray(len(range(i * i, limit + 1, i)))
    return (tuple(i for i, f in enumerate(flags) if f),
            flags.decode("latin1").translate({0: "0", 1: "1"}))


def test_sieve_output_matches_the_old_generator():
    for limit in range(2, 3001):
        w = sieve(limit)
        assert (w.primes, w.char_word) == old_sieve(limit), limit


def test_sieve_small():
    w = sieve(10)
    assert w.primes == (2, 3, 5, 7)
    assert w.char_word == "00110101000"


def test_sieve_limit_two():
    assert sieve(2).primes == (2,)


def test_sieve_against_segmented_oracle(million):
    assert len(million.primes) == 78498
    assert len(million.primes) == segmented_sieve_count(10 ** 6)


def test_sieve_char_word_consistent():
    w = sieve(500)
    for p in w.primes:
        assert w.char_word[p] == "1"
    assert w.char_word.count("1") == len(w.primes)


def test_sieve_cap():
    with pytest.raises(SizeLimit):
        sieve(10 ** 9)


def test_sieve_checks_the_cell_cap(monkeypatch):
    # one cell per integer 0..limit
    monkeypatch.setenv("BLOBSHIFT_CELL_CAP", "1001")
    assert len(sieve(1000).primes) == 168
    with pytest.raises(SizeLimit):
        sieve(1001)


# -------------------------------------------------------------- late language


def test_late_language_singletons():
    w = sieve(10 ** 4)
    assert late_language(w, 1, 100) == {"0", "1"}


def test_late_language_contains_twin_pattern(million):
    assert "101" in late_language(million, 3, 10 ** 5)


def test_late_language_no_adjacent_primes(million):
    assert "11" not in late_language(million, 2, 10)


def test_late_language_antitone_in_threshold():
    w = sieve(10 ** 4)
    early = late_language(w, 4, 10)
    late = late_language(w, 4, 5000)
    assert late <= early


def test_late_language_past_the_budget_is_the_scan(monkeypatch):
    # at length 40 most admissible words never occur below 2*10^5, so
    # the search spends the scan's cells and the scan answers
    w = sieve(2 * 10 ** 5)
    calls = []

    def slices(word, length, first, last):
        calls.append((first, last))
        return {word[n:n + length] for n in range(first, last + 1)}

    monkeypatch.setattr(primes, "_slices", slices)
    assert late_language(w, 40, 10 ** 4) == scan_late_language(w, 40, 10 ** 4)
    assert calls[-1] == (10 ** 4, len(w.char_word) - 40)


def admissible(word):
    """No prime p <= len(word) has every residue on a 1-position of word."""
    ones = [s for s, symbol in enumerate(word) if symbol == "1"]
    return all({s % p for s in ones} != set(range(p))
               for p in range(2, len(word) + 1)
               if all(p % d for d in range(2, p)))


def test_only_admissible_words_occur_past_their_length():
    w = sieve(10 ** 5)
    for length in range(1, 13):
        late = scan_late_language(w, length, length + 1)
        assert all(admissible(factor) for factor in late), length
        # and the lemma is not vacuous: inadmissible words occur early
        early = {w.char_word[n:n + length] for n in range(length + 1)}
        if length >= 2:
            assert not all(admissible(factor) for factor in early)


def test_late_language_refuses_bad_arguments():
    w = sieve(100)
    with pytest.raises(ValueError):
        late_language(w, 3, -2)
    with pytest.raises(ValueError):
        late_language(w, 0, 10)
    with pytest.raises(ValueError):
        late_contains(w, "101", -5)


def test_late_contains_agrees_with_language():
    w = sieve(2000)
    rng = random.Random(29)
    for _ in range(50):
        length = rng.randrange(1, 6)
        factor = "".join(rng.choice("01") for _ in range(length))
        threshold = rng.randrange(0, 1000)
        assert late_contains(w, factor, threshold) == \
            (factor in late_language(w, length, threshold))


# ------------------------------------------------------------------- CRT runs


def test_crt_solve_basics():
    assert crt_solve([0, 6, 9], [5, 7, 11]) == (20, 385)
    assert crt_solve([2, 1], [3, 5]) == (11, 15)
    with pytest.raises(ValueError, match="^moduli are not pairwise coprime$"):
        crt_solve([1, 2], [6, 4])


def test_crt_zero_run_spec_triple():
    witness = crt_zero_run(3, [5, 7, 11])
    assert (witness.k, witness.modulus) == (20, 385)
    assert witness.start == 20
    assert all(is_composite(witness.start + i) for i in range(3))


def test_crt_zero_run_singleton():
    witness = crt_zero_run(1, [5])
    assert witness.k == 0
    assert witness.start == 10


def test_crt_zero_run_pair():
    witness = crt_zero_run(2, [5, 7])
    assert (witness.k, witness.modulus) == (20, 35)
    assert is_composite(20) and is_composite(21)


def test_crt_zero_run_rejects_bad_injections():
    with pytest.raises(InjectionNotDistinct):
        crt_zero_run(2, [5, 5])
    with pytest.raises(InjectionNotPrime):
        crt_zero_run(2, [5, 9])


def test_crt_run_found_by_sieve_within_bound():
    w = sieve(10 ** 5)
    for n in range(1, 11):
        witness = crt_zero_run(n)
        position = w.char_word.find("0" * n)
        assert position != -1
        assert position <= 2 * witness.modulus + n


def test_crt_default_injection_verified():
    for n in (1, 2, 3, 4):
        witness = crt_zero_run(n)
        assert all(p > 2 * n for p in witness.injection)
        assert all(is_composite(witness.start + i) for i in range(n))


# ------------------------------------------------------------ isolated primes


def brute_isolated(n, limit):
    w = sieve(limit)
    for p in w.primes:
        if p - n < 2 or p + n > limit:
            continue
        if all(is_composite(p - i) and is_composite(p + i)
               for i in range(1, n + 1)):
            return p
    return None


def test_isolated_frozen_values():
    w = sieve(10 ** 4)
    assert isolated_prime_search(1, w) == 5
    assert isolated_prime_search(2, w) == 23
    assert isolated_prime_search(3, w) == 23
    assert isolated_prime_search(0, w) == 2


@pytest.mark.parametrize("limit", [3, 4])
def test_isolated_search_finds_nothing_in_a_short_window(limit):
    # limit 3: 3 + 1 leaves the window; limit 4: 3 is next to 2, and the
    # primes run out
    assert isolated_prime_search(1, sieve(limit)) is None


def test_isolated_matches_brute():
    for n in (1, 2, 3, 4, 5):
        assert isolated_prime_search(n, sieve(10 ** 4)) == brute_isolated(n, 10 ** 4)


def test_dirichlet_isolated_small():
    k, modulus, p = dirichlet_isolated(1)
    assert is_prime(p)
    assert is_composite(p - 1) and is_composite(p + 1)
    assert (k, modulus) == (11, 15)


def test_dirichlet_isolated_two():
    k, modulus, p = dirichlet_isolated(2, scan_limit=10 ** 5)
    assert is_prime(p)
    for i in (1, 2):
        assert is_composite(p - i) and is_composite(p + i)


def test_dirichlet_explicit_injection():
    assert dirichlet_isolated(1, injection=[7, 5]) == (6, 35, 41)


def test_runs_and_neighbours_are_certified_by_their_divisors(monkeypatch):
    # no member of a run and no neighbour of an isolated prime goes
    # through a primality test; the values are those the Miller-Rabin
    # checks gave
    def refuse(n):
        raise AssertionError(f"is_composite({n}) was called")

    monkeypatch.setattr(primes, "is_composite", refuse)
    runs = {n: (w.injection, w.k, w.modulus, w.start)
            for n, w in ((n, crt_zero_run(n)) for n in (1, 2, 5, 8))}
    assert runs == {
        1: ((3,), 0, 3, 6),
        2: ((5, 7), 20, 35, 20),
        5: ((11, 13, 17, 19, 23), 420068, 1062347, 420068),
        8: ((17, 19, 23, 29, 31, 37, 41, 43), 223098698382, 435656388001,
            223098698382)}
    assert crt_zero_run(3, [13, 11, 7]).start == 208
    assert [dirichlet_isolated(n) for n in (1, 2, 3, 4)] == [
        (11, 15, 11), (2498, 5005, 47543), (2009214, 7436429, 83809933),
        (21703975784, 35336848261, 622430396221)]
    assert dirichlet_isolated(2, injection=[11, 7, 5, 13]) == (
        1406, 5005, 16421)


def test_dirichlet_coprimality_random_injections():
    rng = random.Random(31)
    candidates = [p for p in sieve(500).primes if p > 10]
    for _ in range(50):
        n = rng.choice((1, 2))
        needed = 2 * n
        pool = [p for p in candidates if p > 2 * n]
        injection = rng.sample(pool, needed)
        indices = list(range(-n, 0)) + list(range(1, n + 1))
        k, modulus = crt_solve([i % p for i, p in zip(indices, injection)],
                               injection)
        assert gcd(k, modulus) == 1


# ----------------------------------------------------------------------- gaps


def test_gap_floor_examples():
    assert gap_floor(sieve(10), 2) == 1
    assert gap_floor(sieve(100), 3) == 2


def test_gap_floor_large(million):
    assert gap_floor(million, 10 ** 5) == 2


def test_gap_floor_is_the_least_gap():
    w = sieve(10 ** 5)
    rng = random.Random(37)
    for threshold in [0, 2, 3, 4] + [rng.randrange(10 ** 5 - 100)
                                     for _ in range(200)]:
        tail = [p for p in w.primes if p >= threshold]
        assert gap_floor(w, threshold) == min(
            b - a for a, b in zip(tail, tail[1:]))


# --------------------------------------------------------------------- export


def test_char_pattern_round_trip():
    w = sieve(50)
    p = char_pattern(w, 10, 20)
    assert sorted(c[0] for c in p.support()) == [11, 13, 17, 19]
    assert p.value((10,)) == "0"


def test_primality_helpers():
    assert is_prime(2) and is_prime(97) and not is_prime(1)
    assert not is_prime(561)  # Carmichael
    assert is_composite(4) and not is_composite(3) and not is_composite(1)
    assert is_prime(2 ** 61 - 1)


# the least strong pseudoprime to the twelve bases 2..37
PSI_12 = 318665857834031151167461


def test_is_prime_is_a_proof_only_below_psi_12():
    # psi_11, a strong pseudoprime to the bases 2..31, is caught by 37
    assert not is_prime(3825123056546413051)
    # psi_12 passes every base although it is composite
    assert PSI_12 == 399165290221 * 798330580441
    assert is_prime(PSI_12)
