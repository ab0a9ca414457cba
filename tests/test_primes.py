"""Sieve cross-checks, late language, CRT runs, isolated primes, gaps."""
import copy
import hashlib
import pickle
import random
from bisect import bisect_left
from math import gcd

import pytest

from blobshift import primes
from blobshift.cli import main
from blobshift.errors import InvariantViolation, SizeLimit
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
from test_report_digests import CASES


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


def test_the_primes_are_read_off_the_word_once():
    w = sieve(100)
    assert w.primes is w.primes
    assert w.primes == tuple(n for n, c in enumerate(w.char_word) if c == "1")
    # the memo is no field: a fresh window, a copy and a pickle round trip
    # are equal to it, hash alike and show the same repr
    fresh = sieve(100)
    for twin in (fresh, copy.copy(w), copy.deepcopy(w),
                 pickle.loads(pickle.dumps(w))):
        assert twin == w and hash(twin) == hash(w) and repr(twin) == repr(w)
    assert repr(w) == f"PrimeWindow(limit=100, char_word={w.char_word!r})"
    assert pickle.loads(pickle.dumps(w)).primes == w.primes


def test_no_probe_builds_the_tuple_of_primes(monkeypatch, capsysbinary,
                                             tmp_path):
    def refuse(char_word):
        raise AssertionError("the tuple of primes was built")

    monkeypatch.setattr(primes, "_primes_of", refuse)
    w = sieve(10 ** 4)
    assert w.char_word == old_sieve(10 ** 4)[1]
    assert late_language(w, 6, 100) == scan_late_language(w, 6, 100)
    assert late_language(w, 40, 10) == scan_late_language(w, 40, 10)
    assert late_contains(w, "100000101", 100)
    assert gap_floor(w, 2) == 1 and gap_floor(w, 9000) == 2
    assert [isolated_prime_search(n, w) for n in (0, 1, 2, 3)] == [
        2, 5, 23, 23]
    assert sorted(c for c, in char_pattern(w, 10, 20).support()) == [
        11, 13, 17, 19]
    # the README's primes commands give their pinned reports
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("BLOBSHIFT_CELL_CAP", raising=False)
    for name in ("primes_lang", "primes_isolated", "primes_gaps",
                 "primes_export"):
        command, code, digest = CASES[name]
        argv = command.split()
        assert main(argv) == code
        out = capsysbinary.readouterr().out
        if "--out" in argv:
            out = (tmp_path / argv[argv.index("--out") + 1]).read_bytes()
        assert hashlib.sha256(out).hexdigest() == digest, name


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


def oracle_isolated_prime_search(n, window):
    """The search before the regex: each prime's neighbours, cell by cell."""
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


def test_isolated_search_matches_the_prime_walk():
    w = sieve(10 ** 5)
    for n in range(51):
        assert isolated_prime_search(n, w) == \
            oracle_isolated_prime_search(n, w), n
    for limit in range(2, 60):
        small = sieve(limit)
        for n in range(limit):
            assert isolated_prime_search(n, small) == \
                oracle_isolated_prime_search(n, small), (limit, n)


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


def oracle_gap_floor(window, threshold):
    """The gap floor before the word walk: over the tuple of primes."""
    if threshold >= window.limit:
        raise ValueError("threshold must be below the window limit")
    tail = window.primes[bisect_left(window.primes, threshold):]
    if len(tail) < 2:
        raise ValueError("fewer than two primes above the threshold")
    best = window.limit
    for i in range(1, len(tail)):
        best = min(best, tail[i] - tail[i - 1])
        if best <= 2:
            break
    return best


def test_gap_floor_matches_the_prime_walk():
    # thresholds across a large window, and every threshold of the small
    # windows, whose last primes sit far apart or are too few for a gap
    rng = random.Random(41)
    large = sieve(10 ** 5)
    cases = [(large, threshold) for threshold in
             [-3, 0, 1, 2, 3, 4, 5, 99_000, 99_990, 99_991, 99_999]
             + [rng.randrange(10 ** 5) for _ in range(300)]]
    cases += [(small, threshold) for small in map(sieve, range(3, 200))
              for threshold in range(-1, small.limit + 1)]
    for window, threshold in cases:
        try:
            expected = oracle_gap_floor(window, threshold)
        except ValueError as error:
            with pytest.raises(ValueError, match=f"^{error}$"):
                gap_floor(window, threshold)
        else:
            assert gap_floor(window, threshold) == expected, threshold


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


# ---------------------------------------------------------------- line gate


def drive_primes(monkeypatch):
    """Sieve, scan and construct prime witnesses, and break each lemma."""
    assert sum(map(is_prime, range(-1, 2000))) == 303
    assert is_prime(PSI_12) and not is_prime(41 * 43)
    # is_composite has no caller in src/: acceptance criterion 10
    # states its witnesses with it, which keeps it in the library
    assert [n for n in range(10) if is_composite(n)] == [4, 6, 8, 9]
    window = sieve(2000)
    assert window.primes is window.primes
    assert late_language(window, 8, 100) == scan_late_language(
        window, 8, 100)
    # near the window's end the budget is a few cells: the scan answers
    assert late_language(window, 20, 1950) == scan_late_language(
        window, 20, 1950)
    assert late_contains(window, "101", 10)
    assert gap_floor(window, 1990) == 2
    assert gap_floor(sieve(1996), 1975) == 6
    assert isolated_prime_search(3, window) == 23
    assert isolated_prime_search(1000, window) is None
    assert crt_zero_run(3).start > 0 and crt_zero_run(2, [5, 7]).k == 20
    assert dirichlet_isolated(1) == (11, 15, 11)
    assert dirichlet_isolated(1, injection=[7, 5]) == (6, 35, 41)
    assert char_pattern(window).value((2,)) == "1"
    # the two lemmas' checks, each fed a class that breaks its lemma
    with monkeypatch.context() as patched:
        patched.setattr(primes, "crt_solve", lambda residues, moduli: (
            5, 35))
        with pytest.raises(InvariantViolation):
            crt_zero_run(2, [5, 7])
        with pytest.raises(InvariantViolation):
            dirichlet_isolated(1, injection=[7, 5])
