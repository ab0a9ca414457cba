"""CA evolution, glider and nilpotency probes, full-group order search."""
import os
import random
import subprocess
import sys
import textwrap
from itertools import product
from pathlib import Path

import pytest

from blobshift import automata
from blobshift.errors import (NotInvertible, NotZeroPreserving, SizeLimit,
                             UnsupportedFormat)
from blobshift.automata import (
    CARule,
    FiniteConfig,
    NilpotencyVerdict,
    OrderVerdict,
    TFGElement,
    _check_probe_size,
    _cyclic_words,
    _finite_fates,
    _stepper,
    asymptotic_profile,
    block_swap_element,
    canonical_configs,
    compose,
    decrement_rule,
    evolve,
    find_glider,
    identity_element,
    is_identity,
    nilpotency_probe,
    parse_ca_rule,
    parse_tfg_element,
    shift_element,
    shift_rule,
    tfg_order_search,
    tfg_validate,
    xor_rule,
)
from blobshift.patterns import BINARY, Alphabet

# the radius-0 rules that kill every cell and that keep every cell
ZERO = CARule(BINARY, 0, {"0": "0", "1": "0"})
IDENTITY = CARule(BINARY, 0, {"0": "0", "1": "1"})


def step(rule, config):
    """One application of the rule: the end of a one-step trajectory."""
    return evolve(rule, config, 1)[-1]


# ------------------------------------------------------------------ evolution


def test_zero_rule_kills_everything():
    traj = evolve(ZERO, FiniteConfig.make("101"), 3)
    assert traj[0].word == "101"
    assert all(not c.word for c in traj[1:])


def test_shift_rule_moves_left():
    traj = evolve(shift_rule(), FiniteConfig.make("1"), 3)
    assert [(c.word, c.offset) for c in traj] == [
        ("1", 0), ("1", -1), ("1", -2), ("1", -3)]


def test_decrement_rule_trajectory():
    rule = decrement_rule()
    traj = evolve(rule, FiniteConfig.make("212", 0, rule.alphabet), 2)
    assert [c.word for c in traj] == ["212", "101", ""]


def test_evolution_requires_zero_preserving():
    alphabet = BINARY
    table = {"0": "1", "1": "1"}
    rule = CARule(alphabet, 0, table)
    with pytest.raises(NotZeroPreserving):
        evolve(rule, FiniteConfig.make("1"), 1)


def test_shift_commutation_random():
    rng = random.Random(21)
    rule = xor_rule()
    for _ in range(50):
        word = "".join(rng.choice("01") for _ in range(rng.randrange(1, 8)))
        offset = rng.randrange(-10, 10)
        a = step(rule, FiniteConfig.make(word, offset))
        b = step(rule, FiniteConfig.make(word, 0))
        if not a.word:
            assert not b.word
        else:
            assert a.word == b.word
            assert a.offset == b.offset + offset


def test_light_cone_bound():
    rule = xor_rule()
    config = FiniteConfig.make("1", 5)
    traj = evolve(rule, config, 10)
    for t, c in enumerate(traj):
        if not c.word:
            continue
        assert c.offset >= 5 - t
        assert c.offset + len(c.word) <= 6 + t


def test_canonical_enumeration_order():
    configs = list(canonical_configs(BINARY, 3))
    words = [c.word for c in configs]
    assert words == ["1", "11", "101", "111"]


# -------------------------------------------------------------------- gliders


def test_shift_rule_glider():
    config, n, m = find_glider(shift_rule(), 3, 8)
    assert (config.word, n, m) == ("1", 1, 1)


def test_zero_rule_no_glider():
    assert find_glider(ZERO, 3, 8) is None


def test_xor_rule_no_small_glider():
    assert find_glider(xor_rule(), 4, 16) is None


def fate_by_evolve(rule, config, max_time):
    """(seed, n, m) of the first step to zero or a translate, by evolve."""
    for n, image in enumerate(evolve(rule, config, max_time)[1:], 1):
        if not image.word:
            return config.word, n, None
        if image.word == config.word:
            return config.word, n, -image.offset
    return config.word, None, None


@pytest.mark.parametrize("make", [shift_rule, xor_rule, decrement_rule])
def test_finite_fates_reports_one_fate_per_seed(make):
    # drained to the end: every shift seed glides, and a generator resumed
    # after a glider's fate must go on to the next seed, not report another
    # fate for the same one
    rule = make()
    step_word, _ = _stepper(rule)
    fates = list(_finite_fates(step_word, rule.alphabet, 3, 6))
    assert fates == [fate_by_evolve(rule, config, 6)
                     for config in canonical_configs(rule.alphabet, 3)]


def test_glider_soundness_replay():
    rule = shift_rule()
    config, n, m = find_glider(rule, 3, 8)
    final = evolve(rule, config, n)[-1]
    # f^n(x) = sigma^m(x): contents appear m cells to the left
    assert final.word == config.word
    assert final.offset == config.offset - m


# ----------------------------------------------------------------- nilpotency


def test_decrement_probe():
    verdict = nilpotency_probe(decrement_rule(), 3, 8)
    assert verdict.tag == "nilpotent_on_probe"
    assert verdict.steps == 2


def test_identity_probe_not_nilpotent():
    verdict = nilpotency_probe(IDENTITY, 3, 8)
    assert verdict.tag == "not_nilpotent"


def test_shift_probe_not_nilpotent_with_glider():
    verdict = nilpotency_probe(shift_rule(), 3, 8)
    assert verdict.tag == "not_nilpotent"
    assert verdict.witness["kind"] == "glider"


def test_xor_probe_inconclusive():
    # no glider at this width, nothing dies, cyclic words of length up to
    # 3 never reach all-zero (101 -> 111 -> cycle on rings)
    verdict = nilpotency_probe(xor_rule(), 3, 8)
    assert verdict.tag in ("not_nilpotent", "inconclusive")


# -------------------------------------------------------------------- profile


def binomial_parity_count(t: int) -> int:
    """Number of odd binomial coefficients C(t, k), independently."""
    return sum(1 for k in range(t + 1) if (t & k) == k)


def test_zero_rule_profile():
    prof = asymptotic_profile(ZERO, FiniteConfig.make("111"), 4)
    assert prof == [3, 0, 0, 0, 0]


def test_shift_rule_profile_constant():
    prof = asymptotic_profile(shift_rule(), FiniteConfig.make("1"), 5)
    assert prof == [1] * 6


def test_xor_profile_matches_binomial_parity():
    prof = asymptotic_profile(xor_rule(), FiniteConfig.make("1"), 64)
    assert prof == [binomial_parity_count(t) for t in range(65)]


def test_evolve_checks_its_light_cone_against_the_cell_cap(monkeypatch):
    # the radius-1 light cone of "1" has 2t + 1 cells at step t, 21^2 = 441
    # over 20 steps; xor's word grows one cell a step and fills half of it
    one = FiniteConfig.make("1")
    assert sum(len(c.word) for c in evolve(xor_rule(), one, 20)) == 231
    monkeypatch.setenv("BLOBSHIFT_CELL_CAP", "441")
    assert len(evolve(xor_rule(), one, 20)) == 21
    monkeypatch.setenv("BLOBSHIFT_CELL_CAP", "440")
    with pytest.raises(SizeLimit):
        evolve(xor_rule(), one, 20)
    with pytest.raises(SizeLimit):
        asymptotic_profile(xor_rule(), one, 20)
    # a radius-0 rule's light cone is one cell per step, even for zero
    assert len(evolve(IDENTITY, one, 439)) == 440
    with pytest.raises(SizeLimit):
        evolve(IDENTITY, FiniteConfig.make("0"), 440)


def test_probes_check_seeds_times_light_cone_against_the_cell_cap(
        monkeypatch):
    # 2^2 seeds of width 2, each (5 + 1) * 2 + 5 * 6 = 42 cells over 5 steps
    monkeypatch.setenv("BLOBSHIFT_CELL_CAP", "168")
    assert find_glider(xor_rule(), 2, 5) is None
    assert nilpotency_probe(xor_rule(), 2, 5).tag == "inconclusive"
    monkeypatch.setenv("BLOBSHIFT_CELL_CAP", "167")
    with pytest.raises(SizeLimit):
        find_glider(xor_rule(), 2, 5)
    with pytest.raises(SizeLimit):
        nilpotency_probe(xor_rule(), 2, 5)


@pytest.mark.parametrize("width,time", [(9, 64), (10, 64), (11, 16)])
def test_benchmark_probe_sizes_pass_the_default_cap(width, time):
    _check_probe_size(xor_rule(), width, time)


# ------------------------------------------------------------------ tfg basics


def test_identity_element_valid_torsion_one():
    element = tfg_validate(identity_element())
    verdict = tfg_order_search(element, 4, 2)
    assert (verdict.tag, verdict.order) == ("torsion", 1)


def test_shift_element_infinite_order():
    element = tfg_validate(shift_element())
    verdict = tfg_order_search(element, 6, 2)
    assert verdict.tag == "infinite_order"
    assert verdict.witness["word"] == "0"
    assert verdict.witness["drift"] != 0


def test_powers_past_the_cell_cap_leave_the_drift_search(monkeypatch):
    # the n-th power of a radius-1 shift has radius n, 2^(2n+1) windows of
    # 2n+1 cells: under a 1000-cell cap the powers stop at radius 3
    element = parse_tfg_element("ca 01 radius 1\n* -> shift 1\n")
    monkeypatch.setenv("BLOBSHIFT_CELL_CAP", "1000")
    power = compose(element, compose(element, element))
    with pytest.raises(SizeLimit):
        compose(element, power)
    verdict = tfg_order_search(element, 12, 2)
    assert verdict.tag == "infinite_order"
    assert verdict.witness["word"] == "0"
    # the drift search keeps its own cap check
    with pytest.raises(SizeLimit):
        tfg_order_search(element, 12, 40)
    # the swap's square (160 cells) is past the cap and drift finds
    # nothing: its order stays open
    monkeypatch.setenv("BLOBSHIFT_CELL_CAP", "159")
    assert tfg_order_search(block_swap_element(), 6, 3).tag == "inconclusive"


@pytest.mark.parametrize("max_period,powers", [(2, 0), (6, 1)])
def test_drift_search_runs_before_a_costlier_power(monkeypatch, max_period,
                                                   powers):
    # the drift search reads 2^p * p cells (8 at p = 2, 384 at p = 6) and
    # the radius-1 shift's powers of radius 2, 3 have 160 and 896: it runs
    # before any power at p = 2 and after the first at p = 6
    element = parse_tfg_element("ca 01 radius 1\n* -> shift 1\n")
    real, composed = automata.compose, []

    def counted(outer, inner):
        if len(composed) == powers:
            pytest.fail("composed a power costlier than the drift search")
        composed.append(inner.radius)
        return real(outer, inner)

    monkeypatch.setattr(automata, "compose", counted)
    verdict = tfg_order_search(element, 12, max_period)
    assert verdict == OrderVerdict(
        "infinite_order", witness={"word": "0", "k": 1, "drift": 1})
    assert len(composed) == powers


def test_block_swap_is_involution():
    element = tfg_validate(block_swap_element())
    verdict = tfg_order_search(element, 6, 3)
    assert (verdict.tag, verdict.order) == ("torsion", 2)
    # symbolic replay: the square's cocycle table is identically zero
    assert is_identity(compose(element, element))


def test_lopsided_table_not_invertible():
    # every window shifts by +1 except one, which shifts by +2
    table = {"".join(t): 1 for t in product("01", repeat=5)}
    table["10101"] = 2
    element = TFGElement(BINARY, 2, table)
    with pytest.raises(NotInvertible):
        tfg_validate(element)


def test_cocycle_composition_law_random():
    rng = random.Random(23)
    pool = [identity_element(), shift_element(), block_swap_element()]
    for _ in range(1000):
        g = rng.choice(pool)
        h = rng.choice(pool)
        gh = compose(g, h)
        width = 2 * gh.radius + 1
        window = "".join(rng.choice("01") for _ in range(width))
        center = gh.radius
        ih = h.radius
        c_h = h.table[window[center - ih:center + ih + 1]]
        ig = g.radius
        base = center + c_h
        c_g = g.table[window[base - ig:base + ig + 1]]
        assert gh.table[window] == c_h + c_g


def test_torsion_soundness_replay():
    element = block_swap_element()
    square = compose(element, element)
    assert all(v == 0 for v in square.table.values())


def test_compose_checks_the_cell_cap(monkeypatch):
    # the square of the swap has radius 2: 2^5 windows of 5 cells
    swap = block_swap_element()
    monkeypatch.setenv("BLOBSHIFT_CELL_CAP", "159")
    with pytest.raises(SizeLimit):
        compose(swap, swap)
    monkeypatch.setenv("BLOBSHIFT_CELL_CAP", "160")
    assert compose(swap, swap).radius == 2


# ----------------------------------------------------------------- rule files


def test_parse_ca_rule_with_wildcard():
    rule = parse_ca_rule("ca 01 radius 1\n* -> 0\n001 -> 1\n011 -> 1\n"
                         "101 -> 1\n111 -> 1\n")
    assert rule.radius == 1
    assert rule.table == shift_rule().table


def test_parse_tfg_element():
    element = parse_tfg_element(
        "ca 01 radius 1\n* -> shift 0\n010 -> shift 1\n")
    assert element.table["010"] == 1
    assert element.table["000"] == 0


@pytest.mark.parametrize("parse,image", [(parse_ca_rule, "0"),
                                         (parse_tfg_element, "shift 0")])
def test_rule_wildcard_checks_the_cell_cap(monkeypatch, parse, image):
    monkeypatch.setenv("BLOBSHIFT_CELL_CAP", "100")
    with pytest.raises(SizeLimit):
        parse(f"ca 01 radius 3\n* -> {image}\n")
    assert parse(f"ca 01 radius 1\n* -> {image}\n").radius == 1


def test_rule_file_skips_blank_lines_anywhere():
    rule = parse_ca_rule("\n\nca 01 radius 1\n\n* -> 0\n  \n001 -> 1\n"
                         "011 -> 1\n101 -> 1\n111 -> 1\n\n")
    assert rule.table == shift_rule().table


@pytest.mark.parametrize("text", [
    "ca 01 radius 1\n001 -> 1\n",
    "ca 01 radius x\n* -> 0\n",
    "ca 01 radius 1\n* -> 2\n",
    "ca 00 radius 1\n* -> 0\n",
    "ca 01 radius -1\n* -> 0\n",
    "ca 01 radius 100000\n",
    "ca 01 radius 1\n* -> 0\n001\n",
    "ca 01 radius 0\n0 -> 0\nx -> 0\n",
])
def test_malformed_rule_files_are_unsupported_format(text):
    with pytest.raises(UnsupportedFormat):
        parse_ca_rule(text)
    with pytest.raises(UnsupportedFormat):
        parse_tfg_element(text.replace("-> 0", "-> shift 0"))


def test_decrement_alphabet():
    rule = decrement_rule()
    assert rule.alphabet == Alphabet(("0", "1", "2"), "0")
    assert rule.zero_preserving


# ------------------------------------------------- the block-table kernel
#
# The per-cell loops the kernel replaced, kept as oracles.


def oracle_step(rule, config):
    rho = rule.radius
    zero = rule.alphabet.zero
    if not config.word:
        return config
    lo = config.offset - rho
    hi = config.offset + len(config.word) + rho
    padded = zero * (2 * rho) + config.word + zero * (2 * rho)
    width = 2 * rho + 1
    out = []
    for i in range(lo, hi):
        start = i - config.offset + rho
        out.append(rule.table[padded[start:start + width]])
    return FiniteConfig.make("".join(out), lo, rule.alphabet)


def oracle_cycle_step(rule, word):
    n = len(word)
    rho = rule.radius
    out = []
    for i in range(n):
        nb = "".join(word[(i + d) % n] for d in range(-rho, rho + 1))
        out.append(rule.table[nb])
    return "".join(out)


def oracle_cyclic_words(alphabet, max_len):
    zero = alphabet.zero
    seen = set()
    for length in range(1, max_len + 1):
        for tup in product(alphabet.symbols, repeat=length):
            word = "".join(tup)
            if word == zero * length:
                continue
            canon = min(word[i:] + word[:i] for i in range(length))
            if canon in seen:
                continue
            seen.add(canon)
            yield canon


def oracle_fate(rule, config, max_time):
    """(seed, n, m) as fate_by_evolve gives it, by per-cell steps."""
    current = config
    for n in range(1, max_time + 1):
        current = oracle_step(rule, current)
        if not current.word:
            return config.word, n, None
        if current.word == config.word:
            return config.word, n, -current.offset
    return config.word, None, None


def oracle_find_glider(rule, max_width, max_time, fate=oracle_fate):
    for seed in canonical_configs(rule.alphabet, max_width):
        _, n, m = fate(rule, seed, max_time)
        if m is not None:
            return seed, n, m
    return None


def oracle_nilpotency_probe(rule, max_width, max_time, fate=oracle_fate):
    deaths = [0]
    survivor = None
    for seed in canonical_configs(rule.alphabet, max_width):
        _, n, m = fate(rule, seed, max_time)
        if m is not None:
            return NilpotencyVerdict(
                "not_nilpotent",
                witness={"kind": "glider", "word": seed.word,
                         "time": n, "shift": m})
        if n is None:
            survivor = survivor or seed.word
        else:
            deaths.append(n)
    zero = rule.alphabet.zero
    for word in oracle_cyclic_words(rule.alphabet, max_width):
        current = word
        seen = {current}
        for t in range(1, max_time + 1):
            current = oracle_cycle_step(rule, current)
            if current == zero * len(current):
                deaths.append(t)
                break
            if current in seen:
                return NilpotencyVerdict(
                    "not_nilpotent",
                    witness={"kind": "periodic", "word": word, "time": t})
            seen.add(current)
        else:
            survivor = survivor or word
    if survivor is None:
        return NilpotencyVerdict("nilpotent_on_probe", steps=max(deaths))
    return NilpotencyVerdict("inconclusive", witness={"survivor": survivor})


def oracle_compose(outer, inner):
    radius = outer.radius + inner.radius
    width = 2 * radius + 1
    iw = 2 * inner.radius + 1
    ow = 2 * outer.radius + 1
    table = {}
    for tup in product(outer.alphabet.symbols, repeat=width):
        word = "".join(tup)
        ic = radius - inner.radius
        c_inner = inner.table[word[ic:ic + iw]]
        oc = radius + c_inner - outer.radius
        c_outer = outer.table[word[oc:oc + ow]]
        table[word] = c_inner + c_outer
    return TFGElement(outer.alphabet, radius, table)


KERNEL_ALPHABETS = (BINARY, Alphabet(("1", "0"), "1"),
                    Alphabet(("b", "a", "c"), "b"))


def random_rule(rng, alphabet, radius, zero_preserving=True):
    symbols = alphabet.symbols
    table = {}
    for t in product(symbols, repeat=2 * radius + 1):
        word = "".join(t)
        table[word] = rng.choice(symbols)
    if zero_preserving:
        table[alphabet.zero * (2 * radius + 1)] = alphabet.zero
    return CARule(alphabet, radius, table)


def random_word(rng, alphabet, length):
    return "".join(rng.choice(alphabet.symbols) for _ in range(length))


def test_kernel_step_matches_per_cell_oracle():
    rng = random.Random(41)
    for _ in range(150):
        alphabet = rng.choice(KERNEL_ALPHABETS)
        rule = random_rule(rng, alphabet, rng.randrange(3),
                           zero_preserving=rng.random() < 0.8)
        step_word, _ = _stepper(rule)
        for _ in range(10):
            # lengths 1-40 cover one block, several, and a ragged tail
            word = random_word(rng, alphabet, rng.randrange(1, 41))
            config = FiniteConfig.make(word, rng.randrange(-20, 20), alphabet)
            if rule.zero_preserving:
                assert step(rule, config) == oracle_step(rule, config)
                continue
            # the image has infinite support: step refuses, and the kernel
            # still matches the oracle inside the light cone
            with pytest.raises(NotZeroPreserving):
                step(rule, config)
            if config.word:
                image, shift = step_word(config.word)
                kernel = FiniteConfig.make(image, config.offset + shift,
                                           alphabet)
                assert kernel == oracle_step(rule, config)


def test_kernel_cycle_step_matches_per_cell_oracle():
    rng = random.Random(43)
    for _ in range(150):
        alphabet = rng.choice(KERNEL_ALPHABETS)
        rule = random_rule(rng, alphabet, rng.randrange(3),
                           zero_preserving=rng.random() < 0.8)
        _, step_cycle = _stepper(rule)
        for length in (1, 2, 3, 4, 5, 7, 8, 9, 16, 17, 40):
            # lengths below 2 rho + 1 wrap the window more than once
            word = random_word(rng, alphabet, length)
            assert step_cycle(word) == oracle_cycle_step(rule, word)


def test_kernel_evolve_matches_iterated_oracle():
    rng = random.Random(47)
    for _ in range(40):
        alphabet = rng.choice(KERNEL_ALPHABETS)
        rule = random_rule(rng, alphabet, rng.randrange(3))
        config = FiniteConfig.make(random_word(rng, alphabet, 12), 3, alphabet)
        expected = [config]
        for _ in range(20):
            expected.append(oracle_step(rule, expected[-1]))
        assert evolve(rule, config, 20) == expected


def test_cyclic_words_sequence_unchanged():
    for alphabet in KERNEL_ALPHABETS:
        for width in range(1, 7):
            assert (list(_cyclic_words(alphabet, width))
                    == list(oracle_cyclic_words(alphabet, width)))


def test_probes_match_per_cell_oracle():
    rng = random.Random(53)
    verdicts = set()
    for ix in range(200):
        alphabet = KERNEL_ALPHABETS[ix % 3]
        radius = rng.randrange(3)
        rule = random_rule(rng, alphabet, radius)
        width = 6 if len(alphabet.symbols) == 2 else 4
        time = rng.choice((1, 4, 12))
        assert (find_glider(rule, width, time)
                == oracle_find_glider(rule, width, time))
        verdict = nilpotency_probe(rule, width, time)
        assert verdict == oracle_nilpotency_probe(rule, width, time)
        verdicts.add(verdict.witness.get("kind", verdict.tag))
    for rule in (xor_rule(), shift_rule(), IDENTITY, decrement_rule()):
        assert find_glider(rule, 6, 16) == oracle_find_glider(rule, 6, 16)
        assert (nilpotency_probe(rule, 6, 16)
                == oracle_nilpotency_probe(rule, 6, 16))
    # the random rules reach every kind of verdict
    assert verdicts >= {"glider", "periodic", "inconclusive",
                        "nilpotent_on_probe"}


def test_probes_step_each_distinct_word_once(monkeypatch):
    real, stepped = automata._stepper, []

    def counting(rule):
        step_word, step_cycle = real(rule)

        def counted(word):
            stepped.append(word)
            return step_word(word)

        return counted, step_cycle

    monkeypatch.setattr(automata, "_stepper", counting)
    # xor is linear, so its probes step no finite seed; decrement certifies
    # its index 2, so its probe steps none either
    for probe, oracle, rule, width, time, distinct in [
            (nilpotency_probe, oracle_nilpotency_probe, xor_rule(), 9, 64,
             0),
            (find_glider, oracle_find_glider, xor_rule(), 11, 16, 0),
            (nilpotency_probe, oracle_nilpotency_probe, decrement_rule(), 7,
             64, 0)]:
        stepped.clear()
        assert probe(rule, width, time) == oracle(rule, width, time)
        assert len(stepped) == len(set(stepped)) == distinct
    # decrement's fates: its 1458 seeds of width <= 7 die within 2 (2852
    # steps), each distinct word stepped once
    stepped.clear()
    step_word, _ = automata._stepper(decrement_rule())
    fates = _finite_fates(step_word, decrement_rule().alphabet, 7, 64)
    assert max(n for _, n, _ in fates) == 2
    assert len(stepped) == len(set(stepped)) == 1458
    # xor's fates: its 256 seeds of width <= 9 all survive 64 steps
    # (16 384 steps), its 1024 seeds of width <= 11 all run 16 steps
    # (16 384 steps)
    for width, time, distinct in [(9, 64, 8320), (11, 16, 8704)]:
        stepped.clear()
        step_word, _ = automata._stepper(xor_rule())
        fates = _finite_fates(step_word, BINARY, width, time)
        assert all(n is None for _, n, _ in fates)
        assert len(stepped) == len(set(stepped)) == distinct


def test_nilpotency_certificate_matches_the_evolve_oracle(monkeypatch):
    # every zero-preserving binary radius-1 table and Z_3 radius-0 table,
    # at widths and times on both sides of each bound: a rule of index N
    # is certified at width w and time t when N <= t and |A|^(2 N rho + 1)
    # is at most the (|A| - 1) |A|^(w - 1) seeds; otherwise the seeds run
    real, certified = automata._nilpotency_index, []

    def recording(rule, max_width, max_time):
        certified.append(real(rule, max_width, max_time))
        return certified[-1]

    monkeypatch.setattr(automata, "_nilpotency_index", recording)
    windows = ["".join(t) for t in product("01", repeat=3)]
    binary = [CARule(BINARY, 1, dict(zip(windows, ("0",) + images)))
              for images in product("01", repeat=7)]
    z3 = Alphabet(("0", "1", "2"), "0")
    ternary = [CARule(z3, 0, {"0": "0", "1": one, "2": two})
               for one, two in product("012", repeat=2)]
    nilpotent = set()
    for rules, pairs in [
            (binary, [(2, 8), (4, 8), (5, 8), (6, 1), (6, 2), (6, 8),
                      (7, 3), (8, 16)]),
            (ternary, [(1, 4), (2, 1), (2, 2), (3, 8), (5, 3)])]:
        for rule, (width, time) in product(rules, pairs):
            certified.clear()
            verdict = nilpotency_probe(rule, width, time)
            assert verdict == oracle_nilpotency_probe(
                rule, width, time, fate=fate_by_evolve), (rule, width, time)
            if verdict.tag == "nilpotent_on_probe":
                nilpotent.add((certified == [verdict.steps], verdict.steps))
    # indices 1 and 2 are certified, and both also come from the seeds
    # where a bound stops the certificate
    assert nilpotent == {(True, 1), (True, 2), (False, 1), (False, 2)}


def test_a_nilpotent_rule_steps_no_seed(monkeypatch):
    def refuse(*args):
        raise AssertionError("a certified rule stepped its finite seeds")

    monkeypatch.setattr(automata, "_finite_fates", refuse)
    assert nilpotency_probe(decrement_rule(), 7, 64) == NilpotencyVerdict(
        "nilpotent_on_probe", steps=2)
    assert nilpotency_probe(ZERO, 2, 1) == NilpotencyVerdict(
        "nilpotent_on_probe", steps=1)


# digit alphabets, each symbol read as its digit; the one over Z_3 puts its
# zero second, where the library reads symbol i as (i - 1) mod 3 all the same
DIGIT_ALPHABETS = {2: BINARY, 3: Alphabet(("2", "0", "1"), "0"),
                   4: Alphabet(tuple("0123"), "0"),
                   5: Alphabet(tuple("01234"), "0")}


def linear_rule(p, coefficients):
    """The rule x -> sum_j a_j x_j mod p over a window of len(a) digits."""
    alphabet = DIGIT_ALPHABETS[p]
    table = {"".join(window): str(sum(a * int(x) for a, x in
                                      zip(coefficients, window)) % p)
             for window in product(alphabet.symbols,
                                   repeat=len(coefficients))}
    return CARule(alphabet, len(coefficients) // 2, table)


def test_linear_probes_match_the_evolve_oracle():
    # every linear table over Z_2 (rho <= 2), Z_3 (rho <= 1), Z_5 and the
    # composite Z_4 (rho = 1), then every zero-preserving binary radius-1
    # table; Z_4 takes the search, like every nonlinear table
    rules = []
    for p, radii in [(2, (0, 1, 2)), (3, (0, 1)), (4, (1,)), (5, (1,))]:
        for radius in radii:
            for coefficients in product(range(p), repeat=2 * radius + 1):
                rules.append(linear_rule(p, coefficients))
                assert automata._linear_coefficients(rules[-1]) == (
                    None if p == 4 else coefficients)
    windows = ["".join(t) for t in product("01", repeat=3)]
    rules += [CARule(BINARY, 1, dict(zip(windows, ("0",) + images)))
              for images in product("01", repeat=7)]
    kinds = set()
    for rule in rules:
        width, time = (5, 8) if len(rule.alphabet.symbols) == 2 else (2, 6)
        assert find_glider(rule, width, time) == oracle_find_glider(
            rule, width, time, fate=fate_by_evolve)
        verdict = nilpotency_probe(rule, width, time)
        assert verdict == oracle_nilpotency_probe(rule, width, time,
                                                  fate=fate_by_evolve)
        kinds.add(verdict.witness.get("kind", verdict.tag))
    assert kinds >= {"glider", "periodic", "inconclusive",
                     "nilpotent_on_probe"}


def test_linear_rules_step_no_finite_seed(monkeypatch):
    # P = 1 + X over Z_2: no seed of any width dies or glides
    def refuse(*args):
        raise AssertionError("a linear rule stepped its finite seeds")

    monkeypatch.setattr(automata, "_finite_fates", refuse)
    assert find_glider(xor_rule(), 11, 16) is None
    assert nilpotency_probe(xor_rule(), 9, 64) == NilpotencyVerdict(
        "not_nilpotent", witness={"kind": "periodic", "word": "001",
                                  "time": 4})


def random_element(rng, alphabet, radius):
    windows = ["".join(t)
               for t in product(alphabet.symbols, repeat=2 * radius + 1)]
    rng.shuffle(windows)
    return TFGElement(alphabet, radius,
                      {w: rng.randrange(-radius, radius + 1) for w in windows})


def random_element_text(rng, alphabet, radius):
    """A rule file whose lines come in shuffled order, wildcard or not."""
    element = random_element(rng, alphabet, radius)
    lines = [f"{w} -> shift {c}" for w, c in element.table.items()]
    if rng.random() < 0.3:
        default = rng.randrange(-radius, radius + 1)
        lines = [f"* -> shift {default}"] + lines[::2]
    symbols = "".join(alphabet.symbols)
    return f"ca {symbols} radius {radius}\n" + "\n".join(lines) + "\n"


def test_compose_matches_per_window_oracle():
    rng = random.Random(59)
    for alphabet, outer_radius, inner_radius, parsed in product(
            KERNEL_ALPHABETS, range(3), range(3), (False, True)):
        pair = []
        for radius in (outer_radius, inner_radius):
            if parsed:
                pair.append(parse_tfg_element(
                    random_element_text(rng, alphabet, radius)))
            else:
                pair.append(random_element(rng, alphabet, radius))
        got, want = compose(*pair), oracle_compose(*pair)
        assert got == want
        assert list(got.table) == list(want.table)
        # the checking constructor accepts what compose built unchecked
        assert got == TFGElement(got.alphabet, got.radius, dict(got.table))
    with pytest.raises(ValueError):
        compose(identity_element(), TFGElement(KERNEL_ALPHABETS[1], 0,
                                               {"1": 0, "0": 0}))


def test_compose_does_not_recheck_its_table(monkeypatch):
    # the chain of the probes workload at seed 1, and the swap's order
    pool = {"+": shift_element(), "-": shift_element(-1),
            "s": block_swap_element()}
    steps = [pool[c] for c in "++ss+-s"]
    start, swap = identity_element(), pool["s"]
    want, power = [], start
    for element in steps:
        power = oracle_compose(element, power)
        want.append(power)

    def refuse(*args):
        raise AssertionError("compose re-checked a table it built")

    monkeypatch.setattr(automata, "_check_table", refuse)
    got, power = [], start
    for element in steps:
        power = compose(element, power)
        got.append(power)
    assert got == want
    assert [list(el.table) for el in got] == [list(el.table) for el in want]
    assert tfg_order_search(swap, 8, 4) == OrderVerdict("torsion", order=2)


@pytest.mark.parametrize("width,time", [(0, 4), (3, 0), (-1, -3)])
def test_probes_reject_empty_probe_sizes(width, time):
    with pytest.raises(ValueError):
        nilpotency_probe(xor_rule(), width, time)
    with pytest.raises(ValueError):
        find_glider(xor_rule(), width, time)


def test_certifying_checks_survive_python_O():
    script = textwrap.dedent("""
        from blobshift import automata, primes
        from blobshift.errors import InvariantViolation

        # a stepper that jumps five cells left breaks the light cone
        automata._stepper = lambda rule: (lambda word: (word, -5), None)
        try:
            automata.evolve(automata.xor_rule(),
                            automata.FiniteConfig.make("1"), 3)
        except InvariantViolation:
            print("light cone")

        # 9 = 3 * 3 passed off as prime shares a factor with index 3
        real = primes.is_prime
        primes.is_prime = lambda n: n == 9 or real(n)
        try:
            primes.dirichlet_isolated(3, 10, [7, 11, 13, 17, 19, 9])
        except InvariantViolation:
            print("gcd")

        # a foreign image and a shift past the radius
        try:
            automata.CARule(automata.BINARY, 0, {"0": "0", "1": "2"})
        except ValueError as error:
            print(error)
        try:
            automata.TFGElement(automata.BINARY, 0, {"0": 0, "1": 1})
        except ValueError as error:
            print(error)
    """)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "light cone", "gcd", "table value '2' not in the alphabet",
        "shift exceeds the radius"]


def drive_automata(monkeypatch):
    """Call automata.py's public functions on seeded random rules and
    elements, and on the canned ones."""
    rng = random.Random(0xCA)
    for _ in range(30):
        alphabet = rng.choice(KERNEL_ALPHABETS)
        rule = random_rule(rng, alphabet, rng.randrange(3))
        word = random_word(rng, alphabet, rng.randrange(1, 9))
        config = FiniteConfig.make(word, rng.randrange(-5, 5), alphabet)
        assert asymptotic_profile(rule, config, 6)[0] == \
            config.support_size()
        find_glider(rule, 3, 6)
        nilpotency_probe(rule, 3, 6)
        element = random_element(rng, alphabet, rng.randrange(2))
        for candidate in (element, compose(element, element)):
            try:
                tfg_validate(candidate)
            except NotInvertible:
                pass
            tfg_order_search(candidate, 4, 3)
        text = random_element_text(rng, alphabet, rng.randrange(2))
        assert parse_tfg_element(text).alphabet == alphabet
    # xor is linear over Z_2 and shift a linear monomial; decrement's
    # table fails the linearity check, and Z_4 is not a field
    for rule in (shift_rule(), xor_rule(), decrement_rule(), ZERO,
                 IDENTITY, linear_rule(4, (1, 0, 1))):
        find_glider(rule, 3, 8)
        nilpotency_probe(rule, 3, 8)
    # decrement certifies its index 2; at time 1 it runs out of time,
    # and at width 1 its 2 seeds are fewer than its 3 symbols, so the
    # seeds answer there, with the verdict the certificate gives
    assert automata._nilpotency_index(decrement_rule(), 3, 8) == 2
    assert automata._nilpotency_index(decrement_rule(), 3, 1) is None
    assert automata._nilpotency_index(decrement_rule(), 1, 8) is None
    assert nilpotency_probe(decrement_rule(), 1, 8) == \
        nilpotency_probe(decrement_rule(), 3, 8) == \
        NilpotencyVerdict("nilpotent_on_probe", steps=2)
    # the probes stop at a glider; the fates go on past it
    assert len(list(_finite_fates(_stepper(shift_rule())[0], BINARY, 3,
                                  4))) == 4
    # xor's cyclic words neither die nor repeat in two steps
    assert nilpotency_probe(xor_rule(), 3, 2).tag == "inconclusive"
    # one power leaves no room to compose: the drift search runs last
    assert tfg_order_search(shift_element(), 1, 2).tag == \
        "infinite_order"
    assert parse_ca_rule("ca 01 radius 0\n* -> 0\n1 -> 1\n") == IDENTITY
    assert [c.word for c in canonical_configs(BINARY, 3)] == [
        "1", "11", "101", "111"]
    for element in (identity_element(), shift_element(-1),
                    block_swap_element()):
        tfg_order_search(tfg_validate(element), 4, 3)
    # under this cap the swap's square cannot be composed
    with monkeypatch.context() as patched:
        patched.setenv("BLOBSHIFT_CELL_CAP", "159")
        assert tfg_order_search(block_swap_element(), 6, 3).tag == \
            "inconclusive"
