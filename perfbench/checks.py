"""Output checks and work counters, computed outside the library.

Every checker takes a task's inputs and outputs and returns a list of
failure messages, empty when the output is right. The checkers replay
witnesses with their own code (a CA stepper, a BFS, union-find over the
support, closed-form domain sizes) rather than calling back into
blobshift, so a bug in the library cannot vouch for itself. A verdict
whose tag is in doubt is checked by replaying its witness, never by
pinning the tag.

Work counters are deterministic functions of inputs and outputs: they
repeat exactly between runs of one commit, which lets "less work" be told
apart from "faster work".
"""
from __future__ import annotations

import json
import random
from collections import deque
from itertools import accumulate, product
from math import gcd


# -- geometry oracles ----------------------------------------------------------


def ball_size(dim: int, r: int) -> int:
    """Number of cells of L1 norm at most r."""
    return 2 * r + 1 if dim == 1 else 2 * r * r + 2 * r + 1


def box_of(cells) -> tuple[tuple[int, ...], tuple[int, ...]]:
    cols = list(zip(*cells))
    return tuple(min(c) for c in cols), tuple(max(c) for c in cols)


def _box_distance(cell, lo, hi) -> int:
    return sum(max(a - x, 0, x - b) for x, a, b in zip(cell, lo, hi))


def dilated_box_size(lo, hi, r: int) -> int:
    """Cells within L1 distance r of a full box (1D interval or 2D rectangle)."""
    if len(lo) == 1:
        return hi[0] - lo[0] + 1 + 2 * r
    w, h = hi[0] - lo[0] + 1, hi[1] - lo[1] + 1
    return w * h + 2 * r * (w + h) + 2 * r * (r - 1)


def _l1(a, b) -> int:
    return sum(abs(x - y) for x, y in zip(a, b))


def r_components(cells, r: int) -> list[set]:
    """Union-find over close pairs: independent of the library's BFS."""
    cells = sorted(cells)
    parent = list(range(len(cells)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, a in enumerate(cells):
        for j in range(i + 1, len(cells)):
            b = cells[j]
            if b[0] - a[0] > r:
                break  # sorted by the first coordinate: no closer cell follows
            if _l1(a, b) <= r:
                parent[find(i)] = find(j)
    groups: dict[int, set] = {}
    for i, c in enumerate(cells):
        groups.setdefault(find(i), set()).add(c)
    return list(groups.values())


def _translate(cell, v):
    return tuple(a + b for a, b in zip(cell, v))


# -- patterns ------------------------------------------------------------------


def check_pad(src, out, r: int) -> list[str]:
    """pad over a full-box domain: the L1 dilation, new cells all zero."""
    cells = list(src.cells())
    lo, hi = box_of(cells)
    expected = dilated_box_size(lo, hi, 0)
    if len(cells) != expected:
        return ["pad input is not a full box; the checker needs one"]
    if len(out) != dilated_box_size(lo, hi, r):
        return [f"pad gave {len(out)} cells, the dilation has "
                f"{dilated_box_size(lo, hi, r)}"]
    zero = src.alphabet.zero
    for cell, symbol in out.items():
        if cell in src:
            if src.value(cell) != symbol:
                return [f"pad changed the value at {cell}"]
        elif symbol != zero or _box_distance(cell, lo, hi) > r:
            return [f"pad added a bad cell {cell}={symbol!r}"]
    return []


def pad_counts(src, out, r: int) -> dict[str, int]:
    return {"patterns.pad.calls": 1,
            "patterns.pad.cells_in": len(src),
            "patterns.pad.cells_out": len(out),
            "patterns.pad.probes": len(src) * ball_size(src.dimension, r)}


def check_partition(pattern, pieces, r: int) -> list[str]:
    """(blob, anchor) pieces tile the support: one piece per r-component."""
    support = pattern.support()
    seen = set()
    for blob, anchor in pieces:
        for cell in blob.support():
            absolute = _translate(cell, anchor)
            if absolute in seen:
                return [f"r={r}: cell {absolute} lies in two blobs"]
            if pattern.get(absolute) != blob.pattern.value(cell):
                return [f"r={r}: blob value differs from the pattern at {absolute}"]
            seen.add(absolute)
    if seen != support:
        return [f"r={r}: blobs cover {len(seen)} of {len(support)} support cells"]
    components = len(r_components(support, r))
    if len(pieces) != components:
        return [f"r={r}: {len(pieces)} blobs for {components} components"]
    return []


def check_rebuild(pattern, rebuilt) -> list[str]:
    support = pattern.support()
    if rebuilt is None:
        return [] if not support else ["zero_glue rebuild is missing"]
    if rebuilt.support() != support:
        return ["zero_glue rebuild has the wrong support"]
    if any(rebuilt.value(c) != pattern.value(c) for c in rebuilt.cells()):
        return ["zero_glue rebuild disagrees with the pattern"]
    return []


def width_oracle(pattern, r: int) -> int:
    rows: dict[int, list[int]] = {}
    for cell in pattern.support():
        rows.setdefault(cell[-1] if len(cell) == 2 else 0, []).append(cell[0])
    best = 0
    for xs in rows.values():
        count, end = 0, None
        for x in sorted(xs):
            if end is None or x > end:
                count, end = count + 1, x + 2 * r
        best = max(best, count)
    return best


# -- blob hierarchies -------------------------------------------------------------


def check_hierarchy(pattern, hierarchy, radii) -> list[str]:
    """Every level tiles the support and flags truncation exactly."""
    if [lvl.radius for lvl in hierarchy.levels] != list(radii):
        return ["hierarchy radii differ from the schedule"]
    lo, hi = box_of(list(pattern.cells()))
    support = pattern.support()
    for level in hierarchy.levels:
        r = level.radius
        pieces = [(pl.blob, pl.anchor) for pl in level.placements]
        failures = check_partition(pattern, pieces, r)
        if failures:
            return failures
        for pl in level.placements:
            cells = pl.absolute_support()
            exits = any(x - r < a or x + r > b
                        for cell in cells for x, a, b in zip(cell, lo, hi))
            if exits != pl.truncated:
                return [f"r={r}: truncation flag wrong at {pl.anchor}"]
    if not support:
        return ["hierarchy input has no support"]
    return []


def check_report(hierarchy, report, passed: tuple[bool, ...]) -> list[str]:
    """Pair counts agree with the hierarchy; pass flags match the pin."""
    levels = hierarchy.levels
    if len(report) != len(levels) - 1:
        return ["one report per consecutive level pair expected"]
    for pair, upper in zip(report, levels[1:]):
        live = sum(1 for pl in upper.placements if not pl.truncated)
        if (pair.checked, pair.skipped_truncated) != (
                live, len(upper.placements) - live):
            return [f"pair r={pair.upper_radius}: checked/skipped miscounted"]
    got = tuple(pair.passed() for pair in report)
    if got != passed:
        return [f"axiom pass flags {got}, expected {passed}"]
    return []


def hierarchy_counts(hierarchy, report) -> dict[str, int]:
    return {
        "blobfractal.build_hierarchy.placements":
            sum(len(lvl.placements) for lvl in hierarchy.levels),
        "blobfractal.build_hierarchy.distinct":
            sum(len(lvl.distinct()) for lvl in hierarchy.levels),
        "blobfractal.verify_axioms.checked":
            sum(pair.checked for pair in report),
    }


# -- paths on supports ---------------------------------------------------------------


def _path_shape(pattern, cells, r: int) -> list[str]:
    support = pattern.support()
    if len(set(cells)) != len(cells):
        return ["path repeats a cell"]
    if not set(cells) <= support:
        return ["path leaves the support"]
    if any(_l1(a, b) > r for a, b in zip(cells, cells[1:])):
        return ["path step exceeds the radius"]
    return []


def check_geodesic(pattern, path, r: int) -> list[str]:
    """A simple path whose length is the BFS distance between its ends."""
    cells = list(path.cells)
    failures = _path_shape(pattern, cells, r)
    if failures:
        return failures
    support = pattern.support()
    dist = {cells[0]: 0}
    queue = deque([cells[0]])
    while queue:
        cell = queue.popleft()
        for other in _near(cell, r):
            if other in support and other not in dist:
                dist[other] = dist[cell] + 1
                queue.append(other)
    if dist.get(cells[-1]) != len(cells) - 1:
        return [f"path has {len(cells) - 1} steps, BFS distance is "
                f"{dist.get(cells[-1])}"]
    return []


def _near(cell, r: int):
    if len(cell) == 1:
        (x,) = cell
        return [(x + d,) for d in range(-r, r + 1) if d]
    x, y = cell
    return [(x + dx, y + dy) for dx in range(-r, r + 1)
            for dy in range(-(r - abs(dx)), r - abs(dx) + 1) if dx or dy]


def check_ascending(pattern, path, r: int, m: int) -> list[str]:
    if path is None:
        return ["no ascending path found"]
    cells = list(path.cells)
    failures = _path_shape(pattern, cells, r)
    if failures:
        return failures
    if len(cells) < 2 * m:
        return ["ascending path is shorter than 2m"]
    if any(cells[t][-1] <= cells[t - m][-1] for t in range(m, len(cells))):
        return [f"an {m}-step window of the path does not gain height"]
    return []


# -- move-word paths -------------------------------------------------------------------


def iterates(rules: dict[str, str], seed: str, length: int) -> list[str]:
    """The seed's iterates up to the first one at least `length` long."""
    words = [seed]
    while len(words[-1]) < length:
        words.append("".join(rules[c] for c in words[-1]))
    return words


def _height_range(moves) -> int:
    heights = [0, *accumulate(moves)]
    return max(heights) - min(heights)


def check_path_verdict(rules: dict[str, str], seed: str,
                       moves: dict[str, int], horizon: int,
                       verdict) -> list[str]:
    """Replay whatever the tag claims; an honest inconclusive passes."""
    tag, details = verdict.tag, verdict.details
    if tag == "unbounded_recurrent":
        word = iterates(rules, seed, details["search_length"])[-1]
        if len(word) != details["search_length"]:
            return ["search_length is not the length of an iterate"]
        start = details["witness_start"]
        steps = verdict.witness.moves
        if tuple(moves[c] for c in word[start:start + len(steps)]) != steps:
            return ["recurrence witness is not a factor at its start"]
        strip = max(abs(v) for v in moves.values())
        visits = sum(1 for h in [0, *accumulate(steps)] if 0 <= h < strip)
        if visits < horizon:
            return [f"witness walk visits the strip {visits} < {horizon} times"]
        return []
    if tag == "bounded":
        words = iterates(rules, seed, details["window_length"])
        last = [_height_range(moves[c] for c in w) for w in words[-2:]]
        if len(last) < 2 or last != [verdict.constant] * 2:
            return ["bounded verdict: height range does not replay"]
        return []
    if tag in ("ascending", "descending"):
        sign = 1 if tag == "ascending" else -1
        word = iterates(rules, seed, details["window_length"])[-1]
        mv = [sign * moves[c] for c in word]
        m = verdict.constant
        prefix = [0, *accumulate(mv)]
        if any(prefix[j + m] - prefix[j] <= 0 for j in range(len(mv) - m + 1)):
            return [f"{tag} constant {m} does not replay"]
        return []
    if tag == "inconclusive":
        return []
    return [f"unknown tag {tag!r}"]


def check_floor_profiles(words, profiles) -> list[str]:
    """The computed law min(n+1, 2^(n-1)), not the stated criterion-2 law."""
    for n, (word, prof) in enumerate(zip(words, profiles), start=1):
        if prof.total != len(word) + 1 or sum(prof.counts.values()) != prof.total:
            return [f"n={n}: visit total does not match the walk"]
        if prof.support() != list(range(0, n + 2)) or prof[0] != 1:
            return [f"n={n}: support or floor count wrong"]
        rest = min(prof[i] for i in range(1, n + 2))
        if rest != min(n + 1, 2 ** (n - 1)):
            return [f"n={n}: minimum count {rest} breaks min(n+1, 2^(n-1))"]
    return []


def check_cut(language, r: int, horizon: int, cut) -> list[str]:
    """Re-run the horizon test for the one returned candidate."""
    if cut is None:
        return ["no cut path found"]
    words = [w.moves for w in language]
    length = len(words[0])
    factors = {w[i:i + n] for w in words for n in range(1, length + 1)
               for i in range(length - n + 1)}
    cand = cut.moves
    if cand not in factors or len(cand) > horizon // 2:
        return ["cut candidate is not a short factor of the language"]
    moves = sorted({m for w in words for m in w})

    def reenters(word, h, grow):
        if len(word) >= horizon:
            return False
        for m in moves:
            nxt = word + (m,) if grow > 0 else (m,) + word
            window = nxt[-length:] if grow > 0 else nxt[:length]
            if window not in factors:
                continue
            nh = h + m if grow > 0 else h - m
            if 0 <= nh < r or reenters(nxt, nh, grow):
                return True
        return False

    if reenters(cand, sum(cand), 1) or reenters(cand, 0, -1):
        return ["a language-consistent extension re-enters the strip"]
    return []


# -- cellular automata ---------------------------------------------------------------------


def ca_step(table: dict[str, str], radius: int, zero: str,
            offset: int, word: str) -> tuple[int, str]:
    """One step of a zero-preserving rule on a finite configuration."""
    pad = zero * (2 * radius)
    padded = pad + word + pad
    width = 2 * radius + 1
    out = "".join(table[padded[i:i + width]]
                  for i in range(len(padded) - width + 1))
    stripped = out.strip(zero)
    if not stripped:
        return 0, ""
    return offset - radius + (len(out) - len(out.lstrip(zero))), stripped


def cycle_step(table: dict[str, str], radius: int, word: str) -> str:
    n = len(word)
    return "".join(
        table["".join(word[(i + d) % n] for d in range(-radius, radius + 1))]
        for i in range(n))


def check_glider(rule, word: str, steps: int, shift: int) -> list[str]:
    offset, current = 0, word
    for _ in range(steps):
        offset, current = ca_step(rule.table, rule.radius,
                                  rule.alphabet.zero, offset, current)
    if current != word or -offset != shift:
        return [f"glider {word!r} does not return shifted by {shift} "
                f"after {steps} steps"]
    return []


def check_find_glider(rule, hit, expect_none: bool) -> list[str]:
    if hit is None:
        return [] if expect_none else ["no glider found"]
    if expect_none:
        return ["a glider was reported where none exists"]
    config, n, m = hit
    return check_glider(rule, config.word, n, m)


def _dies_within(rule, word: str, steps: int) -> bool:
    offset, current = 0, word
    for _ in range(steps):
        offset, current = ca_step(rule.table, rule.radius,
                                  rule.alphabet.zero, offset, current)
        if not current:
            return True
    return not current


def check_nilpotency(rule, max_width: int, max_time: int, verdict,
                     rng: random.Random) -> list[str]:
    witness = verdict.witness
    if verdict.tag == "not_nilpotent" and witness.get("kind") == "glider":
        return check_glider(rule, witness["word"], witness["time"],
                            witness["shift"])
    if verdict.tag == "not_nilpotent" and witness.get("kind") == "periodic":
        zero = rule.alphabet.zero
        states = [witness["word"]]
        for _ in range(witness["time"]):
            states.append(cycle_step(rule.table, rule.radius, states[-1]))
        last = states[-1]
        if last in states[:-1] and last != zero * len(last):
            return []
        return ["periodic witness does not cycle"]
    if verdict.tag == "nilpotent_on_probe":
        symbols = rule.alphabet.symbols
        nonzero = [s for s in symbols if s != rule.alphabet.zero]
        for _ in range(64):
            width = rng.randint(1, max_width)
            word = rng.choice(nonzero)
            if width > 1:
                word += "".join(rng.choice(symbols) for _ in range(width - 2))
                word += rng.choice(nonzero)
            if not _dies_within(rule, word, verdict.steps):
                return [f"{word!r} outlives the reported {verdict.steps} steps"]
        return []
    if verdict.tag == "inconclusive":
        word = witness.get("survivor", "")
        if word and not _dies_within(rule, word, max_time):
            return []
        cyc = word
        for _ in range(max_time):
            cyc = cycle_step(rule.table, rule.radius, cyc)
        if word and cyc != rule.alphabet.zero * len(cyc):
            return []
        return ["inconclusive survivor dies"]
    return [f"unknown nilpotency tag {verdict.tag!r}"]


def finite_total(a: int, width: int) -> int:
    """Canonical finite configurations of width at most `width`, closed form."""
    z = a - 1
    return z + sum(z * z * a ** (w - 2) for w in range(2, width + 1))


def finite_rank(symbols, zero: str, word: str) -> int:
    """Position of a canonical word in width-then-lexicographic order."""
    a, w = len(symbols), len(word)
    nonzero = [s for s in symbols if s != zero]
    before = finite_total(a, w - 1) if w > 1 else 0
    if w == 1:
        return before + nonzero.index(word)
    middle = 0
    for ch in word[1:-1]:
        middle = middle * a + symbols.index(ch)
    inner = (nonzero.index(word[0]) * a ** (w - 2) + middle)
    return before + inner * len(nonzero) + nonzero.index(word[-1])


def _totient(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def necklace_total(a: int, length: int) -> int:
    """Nonzero rotation classes of length at most `length`, closed form."""
    total = 0
    for n in range(1, length + 1):
        classes = sum(_totient(d) * a ** (n // d)
                      for d in range(1, n + 1) if n % d == 0) // n
        total += classes - 1
    return total


def _necklace_rank(symbols, zero: str, word: str) -> int:
    n = len(word)
    smaller = 0
    for tup in product(symbols, repeat=n):
        cand = "".join(tup)
        if cand >= word:
            break
        if cand != zero * n and cand == min(cand[i:] + cand[:i] for i in range(n)):
            smaller += 1
    return necklace_total(len(symbols), n - 1) + smaller


def nilpotency_configs(rule, max_width: int, verdict) -> int:
    symbols, zero = rule.alphabet.symbols, rule.alphabet.zero
    a = len(symbols)
    kind = verdict.witness.get("kind")
    if kind == "glider":
        return finite_rank(symbols, zero, verdict.witness["word"]) + 1
    finite = finite_total(a, max_width)
    if kind == "periodic":
        return finite + _necklace_rank(symbols, zero, verdict.witness["word"]) + 1
    return finite + necklace_total(a, max_width)


def glider_configs(rule, max_width: int, hit) -> int:
    symbols, zero = rule.alphabet.symbols, rule.alphabet.zero
    if hit is None:
        return finite_total(len(symbols), max_width)
    return finite_rank(symbols, zero, hit[0].word) + 1


# -- full-group elements ---------------------------------------------------------------------


def apply_cocycles(elements, window: str, center: int) -> int:
    """Total shift of applying the elements in order at a window's center."""
    pos = center
    for el in elements:
        pos += el.table[window[pos - el.radius:pos + el.radius + 1]]
    return pos - center


def check_compose_chain(steps, results, rng: random.Random) -> list[str]:
    """Each partial product agrees with applying its factors one by one."""
    for k, composed in enumerate(results, start=1):
        factors = steps[:k]
        if composed.radius != sum(el.radius for el in factors):
            return [f"step {k}: radius {composed.radius} is not the sum"]
        for _ in range(32):
            window = "".join(rng.choice("01")
                             for _ in range(2 * composed.radius + 1))
            if composed.table[window] != apply_cocycles(
                    factors, window, composed.radius):
                return [f"step {k}: table entry {window} does not replay"]
    return []


def compose_entries(start, steps) -> int:
    """Table entries the chain start, steps[0] o start, ... materialises."""
    total, radius = 0, start.radius
    for el in steps:
        radius += el.radius
        total += len(el.alphabet.symbols) ** (2 * radius + 1)
    return total


def check_order(element, verdict) -> list[str]:
    """Torsion order n: n-fold application is the identity, fewer is not."""
    if verdict.tag != "torsion":
        return [f"expected a torsion verdict, got {verdict.tag!r}"]
    for k in range(1, verdict.order + 1):
        rho = element.radius * k
        moves = any(apply_cocycles([element] * k, "".join(tup), rho)
                    for tup in product("01", repeat=2 * rho + 1))
        if moves != (k < verdict.order):
            return [f"order {verdict.order} does not replay at power {k}"]
    return []


# -- primes ----------------------------------------------------------------------------------


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    k = 2
    while k * k <= n:
        if n % k == 0:
            return False
        k += 1
    return True


PRIME_COUNTS = {10 ** 6: 78498, 2 * 10 ** 6: 148933}  # pi(x)


def check_primes(window, words, length: int, threshold: int, gap: int,
                 crt, isolated, rng: random.Random) -> list[str]:
    """`isolated` maps n to the (k, modulus, p) of dirichlet_isolated(n)."""
    if len(window.primes) != PRIME_COUNTS.get(window.limit):
        return [f"sieve found {len(window.primes)} primes"]
    for _ in range(64):
        i = rng.randrange(len(window.primes))
        if not _is_prime(window.primes[i]):
            return [f"{window.primes[i]} is not prime"]
        x = rng.randrange(window.limit + 1)
        if (window.char_word[x] == "1") != _is_prime(x):
            return [f"characteristic word wrong at {x}"]
    if "0" * length not in words:
        return ["late language misses the all-zero factor"]
    for factor in rng.sample(sorted(words), 16):
        if window.char_word.find(factor, threshold) == -1:
            return [f"{factor} does not occur after the threshold"]
    twin = any(b - a == 2 for a, b in zip(window.primes, window.primes[1:])
               if a >= threshold)
    if gap != 2 or not twin:
        return [f"gap floor {gap} does not replay"]
    if any(crt.start + i < 4 or _is_prime(crt.start + i) for i in range(crt.n)):
        return ["CRT run has a prime"]
    for n, (k, modulus, p) in isolated.items():
        if not _is_prime(p) or (p - k) % modulus or any(
                _is_prime(p - i) or _is_prime(p + i) for i in range(1, n + 1)):
            return [f"Dirichlet prime for n={n} is not isolated"]
    return []


def late_counts(window, words, length: int, threshold: int) -> dict[str, int]:
    return {"primes.sieve.primes": len(window.primes),
            "primes.late_language.factors_scanned":
                len(window.char_word) - length + 1 - threshold,
            "primes.late_language.factors_distinct": len(words)}


# -- CLI -----------------------------------------------------------------------------------------


def check_cli(returncode: int, stdout: bytes, reference: bytes | None,
              expect) -> list[str]:
    """Exit 0, the same bytes as the first run, then the command's own check."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    if reference is not None and stdout != reference:
        return ["output bytes differ from the first run of this command"]
    return expect(stdout)


def json_fields(pins: dict, replay=None):
    """Checker for a JSON report: schema 1, each pinned result field, replay.

    A pin is a literal to compare with or a predicate on the field;
    `replay` takes the whole result and returns failure messages.
    """
    def check(data: bytes) -> list[str]:
        try:
            report = json.loads(data)
        except ValueError:
            return ["output is not JSON"]
        if report.get("schema") != 1:
            return ["report schema is not 1"]
        result = report.get("result", {})
        for key, pin in pins.items():
            value = result.get(key)
            if not (pin(value) if callable(pin) else value == pin):
                return [f"result field {key!r} = {value!r} fails its pin"]
        return replay(result) if replay else []
    return check


def check_pbm(width: int, height: int, ones: int):
    def check(data: bytes) -> list[str]:
        lines = data.decode("ascii", "replace").split("\n")
        if lines[:2] != ["P1", f"{width} {height}"]:
            return ["PBM header wrong"]
        body = "".join(lines[2:])
        if len(body) != width * height or set(body) - {"0", "1"}:
            return ["PBM body malformed"]
        if body.count("1") != ones:
            return [f"PBM has {body.count('1')} set bits, expected {ones}"]
        return []
    return check


def text_pattern(width: int, height: int, ones: int):
    """Checker for a binary pattern in the text format."""
    def check(data: bytes) -> list[str]:
        lines = data.decode("ascii", "replace").splitlines()
        if lines[:2] != [f"dims {width} {height}", "alphabet 01"]:
            return ["text pattern header wrong"]
        rows = [ln for ln in lines[2:] if not ln.startswith("origin ")]
        if len(rows) != height or any(len(row) != width for row in rows):
            return ["text pattern rows malformed"]
        if sum(row.count("1") for row in rows) != ones:
            return ["text pattern has the wrong support"]
        return []
    return check
