"""Each library call refuses a bad argument itself, with its own message."""
import pytest

from blobshift.automata import (CARule, FiniteConfig, evolve, find_glider,
                                nilpotency_probe)
from blobshift.blobfractal import build_hierarchy, classify
from blobshift.errors import (InjectionNotPrime, NoPrimeInRange,
                              NotZeroPreserving, RadiiNotIncreasing,
                              UnsupportedFormat)
from blobshift.pathcover import CellPath, trace_guided_path
from blobshift.paths import (HeightWord, MoveWord, classify_path_space,
                             cut_path_search, deep_zigzag, derivative,
                             parse_move_symbol)
from blobshift.patterns import (BINARY, Alphabet, Pattern,
                                connected_components,
                                essential_width_lower_bound, format_pattern,
                                pad, parse_pattern)
from blobshift.primes import (char_pattern, dirichlet_isolated, gap_floor,
                              isolated_prime_search, late_contains, sieve)
from blobshift.substitution import (BlockHierarchySpec, block_spec,
                                    build_unbounded_rows, cantor_substitution,
                                    density_word, iterate_1d, iterate_2d,
                                    parse_substitution, plus_substitution,
                                    thinning_substitution)

WORD = Pattern.from_word("0110")
ONE_2D = Pattern(BINARY, {(0, 0): "1"})
IDENTITY = CARule(BINARY, 0, {"0": "0", "1": "1"})
NOT_ZERO_PRESERVING = CARule(BINARY, 0, {"0": "1", "1": "1"})


@pytest.mark.parametrize("call,error,message", [
    (lambda: cut_path_search([], 1, 4), None, None),
    (lambda: classify(WORD, (1, 2), 0),
     ValueError, "component threshold must be positive"),
    (lambda: build_hierarchy(WORD, (-1, 2)),
     RadiiNotIncreasing, "radii must be nonnegative"),
    (lambda: essential_width_lower_bound([ONE_2D], 1),
     ValueError, "essential width is computed over 1D rows"),
    (lambda: gap_floor(sieve(100), 100),
     ValueError, "threshold must be below the window limit"),
    (lambda: gap_floor(sieve(100), 98),
     ValueError, "fewer than two primes above the threshold"),
    (lambda: char_pattern(sieve(10), 5, 11),
     ValueError, "need 0 <= start <= end <= limit"),
    (lambda: isolated_prime_search(-1, sieve(10)),
     ValueError, "n must be nonnegative"),
    (lambda: iterate_1d(cantor_substitution(), "1", -1),
     ValueError, "iteration count must be nonnegative"),
    (lambda: iterate_2d(plus_substitution(), ONE_2D, -1),
     ValueError, "iteration count must be nonnegative"),
    (lambda: BlockHierarchySpec(k=0),
     ValueError, "k must be at least 1"),
    (lambda: build_unbounded_rows(block_spec(2), 1, 3),
     ValueError, "j must be in \\[1, k\\]"),
    (lambda: build_unbounded_rows(block_spec(2), 0, 1),
     ValueError, "i must be at least 1"),
    (lambda: parse_substitution("subst 3d 01\n"),
     UnsupportedFormat, "malformed substitution header"),
    (lambda: thinning_substitution(0), ValueError, "n must be at least 1"),
    (lambda: density_word(1), ValueError, "k must be at least 2"),
    (lambda: CARule(BINARY, -1, {}), ValueError, "radius must be nonnegative"),
    (lambda: FiniteConfig(BINARY, 0, "01"),
     ValueError, "canonical form trims boundary zeros"),
    (lambda: FiniteConfig(BINARY, 3, ""),
     ValueError, "the all-zero configuration sits at offset 0"),
    (lambda: evolve(IDENTITY, FiniteConfig(BINARY, 0, "1"), -1),
     ValueError, "steps must be nonnegative"),
    (lambda: find_glider(NOT_ZERO_PRESERVING, 3, 4),
     NotZeroPreserving, "glider search needs a zero-preserving rule"),
    (lambda: nilpotency_probe(NOT_ZERO_PRESERVING, 3, 4),
     NotZeroPreserving, "the probe needs a zero-preserving rule"),
    (lambda: CellPath(((0, 0), (2, 0)), 1),
     ValueError, "consecutive path cells exceed the step bound"),
    (lambda: trace_guided_path([1], [0], -1),
     ValueError, "length must be nonnegative"),
    (lambda: MoveWord((1,), -1), ValueError, "step bound must be nonnegative"),
    (lambda: MoveWord((2,), 1), ValueError, "a move exceeds the step bound"),
    (lambda: HeightWord((1,)), ValueError, "height words start at height 0"),
    (lambda: derivative([0]), ValueError, "need at least two heights"),
    (lambda: parse_move_symbol("++"),
     ValueError, "'\\+\\+' is not a single move"),
    (lambda: cut_path_search([MoveWord((1,), 1), MoveWord((1, 1), 1)], 1, 1),
     ValueError, "language words must share one length"),
    (lambda: cut_path_search([MoveWord((1,), 1)], 1, 2),
     ValueError, "horizon cannot exceed the language length"),
    (lambda: classify_path_space(deep_zigzag(), 0),
     ValueError, "horizon must be positive"),
    (lambda: Alphabet(("0", "0"), "0"),
     ValueError, "alphabet symbols must be pairwise distinct"),
    (lambda: Alphabet(("0", "1"), "2"),
     ValueError, "zero symbol must be a member of the alphabet"),
    (lambda: essential_width_lower_bound([], -1),
     ValueError, "radius must be nonnegative"),
    (lambda: pad(WORD, -1), ValueError, "radius must be nonnegative"),
    (lambda: connected_components([(0,), (1, 0)], 1),
     ValueError, "cells must be all 1D or all 2D"),
    (lambda: connected_components([(0, 0, 0)], 1),
     ValueError, "cells must be all 1D or all 2D"),
    (lambda: Alphabet(("0", "ab"), "0"),
     ValueError, "alphabet symbols must be single characters, got 'ab'"),
    (lambda: format_pattern(Pattern(Alphabet(("0", "?"), "0"), {(0,): "?"})),
     UnsupportedFormat, "text format reserves '.' and '\\?', "
                        "got the symbol '\\?'"),
    (lambda: parse_pattern("dims 1 1 1\nalphabet 01\n1\n"),
     UnsupportedFormat, "dims line must declare one or two extents"),
    (lambda: parse_pattern("dims 1\nalphabet 01\norigin 0 0\n1\n"),
     UnsupportedFormat, "origin needs one integer per dimension"),
    (lambda: sieve(1), ValueError, "limit must be at least 2"),
    (lambda: late_contains(sieve(10), "1", 10),
     ValueError, "threshold \\+ length must stay within the window"),
    (lambda: dirichlet_isolated(2, scan_limit=0),
     NoPrimeInRange, "no verified isolated prime in 0 progression steps"),
    (lambda: dirichlet_isolated(1, injection=[2, 3]),
     InjectionNotPrime, "2 is not above 2n"),
], ids=["cut_path_search_empty", "classify_threshold", "hierarchy_radii",
        "width_2d_row", "gap_floor_at_limit", "gap_floor_one_prime",
        "char_pattern_end", "isolated_negative", "iterate_1d_negative",
        "iterate_2d_negative", "block_k",
        "unbounded_rows_j", "unbounded_rows_i", "substitution_header",
        "thinning_n", "density_k",
        "ca_rule_radius", "config_boundary_zero", "config_empty_offset",
        "evolve_negative", "glider_not_zero_preserving",
        "nilpotency_not_zero_preserving", "cell_path_step",
        "guided_length", "move_word_bound", "move_word_step",
        "height_word_start", "derivative_short", "move_symbol",
        "cut_path_search_lengths", "cut_path_search_horizon",
        "classify_path_horizon", "alphabet_distinct", "alphabet_zero",
        "width_radius", "pad_radius",
        "components_mixed_dims", "components_3d", "alphabet_symbol",
        "format_symbol", "parse_dims", "parse_origin", "sieve_limit",
        "late_contains_threshold", "dirichlet_scan", "dirichlet_low_prime"])
def test_library_guards(call, error, message):
    if error is None:
        assert call() is None
    else:
        with pytest.raises(error, match=f"^{message}$"):
            call()
