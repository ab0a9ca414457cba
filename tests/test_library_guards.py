"""Each library call refuses a bad argument itself, with its own message."""
import pytest

from blobshift.blobfractal import build_hierarchy, classify
from blobshift.errors import RadiiNotIncreasing, UnsupportedFormat
from blobshift.paths import cut_path_search
from blobshift.patterns import BINARY, Pattern, essential_width_lower_bound
from blobshift.primes import (char_pattern, gap_floor, isolated_prime_search,
                              sieve)
from blobshift.substitution import (BlockHierarchySpec, block_spec,
                                    build_unbounded_rows, cantor_substitution,
                                    density_word, iterate_1d, iterate_2d,
                                    parse_substitution, plus_substitution,
                                    thinning_substitution)

WORD = Pattern.from_word("0110")
ONE_2D = Pattern(BINARY, {(0, 0): "1"})


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
    (lambda: BlockHierarchySpec(k=0, seed_side=1),
     ValueError, "k must be at least 1"),
    (lambda: BlockHierarchySpec(k=2, seed_side=4),
     ValueError, "the default seeds have side k\\+1"),
    (lambda: build_unbounded_rows(block_spec(2), 1, 3),
     ValueError, "j must be in \\[1, k\\]"),
    (lambda: build_unbounded_rows(block_spec(2), 0, 1),
     ValueError, "i must be at least 1"),
    (lambda: parse_substitution("subst 3d 01\n"),
     UnsupportedFormat, "malformed substitution header"),
    (lambda: thinning_substitution(0), ValueError, "n must be at least 1"),
    (lambda: density_word(1), ValueError, "k must be at least 2"),
], ids=["cut_path_search_empty", "classify_threshold", "hierarchy_radii",
        "width_2d_row", "gap_floor_at_limit", "gap_floor_one_prime",
        "char_pattern_end", "isolated_negative", "iterate_1d_negative",
        "iterate_2d_negative", "block_k", "block_seed_side",
        "unbounded_rows_j", "unbounded_rows_i", "substitution_header",
        "thinning_n", "density_k"])
def test_library_guards(call, error, message):
    if error is None:
        assert call() is None
    else:
        with pytest.raises(error, match=f"^{message}$"):
            call()
