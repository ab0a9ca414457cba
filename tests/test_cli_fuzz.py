"""Fuzzing the CLI's integer arguments: every value ends in exit 0, 1 or 2."""
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st

from blobshift.cli import main

XOR_CA = "ca 01 radius 1\n* -> 0\n001 -> 1\n010 -> 1\n101 -> 1\n110 -> 1\n"
SWAP_TFG = ("ca 01 radius 1\n* -> shift 0\n010 -> shift 1\n110 -> shift 1\n"
            "100 -> shift -1\n101 -> shift -1\n")
FIB_SUB = "subst 1d ab\na -> ab\nb -> a\n"


def upto(high):
    """Any integer up to high: the low side is unbounded, the high side
    stops where the work an argument asks for would take seconds."""
    return st.integers(max_value=high).map(str)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "xor.ca").write_text(XOR_CA)
    (root / "swap.tfg").write_text(SWAP_TFG)
    (root / "fib.sub").write_text(FIB_SUB)
    return root


def commands(root):
    xor, swap, fib = (str(root / name) for name in
                      ("xor.ca", "swap.tfg", "fib.sub"))
    return st.one_of(
        st.tuples(st.sampled_from(["glider", "nilpotent"]), upto(6),
                  upto(16)).map(lambda t: [
                      "ca", t[0], "--rule", xor, "--max-width", t[1],
                      "--max-time", t[2]]),
        st.tuples(upto(64), st.integers().map(str)).map(lambda t: [
            "ca", "profile", "--rule", xor, "--horizon", t[0],
            "--offset", t[1]]),
        st.tuples(upto(8), upto(4)).map(lambda t: [
            "tfg", "order", "--rule", swap, "--max-order", t[0],
            "--max-period", t[1]]),
        upto(30).map(lambda n: ["primes", "crt", "--n", n]),
        st.tuples(upto(3), upto(10 ** 4)).map(lambda t: [
            "primes", "dirichlet", "--n", t[0], "--scan-limit", t[1]]),
        st.tuples(upto(10 ** 4), upto(20), upto(10 ** 4)).map(lambda t: [
            "primes", "lang", "--limit", t[0], "--length", t[1],
            "--threshold", t[2]]),
        st.tuples(upto(12), st.integers().map(str)).map(lambda t: [
            "gen", "--subst", fib, "--iters", t[0], "--cap", t[1]]),
    )


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_integer_arguments_never_escape(files, capsys, data):
    argv = data.draw(commands(files))
    code = main(argv)
    capsys.readouterr()
    assert code in (0, 1, 2)
