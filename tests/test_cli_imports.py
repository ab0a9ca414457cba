"""Each CLI command loads only the library modules it runs.

Every case runs `cli.main` in a fresh interpreter and compares the
`blobshift.*` modules left in `sys.modules` with the command's own set, so
a stray top-level import in `cli.py` (or in a module a command loads)
fails here instead of silently slowing every command down.
"""
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")
BASE = {"blobshift", "blobshift.cli", "blobshift.errors", "blobshift.limits",
        "blobshift.patterns"}

FILES = {
    "fib.sub": "subst 1d ab\na -> ab\nb -> a\n",
    "tau.sub": "subst 1d +-\n+ -> ++-\n- -> +--\n",
    "block.pat": "dims 3 3\nalphabet 01\n1.1\n...\n1.1\n",
    "xor.ca": "ca 01 radius 1\n* -> 0\n001 -> 1\n010 -> 1\n101 -> 1\n"
              "110 -> 1\n",
    "swap.tfg": "ca 01 radius 1\n* -> shift 0\n010 -> shift 1\n"
                "110 -> shift 1\n100 -> shift -1\n101 -> shift -1\n",
}

SCRIPT = textwrap.dedent("""
    import json, sys
    from blobshift import cli
    try:
        code = cli.main(sys.argv[1:])
    except SystemExit as exc:  # --help
        code = exc.code
    loaded = [m for m in sys.modules if m.partition(".")[0] == "blobshift"]
    print(json.dumps({"code": code, "loaded": sorted(loaded)}),
          file=sys.stderr)
""")


def loaded_by(cwd: Path, *argv: str) -> set[str]:
    """The blobshift modules a fresh `cli.main(argv)` leaves loaded."""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", SCRIPT, *argv], cwd=cwd,
                          env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stderr.splitlines()[-1])
    assert last["code"] == 0, done.stderr
    return set(last["loaded"])


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("imports")
    for name, text in FILES.items():
        (root / name).write_text(text)
    return root


def test_python_dash_m_blobshift_prints_the_version():
    from blobshift import __version__

    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-m", "blobshift", "--version"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (0, __version__ + "\n")


def test_importing_the_cli_loads_no_command_module():
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", "import sys, blobshift.cli; print(' '.join("
         "m for m in sys.modules if m.partition('.')[0] == 'blobshift'))"],
        env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert set(done.stdout.split()) == BASE


# each command and the modules it loads beyond BASE
CASES = {
    "help": (["--help"], set()),
    "gen": (["gen", "--subst", "fib.sub", "--iters", "3"],
            {"substitution", "render"}),
    "blobs": (["blobs", "--pattern", "block.pat", "--pad", "1",
               "--radius", "1"], set()),
    "fractal verify": (["fractal", "verify", "--pattern", "block.pat",
                        "--pad", "2", "--radii", "1,2"],
                       {"blobfractal", "pathcover"}),
    "classify-path": (["classify-path", "--subst", "tau.sub",
                       "--horizon", "8"], {"paths", "substitution"}),
    "pathcover guided": (["pathcover", "guided", "--slope", "1/2",
                          "--length", "8"], {"pathcover", "render"}),
    "ca nilpotent": (["ca", "nilpotent", "--rule", "xor.ca", "--max-width",
                      "3", "--max-time", "4"], {"automata"}),
    "tfg order": (["tfg", "order", "--rule", "swap.tfg"], {"automata"}),
    "primes lang": (["primes", "lang", "--limit", "1000", "--threshold",
                     "100"], {"primes"}),
    "render pattern": (["render", "--pattern", "block.pat", "--format",
                        "pbm"], {"render"}),
    "render moves": (["render", "--moves", "++-", "--format", "svg-paths"],
                     {"render", "paths", "substitution"}),
}


@pytest.mark.parametrize("argv,extra", CASES.values(), ids=CASES.keys())
def test_a_command_loads_only_its_own_modules(workdir, argv, extra):
    assert loaded_by(workdir, *argv) == BASE | {f"blobshift.{m}"
                                                for m in extra}
