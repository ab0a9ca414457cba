"""Each CLI command loads only the library modules it runs.

Every case runs `cli.main` in a fresh interpreter and compares the
`blobshift.*` modules left in `sys.modules` with the command's own set, so
a stray top-level import in `cli.py` (or in a module a command loads)
fails here instead of silently slowing every command down. The same runs
check that only the commands reading a `paths` record load `dataclasses`
(and `inspect` with it), which costs about 10 ms per start.
"""
import ast
import functools
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
    loaded = [m for m in sys.modules if m.partition(".")[0] == "blobshift"
              or m in ("dataclasses", "inspect")]
    print(json.dumps({"code": code, "loaded": sorted(loaded)}),
          file=sys.stderr)
""")


@functools.cache
def loaded_by(cwd: Path, *argv: str) -> frozenset[str]:
    """The blobshift modules, plus `dataclasses` and `inspect` if loaded,
    that a fresh `cli.main(argv)` leaves in `sys.modules`."""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", SCRIPT, *argv], cwd=cwd,
                          env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stderr.splitlines()[-1])
    assert last["code"] == 0, done.stderr
    return frozenset(last["loaded"])


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


# each README command (and --help, --version) and the modules it loads
# beyond BASE
CASES = {
    "help": (["--help"], set()),
    "version": (["--version"], set()),
    "gen": (["gen", "--subst", "fib.sub", "--iters", "3"],
            {"substitution", "render"}),
    "blobs": (["blobs", "--pattern", "block.pat", "--pad", "1",
               "--radius", "1"], set()),
    "width": (["width", "--pattern", "block.pat", "--radius", "1"], set()),
    "fractal verify": (["fractal", "verify", "--pattern", "block.pat",
                        "--pad", "2", "--radii", "1,2"],
                       {"blobfractal", "pathcover"}),
    "fractal classify": (["fractal", "classify", "--pattern", "block.pat",
                          "--pad", "2", "--radii", "1,2", "--threshold",
                          "100"], {"blobfractal", "pathcover"}),
    "classify-path": (["classify-path", "--subst", "tau.sub",
                       "--horizon", "8"], {"paths", "substitution"}),
    "pathcover geodesic": (["pathcover", "geodesic", "--pattern",
                            "block.pat", "--radius", "2"], {"pathcover"}),
    "pathcover ascend": (["pathcover", "ascend", "--pattern", "block.pat",
                          "--radius", "2", "--budget", "100"],
                         {"pathcover"}),
    "pathcover guided": (["pathcover", "guided", "--slope", "1/2",
                          "--length", "8"], {"pathcover", "render"}),
    "ca glider": (["ca", "glider", "--rule", "xor.ca", "--max-width", "3",
                   "--max-time", "4"], {"automata"}),
    "ca nilpotent": (["ca", "nilpotent", "--rule", "xor.ca", "--max-width",
                      "3", "--max-time", "4"], {"automata"}),
    "ca profile": (["ca", "profile", "--rule", "xor.ca", "--horizon", "4"],
                   {"automata"}),
    "tfg order": (["tfg", "order", "--rule", "swap.tfg"], {"automata"}),
    "primes crt": (["primes", "crt", "--n", "3", "--injection", "5,7,11"],
                   {"primes"}),
    "primes lang": (["primes", "lang", "--limit", "1000", "--threshold",
                     "100"], {"primes"}),
    "primes isolated": (["primes", "isolated", "--n", "1", "--limit",
                         "1000"], {"primes"}),
    "primes dirichlet": (["primes", "dirichlet", "--n", "1", "--injection",
                          "7,5"], {"primes"}),
    "primes gaps": (["primes", "gaps", "--limit", "1000", "--threshold",
                     "100"], {"primes"}),
    "primes export": (["primes", "export", "--limit", "100"], {"primes"}),
    "render pattern": (["render", "--pattern", "block.pat", "--format",
                        "pbm"], {"render"}),
    "render moves": (["render", "--moves", "++-", "--format", "svg-paths"],
                     {"render", "paths", "substitution"}),
}
# the commands that read a `paths` record, which stays a dataclass
DATACLASS_CASES = {"classify-path", "render moves"}


@pytest.mark.parametrize("argv,extra", CASES.values(), ids=CASES.keys())
def test_a_command_loads_only_its_own_modules(workdir, argv, extra):
    loaded = {m for m in loaded_by(workdir, *argv)
              if m.partition(".")[0] == "blobshift"}
    assert loaded == BASE | {f"blobshift.{m}" for m in extra}


@pytest.mark.parametrize("name", CASES)
def test_only_the_path_commands_load_dataclasses(workdir, name):
    stdlib = loaded_by(workdir, *CASES[name][0]) & {"dataclasses", "inspect"}
    assert stdlib == ({"dataclasses", "inspect"} if name in DATACLASS_CASES
                      else set())


def test_only_paths_and_classify_path_import_dataclasses():
    # (module, enclosing top-level function or None) per import site
    sites = set()
    for path in Path(SRC, "blobshift").glob("*.py"):
        tree = ast.parse(path.read_text(), str(path))
        for top in tree.body:
            for node in ast.walk(top):
                names = ([node.module] if isinstance(node, ast.ImportFrom)
                         else [a.name for a in node.names]
                         if isinstance(node, ast.Import) else [])
                if "dataclasses" in names:
                    sites.add((path.stem, getattr(top, "name", None)))
    assert sites == {("paths", None), ("cli", "_cmd_classify_path")}
