"""Byte-identical CLI reports across commits.

Each case runs one README command (or an error) through `cli.main` on fixed
inputs, in their directory, and compares the exit code and the SHA-256 of
what it wrote: stdout, or the `--out` file, for a success; stderr for an
error. A change that alters a report on purpose (a new field, tag or
schema) updates the digests here and says so in CHANGES.md.
"""
import hashlib
from pathlib import Path

import pytest

from blobshift.cli import main


def cantor_row(iters: int, pad: int) -> str:
    word = "1"
    for _ in range(iters):
        word = "".join("101" if c == "1" else "000" for c in word)
    return "." * pad + word.replace("0", ".") + "." * pad


CANTOR = cantor_row(6, 28)

INPUTS = {
    "plus.sub": "subst 2d 3 01\n0 ->\n...\n...\n...\n1 ->\n.1.\n111\n.1.\n",
    "tau.sub": "subst 1d +-\n+ -> ++--++\n- -> --++--\n",
    "bad.sub": "subst 1d +x\n+ -> +x\nx -> x+\n",
    "window.pat": ("dims 12 10\nalphabet 01\n............\n............\n"
                   "..11..1.....\n...1..11....\n...1...1....\n"
                   "...11.......\n....1..111..\n....1....1..\n"
                   "............\n............\n"),
    "cantor.pat": f"dims {len(CANTOR)}\nalphabet 01\n{CANTOR}\n",
    "shift.ca": ("ca 01 radius 1\n* -> 0\n001 -> 1\n011 -> 1\n101 -> 1\n"
                 "111 -> 1\n"),
    "rule.ca": "ca 01 radius 1\n* -> 0\n011 -> 1\n",
    "xor.ca": ("ca 01 radius 1\n* -> 0\n001 -> 1\n010 -> 1\n101 -> 1\n"
               "110 -> 1\n"),
    "bad.ca": "ca 01 radius 1\n* -> 0\n0x1 -> 1\n",
    "swap.tfg": ("ca 01 radius 1\n* -> shift 0\n010 -> shift 1\n"
                 "110 -> shift 1\n101 -> shift -1\n100 -> shift -1\n"),
}

# name: (command, exit code, SHA-256 of stdout, the --out file or stderr)
CASES = {
    "gen_plus_pbm": (
        "gen --subst plus.sub --seed 1 --iters 3 --format pbm --out "
        "plus.pbm",
        0, "6e4efb8f36529ba557c2e9d9f22c4d4cc4dbe5f7ab647edadf99fdd3ab20a7ec"),
    "gen_plus_json": (
        "gen --subst plus.sub --seed 1 --iters 2",
        0, "6b30322d2a46e262c51753a987509535874c87d556c5fa6c7256ffd9f26bf204"),
    "blobs": (
        "blobs --pattern window.pat --radius 2",
        0, "d19edcc4f040e53b9c6f09e6a1a08bdc648b3797c8e2fc467b0ab3f141eec535"),
    "blobs_pad": (
        "blobs --pattern window.pat --radius 1 --pad 1",
        0, "f5854078835757b26c8f9ec027a8031a3ae2509fa8e5fd5d3a37f7424c817ac8"),
    "width": (
        "width --pattern window.pat --radius 3",
        0, "2e2d8647d2c3e241011c2604100c1d947fad1c3a627461dc380cd26b31ec5068"),
    "fractal_verify": (
        "fractal verify --pattern cantor.pat --radii 2,4,10,28 "
        "--render-dir figs/",
        0, "53393514e337f09cdd347f291760aa922bc23d85517c68347e0c5c9a2ea0bdf7"),
    "fractal_classify": (
        "fractal classify --pattern cantor.pat --radii 2,4,10,28 "
        "--threshold 100",
        0, "02d2674670864e0dbf918e8aace99a6baf49eece6e7d361f85b760b716724b1d"),
    "fractal_classify_auto_radii": (
        "fractal classify --pattern window.pat --pad 3",
        0, "503c043d59406457317823f7180929638b20bcd941de1a7d96996be3624153f4"),
    "classify_path": (
        "classify-path --subst tau.sub --horizon 32",
        0, "1f67660530ff63a576afd6d5db1a187a94b79e9b68b3a12e5464b9a1dac39229"),
    # 100 000 lags: a lag test that rescans the window per lag takes
    # minutes on this window, one that reuses the refuting start a second
    "classify_path_horizon_100000": (
        "classify-path --subst tau.sub --horizon 100000",
        0, "5d8f413bfc57aebccbdb6146fdd44630dc989d7656f9c4dca735e5a6b3aa55bb"),
    "geodesic": (
        "pathcover geodesic --pattern window.pat --radius 1",
        0, "59ac4a3fd35b4d3a42c46a4914f2b6f109bad574263f856be9d5bf10979b0b8d"),
    "ascend": (
        "pathcover ascend --pattern window.pat --radius 1 --window 3 "
        "--budget 100000",
        0, "49cc26cd549b80673ac3b6fa8c474bd55445ac6444cab4413ff6853900bad5d1"),
    "guided": (
        "pathcover guided --slope 377/610 --length 200 --format text",
        0, "c9da9b3be9de5efa1be13ed226c6e73935399cd33d629842e9b1ae48a1435580"),
    "ca_glider": (
        "ca glider --rule shift.ca --max-width 3 --max-time 8",
        0, "1a8ca09bedaf0a867f62cd4e5b336cffe14feb96a268929968fccedf79d8f09c"),
    "ca_nilpotent": (
        "ca nilpotent --rule rule.ca --max-width 4 --max-time 32",
        0, "3a27369f870c7c74b77d8da5e769dafe4a1fd4589e168c80acb094e5612dfc8a"),
    "ca_profile": (
        "ca profile --rule xor.ca --config 1 --horizon 64",
        0, "a184c99ba760f457a714f64011567ea040924293f1eedced8c3717d5cc851e16"),
    "tfg_order": (
        "tfg order --rule swap.tfg --max-order 8 --max-period 4",
        0, "2836791b1b0737738a190c6bcd75f1c0ee72a67b80acbbdf3a8435f2c50209a3"),
    "primes_crt": (
        "primes crt --n 3 --injection 5,7,11",
        0, "85455802b0369fff1b943b2020505c2c4079b712c1b813fa81578f608818d517"),
    "primes_lang": (
        "primes lang --limit 1000000 --length 3 --threshold 100000",
        0, "3538b3ccdd78e9add405bc6fc0f2cc0da0ca83d2b8a3fa9ea9cb606dee2e5014"),
    "primes_isolated": (
        "primes isolated --n 3 --limit 10000",
        0, "25d9255eb9f69403d311a296928452b186dfaf155a18e07d34a3e013e9c7e8cd"),
    "primes_dirichlet": (
        "primes dirichlet --n 2",
        0, "ad806f057de67198f21e3faff5acc83fe990118053dc3edeb69b200ce5cb1b8b"),
    "primes_gaps": (
        "primes gaps --limit 1000000 --threshold 100000",
        0, "a77eb02f513923aba334b4275aea1bafc1c7351f27918b9f7af82fdcda05d0d5"),
    "primes_export": (
        "primes export --limit 1000 --out primes.pat",
        0, "73d05bf08d5cd63120bda614e6f1e4b7356650aaae74d57b02bd430d75529f5c"),
    "render_pbm": (
        "render --pattern window.pat --format pbm",
        0, "5487bbeeb79277dd2245daf2e65c8051caec5f406af07f0860dfc8ebc9c1cf96"),
    "render_moves": (
        "render --moves ++--++ --format svg-paths --out walk.svg",
        0, "67d6733b49e0bc6bd0e28eee8455775691b7ecfc7451c1b10c8b6309c1326592"),
    "usage_error": (
        "ca glider --rule shift.ca --max-width 0",
        1, "8b3ebe8740d4431c0ebe6bb850a719c6fe1bb480a16be43a816896b6294bbef1"),
    "usage_error_move_symbol": (
        "classify-path --subst bad.sub --horizon 8",
        1, "d4ed44d07c5451819539827495622244101de3f21eb72527ef24a1e8d08b1f21"),
    "usage_error_unreadable_pattern": (
        "blobs --pattern missing.pat --radius 1",
        1, "185b3ae9534a1b635cd95b127d1094b3aea8abd87d466dbb805ae3cf1d173f33"),
    "domain_error": (
        "ca nilpotent --rule bad.ca",
        2, "b79cd25152d278069661943326bb91c92952aec3e3722aac40f2ac31ebbbac91"),
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("readme")
    for name, text in INPUTS.items():
        (root / name).write_text(text)
    return root


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_match_pinned_digest(name, inputs, capsysbinary,
                                          monkeypatch):
    command, code, digest = CASES[name]
    argv = command.split()
    monkeypatch.chdir(inputs)
    monkeypatch.delenv("BLOBSHIFT_CELL_CAP", raising=False)
    got = main(argv)
    captured = capsysbinary.readouterr()
    if got != 0:
        data = captured.err
    elif "--out" in argv:
        data = Path(argv[argv.index("--out") + 1]).read_bytes()
    else:
        data = captured.out
    assert (got, hashlib.sha256(data).hexdigest()) == (code, digest), data
