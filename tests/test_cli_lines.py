"""Every line of cli.py runs for some documented, refused or help argv."""
import importlib
import sys

import blobshift.cli

from conftest import function_body_lines, lines_run
from test_cli_options import ANSWERED
from test_render_cli import USAGE_MESSAGES, write_bad_files, write_files
from test_report_digests import INPUTS


def test_every_cli_line_runs(tmp_path, capsys, monkeypatch):
    # the README commands, the refused argv, the help argv and the usage
    # messages, each answered in process while cli.py alone is traced
    for name, text in INPUTS.items():
        (tmp_path / name).write_text(text)
    write_bad_files(write_files(tmp_path))
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("BLOBSHIFT_CELL_CAP", raising=False)
    # cli.py is imported afresh in the trace, since the parser table runs
    # code at import; the suite's module is put back afterwards
    path = blobshift.cli.__file__
    monkeypatch.setattr(blobshift, "cli", blobshift.cli)
    monkeypatch.delitem(sys.modules, "blobshift.cli")
    with lines_run(path) as ran:
        main = importlib.import_module("blobshift.cli").main
        for argv in ANSWERED + [argv for argv, _ in USAGE_MESSAGES]:
            try:
                main(list(argv))
            except SystemExit:  # help and --version exit in argparse
                pass
            capsys.readouterr()
    missed = sorted(function_body_lines(path) - ran)
    assert not missed, f"cli.py lines never run: {missed}"
