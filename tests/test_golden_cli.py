"""Byte-identity of the CLI: every entry of tests/golden/cli.json replayed
in process through `cli.main`, as `test_cli.py`'s `run` does.

The corpus covers the CI smoke commands, the README examples, `nearby` in
every output form, `blowup -s` in every mode, `bound` on ROADMAP item 1's
model and `selftest`.  `write_golden_cli.py` writes it; see there before
rewriting it.
"""

import json

import pytest

from slopelab.cli import main
from write_golden_cli import GOLDEN, materialize

ENTRIES = json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("entry", ENTRIES, ids=[" ".join(e["argv"]) for e in ENTRIES])
def test_cli_output_matches_the_golden_corpus(entry, tmp_path, capsys):
    code = main(materialize(entry, tmp_path))
    captured = capsys.readouterr()
    assert (captured.out, captured.err, code) == \
        (entry["stdout"], entry["stderr"], entry["exit"])
