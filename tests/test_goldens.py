"""Every recorded request answers byte for byte as recorded.

``frobbench/goldens.json`` maps each argv of the benchmark's workloads, joined
by spaces, to ``[exit code, stdout digest, stderr digest]``, a digest being the
first 32 hex digits of the text's SHA-256.  The replay here recomputes all
three through ``main`` in-process and only reads the file, so a change that
moves any byte of any answer fails tier-1.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from frobstrat.cli import main

GOLDENS = Path(__file__).resolve().parents[1] / "frobbench" / "goldens.json"

# stdout of the root and subcommand --help texts at 80 columns
HELP = {
    ("--help",): "715b33df8074cab0a5b0f42a00e20a51",
    ("enumerate", "--help"): "5d091eb3f0fe9fe19ebf7c14489c5af9",
    ("localmodel", "--help"): "e4367e54602217d89c5a83092d3b131a",
    ("strata", "--help"): "c9ceae4235d33867ea2b0f5837ec8e4a",
    ("certify", "--help"): "6568fb5b9abd159608c1cb7df65b1e0c",
    ("dual", "--help"): "889fccf6fde2cc7741fc333fc79abe38",
}

_PARTS = ("exit code", "stdout", "stderr")


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def _record(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(list(argv))
    return [rc, _digest(out.getvalue()), _digest(err.getvalue())]


@pytest.fixture(autouse=True)
def _fixed_width(monkeypatch):
    # argparse wraps usage and help text to the terminal width
    monkeypatch.setenv("COLUMNS", "80")


def test_every_golden_argv_replays_byte_identically():
    with open(GOLDENS, encoding="utf-8") as fh:
        goldens = json.load(fh)
    assert len(goldens) == 359
    diffs = []
    for key, want in goldens.items():
        got = _record(key.split(" "))
        diffs += [f"{key!r}: {part} differs" for part, g, w in zip(_PARTS, got, want) if g != w]
    assert not diffs, "\n".join(diffs)


def test_help_texts_are_unchanged():
    assert {argv: _record(argv) for argv in HELP} == \
        {argv: [0, out, _digest("")] for argv, out in HELP.items()}
