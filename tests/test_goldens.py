"""Every recorded request answers byte for byte as recorded, and is read
without building the argument parser.

``frobbench/goldens.json`` maps each argv of the benchmark's workloads, joined
by spaces, to ``[exit code, stdout digest, stderr digest]``, a digest being the
first 32 hex digits of the text's SHA-256.  The replay here recomputes all
three through ``main`` in-process and only reads the file, so a change that
moves any byte of any answer fails tier-1.  The file records no request that
exits 2, so the refusals' texts are pinned here as well.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from frobstrat.cli import _exact_args, build_parser, main

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

# stderr of argv that each exit 2 with empty stdout: localmodel's q and M
# bounds, the enumerate and certify parameter checks, the p and brute-force
# ceilings, argparse's invalid int, missing subcommand and unknown option
REFUSALS = {
    ("localmodel", "--q", "2"): "acd529ee417f87156cefc9e256b9101d",
    ("localmodel", "--q", "3", "--M", "2"): "27a80fefb95d9a9dbd6dd9ed2a2ddddb",
    ("localmodel", "--q", "729"): "d5d8afd6e3cb36b1b4bd341d39d9976e",
    ("localmodel", "--q", "3", "--M", "101"): "2ac2587374f175dac12a12579fd7ed14",
    ("enumerate", "--g", "1", "--d", "0"): "a7b968ef42585cced816b0f3b891c41b",
    ("enumerate", "--p", "4", "--d", "0"): "cb73ef57df4207754bce4a683717aa2c",
    ("enumerate", "--r", "0"): "421a10e2ca7aa6292efd7d5801c4a4d6",
    ("enumerate", "--p", "10007"): "1dbf4a9d96215393b685f6c4b263485f",
    ("enumerate", "--p", "3", "--g", "2", "--r", "6", "--d", "1", "--verify"):
        "6d0a37ee3029660d52229d0250083354",
    ("certify", "--r", "2", "--d", "0"): "fc495cf051c836f690c6b377a63acdaa",
    ("certify", "--p", "4", "--r", "4", "--d", "0"): "cb73ef57df4207754bce4a683717aa2c",
    ("certify", "--d", "0", "--t", "-5"): "c6e3a76372c065acbe45ba838f8732f9",
    ("strata", "--d", "x"): "2f0c77b56675149a46d1cc23ade2a47d",
    ("dual", "--d", "1.5"): "c4c8b2bbbeb129e651efaa5bc57164d9",
    (): "314c8f824ba8c8ee9271b0d751958f8b",
    ("strata", "--q", "3"): "f6f80dcb2eac185f5f06d7ec40726565",
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
    # the second pass, in reverse order, meets the fields and tables that every
    # other request of the process has built and cached
    for n, items in enumerate((goldens.items(), reversed(goldens.items()))):
        for key, want in items:
            got = _record(key.split(" "))
            diffs += [f"pass {n + 1}, {key!r}: {part} differs"
                      for part, g, w in zip(_PARTS, got, want) if g != w]
    assert not diffs, "\n".join(diffs)


def test_every_golden_argv_is_read_in_exact_form_as_argparse_reads_it():
    # the benchmark's traffic is what the exact-form reader is for
    with open(GOLDENS, encoding="utf-8") as fh:
        goldens = json.load(fh)
    for key in goldens:
        argv = key.split(" ")
        args = _exact_args(argv)
        assert args is not None, key
        assert vars(args) == vars(build_parser().parse_args(argv)), key


def test_help_texts_are_unchanged():
    assert {argv: _record(argv) for argv in HELP} == \
        {argv: [0, out, _digest("")] for argv, out in HELP.items()}


def test_every_refusal_replays_byte_identically():
    assert {argv: _record(argv) for argv in REFUSALS} == \
        {argv: [2, _digest(""), err] for argv, err in REFUSALS.items()}
