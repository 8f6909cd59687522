"""Each subcommand's ``--format json`` payload has the keys and value types
README's "JSON schemas" section documents."""

import json

import pytest

from frobstrat.cli import main

# A dict schema fixes the exact key set.  A one-element list is a nonempty
# array of that schema; a longer list is an array of exactly those schemas.
# Anything else is a type, or a tuple of types, the value must have exactly
# (so a bool is not an int).
RATIONAL = {"num": int, "den": int}
PAIRS = [[int, int]]
WITNESS = [{"subrank": int, "bound": RATIONAL, "threshold": RATIONAL, "verdict": str}]
CERTIFICATE = {"kind": str, "passed": bool, "witness": WITNESS}
CENSUS = {"Psi2": int, "Psi3": int, "Psi4": int}
NONE = type(None)

SCHEMAS = {
    "enumerate": [{"label": (str, NONE), "vertices": PAIRS}],
    "localmodel": {
        "q": int, "M": int, "census": CENSUS, "claims_pass": bool,
        "points": [{"point": [[int], [int], [int]], "label": str, "colength": int}],
    },
    "strata": {
        "strata": [{"label": str, "vertices": PAIRS, "fiber_dim": (int, NONE),
                    "quot_dim": (int, NONE), "stratum_dim": int,
                    "closed_equals_open": bool}],
        "codimension": int,
        "top_components": int,
    },
    "certify": {"embedding": CERTIFICATE, "stability": CERTIFICATE},
    "dual": {
        "d": int,
        "pairs": [{"label": str, "vertices": PAIRS, "dual_label": str,
                   "dual_vertices": PAIRS}],
    },
}


def conforms(value, schema, where="payload"):
    if isinstance(schema, dict):
        assert type(value) is dict and set(value) == set(schema), where
        for key, inner in schema.items():
            conforms(value[key], inner, f"{where}.{key}")
    elif isinstance(schema, list):
        assert type(value) is list and value, where
        if len(schema) > 1:
            assert len(value) == len(schema), where
        for i, item in enumerate(value):
            conforms(item, schema[min(i, len(schema) - 1)], f"{where}[{i}]")
    else:
        kinds = schema if isinstance(schema, tuple) else (schema,)
        assert type(value) in kinds, f"{where}: {value!r}"


@pytest.mark.parametrize("argv", [
    ("enumerate", "--d", "1"),
    ("enumerate", "--p", "2", "--r", "2", "--d", "0"),
    ("localmodel", "--q", "9"),
    ("localmodel", "--q", "3", "--M", "4", "--verify"),
    ("strata", "--d", "0"),
    ("strata", "--d", "-3", "--verify"),
    ("certify", "--d", "0", "--t", "-1"),
    ("certify", "--d", "0", "--t", "4"),
    ("dual", "--d", "1"),
    ("dual", "--d", "-2", "--verify"),
], ids=" ".join)
def test_payload_matches_the_documented_schema(capsys, argv):
    main([*argv, "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    conforms(payload, SCHEMAS[argv[0]])


def test_the_schemas_pin_the_verdicts_and_labels(capsys):
    for t, verdict in (("-1", "pass"), ("4", "fail")):
        main(["certify", "--d", "0", "--t", t, "--format", "json"])
        certificates = json.loads(capsys.readouterr().out).values()
        assert {row["verdict"] for c in certificates for row in c["witness"]} == {verdict}
        assert all(c["passed"] == all(row["verdict"] == "pass" for row in c["witness"])
                   for c in certificates)
    main(["localmodel", "--q", "3", "--format", "json"])
    points = json.loads(capsys.readouterr().out)["points"]
    assert {pt["label"] for pt in points} == {"Psi2", "Psi3", "Psi4"}
    assert all(len(c) == 1 for pt in points for c in pt["point"])
