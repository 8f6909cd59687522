import argparse
import io
import json
import os
import subprocess
import sys
from functools import lru_cache
from itertools import islice
from pathlib import Path

import pytest

from frobstrat import cli, gfield, localmodel, polygon, slopecalc, strata
from frobstrat.cli import _COMMANDS, _MAX_M, _json_text, build_parser, main
from frobstrat.gfield import _MAX_P, ProjectivePoint, _plane_indices, field_make, projective_plane
from frobstrat.polygon import (
    REGIME,
    CurveParams,
    LatticePolygon,
    enumerate_destabilized_polygons,
    name_polygon,
)
from frobstrat.slopecalc import CertificateReport, SubrankBound
from frobstrat.strata import StrataTable, StratumRecord, dualize_polygon
from oracles import slopes, to_pairs


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_verify(capsys, fmt, *argv):
    """Run a command with --verify in ``fmt``; return its exit code and the
    stream its verdicts go to: stdout for a table, stderr for JSON."""
    code, out, err = run(capsys, *argv, "--format", fmt, "--verify")
    return code, out if fmt == "table" else err


def test_enumerate_default_regime(capsys):
    code, out, _ = run(capsys, "enumerate", "--d", "0")
    assert code == 0
    assert "found 4 polygon(s)" in out
    for label in ("Psi1", "Psi2", "Psi3", "Psi4"):
        assert label in out


def test_enumerate_json_schema(capsys):
    code, out, _ = run(capsys, "enumerate", "--d", "1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 4
    assert {entry["label"] for entry in payload} == {"Psi1", "Psi2", "Psi3", "Psi4"}
    for entry in payload:
        assert entry["vertices"][0] == [0, 0]
        assert entry["vertices"][-1] == [3, 3]


@pytest.mark.parametrize("p, g, r", [(3, 2, r) for r in range(1, 9)] + [(5, 3, 6)])
def test_enumerate_table_slopes_are_the_fraction_strings(capsys, p, g, r):
    """Each table row, its vertex column and its slope column both printed in
    one pass over the vertices, reads as the label, the (x,y) vertices and the
    str() of each Fraction slopes() returns."""
    for d in range(r):
        params = CurveParams(p, g, r, d)
        polys = enumerate_destabilized_polygons(params)
        code, out, _ = run(capsys, "enumerate", *f"--p {p} --g {g} --r {r} --d {d}".split())
        assert code == 0
        rows = out.splitlines()[2:]
        assert len(rows) == len(polys)
        for row, P in zip(rows, polys):
            label = name_polygon(P, params) if (p, g, r) == (3, 2, 3) else None
            vertices = " ".join(f"({x},{y})" for x, y in P.vertices)
            assert row == (f"  {label or '-':<5} vertices {vertices:<30} "
                           f"slopes {', '.join(map(str, slopes(P)))}")


def test_enumerate_outside_regime_has_no_labels(capsys):
    code, out, _ = run(capsys, "enumerate", "--p", "2", "--r", "2", "--d", "0",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 1
    assert payload[0]["label"] is None


def test_enumerate_with_verify(capsys):
    code, _, err = run(capsys, "enumerate", "--d", "2", "--verify")
    assert code == 0
    assert "agrees" in err


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_enumerate_verify_disagrees_with_a_scan_of_as_many_polygons(capsys, monkeypatch, fmt):
    # the box scan finds as many polygons as the search, one of them another
    def one_polygon_replaced(params):
        _, *rest = polygon.bruteforce_destabilized_polygons(params)
        return [LatticePolygon([(0, 0), (params.r, params.p * params.d)]), *rest]

    monkeypatch.setattr("frobstrat.cli.bruteforce_destabilized_polygons", one_polygon_replaced)
    code, _, err = run(capsys, "enumerate", "--d", "2", "--format", fmt, "--verify")
    assert code == 1
    assert "verify: brute-force box scan DISAGREES (4 vs 4 polygons)" in err


def test_enumerate_regime_error_exits_2(capsys):
    code, _, err = run(capsys, "enumerate", "--g", "1")
    assert code == 2
    assert "genus" in err


def test_localmodel_q3(capsys):
    code, out, _ = run(capsys, "localmodel", "--q", "3")
    assert code == 0
    assert "Psi2=9 Psi3=3 Psi4=1" in out
    assert "PASS" in out
    assert out.count("colength") == 13


def test_localmodel_q9_json(capsys):
    code, out, _ = run(capsys, "localmodel", "--q", "9", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["census"] == {"Psi2": 81, "Psi3": 9, "Psi4": 1}
    assert payload["claims_pass"] is True
    assert len(payload["points"]) == 91


def test_localmodel_q9_json_round_trips_to_the_table(capsys):
    _, out, _ = run(capsys, "localmodel", "--q", "9", "--format", "json")
    points = json.loads(out)["points"]
    _, table, _ = run(capsys, "localmodel", "--q", "9")
    lines = table.splitlines()
    lines = lines[lines.index("per-point classification:") + 1:]
    field = field_make(3, 2)
    plane = projective_plane(field)
    assert len(points) == len(lines) == len(plane)
    for entry, line, want in zip(points, lines, plane):
        point = ProjectivePoint.of(field, entry["point"])
        assert point == want
        assert line == f"  {point!r:<24} colength {entry['colength']}  {entry['label']}"


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_localmodel_builds_element_names_with_the_field_only(capsys, monkeypatch, fmt):
    """A field builds its q names with its tables; a request on a field already
    built builds none, in either format."""
    poly_str, calls = gfield._poly_str, []

    def counting(coeffs):
        calls.append(coeffs)
        return poly_str(coeffs)

    monkeypatch.setattr(gfield, "_poly_str", counting)
    # a field of its own, built by the first request alone
    monkeypatch.setattr(gfield, "_fields", lru_cache(maxsize=None, typed=True)(gfield.FieldSpec))
    code, _, _ = run(capsys, "localmodel", "--q", "27", "--format", fmt)
    assert (code, len(calls)) == (0, 27)
    calls.clear()
    code, _, _ = run(capsys, "localmodel", "--q", "27", "--format", fmt)
    assert (code, calls) == (0, [])


@pytest.mark.parametrize("verify", [(), ("--verify",)], ids=["plain", "verify"])
@pytest.mark.parametrize("M", [3, 4])
@pytest.mark.parametrize("q, m", [(3, 1), (9, 2), (27, 3), (81, 4)])
def test_localmodel_json_writes_what_the_generic_writer_writes(capsys, monkeypatch, q, m, M,
                                                               verify):
    # the points are written from index triples on one template, never through
    # _entry_texts; the generic writer, given each point as its coordinates'
    # coefficient lists in a dict, must write the same bytes
    entered = []
    monkeypatch.setattr(cli, "_entry_texts", lambda *args: entered.append(args))
    code, out, _ = run(capsys, "localmodel", "--q", str(q), "--M", str(M), "--format", "json",
                       *verify)
    assert (code, entered) == (0, [])
    monkeypatch.undo()
    field = field_make(3, m)
    codes, known = localmodel._plane_classes(field)
    points = [{"point": [list(field.elements[i].coeffs) for i in h],
               "label": localmodel._coordinate_label(h), "colength": known[k][0]}
              for h, k in zip(_plane_indices(q), codes)]
    census = {lab: [e["label"] for e in points].count(lab) for lab in ("Psi2", "Psi3", "Psi4")}
    payload = {"q": q, "M": M, "census": census, "claims_pass": True, "points": points}
    # as line lists, whose failure pytest reports by the first differing index
    # without diffing megabytes of text
    assert out.splitlines() == _json_text(payload).splitlines()
    assert out.endswith("}\n")


def test_localmodel_verify(capsys):
    code, out, _ = run(capsys, "localmodel", "--q", "3", "--verify")
    assert code == 0
    assert "stable at M=4: PASS" in out


def test_localmodel_verify_fails_on_a_truncation_dependent_colength(capsys, monkeypatch):
    # the fault goes into the guard's input at M + 1, the only level it builds:
    # there tau^2 is truncated away, so the tau^2 line loses a dimension
    multiples = localmodel._tau_square_multiples

    def deeper_tau_square_dropped(spec):
        return islice(multiples(spec), 1 if spec.M == 4 else 0, None)

    monkeypatch.setattr(localmodel, "_tau_square_multiples", deeper_tau_square_dropped)
    code, out, _ = run(capsys, "localmodel", "--q", "3", "--verify")
    assert code == 1
    assert "stable at M=4: FAIL" in out


@pytest.fixture
def x2_negated(monkeypatch):
    """The tau^2 table with X_2 negated mod 3, read by the quotient through
    _block_entries and by the full model, so that both agree on every point."""
    blocks = localmodel._tau_square_blocks

    def negated(p):
        b = blocks(p)
        return b[:2] + (tuple(-x % p for x in b[2]),) + b[3:]

    monkeypatch.setattr(localmodel, "_tau_square_blocks", negated)
    localmodel._block_entries.cache_clear()
    yield
    # the wrong entries must not outlive the patch
    localmodel._block_entries.cache_clear()


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_localmodel_verify_fails_on_a_wrong_tau_square_table(capsys, x2_negated, fmt):
    # every point still agrees with the full model, which reads the same table;
    # only the guard, which builds tau^2 t^k at M + 1, sees the table is wrong
    code, verdicts = run_verify(capsys, fmt, "localmodel", "--q", "3")
    assert code == 1
    assert "verify: census matches q^2/q/1 decomposition: PASS" in verdicts
    assert "verify: claims and colengths stable at M=4: FAIL" in verdicts


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_localmodel_verify_exits_1_when_the_full_model_disagrees_at_M(capsys, monkeypatch, fmt):
    # [1 : 0 : 0] leads the walk's one-point orbit, so the flip reaches it alone
    classify = localmodel._classify
    alone = ProjectivePoint.of(field_make(3), (1, 0, 0))

    def one_claim_flipped(field, h):
        col, res = classify(field, h)
        if h == tuple(c.index for c in alone.coords):
            res = {**res, "d": not res["d"]}
        return col, res

    monkeypatch.setattr("frobstrat.localmodel._classify", one_claim_flipped)
    code, out, err = run(capsys, "localmodel", "--q", "3", "--format", fmt, "--verify")
    assert (code, out) == (1, "")
    assert err.startswith("error: point [1 : 0 : 0]: ")
    assert "full model" in err
    # without --verify the flipped claim is reported, not an error
    code, out, _ = run(capsys, "localmodel", "--q", "3")
    assert code == 1 and out.count("CLAIM-FAIL") == 1
    assert f"  {alone!r:<24} colength 1  Psi4  CLAIM-FAIL d\n" in out

    # a failing guard at M + 1 stops nothing: the full model still runs at M
    # on every point and names the flipped one
    deeper = []

    def also_unstable(spec):
        deeper.append(spec.M)
        return False

    monkeypatch.setattr("frobstrat.cli._truncation_stable", also_unstable)
    code, out, err = run(capsys, "localmodel", "--q", "3", "--format", fmt, "--verify")
    assert (code, out) == (1, "")
    assert err.startswith("error: point [1 : 0 : 0]: ")
    # the guard ran once, at M + 1
    assert deeper == [4]


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_a_wrong_orbit_representative_reaches_exactly_its_orbit(capsys, monkeypatch, fmt):
    """The walk classifies the first point of each unit-group orbit that it reaches
    and hands the result to the rest: a claim broken at [1 : 0 : 1], the first point
    with h2 != 0, fails on exactly the q^2 = 81 points of its orbit, those with
    h2 != 0, and --verify, whose oracle runs on every point, names it."""
    field = field_make(3, 2)
    rep = ProjectivePoint.of(field, (1, 0, 1))
    h = tuple(c.index for c in rep.coords)
    orbit = [point for point in projective_plane(field) if point.coords[2]]
    assert len(orbit) == 81 and orbit[0] == rep
    classify = localmodel._classify

    def one_claim_flipped(field, point):
        col, res = classify(field, point)
        return (col, {**res, "d": not res["d"]}) if point == h else (col, res)

    monkeypatch.setattr("frobstrat.localmodel._classify", one_claim_flipped)
    code, out, err = run(capsys, "localmodel", "--q", "9", "--format", fmt, "--verify")
    assert (code, out) == (1, "")
    assert err.startswith(f"error: point {rep!r}: quotient gives ")
    code, out, _ = run(capsys, "localmodel", "--q", "9", "--format", fmt)
    assert code == 1
    if fmt == "json":
        assert json.loads(out)["claims_pass"] is False
    else:
        failed = [line for line in out.splitlines() if "CLAIM-FAIL" in line]
        assert [line.split(" colength")[0].strip() for line in failed] == list(map(repr, orbit))
        assert all(line.endswith("  CLAIM-FAIL d") for line in failed)
        assert "membership claims a-d: FAIL on 10/91 points" in out


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_a_block_entry_outside_the_prime_field_exits_1(capsys, monkeypatch, fmt):
    # the orbit walk rests on each tau^2 block's entries depending on i + j alone: an
    # entry of X_0 that is the index of x in GF(9), beside entries one on its
    # anti-diagonal, is refused before any point, with or without --verify
    entries = localmodel._block_entries(3)
    x = field_make(3, 2).element([0, 1]).index
    bad = ((entries[0][0][:2] + (x,),) + entries[0][1:],) + entries[1:]
    monkeypatch.setattr(localmodel, "_block_entries", lambda p: bad)
    for verify in ((), ("--verify",)):
        code, out, err = run(capsys, "localmodel", "--q", "9", "--format", fmt, *verify)
        assert (code, out, err) == (
            1, "", "error: a tau^2 block entry depends on more than i + j: "
                   "the unit-orbit walk's premise fails\n")


@pytest.mark.parametrize("fmt, owner, other_format", [
    pytest.param("table", cli, "_json_text", id="table-_json_text"),
    pytest.param("json", ProjectivePoint, "__repr__", id="json-__repr__"),
])
def test_localmodel_builds_only_the_requested_format(capsys, monkeypatch, fmt, owner,
                                                     other_format):
    # _json_text writes only the JSON output and repr only the table lines
    calls = []
    original = getattr(owner, other_format)
    monkeypatch.setattr(owner, other_format,
                        lambda value, *rest: calls.append(value) or original(value, *rest))
    code, out, _ = run(capsys, "localmodel", "--q", "9", "--format", fmt)
    assert (code, out.count("colength")) == (0, 91)
    assert calls == []


def test_localmodel_rejects_non_power_of_three(capsys):
    for q in ("5", "1", "6"):
        code, _, err = run(capsys, "localmodel", "--q", q)
        assert code == 2
        assert "power of 3" in err


def test_localmodel_q_ceiling_builds_no_field(capsys, monkeypatch):
    def no_field(*args):
        raise AssertionError("field tables built above the ceiling")

    monkeypatch.setattr("frobstrat.cli.field_make", no_field)
    code, out, err = run(capsys, "localmodel", "--q", "729")
    assert (code, out) == (2, "")
    assert "243" in err


class _Built(Exception):
    pass


@pytest.mark.parametrize("verify", [(), ("--verify",)])
def test_localmodel_M_ceiling_builds_no_model(capsys, monkeypatch, verify):
    def refuse(*args):
        raise _Built

    monkeypatch.setattr("frobstrat.cli.field_make", refuse)
    monkeypatch.setattr(localmodel, "pullback_span", refuse)
    # q = 243 is the largest field: neither M bound may wait for its tables
    for M, words in ((2, "at least 3, got 2"), (_MAX_M + 1, f"ceiling {_MAX_M}"),
                     (100000, "only --verify's truncation guard grows with M")):
        code, out, err = run(capsys, "localmodel", "--q", "243", "--M", str(M), *verify)
        assert (code, out) == (2, ""), M
        assert words in err
    # the ceiling itself is accepted, also when --verify adds its guard at M + 1
    with pytest.raises(_Built):
        main(["localmodel", "--q", "3", "--M", str(_MAX_M), *verify])


@pytest.mark.parametrize("option, value, ceiling, tail", [
    ("--q", 3 ** 5000, "ceiling 243", "q^2 = about 10^4771 entries"),
    ("--M", 10 ** 2200, "ceiling 100", "building the tau^2 t^k at M + 1"),
])
def test_localmodel_refuses_a_size_past_the_digit_limit_at_its_ceiling(
        capsys, option, value, ceiling, tail):
    # str() cannot write q's refused size, so that refusal gives its magnitude;
    # M's names the guard that grows with M, and no size
    code, out, err = run(capsys, "localmodel", option, str(value))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "above the " + ceiling in err and err.endswith(tail + "\n")


def test_enumerate_verify_above_the_box_ceiling_exits_2(capsys, monkeypatch):
    walk = next(c for c in polygon.bruteforce_destabilized_polygons.__code__.co_consts
                if getattr(c, "co_name", None) == "walk")
    init = polygon.LatticePolygon.__init__

    def no_scan(self, vertices):
        # any other caller still builds its polygons; the scan's walk may not
        if sys._getframe(1).f_code is walk:
            raise AssertionError("brute-force scan started above the ceiling")
        init(self, vertices)

    monkeypatch.setattr(polygon.LatticePolygon, "__init__", no_scan)
    code, out, err = run(capsys, "enumerate", "--p", "3", "--g", "2", "--r", "6",
                         "--d", "1", "--verify")
    assert (code, out) == (2, "")
    assert "445588163 candidates" in err


def test_broken_colength_exits_1(capsys, monkeypatch):
    monkeypatch.setattr("frobstrat.localmodel._colength_and_claims",
                        lambda field, h, rows: (7, {}))
    code, out, err = run(capsys, "localmodel", "--q", "3")
    assert (code, out) == (1, "")
    assert err.startswith("error: colength 7 outside 1..3")


def test_label_colength_mismatch_exits_1(capsys, monkeypatch):
    monkeypatch.setattr("frobstrat.cli._coordinate_label", lambda h: "Psi2")
    code, out, err = run(capsys, "localmodel", "--q", "3")
    assert (code, out) == (1, "")
    assert err.startswith("error: point ")
    assert "stratum label Psi2" in err


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_localmodel_verify_fails_on_a_wrong_census(capsys, monkeypatch, fmt):
    # every Psi3 point counted as Psi2, with label and colength agreeing, so
    # the census conjunct is the only check that can catch it
    classify = localmodel._coordinate_label
    monkeypatch.setattr("frobstrat.cli._coordinate_label",
                        lambda h: "Psi2" if classify(h) == "Psi3" else classify(h))
    monkeypatch.setattr("frobstrat.cli._COLENGTH_LABEL", {1: "Psi4", 2: "Psi2", 3: "Psi2"})
    code, out, err = run(capsys, "localmodel", "--q", "3", "--format", fmt, "--verify")
    assert code == 1
    verdicts = out if fmt == "table" else err
    assert "verify: census matches q^2/q/1 decomposition: FAIL" in verdicts
    assert "verify: claims and colengths stable at M=4: PASS" in verdicts
    if fmt == "json":
        assert json.loads(out)["census"] == {"Psi2": 12, "Psi3": 0, "Psi4": 1}


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_localmodel_names_the_point_whose_label_disagrees(capsys, monkeypatch, fmt):
    # a Psi3 point's colength 2 now reads Psi2; a JSON run builds the names for this refusal
    monkeypatch.setattr("frobstrat.cli._COLENGTH_LABEL", {1: "Psi4", 2: "Psi2", 3: "Psi2"})
    code, out, err = run(capsys, "localmodel", "--q", "9", "--format", fmt)
    assert (code, out) == (1, "")
    assert err == "error: point [1 : 1 : 0] has colength 2 but stratum label Psi3\n"


def test_strata_table_output(capsys):
    code, out, _ = run(capsys, "strata", "--d", "0")
    assert code == 0
    assert "moduli dimension 10" in out
    assert "codimension 5" in out


def test_strata_json_d_independent(capsys):
    code, out7, _ = run(capsys, "strata", "--d", "7", "--format", "json")
    assert code == 0
    payload = json.loads(out7)
    assert [s["stratum_dim"] for s in payload["strata"]] == [5, 5, 4, 2]
    assert payload["codimension"] == 5
    assert payload["top_components"] == 2


@pytest.mark.parametrize("fmt", ["table", "json"])
@pytest.mark.parametrize("d", [None, *range(-3, 4)])
def test_strata_defaults_and_verify(capsys, d, fmt):
    code, verdicts = run_verify(capsys, fmt, "strata", *(() if d is None else ("--d", str(d))))
    assert code == 0
    assert "cross-checks: PASS" in verdicts


def test_strata_verify_fails_on_a_wrong_fiber_dimension(capsys, monkeypatch):
    monkeypatch.setattr("frobstrat.strata._FIBER_DIM", {"Psi2": 2, "Psi3": 0, "Psi4": 0})
    code, out, _ = run(capsys, "strata", "--verify")
    assert code == 1
    assert "verify: dimension cross-checks: FAIL" in out


def _strata_tables_through(change):
    """A strata_table whose tables are passed through ``change``."""
    return lambda d: change(strata.strata_table(d))


# each fault makes exactly one conjunct of the strata --verify check false
_STRATA_FAULTS = {
    "top-components": ("strata_table", _strata_tables_through(
        lambda t: StrataTable(t.records, t.codimension, 3))),
    "codimension": ("strata_table", _strata_tables_through(
        lambda t: StrataTable(t.records, t.codimension - 1, t.top_components))),
    "dual-label": ("name_polygon", lambda P, params: "Psi1"),
    # Psi1 one below Psi2, with Psi2 still on top beside Psi1's old dimension
    "psi1-psi2-dimensions": ("strata_table", _strata_tables_through(
        lambda t: StrataTable((StratumRecord("Psi1", t.records[0].polygon, 4),
                               *t.records[1:]), t.codimension, t.top_components))),
    # Psi3 and Psi4 swap polygons, in enumerate's order still, so that only
    # Psi4's dominance over the other three fails
    "regime-polygons": ("regime_polygons", lambda d: {
        {"Psi3": "Psi4", "Psi4": "Psi3"}.get(lab, lab): P
        for lab, P in polygon.regime_polygons(d).items()}),
    # each colength's rank-1 vertex one higher than the polygons have it
    "rank-1-link": ("degree_from_colength", lambda d, colength: d + 4 - colength),
}


@pytest.mark.parametrize("fmt", ["table", "json"])
@pytest.mark.parametrize("fault", _STRATA_FAULTS)
def test_strata_verify_fails_on_each_broken_conjunct(capsys, monkeypatch, fault, fmt):
    target, fake = _STRATA_FAULTS[fault]
    monkeypatch.setattr(f"frobstrat.cli.{target}", fake)
    code, verdicts = run_verify(capsys, fmt, "strata", "--d", "1")
    assert code == 1
    assert "verify: dimension cross-checks: FAIL" in verdicts


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_strata_exits_1_naming_a_label_the_naming_rule_misses(capsys, monkeypatch, fmt):
    monkeypatch.setattr("frobstrat.strata.regime_polygons", lambda d: {
        lab: P for lab, P in polygon.regime_polygons(d).items() if lab != "Psi3"})
    code, out, err = run(capsys, "strata", "--d", "1", "--format", fmt)
    assert (code, out) == (1, "")
    assert err == "error: the naming rule names no Psi3 polygon at d = 1\n"


def test_a_sweep_searches_the_regime_polygons_once_at_d_0(capsys):
    """strata, dual and regime enumerate, with and without --verify, over
    d = -40..40 and 10**30 build the regime's polygon set once, at d = 0, and
    name every degree's polygons by shearing it."""
    polygon._regime_labels.cache_clear()
    for d in (*range(-40, 41), 10**30):
        for verify in ((), ("--verify",)):
            for command in ("strata", "dual", "enumerate"):
                assert main([command, "--d", str(d), *verify]) == 0
    capsys.readouterr()
    assert polygon._regime_labels.cache_info().misses == 1


def test_certify_main_regime(capsys):
    code, out, _ = run(capsys, "certify", "--d", "0", "--t", "-1")
    assert code == 0
    assert out.count("PASS") == 2
    assert "bound -1/3" in out


def test_certify_default_t_and_other_degree(capsys):
    code, out, _ = run(capsys, "certify", "--d", "4", "--t", "3")
    assert code == 0
    assert "PASS" in out
    code, out, _ = run(capsys, "certify", "--d", "4")   # t defaults to d-1
    assert code == 0
    assert "t=3" in out


def test_certify_json_and_verify(capsys):
    code, out, err = run(capsys, "certify", "--d", "2", "--format", "json", "--verify")
    assert code == 0
    payload = json.loads(out)
    assert payload["stability"]["passed"] is True
    assert payload["embedding"]["witness"][0]["bound"] == {"num": 1, "den": 3}
    assert "PASS" in err


@pytest.mark.parametrize("argv, word", [
    (("--g", "1"), "genus"),
    (("--p", "4", "--r", "4"), "prime"),
])
def test_certify_regime_error(capsys, argv, word):
    code, out, err = run(capsys, "certify", *argv)
    assert code == 2
    assert out == ""
    assert word in err


def test_p_ceiling_is_checked_before_primality(capsys, monkeypatch):
    def no_trial_division(n):
        raise AssertionError("primality tested above the ceiling")

    monkeypatch.setattr("frobstrat.polygon._is_prime", no_trial_division)
    monkeypatch.setattr("frobstrat.slopecalc._is_prime", no_trial_division)
    for argv in (("enumerate", "--p", "10007"), ("certify", "--p", "10007", "--r", "10007")):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert f"ceiling {_MAX_P}" in err


def test_certify_reports_fail_with_exit_1(capsys):
    code, out, _ = run(capsys, "certify", "--d", "0", "--t", "4")
    assert code == 1
    assert "FAIL" in out


# each fault changes the embedding certificate's first row so that exactly one
# half of the certify --verify check is false; the certificate still passes
_CERTIFY_FAULTS = {
    # a bound other than the closed form, with the verdict the closed form gives
    "bound": lambda row: SubrankBound(row.subrank, row.bound + 1, row.threshold, row.ok),
    "verdict": lambda row: SubrankBound(row.subrank, row.bound, row.threshold, not row.ok),
}


@pytest.mark.parametrize("fmt", ["table", "json"])
@pytest.mark.parametrize("fault", _CERTIFY_FAULTS)
def test_certify_verify_fails_on_each_broken_conjunct(capsys, monkeypatch, fault, fmt):
    def first_row_broken(*args):
        report = slopecalc.embedding_certificate(*args)
        row, *rest = report.bounds
        broken = _CERTIFY_FAULTS[fault](row)
        return CertificateReport(report.kind, report.passed, (broken, *rest))

    monkeypatch.setattr("frobstrat.cli.embedding_certificate", first_row_broken)
    code, verdicts = run_verify(capsys, fmt, "certify", "--d", "2")
    assert code == 1
    assert "verify: closed-form bound recomputation: FAIL" in verdicts


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_certify_verify_fails_on_a_pushforward_degree_off_by_one(capsys, monkeypatch, fmt):
    # the certificates call slopecalc's own pushforward_degree, so only the
    # Euler characteristic half of the check sees the fault
    monkeypatch.setattr("frobstrat.cli.pushforward_degree",
                        lambda *args: slopecalc.pushforward_degree(*args) + 1)
    code, verdicts = run_verify(capsys, fmt, "certify", "--d", "2")
    assert code == 1
    assert "verify: closed-form bound recomputation: FAIL" in verdicts


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_certify_verify_fails_on_canonical_degrees_off_by_one(capsys, monkeypatch, fmt):
    # the certificates never read the canonical filtration, so only the half of
    # the check that sums its lowest pieces sees the fault
    monkeypatch.setattr("frobstrat.cli.canonical_filtration_degrees",
                        lambda *args: [x + 1 for x in slopecalc.canonical_filtration_degrees(*args)])
    code, verdicts = run_verify(capsys, fmt, "certify", "--d", "2")
    assert code == 1
    assert "verify: closed-form bound recomputation: FAIL" in verdicts


@pytest.mark.parametrize("fmt", ["table", "json"])
@pytest.mark.parametrize("d", range(-3, 4))
def test_dual_with_verify(capsys, d, fmt):
    code, out, err = run(capsys, "dual", "--d", str(d), "--format", fmt, "--verify")
    assert code == 0
    if fmt == "table":
        assert f"Psi1({d}) -> Psi2({-d})" in out
        assert "PASS" in out
    else:
        pairs = {(p["label"], p["dual_label"]) for p in json.loads(out)["pairs"]}
        assert ("Psi1", "Psi2") in pairs
        assert "PASS" in err


def test_dual_json(capsys):
    code, out, _ = run(capsys, "dual", "--d", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    pairs = {p["label"]: p["dual_label"] for p in payload["pairs"]}
    assert pairs == {"Psi1": "Psi2", "Psi2": "Psi1", "Psi3": "Psi3", "Psi4": "Psi4"}


# each fault makes exactly one conjunct of the dual --verify check false at d = 1
_DUAL_FAULTS = {
    # the degree -1 polygons dualize to a polygon that is none of the degree 1 ones
    "involution": ("dualize_polygon", lambda P: dualize_polygon(P) if P.endpoint[1] > 0
                   else LatticePolygon([(0, 0), (3, 3)])),
    # the enumeration at degree -1 misses a polygon
    "set-equality": ("enumerate_destabilized_polygons",
                     lambda params: enumerate_destabilized_polygons(params)[1:] if params.d < 0
                     else enumerate_destabilized_polygons(params)),
    "label-swap": ("name_polygon", lambda P, params: "Psi1"),
}


@pytest.mark.parametrize("fmt", ["table", "json"])
@pytest.mark.parametrize("fault", _DUAL_FAULTS)
def test_dual_verify_fails_on_each_broken_conjunct(capsys, monkeypatch, fault, fmt):
    target, fake = _DUAL_FAULTS[fault]
    monkeypatch.setattr(f"frobstrat.cli.{target}", fake)
    code, verdicts = run_verify(capsys, fmt, "dual", "--d", "1")
    assert code == 1
    assert "verify: involution and label swap onto degree -1: FAIL" in verdicts


@pytest.mark.parametrize("fmt", ["table", "json"])
@pytest.mark.parametrize("argv, n_verdicts", [
    (("enumerate", "--d", "1"), 1),
    (("localmodel", "--q", "3"), 2),
    (("strata", "--d", "0"), 1),
    (("certify", "--d", "2"), 1),
    (("dual", "--d", "1"), 1),
])
def test_verify_line_routing(capsys, argv, n_verdicts, fmt):
    code, out, err = run(capsys, *argv, "--format", fmt, "--verify")
    assert code == 0
    # verdicts follow the table on stdout, except enumerate's box-scan verdict,
    # which goes to stderr in both formats, as every verdict does under json
    on_stdout = fmt == "table" and argv[0] != "enumerate"
    here, elsewhere = (out, err) if on_stdout else (err, out)
    verdicts = [ln for ln in here.splitlines() if ln.startswith("verify:")]
    assert len(verdicts) == n_verdicts
    assert all(ln.endswith(("PASS", "agrees (4 vs 4 polygons)")) for ln in verdicts)
    assert "verify:" not in elsewhere
    if on_stdout:
        lines = out.splitlines()
        # the local model's verdicts sit between its claims line and the per-point list
        at = lines.index("per-point classification:") if argv[0] == "localmodel" else len(lines)
        assert lines[at - n_verdicts:at] == verdicts
        if argv[0] == "localmodel":
            assert lines[at - n_verdicts - 1].startswith("membership claims a-d: PASS")


@pytest.mark.parametrize("command, fmt, verify", [
    ("enumerate", "table", ()), ("enumerate", "json", ()), ("dual", "json", ()),
    ("enumerate", "table", ("--verify",)), ("enumerate", "json", ("--verify",)),
], ids=["enumerate-table", "enumerate-json", "dual-json",
        "enumerate-table-verify", "enumerate-json-verify"])
def test_an_int_too_long_to_print_exits_2(capsys, command, fmt, verify):
    # d parses, but a vertex height has one digit more than str() or %d may
    # write, and the output is rendered only after the command has run; the
    # box scan's verdict is written by the renderer too, so none precedes the error
    d = "9" * sys.get_int_max_str_digits()
    code, out, err = run(capsys, command, "--d", d, "--format", fmt, *verify)
    assert (code, out) == (2, "")
    assert err.startswith("error:")
    assert err.count("\n") == 1 and err.endswith("\n")


def test_the_box_scan_verdict_follows_the_table(capsys):
    """With stdout and stderr on one stream, enumerate --verify writes its
    brute-force verdict after the table's last line."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-m", "frobstrat", "enumerate", "--d", "0", "--verify"],
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                          env=env, timeout=60)
    _, table, _ = run(capsys, "enumerate", "--d", "0")
    assert done.returncode == 0
    assert done.stdout == table + "verify: brute-force box scan agrees (4 vs 4 polygons)\n"


def test_a_search_deeper_than_the_recursion_limit_exits_2(capsys):
    # each segment of a chain is one level of the search's recursion
    code, out, err = run(capsys, "enumerate", "--r", "4" + "0" * 29, "--d", "10007")
    assert (code, out) == (2, "")
    assert err == ("error: r = 400000000000000000000000000000 needs a polygon search "
                   "deeper than Python's recursion limit\n")


@pytest.mark.parametrize("target, argv", [
    ("strata_table", ("strata", "--d", "0")),
    ("name_polygon", ("enumerate", "--d", "0")),
], ids=["strata", "enumerate-naming"])
def test_recursion_outside_the_search_exits_1(capsys, monkeypatch, target, argv):
    """Recursion past the limit anywhere but in the polygon search is a broken
    invariant, exit 1, and is not reported as the search's depth refusal."""
    def too_deep(*args):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(f"frobstrat.cli.{target}", too_deep)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error:") and err.count("\n") == 1
    assert "polygon search" not in err and "r = " not in err


def test_unknown_arguments_exit_2(capsys):
    assert main(["enumerate", "--bogus"]) == 2
    capsys.readouterr()


def test_main_builds_the_parser_tree_at_most_once(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    def requests(d):
        return (("enumerate", "--d", d), ("strata", "--d", d, "--format", "json"),
                ("dual", "--d", d), ("certify", "--d", d, "--verify"),
                ("localmodel", "--q", "3", "--M", "2" if d == "x" else "3"))

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    build_parser.cache_clear()
    # argv in exact form are read from the option tables: no parser at all
    for d in ("-1", "0", "1"):
        for argv in requests(d):
            run(capsys, *argv)
    assert built == []
    # help and usage errors build the tree once: one root parser and one
    # subparser per command, shared by every later call
    for argv in (*requests("x"), ("--help",), ("enumerate", "--help"), ("enumerate", "--d"),
                 ("strata", "--form", "json"), *requests("x")):
        run(capsys, *argv)
    assert len(built) == 1 + len(_COMMANDS)


# help, usage errors, parameter errors, a non-prime characteristic and valid
# table and JSON requests, all through one parser
_MIXED_ARGV = [
    ("--help",), ("enumerate", "--help"),
    ("enumerate", "--bogus"), ("strata", "--d", "x"), ("dual", "--d", "1.5"),
    (), ("nosuch",),
    ("localmodel", "--q", "3", "--M", "2"), ("certify", "--p", "4", "--r", "4"),
    ("enumerate", "--d", "1"), ("dual", "--d", "2", "--format", "json", "--verify"),
    ("certify", "--d", "0", "--t", "-1", "--format", "json"),
]


def test_option_defaults_are_the_classified_regime():
    p, g, r = REGIME
    expected = {"p": p, "g": g, "r": r, "q": p}
    for name, *_ in _COMMANDS:
        args = build_parser().parse_args([name])
        for option, value in expected.items():
            assert getattr(args, option, value) == value, (name, option)


def test_shared_parser_leaks_no_state_between_requests(capsys):
    fresh = {}
    for argv in _MIXED_ARGV:
        build_parser.cache_clear()
        fresh[argv] = run(capsys, *argv)
    assert {code for code, _, _ in fresh.values()} == {0, 2}
    for order in (_MIXED_ARGV, _MIXED_ARGV[::-1]):
        for argv in order:
            assert run(capsys, *argv) == fresh[argv], argv


@pytest.mark.parametrize("argv", [
    ("enumerate", "--d", "0"),
    ("enumerate", "--p", "2", "--g", "3", "--r", "4", "--d", "-1", "--format", "json"),
    ("localmodel", "--q", "3", "--verify"),
    ("strata", "--d", "5", "--format", "json"),
    ("certify", "--d", "-3"),
    ("dual", "--d", "2", "--verify"),
])
def test_runs_are_byte_identical(capsys, argv):
    first = run(capsys, *argv)
    second = run(capsys, *argv)
    assert first == second


# a scalar's id is its value; every other case keeps, as an explicit id, the
# position pytest once gave it, so that removing a case renames no other
@pytest.mark.parametrize("payload", [
    pytest.param([], id="payload0"),
    pytest.param({}, id="payload1"),
    0, -7, None, True, "Psi1",
    pytest.param({"b": [[0, 0], [3, -3]], "a": None, "c": {"x": True, "y": False}, "d": [],
                  "e": {}}, id="payload8"),
    pytest.param([{"label": "caf\u00e9 \"q\"\n", "vertices": ((0, 0), (2, 5))}, [[[]]], [{}]],
                 id="payload9"),
    pytest.param([0, [1, True, -2], False, [None, 3]], id="payload10"),
    # polygons: bare, at depths 1 to 3 in lists and dicts, with negative
    # heights, and with two vertices
    pytest.param(LatticePolygon([(0, 0), (1, 2), (3, 3)]), id="payload11"),
    pytest.param([LatticePolygon([(0, 0), (2, -3)])], id="payload12"),
    pytest.param({"v": LatticePolygon([(0, 0), (1, -1), (3, -5)]), "w": []}, id="payload13"),
    pytest.param([{"label": None, "vertices": LatticePolygon([(0, 0), (1, 1), (3, 0)])}],
                 id="payload14"),
    pytest.param({"pairs": [{"a": LatticePolygon([(0, 0), (1, -2), (2, -5)]),
                             "b": LatticePolygon([(0, 0), (4, 1)])}]}, id="payload15"),
    pytest.param([[LatticePolygon([(0, 0), (1, 7), (2, 8), (5, 0)])],
                  LatticePolygon([(0, 0), (1, -9)])], id="payload16"),
    # a 13-vertex polygon, the shape of r = 12, and two polygons of different
    # vertex counts at one depth, whose templates are different cache entries
    pytest.param(LatticePolygon([(k, k * (12 - k)) for k in range(13)]), id="payload21"),
    pytest.param([LatticePolygon([(0, 0), (1, 4), (3, 5)]),
                  LatticePolygon([(0, 0), (1, 2), (2, 3), (4, 2)])], id="payload22"),
])
def test_json_text_matches_the_stdlib(payload):
    assert _json_text(payload) == json.dumps(payload, indent=2, sort_keys=True,
                                             default=to_pairs)


def test_json_text_rejects_keys_the_stdlib_would_convert():
    with pytest.raises(TypeError):
        _json_text({1: "one"})


@pytest.mark.parametrize("value", [
    ProjectivePoint.of(field_make(3), (1, 2, 0)), field_make(3, 2).elements[4], 1.5,
    # one field's elements, which localmodel writes as the coefficients of its indices
    field_make(3, 2).elements[3:7], tuple(field_make(3, 2).elements[3:7])])
def test_json_text_refuses_what_no_payload_holds(value):
    # as json.dumps refuses a value it has no default for, bare, as a dict's value
    # or beside an int in a list
    for payload in (value, {"x": value}, [0, value]):
        with pytest.raises(TypeError, match="is not JSON serializable"):
            _json_text(payload)


@pytest.mark.parametrize("argv", [
    ("enumerate", "--p", "3", "--r", "5", "--d", "1"),
    ("localmodel", "--q", "3"),
    ("strata", "--d", "0"),
    ("certify", "--d", "2"),
    ("dual", "--d", "1"),
    ("localmodel", "--q", "27", "--verify"),
    ("localmodel", "--q", "81"),
    # rank 1: no polygon to list, and certificate witnesses with no row
    ("enumerate", "--r", "1", "--d", "0"),
    ("certify", "--r", "1", "--d", "0"),
])
def test_json_output_is_the_stdlib_dump_of_its_payload(capsys, argv):
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_a_reader_that_closes_stdout_early_ends_the_run_with_141(unbuffered):
    """A reader that takes one line and closes the pipe, as `| head -1` does,
    ends the run with exit 141 and nothing on stderr, whether stdout is
    buffered or not.  localmodel --q 81 writes about 340 kB, more than a pipe
    holds, so the run is still writing when the pipe closes."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "PYTHONUNBUFFERED": unbuffered}
    proc = subprocess.Popen([sys.executable, "-m", "frobstrat", "localmodel", "--q", "81"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), first, err) == \
        (141, b"local pull-back model over GF(81), truncation M=3\n", b"")


@pytest.mark.parametrize("argv, lines", [
    (("localmodel", "--q", "27", "--verify"), 6 + 757),
    (("enumerate", "--p", "3", "--r", "5", "--d", "1"), 2 + 41),
    (("strata", "--d", "0", "--verify"), 8),
])
def test_a_table_reaches_stdout_in_one_write(monkeypatch, argv, lines):
    """A table, its --verify verdicts among its lines, is one text written once and
    then its line end, however many lines it has."""
    writes = []

    class Recorded(io.StringIO):
        def write(self, text):
            writes.append(text)
            return super().write(text)

    monkeypatch.setattr(sys, "stdout", Recorded())
    assert main(list(argv)) == 0
    assert len(writes) == 2 and writes[1] == "\n", len(writes)
    assert writes[0].count("\n") + 1 == lines
