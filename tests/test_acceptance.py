"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every expected value is exact; the timed criteria assert their stated
budgets.
"""

import time
from fractions import Fraction
from itertools import combinations

from frobstrat.cli import main
from frobstrat.gfield import field_make, projective_plane
from frobstrat.localmodel import (
    ModelSpec,
    SubmoduleV,
    TensorElement,
    claim_results,
    classify_stratum,
    intersection_colength,
    stratum_census,
    tau_power,
    times_t_right,
)
from frobstrat.polygon import (
    EQUAL,
    GREATER_OR_EQUAL,
    INCOMPARABLE,
    LESS_OR_EQUAL,
    PSI2,
    PSI3,
    PSI4,
    CurveParams,
    dominates,
    enumerate_destabilized_polygons,
    psi_polygon,
)
from frobstrat.slopecalc import (
    BundleData,
    degree_from_colength,
    embedding_certificate,
    euler_characteristic,
    pushforward_degree,
    stability_certificate,
)
from frobstrat.strata import (
    dualize_polygon,
    moduli_dimension,
    moduli_stratum_dimension,
    quot_stratum_dimension,
    strata_table,
)
from oracles import max_slope_gap


def _report(number, name, ok):
    print(f"\n[criterion {number:2d}] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def test_criterion_01_polygon_classification():
    t0 = time.monotonic()
    ok = True
    for d in range(-10, 11):
        got = enumerate_destabilized_polygons(CurveParams(3, 2, 3, d))
        expected = sorted((psi_polygon(i, d) for i in (1, 2, 3, 4)),
                          key=lambda P: P.vertices)
        ok &= got == expected
    elapsed = time.monotonic() - t0
    ok &= elapsed < 1.0
    _report(1, f"four-template enumeration, d in -10..10 ({elapsed:.2f}s)", ok)


def test_criterion_02_gap_bound():
    t0 = time.monotonic()
    violations = 0
    for p in (2, 3, 5):
        for g in (2, 3):
            for r in range(1, 5):
                for d in range(-3, 4):
                    for P in enumerate_destabilized_polygons(CurveParams(p, g, r, d)):
                        if max_slope_gap(P) > 2 * g - 2:
                            violations += 1
    elapsed = time.monotonic() - t0
    ok = violations == 0 and elapsed < 5.0
    _report(2, f"slope-gap bound over the parameter grid ({elapsed:.2f}s)", ok)


def test_criterion_03_local_model_claims():
    t0 = time.monotonic()
    ok = True
    for m in (1, 2):
        field = field_make(3, m)
        points = projective_plane(field)
        per_level = []
        for M in (3, 4):
            spec = ModelSpec(field, M)
            results = [claim_results(SubmoduleV(spec, pt)) for pt in points]
            ok &= all(all(r.values()) for r in results)
            per_level.append(results)
        ok &= per_level[0] == per_level[1]   # identical at both truncation levels
    elapsed = time.monotonic() - t0
    ok &= elapsed < 5.0
    _report(3, f"membership claims a-d on P^2(F_3) and P^2(F_9), M=3,4 ({elapsed:.2f}s)", ok)


def test_criterion_04_stratum_census():
    t0 = time.monotonic()
    ok = True
    for m, q in ((1, 3), (2, 9)):
        census = stratum_census(ModelSpec(field_make(3, m)))
        ok &= census == {PSI2: q * q, PSI3: q, PSI4: 1}
        ok &= sum(census.values()) == q * q + q + 1
    elapsed = time.monotonic() - t0
    ok &= elapsed < 5.0
    _report(4, f"census q^2/q/1 for q=3,9 ({elapsed:.2f}s)", ok)


def test_criterion_05_colength_degree_polygon_consistency():
    spec = ModelSpec(field_make(3), 3)
    d = 0
    triple_of = {PSI4: (1, d + 2), PSI3: (2, d + 1), PSI2: (3, d)}
    ok = True
    for pt in projective_plane(spec.field):
        V = SubmoduleV(spec, pt)
        c = intersection_colength(V)
        label = classify_stratum(V)
        want_c, want_deg = triple_of[label]
        ok &= c == want_c
        ok &= degree_from_colength(d, c) == want_deg
    _report(5, "colength <-> degree <-> polygon equivalences on P^2(F_3)", ok)


def test_criterion_06_tau_calculus():
    spec = ModelSpec(field_make(3), 3)
    ok = not tau_power(spec, 3)

    def expand(triples):
        out = TensorElement(spec, {})
        for i, j, c in triples:
            out = out + TensorElement.monomial(spec, i, j, c)
        return out

    e = tau_power(spec, 2)
    e = times_t_right(e)
    ok &= e == expand([(2, 1, 1), (1, 2, -2), (3, 0, 1)])      # tau^2 t
    e = times_t_right(e)
    ok &= e == expand([(2, 2, 1), (4, 0, -2), (3, 1, 1)])      # tau^2 t^2
    e = times_t_right(e)
    ok &= e == expand([(5, 0, 1), (4, 1, -2), (3, 2, 1)])      # tau^2 t^3
    _report(6, "tau^3 = 0 and the three displayed expansions mod 3", ok)


def test_criterion_07_degree_formulas():
    ok = all(pushforward_degree(BundleData(1, d - 1), 3, 2) == d + 1
             for d in range(-10, 11))
    for p in (2, 3, 5, 7):
        for g in range(1, 6):
            for rank in range(1, 5):
                for d in range(-5, 6):
                    pushed = pushforward_degree(BundleData(rank, d), p, g)
                    ok &= (euler_characteristic(p * rank, pushed, g)
                           == euler_characteristic(rank, d, g))
    _report(7, "push-forward degree formula and chi conservation", ok)


def test_criterion_08_certificates():
    ok = True
    for d in range(-10, 11):
        for report in (stability_certificate(3, 2, 3, d, d - 1),
                       embedding_certificate(3, 2, 3, d, d - 1)):
            ok &= report.passed
            ok &= [b.bound for b in report.bounds] == [
                Fraction(d - 1, 3), Fraction(d, 3)]
            ok &= all(b.threshold == Fraction(d, 3) for b in report.bounds)
    _report(8, "both certificates with exact bounds (d-1)/3 and d/3", ok)


def test_criterion_09_dimension_ledger():
    ok = [quot_stratum_dimension(l, 2) for l in (PSI2, PSI3, PSI4)] == [5, 4, 3]
    table = strata_table(0)
    ok &= [r.stratum_dim for r in table.records] == [5, 5, 4, 2]
    ok &= all(moduli_stratum_dimension(r.label, 2) == r.stratum_dim
              for r in table.records)
    ok &= moduli_dimension(3, 2) == 10
    ok &= table.codimension == 5
    ok &= table.top_components == 2
    _report(9, "quot dims [5,4,3], stratum dims [5,5,4,2], codim 5, 2 top components", ok)


def test_criterion_10_duality():
    swap = {"Psi1": "Psi2", "Psi2": "Psi1", "Psi3": "Psi3", "Psi4": "Psi4"}
    ok = True
    for d in range(-10, 11):
        polys = enumerate_destabilized_polygons(CurveParams(3, 2, 3, d))
        mirror = enumerate_destabilized_polygons(CurveParams(3, 2, 3, -d))
        duals = sorted((dualize_polygon(P) for P in polys), key=lambda P: P.vertices)
        ok &= duals == mirror
        ok &= all(dualize_polygon(dualize_polygon(P)) == P for P in polys)
        template = {i: psi_polygon(i, d) for i in (1, 2, 3, 4)}
        mirror_template = {f"Psi{i}": psi_polygon(i, -d) for i in (1, 2, 3, 4)}
        for i, P in template.items():
            ok &= dualize_polygon(P) == mirror_template[swap[f"Psi{i}"]]
    _report(10, "dualize maps d onto -d with the Psi1/Psi2 swap, involutively", ok)


def test_criterion_11_property_suites(capsys):
    # dominance partial-order laws on every enumerated pair
    ok = True
    for d in (-4, 0, 6):
        polys = enumerate_destabilized_polygons(CurveParams(3, 2, 3, d))
        flip = {GREATER_OR_EQUAL: LESS_OR_EQUAL, LESS_OR_EQUAL: GREATER_OR_EQUAL,
                INCOMPARABLE: INCOMPARABLE, EQUAL: EQUAL}
        for P in polys:
            ok &= dominates(P, P) == EQUAL
        for P, Q in combinations(polys, 2):
            rel = dominates(P, Q)
            ok &= rel != EQUAL
            ok &= dominates(Q, P) == flip[rel]

    # field axioms, exhaustive for every field of size at most 9
    for p, m in ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)):
        spec = field_make(p, m)
        for a in spec.elements:
            if a:
                ok &= a * a.inverse() == spec.one
            for b in spec.elements:
                ok &= (a + b) ** p == a ** p + b ** p
                for c in spec.elements:
                    ok &= (a + b) + c == a + (b + c)
                    ok &= (a * b) * c == a * (b * c)
                    ok &= a * (b + c) == a * b + a * c

    # determinism: repeated CLI invocations are byte-identical
    for argv in (["enumerate", "--d", "0"],
                 ["localmodel", "--q", "3"],
                 ["strata", "--format", "json"],
                 ["certify", "--d", "0", "--t", "-1"],
                 ["dual", "--d", "2"]):
        runs = []
        for _ in range(2):
            code = main(list(argv))
            captured = capsys.readouterr()
            runs.append((code, captured.out, captured.err))
        ok &= runs[0] == runs[1]
    _report(11, "dominance laws, exhaustive field axioms, byte-identical runs", ok)
