import json
from fractions import Fraction

import pytest

from frobstrat import slopecalc
from frobstrat.cli import main
from frobstrat.gfield import projective_plane
from frobstrat.localmodel import (
    ModelSpec,
    SubmoduleV,
    classify_stratum,
    intersection_colength,
)
from frobstrat.polygon import PSI2, PSI3, PSI4
from frobstrat.slopecalc import (
    BundleData,
    canonical_filtration_degrees,
    degree_from_colength,
    embedding_certificate,
    euler_characteristic,
    pushforward_degree,
    stability_certificate,
    sun_upper_bound,
)

PRIMES = (2, 3, 5, 7)


def test_bundle_data_validation():
    with pytest.raises(ValueError):
        BundleData(0, 1)
    assert BundleData(3, 2).slope == Fraction(2, 3)


@pytest.mark.parametrize("d", range(-4, 5))
def test_pushforward_degree_line_bundle_case(d):
    assert pushforward_degree(BundleData(1, d - 1), 3, 2) == d + 1


def test_pushforward_degree_instances():
    assert pushforward_degree(BundleData(1, 0), 2, 2) == 1
    assert pushforward_degree(BundleData(4, 7), 5, 1) == 7   # genus 1: unchanged


def test_pushforward_conserves_euler_characteristic():
    for p in PRIMES:
        for g in range(1, 6):
            for rank in range(1, 5):
                for d in range(-5, 6):
                    b = BundleData(rank, d)
                    assert euler_characteristic(
                        p * rank, pushforward_degree(b, p, g), g
                    ) == euler_characteristic(rank, d, g)


def test_pullback_degree(capsys):
    # the Frobenius pull-back keeps the rank and multiplies the degree by p:
    # the endpoint in enumerate's header
    for p, r, d, endpoint in ((3, 3, 4, "(3, 12)"), (7, 1, 0, "(1, 0)"),
                              (2, 2, -1, "(2, -2)")):
        assert main(["enumerate", "--p", str(p), "--r", str(r), "--d", str(d)]) == 0
        assert f"endpoint (r, p*d) = {endpoint};" in capsys.readouterr().out


@pytest.mark.parametrize("d", range(-4, 5))
def test_sun_upper_bound_values(d):
    mu = Fraction(d + 1, 3)
    assert sun_upper_bound(1, 3, 2, mu) == Fraction(d - 1, 3)
    assert sun_upper_bound(2, 3, 2, mu) == Fraction(d, 3)
    assert sun_upper_bound(3, 3, 2, mu) == mu   # gap term vanishes at full rank


def test_sun_upper_bound_monotone_in_subrank():
    for p in (3, 5):
        for g in (2, 3, 4):
            bounds = [sun_upper_bound(s, p, g, Fraction(1, p)) for s in range(1, p + 1)]
            assert all(a < b for a, b in zip(bounds, bounds[1:]))


def test_sun_upper_bound_rejects_bad_subrank():
    with pytest.raises(ValueError):
        sun_upper_bound(0, 3, 2, Fraction(1, 3))
    with pytest.raises(ValueError):
        sun_upper_bound(4, 3, 2, Fraction(1, 3))


@pytest.mark.parametrize("d", range(-10, 11))
def test_certificates_hold_in_the_main_regime(d):
    for report in (stability_certificate(3, 2, 3, d, d - 1),
                   embedding_certificate(3, 2, 3, d, d - 1)):
        assert report.passed
        assert [b.bound for b in report.bounds] == [Fraction(d - 1, 3), Fraction(d, 3)]
        assert all(b.threshold == Fraction(d, 3) for b in report.bounds)


def test_stability_certificate_at_t_minus_two():
    report = stability_certificate(3, 2, 3, 0, -2)
    assert report.passed
    assert [b.bound for b in report.bounds] == [Fraction(-2, 3), Fraction(-1, 3)]


def test_certificates_reject_bad_regimes():
    with pytest.raises(ValueError):
        stability_certificate(3, 1, 3, 0, -1)
    with pytest.raises(ValueError):
        embedding_certificate(3, 2, 2, 0, -1)   # rank differs from characteristic
    with pytest.raises(ValueError):
        stability_certificate(3, 2, 3, 5, 0)    # push-forward too small to contain E


@pytest.mark.parametrize("certificate", [stability_certificate, embedding_certificate])
@pytest.mark.parametrize("args, message", [
    # 3.0 passes trial division, and a float reached Fraction as a TypeError
    ((3.0, 2, 3.0, 1, 0), "characteristic must be prime, got 3.0"),
    ((True, 2, 3, 0, -1), "characteristic must be prime, got True"),
    ((3, 2.0, 3, 0, -1), "genus must be an integer, got 2.0"),
    ((3, 2, True, 0, -1), "rank must be an integer, got True"),
    ((3, 2, 3, "0", -1), "degree must be an integer, got '0'"),
    ((3, 2, 3, 0, True), "auxiliary line-bundle degree must be an integer, got True"),
    ((3, 2, 3, 0, -1.0), "auxiliary line-bundle degree must be an integer, got -1.0"),
])
def test_certificates_refuse_arguments_that_are_not_ints(monkeypatch, certificate, args,
                                                         message):
    # the refusal comes before p's ceiling and its trial division, with
    # CurveParams' messages
    def unreached(p):
        raise AssertionError("p tested before the argument types")

    monkeypatch.setattr(slopecalc, "_check_p_ceiling", unreached)
    monkeypatch.setattr(slopecalc, "_is_prime", unreached)
    with pytest.raises(ValueError) as err:
        certificate(*args)
    assert str(err.value) == message


def test_rank_one_is_vacuously_certified():
    report = embedding_certificate(3, 2, 1, 0, -1)
    assert report.passed
    assert report.bounds == ()


def test_certificate_can_fail():
    # a generous auxiliary degree breaks the inequalities and must report FAIL
    report = embedding_certificate(3, 2, 3, 0, 4)
    assert not report.passed
    assert any(not b.ok for b in report.bounds)


def test_certificate_json_shape(capsys):
    main(["certify", "--d", "0", "--t", "-1", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)["stability"]
    assert payload["passed"] is True
    row = payload["witness"][0]
    assert set(row) == {"subrank", "bound", "threshold", "verdict"}
    assert row["bound"] == {"num": -1, "den": 3}
    assert row["verdict"] == "pass"


@pytest.mark.parametrize("d", [-2, 0, 7])
def test_canonical_filtration_degrees_main_regime(d):
    assert canonical_filtration_degrees(3, 2, d - 1) == [d + 3, d + 1, d - 1]


def test_canonical_filtration_degrees_instances():
    assert canonical_filtration_degrees(2, 2, 0) == [2, 0]
    assert canonical_filtration_degrees(5, 1, 3) == [3, 3, 3, 3, 3]


def test_canonical_filtration_degree_sum_identity():
    for p in PRIMES:
        for g in range(1, 6):
            for t in range(-5, 6):
                degrees = canonical_filtration_degrees(p, g, t)
                assert sum(degrees) == p * t + p * (p - 1) * (g - 1)


def test_canonical_degrees_match_pullback_of_pushforward():
    for p in PRIMES:
        for g in range(1, 6):
            for t in range(-5, 6):
                total = p * pushforward_degree(BundleData(1, t), p, g)
                assert sum(canonical_filtration_degrees(p, g, t)) == total


def test_degree_from_colength():
    assert [degree_from_colength(0, c) for c in (1, 2, 3)] == [2, 1, 0]
    assert degree_from_colength(5, 2) == 6
    with pytest.raises(ValueError):
        degree_from_colength(0, 4)


def test_degree_colength_polygon_equivalences_on_the_plane(f3, model3):
    # colength 1 <-> degree d+2 <-> Psi4, and so on, on every plane point
    expected = {1: PSI4, 2: PSI3, 3: PSI2}
    for d in (-1, 0, 2):
        degree_of = {PSI4: d + 2, PSI3: d + 1, PSI2: d}
        for point in projective_plane(f3):
            V = SubmoduleV(model3, point)
            c = intersection_colength(V)
            label = classify_stratum(V)
            assert label == expected[c]
            assert degree_from_colength(d, c) == degree_of[label]
