import operator

import pytest

from frobstrat import gfield
from frobstrat.gfield import (
    FieldSpec,
    ProjectivePoint,
    field_make,
    projective_plane,
)
from oracles import to_coeffs, to_lists

# every field with q <= 9, for the exhaustive axiom sweeps
SMALL_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2)]


def test_prime_field_construction(f3):
    assert (f3.p, f3.m, f3.q) == (3, 1, 3)
    assert f3.modulus is None
    assert len(f3.elements) == 3


def test_gf9_default_modulus_is_lex_smallest(f9):
    # oracle: x^2 + 1 has no root over GF(3) because the squares are {0, 1}
    squares = {(a * a) % 3 for a in range(3)}
    assert (-1) % 3 not in squares
    assert f9.modulus == (1, 0, 1)
    assert f9.q == 9


def test_a_field_is_named_by_p_and_m():
    assert FieldSpec.__match_args__ == ("p", "m")
    with pytest.raises(TypeError):
        field_make(3, 2, [1, 0, 1])


def test_rejects_non_prime_characteristic():
    with pytest.raises(ValueError):
        field_make(4)
    with pytest.raises(ValueError):
        field_make(1)


def test_rejects_bad_degree():
    with pytest.raises(ValueError):
        field_make(3, 0)


def test_inverse_examples(f3, f9):
    two = f3.element(2)
    assert two.inverse() == two                     # 2*2 = 4 = 1
    x = f9.element([0, 1])
    assert x.inverse() == f9.element([0, 2])        # x*2x = 2x^2 = -2 = 1
    assert x * x.inverse() == f9.one
    assert f9.one.inverse() == f9.one


def test_inverse_of_zero_raises(f3):
    with pytest.raises(ZeroDivisionError):
        f3.zero.inverse()


@pytest.mark.parametrize("p,m", SMALL_FIELDS)
def test_field_axioms_exhaustive(p, m):
    spec = field_make(p, m)
    elems = spec.elements
    for a in elems:
        if a:
            assert a * a.inverse() == spec.one
        for b in elems:
            assert a + b == b + a
            assert a * b == b * a
            for c in elems:
                assert (a + b) + c == a + (b + c)
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c


@pytest.mark.parametrize("p,m", SMALL_FIELDS)
def test_frobenius_identity_exhaustive(p, m):
    spec = field_make(p, m)
    for a in spec.elements:
        for b in spec.elements:
            assert (a + b) ** p == a ** p + b ** p


@pytest.mark.parametrize("p,m,expected", [(3, 1, 13), (3, 2, 91), (2, 1, 7)])
def test_projective_plane_count(p, m, expected):
    spec = field_make(p, m)
    pts = projective_plane(spec)
    assert len(pts) == expected == spec.q ** 2 + spec.q + 1


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (3, 2)])
def test_projective_plane_complete_without_duplicates(p, m):
    spec = field_make(p, m)
    pts = projective_plane(spec)
    assert len(set(pts)) == len(pts)
    # oracle: every nonzero coordinate triple normalizes to a listed point
    listed = set(pts)
    for a in spec.elements:
        for b in spec.elements:
            for c in spec.elements:
                if a or b or c:
                    assert ProjectivePoint((a, b, c)) in listed


def test_projective_normalization_is_canonical(f3):
    scaled = ProjectivePoint.of(f3, (2, 0, 1))
    assert scaled == ProjectivePoint.of(f3, (1, 0, 2))
    assert to_lists(scaled) == [[1], [0], [2]]


def test_projective_normalization_with_a_later_non_one_pivot(f9):
    x, y = f9.element([0, 1]), f9.element([1, 1])
    point = ProjectivePoint((f9.zero, x, y))
    assert point.coords == (f9.zero, f9.one, y / x)
    assert point == ProjectivePoint((f9.zero, f9.one, y / x))


def test_projective_point_rejects_zero(f3):
    with pytest.raises(ValueError):
        ProjectivePoint.of(f3, (0, 0, 0))


def test_mixed_field_arithmetic_is_an_error(f3, f9):
    with pytest.raises(ValueError):
        f3.element(1) + f9.element(1)


def test_equal_specs_interoperate(f9):
    twin = field_make(3, 2)
    assert twin == f9 and twin is not f9
    assert hash(twin) == hash(f9)
    assert f9 == f9 and f9 != field_make(3)
    assert twin.element([0, 1]) + f9.element([0, 2]) == f9.zero


def test_serialization_roundtrip(f9):
    e = f9.element([2, 1])
    assert to_coeffs(e) == [2, 1]
    assert f9.element(to_coeffs(e)) == e
    pt = ProjectivePoint.of(f9, ([0, 1], 2, 1))
    assert ProjectivePoint.of(f9, to_lists(pt)) == pt


def test_integer_operands_lift(f3, f9):
    assert f3.element(1) + 2 == f3.zero
    assert 2 * f3.element(2) == f3.one
    assert f3.element(1) - 2 == f3.element(2)
    x, inv = f9.element([0, 1]), f9.element([0, 2])  # x * 2x = 2x^2 = -2 = 1
    assert 2 - x == f9.element([2, 2])
    assert 1 / x == inv
    assert x ** -1 == inv


def test_other_operands_are_refused(f9):
    x = f9.element([0, 1])
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        for a, b in ((x, "1"), ("1", x)):
            with pytest.raises(TypeError):
                op(a, b)
    with pytest.raises(TypeError):
        x ** 0.5


def test_spec_repr_mentions_size(f3, f9):
    assert "GF(3)" in repr(f3)
    assert "3^2" in repr(f9)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_point_repr_reads_element_names_built_on_first_use(m):
    spec = field_make(3, m)
    assert not hasattr(spec, "_names")  # field_make pays nothing for them
    # the reference: each coordinate's text built afresh
    for point in projective_plane(spec):
        want = " : ".join(gfield._poly_str(c.coeffs) for c in point.coords)
        assert repr(point) == f"[{want}]"
    assert spec.names == tuple(gfield._poly_str(e.coeffs) for e in spec.elements)


def _poly_index(poly, p):
    return sum(c * p ** k for k, c in enumerate(poly))


TABLE_FIELDS = SMALL_FIELDS + [(3, 3), (3, 4), (3, 5), (5, 2)]


# the ids keep the "-None" that a since-removed modulus argument gave them
@pytest.mark.parametrize("p,m", TABLE_FIELDS, ids=[f"{p}-{m}-None" for p, m in TABLE_FIELDS])
def test_tables_match_the_polynomial_definition(p, m):
    # oracle: one polynomial product and reduction per pair, digit-wise sums
    spec = field_make(p, m)
    mod = spec.modulus or (0, 1)
    coeffs = [e.coeffs for e in spec.elements]
    assert all(e.index == _poly_index(c, p) for e, c in zip(spec.elements, coeffs))
    for a, ca in enumerate(coeffs):
        assert spec._neg[a] == _poly_index([-x % p for x in ca], p)
        if a:
            assert spec._mul[a][spec._inv[a]] == 1
        for b in range(a, spec.q):
            cb = coeffs[b]
            s = _poly_index([(x + y) % p for x, y in zip(ca, cb)], p)
            t = _poly_index(gfield._poly_rem(gfield._poly_mul(ca, cb, p), mod, p), p)
            assert spec._add[a][b] == spec._add[b][a] == s
            assert spec._mul[a][b] == spec._mul[b][a] == t
    assert spec._inv[0] is None


@pytest.mark.parametrize("m", range(1, 6))
def test_tables_take_at_most_four_products_per_unit(monkeypatch, m):
    # one product per power of each element tried as the generator; the
    # per-pair build took q(q + 1)/2
    calls = []
    poly_mul = gfield._poly_mul

    def spy(a, b, p):
        calls.append(None)
        return poly_mul(a, b, p)

    monkeypatch.setattr(gfield, "_poly_mul", spy)
    field_make(3, m)
    assert len(calls) <= 4 * (3 ** m - 1)
