import operator

import pytest

from frobstrat import gfield
from frobstrat.gfield import (
    FieldSpec,
    ProjectivePoint,
    field_make,
    projective_plane,
)
from oracles import power, to_coeffs, to_lists

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


def test_field_make_shares_one_field_and_keeps_every_refusal():
    f9 = field_make(3, 2)
    assert field_make(3, 2) is f9
    twin = FieldSpec(3, 2)
    assert twin is not f9 and twin == f9
    # 3.0 == 3 and 2.0 == 2 hash alike: the cache must not answer them with GF(9)
    for p, m in ((3.0, 2), (3, 2.0)):
        with pytest.raises(ValueError):
            field_make(p, m)


def test_field_make_answers_every_call_shape_with_one_field():
    f3, f9 = field_make(3), field_make(3, 2)
    assert field_make(3, 1) is f3 and field_make(p=3, m=1) is f3 and field_make(3, m=1) is f3
    assert field_make(p=3) is f3 and field_make(m=2, p=3) is f9


class _NoPower(int):
    """An int whose powers fail the test: p ** m must wait until m is bounded."""

    def __pow__(self, other):
        raise AssertionError(f"{self} ** {other} was computed")


def _fail(*args):
    raise AssertionError("a field above the ceiling reached its primality test or tables")


@pytest.mark.parametrize("p, m", [
    (733, 1), (10007, 1), (10**18 + 3, 1), (3, 7), (3, 8), (2, 10), (5, 5), (28, 2),
    (4, 20), (_NoPower(3), 10**18),
], ids=["733", "10007", "10^18+3", "3^7", "3^8", "2^10", "5^5", "28^2", "4^20", "3^10^18"])
def test_a_field_above_the_ceiling_is_refused_before_any_work(monkeypatch, p, m):
    monkeypatch.setattr(FieldSpec, "_build_tables", _fail)
    monkeypatch.setattr(gfield, "_is_prime", _fail)
    for make in (FieldSpec, field_make):
        with pytest.raises(ValueError, match="is above the ceiling 729: the field would build"):
            make(p, m)


class _Built(Exception):
    pass


def _built(self):
    raise _Built


@pytest.mark.parametrize("p, m", [(3, 6), (2, 9), (5, 4), (727, 1)])
def test_a_field_at_or_below_the_ceiling_is_built(monkeypatch, p, m):
    monkeypatch.setattr(FieldSpec, "_build_tables", _built)
    with pytest.raises(_Built):
        FieldSpec(p, m)


def test_the_types_come_before_the_size_and_the_size_before_primality(monkeypatch):
    monkeypatch.setattr(FieldSpec, "_build_tables", _fail)
    with pytest.raises(ValueError, match="^characteristic must be a prime integer, got 3.0$"):
        FieldSpec(3.0, 10**18)
    with pytest.raises(ValueError, match="^extension degree must be a positive integer, got 8.0$"):
        FieldSpec(10**18 + 3, 8.0)
    with pytest.raises(ValueError, match="^extension degree must be a positive integer, got 0$"):
        field_make(3, 0)
    with pytest.raises(ValueError, match="^characteristic must be a prime integer, got 4$"):
        FieldSpec(4)
    monkeypatch.setattr(gfield, "_is_prime", _fail)
    with pytest.raises(ValueError, match="^q = 4\\^20 is above the ceiling 729"):
        FieldSpec(4, 20)


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
            assert power(a + b, p) == power(a, p) + power(b, p)


@pytest.mark.parametrize("p,m,expected", [(3, 1, 13), (3, 2, 91), (2, 1, 7)])
def test_projective_plane_count(p, m, expected):
    spec = field_make(p, m)
    pts = projective_plane(spec)
    assert len(pts) == expected == spec.q ** 2 + spec.q + 1


@pytest.mark.parametrize("p,m", [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1)])
def test_projective_plane_complete_without_duplicates(p, m):
    spec = field_make(p, m)
    pts = projective_plane(spec)
    assert len(set(pts)) == len(pts)
    # the plane walk's index triples are the points' own, in the documented
    # order; ProjectivePoint rescales a triple whose first nonzero index is not
    # 1, so they also come normalized
    q = spec.q
    order = ([(1, y, z) for y in range(q) for z in range(q)]
             + [(0, 1, z) for z in range(q)] + [(0, 0, 1)])
    assert [tuple(c.index for c in pt.coords) for pt in pts] == \
        list(gfield._plane_indices(q)) == order
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
    assert point.coords == (f9.zero, f9.one, y * x.inverse())
    assert point == ProjectivePoint((f9.zero, f9.one, y * x.inverse()))


def test_projective_point_rejects_zero(f3):
    with pytest.raises(ValueError):
        ProjectivePoint.of(f3, (0, 0, 0))


def test_mixed_field_arithmetic_is_an_error(f3, f9):
    with pytest.raises(ValueError):
        f3.element(1) + f9.element(1)


def test_equal_specs_interoperate(f9):
    twin = FieldSpec(3, 2)
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


def test_other_operands_are_refused(f9):
    x = f9.element([0, 1])
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        for other in ("1", 1, 2):
            for a, b in ((x, other), (other, x)):
                with pytest.raises(TypeError):
                    op(a, b)
    with pytest.raises(TypeError):
        x ** 0.5


def test_elements_subtract_and_divide_through_negation_and_inverse(f9):
    x, y = f9.element([0, 1]), f9.element([1, 1])
    for op, b in ((operator.sub, y), (operator.truediv, y), (operator.pow, y), (operator.pow, 2)):
        with pytest.raises(TypeError):
            op(x, b)
    assert x + -y == f9.element([2, 0])              # x - (1 + x) = -1
    assert (y * x.inverse()) * x == y


def test_spec_repr_mentions_size(f3, f9):
    assert "GF(3)" in repr(f3)
    assert "3^2" in repr(f9)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_point_repr_reads_element_names_built_on_first_use(m):
    spec = FieldSpec(3, m)
    assert not hasattr(spec, "_names")  # building a field pays nothing for them
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
    FieldSpec(3, m)  # a new field: field_make may hand back one built earlier
    assert len(calls) <= 4 * (3 ** m - 1)
