"""Property tests on polygons drawn from small enumerations, on exact row
reduction over GF(3^m) and on the CLI's JSON writer (needs hypothesis)."""

import json
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from frobstrat.cli import _json_text  # noqa: E402
from frobstrat.gfield import ProjectivePoint, field_make  # noqa: E402
from frobstrat.localmodel import _reduce_against, _rref  # noqa: E402
from frobstrat.polygon import (  # noqa: E402
    EQUAL,
    GREATER_OR_EQUAL,
    INCOMPARABLE,
    LESS_OR_EQUAL,
    CurveParams,
    LatticePolygon,
    dominates,
    enumerate_destabilized_polygons,
)
from frobstrat.strata import dualize_polygon  # noqa: E402
from oracles import stdlib_form, to_pairs  # noqa: E402

# every enumeration with p in {2, 3, 5}, g in {2, 3}, r in 2..4, d in -2..2:
# (p, polygons sharing the endpoint (r, p*d)), empty ones left out
POOLS = [(p, polys)
         for p in (2, 3, 5) for g in (2, 3) for r in (2, 3, 4) for d in range(-2, 3)
         if (polys := enumerate_destabilized_polygons(CurveParams(p, g, r, d)))]

MIRROR = {GREATER_OR_EQUAL: LESS_OR_EQUAL, LESS_OR_EQUAL: GREATER_OR_EQUAL,
          EQUAL: EQUAL, INCOMPARABLE: INCOMPARABLE}

polygons = st.sampled_from(POOLS).flatmap(lambda pool: st.sampled_from(pool[1]))
pairs = st.sampled_from(POOLS).flatmap(
    lambda pool: st.tuples(st.just(pool[0]), st.sampled_from(pool[1]), st.sampled_from(pool[1])))

examples = settings(max_examples=100, deadline=None, derandomize=True, database=None)


def shear(P, p):
    return LatticePolygon([(x, y + p * x) for x, y in P.vertices])


@examples
@given(polygons)
def test_make_polygon_round_trips(P):
    assert LatticePolygon(to_pairs(P)) == P


@examples
@given(polygons)
def test_dualize_is_an_involution(P):
    assert dualize_polygon(dualize_polygon(P)) == P


@examples
@given(pairs)
def test_dominance_mirrors_and_ties_only_on_equal_polygons(pair):
    _, P, Q = pair
    rel = dominates(P, Q)
    assert dominates(Q, P) == MIRROR[rel]
    assert (rel == EQUAL) == (P == Q)


@examples
@given(pairs)
def test_shear_preserves_dominance(pair):
    p, P, Q = pair
    assert dominates(shear(P, p), shear(Q, p)) == dominates(P, Q)


FIELDS = {m: field_make(3, m) for m in (1, 2, 3, 4)}


@st.composite
def index_matrices(draw):
    """(field, rows): up to 6 element-index rows of one length over GF(3^m),
    m = 1..3, each drawn at random, zero, or a combination of earlier rows."""
    field = FIELDS[draw(st.integers(1, 3))]
    n = draw(st.integers(1, 7))
    entries = st.integers(0, field.q - 1)
    add, mul = field._add, field._mul
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(("random", "zero", "dependent")))
        if kind == "zero":
            rows.append([0] * n)
        elif kind == "dependent" and rows:
            row = [0] * n
            for prev in rows:
                c = draw(entries)
                row = [add[a][mul[c][b]] for a, b in zip(row, prev)]
            rows.append(row)
        else:
            rows.append(draw(st.lists(entries, min_size=n, max_size=n)))
    return field, rows


@examples
@given(index_matrices())
def test_rref_is_the_reduced_echelon_form_of_its_rows(case):
    field, rows = case
    before = [list(r) for r in rows]
    out, pivots = _rref(field, rows)
    assert rows == before
    assert len(out) == len(pivots)
    assert pivots == sorted(set(pivots))
    for k, (row, pc) in enumerate(zip(out, pivots)):
        assert not any(row[:pc]) and row[pc] == 1
        assert all(other[pc] == 0 for other in out[:k] + out[k + 1:])
    for row in rows:
        assert not any(_reduce_against(field, out, pivots, row))
    assert _rref(field, out) == (out, pivots)


# strings that need escaping or are not ASCII, beside arbitrary text
strings = st.text() | st.sampled_from(['"', "\\", "\n\t\r", "\x00\x1f", "caf\u00e9",
                                       "\u2028", "\U0001f600", "\ud800"])
# short keys over a few letters, so that dicts often hold keys whose order
# depends on case or on escaping
keys = st.text(alphabet='aAbZ_"\u00e9', max_size=3) | strings
scalars = st.none() | st.booleans() | st.integers() | strings


def convex(segments):
    """The polygon whose segments are the given (rise, width) pairs, one per
    slope, taken in order of falling slope."""
    by_slope = {Fraction(dy, w): (dy, w) for dy, w in segments}
    vertices = [(0, 0)]
    for slope in sorted(by_slope, reverse=True):
        (x, y), (dy, w) = vertices[-1], by_slope[slope]
        vertices.append((x + w, y + dy))
    return LatticePolygon(vertices)


# polygons with plain-int vertices, heights of either sign
drawn_polygons = st.lists(st.tuples(st.integers(), st.integers(1, 4)),
                          min_size=1, max_size=5).map(convex)
# plane points over GF(3^m), m = 1..4
drawn_points = st.sampled_from(list(FIELDS.values())).flatmap(
    lambda field: st.tuples(*[st.sampled_from(field.elements)] * 3)).filter(any).map(
        ProjectivePoint)
payloads = st.recursive(
    scalars | drawn_polygons | drawn_points,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(keys, inner, max_size=4)),
    max_leaves=30)


def as_loaded(x):
    """x as json.loads would give it back: tuples become lists, polygons their
    [rank, degree] pairs and points their coefficient lists."""
    if isinstance(x, (LatticePolygon, ProjectivePoint)):
        return stdlib_form(x)
    if isinstance(x, (list, tuple)):
        return [as_loaded(v) for v in x]
    if isinstance(x, dict):
        return {k: as_loaded(v) for k, v in x.items()}
    return x


@examples
@given(payloads)
def test_json_text_is_the_stdlib_dump_and_round_trips(x):
    text = _json_text(x)
    assert text == json.dumps(x, indent=2, sort_keys=True, default=stdlib_form)
    assert json.loads(text) == as_loaded(x)
