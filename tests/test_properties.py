"""Property tests on polygons drawn from small enumerations (needs hypothesis)."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from frobstrat.polygon import (  # noqa: E402
    EQUAL,
    GREATER_OR_EQUAL,
    INCOMPARABLE,
    LESS_OR_EQUAL,
    CurveParams,
    dominates,
    enumerate_destabilized_polygons,
    make_polygon,
)
from frobstrat.strata import dualize_polygon  # noqa: E402

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
    return make_polygon([(x, y + p * x) for x, y in P.vertices])


@examples
@given(polygons)
def test_make_polygon_round_trips(P):
    assert make_polygon(P.to_pairs()) == P


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
