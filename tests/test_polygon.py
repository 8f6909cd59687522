import inspect
import math
import re
import sys
import types
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from pathlib import Path

import pytest

from frobstrat import cli, polygon
from frobstrat.polygon import (
    EQUAL,
    GREATER_OR_EQUAL,
    INCOMPARABLE,
    LESS_OR_EQUAL,
    OTHER,
    PSI1,
    PSI2,
    PSI3,
    PSI4,
    PSI_LABELS,
    SEMISTABLE,
    CurveParams,
    bruteforce_destabilized_polygons,
    dominates,
    enumerate_destabilized_polygons,
    LatticePolygon,
    name_polygon,
    polygon_of_filtration,
)
from frobstrat.strata import dualize_polygon
from oracles import count_destabilized_polygons, max_slope_gap, psi_polygon, slopes

REGIME = CurveParams(3, 2, 3, 0)


def test_make_polygon_accepts_convex_chains():
    P = LatticePolygon([(0, 0), (1, 2), (2, 2), (3, 0)])
    assert slopes(P) == [2, 0, -2]
    assert P == psi_polygon(4, 0)
    assert LatticePolygon([(0, 0), (3, 0)]).segment_count == 1


def test_make_polygon_rejects_bad_input():
    with pytest.raises(ValueError, match="got 0 then 1"):
        LatticePolygon([(0, 0), (1, 0), (2, 1)])       # slopes 0 then 1 increase
    with pytest.raises(ValueError, match="got 1/2 then 1/2"):
        LatticePolygon([(0, 0), (2, 1), (4, 2)])       # collinear segments
    with pytest.raises(ValueError):
        LatticePolygon([(1, 0), (2, 1)])               # does not start at origin
    with pytest.raises(ValueError):
        LatticePolygon([(0, 0), (1, 1), (1, 0)])       # ranks not increasing
    with pytest.raises(ValueError):
        LatticePolygon([(0, 0), (1, Fraction(1, 2))])  # non-integral vertex
    with pytest.raises(ValueError):
        LatticePolygon([(0, 0)])


@pytest.mark.parametrize("verts, message", [
    ([(0, 0), (1, 0), (2, 1), (2, 5)], "vertex ranks must strictly increase"),
    ([(0, 0), (1, 1), (1, 0), (2, 0.5)], "vertices must be integral lattice points, got (2, 0.5)"),
    ([(0, 0), (2, 1), (1, 3), (3, 3)], "vertex ranks must strictly increase"),
    ([(1, 0), (2, 0), (3, 1)], "polygon must start at (0, 0), got (1, 0)"),
    ([(1, 0), (1, 1)], "polygon must start at (0, 0), got (1, 0)"),
    ([(0.0, 0), (1, 0)], "vertices must be integral lattice points, got (0.0, 0)"),
    ([(0.5, 0)], "vertices must be integral lattice points, got (0.5, 0)"),
    ([(1, 0)], "polygon needs at least two vertices"),
    ([], "polygon needs at least two vertices"),
    ([(0, 0), (1, 1, 1)], "vertices must be integral lattice points, got (1, 1, 1)"),
    ([(0, 0), (1, 0), (2, 1), (3, 3)], "segment slopes must strictly decrease, got 0 then 1"),
    ([(0, 0), (2, 3), (3, 5), (4, 5), (5, 6)],
     "segment slopes must strictly decrease, got 3/2 then 2"),
])
def test_validation_reports_one_fault_of_several_in_a_fixed_order(verts, message):
    """A non-integral vertex anywhere comes first, then the vertex count, the
    start, a non-positive width anywhere, and last the first slope that fails
    to fall."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        LatticePolygon(verts)


def test_validation_accepts_int_subclasses_and_lists():
    class Rank(int):
        pass

    P = LatticePolygon([[Rank(0), 0], [1, Rank(2)], [Rank(2), 1]])
    assert P.vertices == ((0, 0), (1, 2), (2, 1))
    assert all(type(v) is tuple for v in P.vertices)
    assert slopes(P) == [2, -1]


@pytest.mark.parametrize("verts", [
    [(False, 0), (1, 2), (2, 1)],
    [(0, 0), (True, 2), (2, 1)],
    [(0, 0), (1, 2), (2, True)],
])
def test_validation_rejects_bool_coordinates(verts):
    """A bool is an int subclass, but the JSON writers would write it as false
    or true where a lattice point needs an integer."""
    bad = next(v for v in verts if any(type(c) is bool for c in v))
    with pytest.raises(ValueError,
                       match=f"^{re.escape(f'vertices must be integral lattice points, got {bad!r}')}$"):
        LatticePolygon(verts)


@pytest.mark.parametrize("d", [-3, 0, 5])
def test_slopes_of_templates(d):
    assert slopes(psi_polygon(3, d)) == [d + 1, d, d - 1]
    assert slopes(psi_polygon(1, d)) == [d + 1, Fraction(2 * d - 1, 2)]
    assert slopes(LatticePolygon([(0, 0), (3, 3 * d)])) == [d]


def test_max_slope_gap_examples():
    assert max_slope_gap(psi_polygon(4, 0)) == 2
    assert max_slope_gap(psi_polygon(3, 0)) == 1
    assert max_slope_gap(psi_polygon(1, 0)) == Fraction(3, 2)
    with pytest.raises(ValueError):
        max_slope_gap(LatticePolygon([(0, 0), (3, 0)]))


def test_dominates_examples():
    assert dominates(psi_polygon(4, 0), psi_polygon(3, 0)) == GREATER_OR_EQUAL
    assert dominates(psi_polygon(1, 0), psi_polygon(2, 0)) == INCOMPARABLE
    assert dominates(psi_polygon(2, 0), psi_polygon(4, 0)) == LESS_OR_EQUAL
    P = psi_polygon(1, 2)
    assert dominates(P, P) == EQUAL


def test_dominates_requires_shared_endpoints():
    with pytest.raises(ValueError):
        dominates(psi_polygon(1, 0), psi_polygon(1, 1))


def test_enumerate_d0_exact_vertex_lists():
    got = [P.vertices for P in enumerate_destabilized_polygons(REGIME)]
    assert got == sorted([
        ((0, 0), (1, 1), (3, 0)),
        ((0, 0), (2, 1), (3, 0)),
        ((0, 0), (1, 1), (2, 1), (3, 0)),
        ((0, 0), (1, 2), (2, 2), (3, 0)),
    ])


@pytest.mark.parametrize("d", range(-5, 6))
def test_enumerate_reproduces_the_four_templates(d):
    params = CurveParams(3, 2, 3, d)
    got = enumerate_destabilized_polygons(params)
    expected = sorted((psi_polygon(i, d) for i in (1, 2, 3, 4)),
                      key=lambda P: P.vertices)
    assert got == expected
    assert got == bruteforce_destabilized_polygons(params)


def test_enumerate_rank2_characteristic2():
    got = enumerate_destabilized_polygons(CurveParams(2, 2, 2, 0))
    assert [P.vertices for P in got] == [((0, 0), (1, 1), (2, 0))]


def test_enumerate_requires_genus_two():
    with pytest.raises(ValueError):
        enumerate_destabilized_polygons(CurveParams(3, 1, 3, 0))


def test_a_search_deeper_than_the_recursion_limit_is_refused():
    """The search recurses once per segment, so a rank past the recursion limit
    is refused by the search itself, as a ValueError naming the rank."""
    with pytest.raises(ValueError) as refused:
        enumerate_destabilized_polygons(CurveParams(3, 2, 4 * 10**29, 10007))
    assert str(refused.value) == ("r = 400000000000000000000000000000 needs a polygon "
                                  "search deeper than Python's recursion limit")
    assert refused.value.__cause__ is None and refused.value.__suppress_context__


def test_curve_params_validation():
    with pytest.raises(ValueError):
        CurveParams(4, 2, 3, 0)
    with pytest.raises(ValueError):
        CurveParams(3, 0, 3, 0)
    with pytest.raises(ValueError):
        CurveParams(3, 2, 0, 0)
    for p in (1, 0, -3):  # primality fails below 2 without a trial division
        with pytest.raises(ValueError, match=f"^characteristic must be prime, got {p}$"):
            CurveParams(p, 2, 3, 0)


def test_enumeration_agrees_with_bruteforce_everywhere():
    for p in (2, 3, 5):
        for g in (2, 3, 4):
            for r in range(1, 5):
                for d in range(-3, 4):
                    params = CurveParams(p, g, r, d)
                    assert (enumerate_destabilized_polygons(params)
                            == bruteforce_destabilized_polygons(params)), (p, g, r, d)


def _literal_box_scan(params):
    """The box scan by its definition, with no pruning: every nonempty subset
    of interior abscissae times every height vector in the window box, each
    vertex list judged on its Fraction slopes and then by LatticePolygon."""
    p, g, r, d = params.p, params.g, params.r, params.d
    gap = 2 * g - 2
    lo = Fraction(p * d, r) - (r - 1) * gap
    hi = Fraction(p * d, r) + (r - 1) * gap

    @lru_cache(maxsize=None)
    def slope(dy, w):  # None outside the window
        s = Fraction(dy, w)
        return s if lo <= s <= hi else None

    found = []
    for mask in product((False, True), repeat=r - 1):
        xs = [x for x, keep in zip(range(1, r), mask) if keep]
        if not xs:
            continue  # a single segment is not destabilized
        box = [range(math.ceil(lo * x), math.floor(hi * x) + 1) for x in xs]
        for ys in product(*box):
            verts = [(0, 0), *zip(xs, ys), (r, p * d)]
            ss = [slope(y1 - y0, x1 - x0)
                  for (x0, y0), (x1, y1) in zip(verts, verts[1:])]
            if any(s is None for s in ss):
                continue
            if all(0 < a - b <= gap for a, b in zip(ss, ss[1:])):
                found.append(LatticePolygon(verts))
    return sorted(found, key=lambda P: P.vertices)


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("g, r", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3)])
def test_bruteforce_equals_the_literal_box_scan(p, g, r):
    """Pruning failing prefixes loses no polygon of the full box."""
    for d in range(-3, 4):
        params = CurveParams(p, g, r, d)
        assert bruteforce_destabilized_polygons(params) == _literal_box_scan(params), d


@pytest.mark.parametrize("p, d", [*product((2, 3, 5, 7), range(-3, 4)), (3, 4)])
def test_enumeration_agrees_with_bruteforce_at_rank_5(p, d):
    params = CurveParams(p, 2, 5, d)
    polys = enumerate_destabilized_polygons(params)
    assert polys
    assert polys == bruteforce_destabilized_polygons(params)
    # _literal_box_scan is out of reach here, so judge each list in full on its
    # Fraction slopes: all within p*d/r +- (r-1)(2g-2), each gap in (0, 2g-2]
    gap = 2 * params.g - 2
    mid, band = Fraction(p * d, params.r), (params.r - 1) * gap
    for P in polys:
        ss = slopes(P)
        assert len(ss) >= 2, P.vertices
        assert all(abs(s - mid) <= band for s in ss), P.vertices
        assert all(0 < a - b <= gap for a, b in zip(ss, ss[1:])), P.vertices


def _nested_code(func, name):
    """The code object of the function ``name`` defined inside ``func``."""
    return next(c for c in func.__code__.co_consts
                if getattr(c, "co_name", None) == name)


def _scan_must_not_start(vertices):
    """Stands in for LatticePolygon: the box scan's walk may not build one,
    every other caller gets the polygon."""
    if sys._getframe(1).f_code is _nested_code(bruteforce_destabilized_polygons, "walk"):
        raise AssertionError("brute-force scan started")
    return LatticePolygon(vertices)


def test_bruteforce_ceiling_refuses_before_scanning(monkeypatch):
    monkeypatch.setattr(polygon, "LatticePolygon", _scan_must_not_start)
    with pytest.raises(ValueError, match="445588163 candidates"):
        bruteforce_destabilized_polygons(CurveParams(3, 2, 6, 1))
    with pytest.raises(ValueError, match="26840384 candidates"):
        bruteforce_destabilized_polygons(CurveParams(3, 3, 5, 1))
    # the largest box a cross-check at r = 5, g = 2 scans (2,019,599) stays under it
    with pytest.raises(AssertionError, match="scan started"):
        bruteforce_destabilized_polygons(CurveParams(5, 2, 5, 0))


def _unpruned_search(params):
    """The directed search without the reachability cuts: each step admits
    every rise within the slope window, the strict decrease and the gap, and
    a chain that cannot reach (r, p*d) is only dropped at its last step."""
    p, g, r, d = params.p, params.g, params.r, params.d
    end_y = p * d
    gap = 2 * g - 2
    lo = end_y - (r - 1) * gap * r
    hi = end_y + (r - 1) * gap * r
    found = []

    def extend(chain, pdy, pw):
        x0, y0 = chain[-1]
        for w in range(1, r - x0 + 1):
            low, high = -(-lo * w // r), hi * w // r
            if pw:
                high = min(high, (pdy * w - 1) // pw)
                low = max(low, -((gap * pw - pdy) * w // pw))
            if x0 + w < r:
                for dy in range(low, high + 1):
                    extend(chain + ((x0 + w, y0 + dy),), dy, w)
            elif pw and low <= end_y - y0 <= high:
                found.append(LatticePolygon(chain + ((r, end_y),)))

    extend(((0, 0),), 0, 0)
    return sorted(found, key=lambda P: P.vertices)


@pytest.mark.parametrize("p, g, r, d", [
    (3, 2, 6, 0), (3, 2, 6, 1), (3, 2, 7, 0), (3, 2, 7, 1), (3, 2, 8, 1), (5, 3, 6, 1),
    (7, 4, 6, 1), (7, 2, 7, 3)])
def test_reachability_cuts_lose_no_polygon(p, g, r, d):
    """Above the box-scan ceiling: the pruned search equals the unpruned one."""
    params = CurveParams(p, g, r, d)
    polys = enumerate_destabilized_polygons(params)
    assert polys
    assert polys == _unpruned_search(params)


def _nested_calls(func, name, params, on_call=None):
    """``func(params)`` and the number of calls of its nested function ``name``;
    ``on_call``, if given, sees the frame of each such call as it starts."""
    step = _nested_code(func, name)
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code is step:
            calls += 1
            if on_call:
                on_call(frame)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        polys = func(params)
    finally:
        sys.setprofile(previous)
    return polys, calls


# the search's recursive steps per case; a looser bound costs only work, so
# only the count shows it
SEARCH_NODES = {CurveParams(3, 2, 8, 1): 2345, CurveParams(5, 3, 6, 1): 1626,
                CurveParams(7, 4, 6, 1): 6610}


@pytest.mark.parametrize("params", [
    CurveParams(3, 2, 8, 1), CurveParams(5, 3, 6, 1), CurveParams(7, 4, 6, 1)])
def test_search_work_follows_the_polygons_emitted(params):
    """The reachability cut drops no chain that can finish, but with two or
    more units of width left it can keep one that cannot.  Still, on these
    cases the search visits at most two nodes per polygon it emits (the
    unpruned search visits 42-70), and exactly the pinned number.  A node
    emits at most one polygon, which bounds the count from below."""
    polys, nodes = _nested_calls(enumerate_destabilized_polygons, "extend", params)
    assert len(polys) > 1000
    assert len(polys) <= nodes <= 2 * len(polys), (nodes, len(polys))
    assert nodes == SEARCH_NODES[params]


def _lines_run(func, name, text, params):
    """``func(params)`` and the number of times the line holding ``text`` runs in
    the frames of ``func``'s nested function ``name``, found by its text so that
    an edit above it does not move the count onto another line."""
    code = _nested_code(func, name)
    source, first = inspect.getsourcelines(code)
    line = first + next(k for k, row in enumerate(source) if text in row)
    runs = 0

    def local(frame, event, arg):
        nonlocal runs
        if event == "line" and frame.f_lineno == line:
            runs += 1
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code is code else None)
    try:
        result = func(params)
    finally:
        sys.settrace(previous)
    return result, runs


# the box scan's work per case: SCAN_CHECKS counts every height of every later
# abscissa (the candidates a scan judging heights[x] would pay), SCAN_RISES the
# rise tests the walk runs and its closing judgments, and SCAN_WALKS its calls;
# a walk that also recursed into failing prefixes, or tried fewer rises than
# the window holds, makes the same list, so only the counts show it
SCAN_CHECKS = {CurveParams(3, 2, 5, 1): 24315, CurveParams(5, 2, 5, 0): 25967}
SCAN_RISES = {CurveParams(3, 2, 5, 1): 9179, CurveParams(5, 2, 5, 0): 10063}
SCAN_WALKS = {CurveParams(3, 2, 5, 1): 1068, CurveParams(5, 2, 5, 0): 1124}


@pytest.mark.parametrize("params", list(SCAN_CHECKS))
def test_bruteforce_work_is_pinned(params):
    """The walk extends each valid prefix once, whatever its abscissae, so a
    prefix shared by several subsets of abscissae is checked once.  A walk
    call from abscissa x0 tries the rises of the window at each width
    0 < w < r - x0, then, after a first segment, its closing segment.  A scan
    judging every height of every abscissa x0 < x < r instead would pay the
    SCAN_CHECKS bound; the window p*d/r +- (r-1)(2g-2) sets it.  The rises are
    counted as the walk runs its rise test, one closing judgment added per call
    after a first segment."""
    p, g, r, d = params.p, params.g, params.r, params.d
    band = (r - 1) * (2 * g - 2)
    lo, hi = Fraction(p * d, r) - band, Fraction(p * d, r) + band
    sizes = [math.floor(hi * x) - math.ceil(lo * x) + 1 for x in range(r)]
    checks = closings = 0

    def count(frame):
        nonlocal checks, closings
        x0 = frame.f_locals["verts"][-1][0]
        closing = frame.f_locals["pw"] != 0
        checks += sum(sizes[x0 + 1:r]) + closing
        closings += closing

    polys, walks = _nested_calls(bruteforce_destabilized_polygons, "walk", params, count)
    traced, rise_tests = _lines_run(bruteforce_destabilized_polygons, "walk",
                                    "0 < pdy_w - dy * pw <= gap_w", params)
    assert polys == traced == enumerate_destabilized_polygons(params)
    assert checks == SCAN_CHECKS[params]
    assert rise_tests + closings == SCAN_RISES[params], (rise_tests, closings)
    assert walks == SCAN_WALKS[params]


@pytest.mark.parametrize("d", [0, 1])
@pytest.mark.parametrize("r", [5, 6, 7, 8])
@pytest.mark.parametrize("p, g", [(3, 2), (5, 2)])
def test_enumeration_symmetries_above_the_bruteforce_grid(p, g, r, d):
    """Where the box scan is out of reach: raising the degree by r shears every
    polygon by y -> y + p*x (an order-preserving map), and negating it dualizes."""
    polys = enumerate_destabilized_polygons(CurveParams(p, g, r, d))
    assert polys
    sheared = [LatticePolygon([(x, y + p * x) for x, y in P.vertices]) for P in polys]
    assert enumerate_destabilized_polygons(CurveParams(p, g, r, d + r)) == sheared
    duals = sorted((dualize_polygon(P) for P in polys), key=lambda P: P.vertices)
    assert enumerate_destabilized_polygons(CurveParams(p, g, r, -d)) == duals


@pytest.mark.parametrize("d", range(-3, 4))
@pytest.mark.parametrize("p, g, r", [(3, 2, 3), (3, 2, 5), (5, 3, 5), (2, 2, 4), (3, 3, 6),
                                     (7, 2, 7), (5, 2, 4)])
def test_enumeration_shears_by_the_finer_step(p, g, r, d):
    """Raising the degree by r/gcd(p, r) shears every polygon by
    y -> y + (p/gcd(p, r))*x, in the same order: the step regime_polygons takes
    from d = 0, where p = r makes it 1."""
    k = math.gcd(p, r)
    polys = enumerate_destabilized_polygons(CurveParams(p, g, r, d))
    assert polys
    sheared = [LatticePolygon([(x, y + p // k * x) for x, y in P.vertices]) for P in polys]
    assert enumerate_destabilized_polygons(CurveParams(p, g, r, d + r // k)) == sheared


SEARCH_GRID = [
    *product((2, 3, 5, 7), [2], range(2, 8), (0, 1)),
    *product((3, 5), [3], range(2, 6), (0, 1)),
    (3, 2, 8, 1),
]


@pytest.mark.parametrize("p, g, r, d", SEARCH_GRID)
def test_enumeration_count_matches_the_definition(p, g, r, d):
    """The search lists exactly as many polygons as the definition admits, counted
    by a path that shares no code with it, above the box scan's ceiling too."""
    params = CurveParams(p, g, r, d)
    assert len(enumerate_destabilized_polygons(params)) == count_destabilized_polygons(p, g, r, d)


def test_enumerated_polygons_satisfy_the_invariants():
    for p in (2, 3, 5):
        for g in (2, 3):
            for r in (2, 3, 4):
                for d in (-2, 0, 1):
                    for P in enumerate_destabilized_polygons(CurveParams(p, g, r, d)):
                        assert P.segment_count >= 2
                        assert max_slope_gap(P) <= 2 * g - 2
                        ss = slopes(P)
                        assert all(a > b for a, b in zip(ss, ss[1:]))


@pytest.mark.parametrize("d", [-2, 0, 3])
def test_dominance_is_a_partial_order_on_the_enumeration(d):
    polys = enumerate_destabilized_polygons(CurveParams(3, 2, 3, d))
    for P in polys:
        assert dominates(P, P) == EQUAL
    for P, Q in combinations(polys, 2):
        rel = dominates(P, Q)
        back = dominates(Q, P)
        assert rel != EQUAL  # antisymmetry: distinct vertex lists never tie
        flip = {GREATER_OR_EQUAL: LESS_OR_EQUAL, LESS_OR_EQUAL: GREATER_OR_EQUAL,
                INCOMPARABLE: INCOMPARABLE}
        assert back == flip[rel]
    # transitivity over all ordered triples
    def ge(P, Q):
        return dominates(P, Q) in (GREATER_OR_EQUAL, EQUAL)
    for P in polys:
        for Q in polys:
            for R in polys:
                if ge(P, Q) and ge(Q, R):
                    assert ge(P, R)


@pytest.mark.parametrize("d", [-2, 0, 3])
def test_order_relations_among_the_four(d):
    P = {i: psi_polygon(i, d) for i in range(1, 5)}
    assert dominates(P[4], P[3]) == GREATER_OR_EQUAL
    assert dominates(P[3], P[2]) == GREATER_OR_EQUAL
    assert dominates(P[3], P[1]) == GREATER_OR_EQUAL
    assert dominates(P[1], P[2]) == INCOMPARABLE
    # the fourth template is the unique maximal element
    for i in (1, 2, 3):
        assert dominates(P[4], P[i]) == GREATER_OR_EQUAL


@pytest.mark.parametrize("d", [-1, 0, 4])
def test_polygon_of_filtration_examples(d):
    assert polygon_of_filtration([(1, d + 2), (1, d), (1, d - 2)]) == psi_polygon(4, d)
    assert polygon_of_filtration([(2, 2 * d + 1), (1, d - 1)]) == psi_polygon(2, d)
    assert polygon_of_filtration([(3, 3 * d)]) == LatticePolygon([(0, 0), (3, 3 * d)])


def test_polygon_of_filtration_rejects_non_decreasing_slopes():
    with pytest.raises(ValueError):
        polygon_of_filtration([(1, 0), (1, 0)])
    with pytest.raises(ValueError):
        polygon_of_filtration([(1, 0), (1, 5)])
    with pytest.raises(ValueError):
        polygon_of_filtration([(1, 2), (0, 1)])
    with pytest.raises(ValueError):
        polygon_of_filtration([(2, 3), (-1, 0)])
    with pytest.raises(ValueError, match="at least one graded piece"):
        polygon_of_filtration([])


def test_polygon_of_filtration_roundtrip():
    pieces = [(1, 3), (2, 1), (1, -2)]
    P = polygon_of_filtration(pieces)
    read_back = [(x1 - x0, y1 - y0)
                 for (x0, y0), (x1, y1) in zip(P.vertices, P.vertices[1:])]
    assert read_back == pieces


def test_name_polygon_examples():
    assert name_polygon(LatticePolygon([(0, 0), (2, 1), (3, 0)]), REGIME) == PSI2
    assert name_polygon(LatticePolygon([(0, 0), (3, 0)]), REGIME) == SEMISTABLE
    assert name_polygon(LatticePolygon([(0, 0), (1, 3), (3, 0)]), REGIME) == OTHER
    for i, lab in enumerate((PSI1, PSI2, PSI3, PSI4), start=1):
        assert name_polygon(psi_polygon(i, -4), CurveParams(3, 2, 3, -4)) == lab


def test_name_polygon_regime_errors():
    with pytest.raises(ValueError, match="unclassified regime"):
        name_polygon(LatticePolygon([(0, 0), (2, 0)]), CurveParams(2, 2, 2, 0))
    with pytest.raises(ValueError):
        name_polygon(psi_polygon(1, 1), REGIME)  # endpoint (3, 3) vs expected (3, 0)


def test_name_polygon_matches_the_template_polygons():
    """name_polygon's lookup of the sheared-back vertices gives the label that
    equality with psi_polygon gives, on every enumerated polygon and the
    semistable one; regime_polygons' shear of the d = 0 set is the templates in
    enumerate's order, at d = -40..40 and at degrees far beyond them."""
    for d in (*range(-40, 41), -10**30, 10**30):
        params = CurveParams(3, 2, 3, d)
        listed = enumerate_destabilized_polygons(params)
        for P in listed + [LatticePolygon([(0, 0), (3, 3 * d)])]:
            want = next((lab for i, lab in enumerate(PSI_LABELS, start=1)
                         if P == psi_polygon(i, d)),
                        SEMISTABLE if P.segment_count == 1 else OTHER)
            assert name_polygon(P, params) == want, (d, P)
        named = polygon.regime_polygons(d)
        assert list(named.values()) == listed
        assert named == {lab: psi_polygon(i, d) for i, lab in enumerate(PSI_LABELS, start=1)}


@pytest.mark.parametrize("p, g, r, d", SEARCH_GRID)
def test_every_searched_polygon_passes_the_class_validation(p, g, r, d):
    """The search builds its polygons without the constructor's walk; each is
    the polygon the validating constructor makes of its vertices."""
    polys = enumerate_destabilized_polygons(CurveParams(p, g, r, d))
    assert all(type(P) is LatticePolygon for P in polys)
    assert polys == [LatticePolygon(P.vertices) for P in polys]


def _polygon_copy(old, new):
    """polygon.py loaded as a module of its own, with its one ``old`` replaced by ``new``."""
    source = Path(polygon.__file__).read_text(encoding="utf-8")
    assert source.count(old) == 1, old
    module = types.ModuleType("frobstrat._polygon_copy")
    module.__package__ = "frobstrat"
    exec(compile(source.replace(old, new), polygon.__file__, "exec"), module.__dict__)
    return module


# a bound loosened in the search, and the check that must catch the step it admits
SEARCH_FAULTS = {
    "fall bound admits an equal slope": (
        "(pdy * w - 1) // pw", "(pdy * w) // pw",
        "search step from (2, 1) to (3, 1) does not fall below slope 0/1"),
    "reachability cut admits a rise not above the mean": (
        "low = left * w // span + 1", "low = left * w // span",
        "closing step from (1, 0) to (4, 0) does not fall below slope 0/1"),
}


@pytest.mark.parametrize("fault", list(SEARCH_FAULTS))
def test_a_loosened_search_bound_is_a_broken_invariant(capsys, monkeypatch, fault):
    """The step checks stand apart from the bounds: a copy of the search with
    one bound loosened raises RuntimeError at the first step it wrongly admits,
    and main reports it as a broken invariant, exit 1, not as bad input."""
    old, new, message = SEARCH_FAULTS[fault]
    search = _polygon_copy(old, new).enumerate_destabilized_polygons
    with pytest.raises(RuntimeError, match=f"^{re.escape(message)}$"):
        search(CurveParams(3, 2, 4, 0))
    monkeypatch.setattr(cli, "enumerate_destabilized_polygons", search)
    code = cli.main(["enumerate", "--p", "3", "--g", "2", "--r", "4", "--d", "0"])
    assert (code, capsys.readouterr()) == (1, ("", f"error: {message}\n"))
