import operator
import random
import sys
from collections import Counter
from itertools import product

import pytest

from frobstrat import localmodel
from frobstrat.cli import _MAX_M, main
from frobstrat.gfield import ProjectivePoint, _plane_indices, field_make, projective_plane
from frobstrat.localmodel import (
    ModelSpec,
    SubmoduleV,
    SubspaceBasis,
    TensorElement,
    _reduce_against,
    _rref,
    _tau_square_multiples,
    claim_results,
    classify_stratum,
    intersection_colength,
    pullback_span,
    stratum_census,
    tau_power,
    tau_square_span,
    times_t_left,
    times_t_right,
)
from frobstrat.polygon import _COLENGTH_LABEL, _FIBER_DIM, PSI2, PSI3, PSI4
from oracles import basis_rows, power, tau_square_residues


def pt(spec_field, *coords):
    return ProjectivePoint.of(spec_field, coords)


def elem(spec, triples):
    out = TensorElement(spec, {})
    for i, j, c in triples:
        out = out + TensorElement.monomial(spec, i, j, c)
    return out


def test_modelspec_validation(f3, f9):
    with pytest.raises(ValueError):
        ModelSpec(f3, 2)  # truncation too shallow
    assert ModelSpec(f9).p == 3  # the field's characteristic
    spec = ModelSpec(f3, 3)
    assert spec.left_bound == 9
    assert spec.dimension == 27


def test_tau_is_the_commutator_of_the_two_embeddings(model3):
    tau = tau_power(model3, 1)
    assert tau == elem(model3, [(1, 0, 1), (0, 1, -1)])
    assert tau_power(model3, 0) == TensorElement.monomial(model3, 0, 0)


def test_tau_square_char3(model3):
    # (t x 1 - 1 x t)^2 = t^2 x 1 - 2 t x t + 1 x t^2, and -2 = 1 mod 3
    assert tau_power(model3, 2) == elem(model3, [(2, 0, 1), (1, 1, 1), (0, 2, 1)])


@pytest.mark.parametrize("p,m", [(2, 1), (3, 1), (5, 1), (3, 2)])
def test_tau_to_the_p_vanishes(p, m):
    spec = ModelSpec(field_make(p, m), 3)
    assert not tau_power(spec, p)
    assert not tau_power(spec, p + 2)
    assert tau_power(spec, p - 1)


def test_displayed_right_multiplications(model3):
    t2 = tau_power(model3, 2)
    # tau^2 t   = t^2 x t   - 2 t x t^2 + t^3 x 1
    assert times_t_right(t2) == elem(model3, [(2, 1, 1), (1, 2, -2), (3, 0, 1)])
    # tau^2 t^2 = t^2 x t^2 - 2 t^4 x 1 + t^3 x t
    assert times_t_right(times_t_right(t2)) == elem(
        model3, [(2, 2, 1), (4, 0, -2), (3, 1, 1)])
    # tau^2 t^3 = t^5 x 1   - 2 t^4 x t + t^3 x t^2
    e3 = times_t_right(times_t_right(times_t_right(t2)))
    assert e3 == elem(model3, [(5, 0, 1), (4, 1, -2), (3, 2, 1)])


def test_left_and_right_multiplication_commute(model3):
    e = tau_power(model3, 2) + TensorElement.monomial(model3, 1, 2, 2)
    assert times_t_left(times_t_right(e)) == times_t_right(times_t_left(e))


def test_truncation_drops_high_left_exponents(model3):
    top = TensorElement.monomial(model3, model3.left_bound - 1, 0)
    assert not times_t_left(top)
    wrap = TensorElement.monomial(model3, model3.left_bound - 1, 2)
    assert not times_t_right(wrap)


def in_W(V, coeffs):
    """Whether f (x) 1 lies in W = V (x)_R S, f = sum_i coeffs[i] t^i."""
    field = V.spec.field
    f = TensorElement(V.spec, {(i, 0): field.element(a) for i, a in enumerate(coeffs)})
    return pullback_span(V).contains(f)


def test_submodule_membership_through_the_functional(f3, model3):
    # f lies in V iff f (x) 1 lies in W: W contains U, W/U = ker(h) (x) k^p,
    # and t^3 S (x) 1 lies in U
    V = SubmoduleV(model3, pt(f3, 1, 0, 0))
    assert in_W(V, [0, 1, 0]) and in_W(V, [0, 0, 1])
    assert not in_W(V, [1, 0, 0])
    V = SubmoduleV(model3, pt(f3, 0, 0, 1))
    assert in_W(V, [1, 0, 0]) and in_W(V, [0, 1, 0])
    assert not in_W(V, [0, 0, 1])
    V = SubmoduleV(model3, pt(f3, 0, 1, 1))
    assert in_W(V, [0, 1, -1])        # t - t^2 is in the kernel of a1 + a2
    assert in_W(V, [1, 0, 0])
    assert not in_W(V, [0, 1, 0])
    # anything supported in degrees >= 3 is always inside
    assert in_W(V, [0, 0, 0, 2, 1])


def _membership_lemma_holds(spec, points):
    """f (x) t^j lies in W iff a f_0 + b f_1 + c f_2 = 0 for the point [a : b : c].
    The functional is computed here with FieldElement arithmetic on the point's
    coordinates.  f runs over the combinations of 1, t, t^2 with coefficients 0,
    1 and u (u = x outside the prime field, u = 2 in it), j over 0 .. p - 1."""
    field = spec.field
    u = field.element([0, 1] if field.m > 1 else 2)
    for point in points:
        W = pullback_span(SubmoduleV(spec, point))
        for coeffs in product((field.zero, field.one, u), repeat=3):
            want = not sum((h * x for h, x in zip(point.coords, coeffs)), field.zero)
            for j in range(spec.p):
                f = TensorElement(spec, {(i, j): x for i, x in enumerate(coeffs)})
                assert W.contains(f) == want, (point, coeffs, j)


@pytest.mark.parametrize("m", [1, 2], ids=["GF3", "GF9"])
@pytest.mark.parametrize("M", [3, 4])
def test_membership_lemma_on_every_plane_point(m, M):
    field = field_make(3, m)
    _membership_lemma_holds(ModelSpec(field, M), projective_plane(field))


def test_membership_lemma_on_sampled_points_of_gf27():
    field = field_make(3, 3)
    rng = random.Random(27)
    points = []
    while len(points) < 40:
        coords = [field.element([rng.randrange(3) for _ in range(3)]) for _ in range(3)]
        if any(coords):
            points.append(ProjectivePoint(coords))
    # the coordinate points too: few sampled points have a last nonzero coordinate
    # other than the third, the case split pullback_span makes
    points += [pt(field, 1, 0, 0), pt(field, 0, 1, 0), pt(field, 0, 0, 1), pt(field, 1, 1, 1)]
    _membership_lemma_holds(ModelSpec(field, 3), points)


def test_submodule_requires_characteristic_three(f3):
    spec2 = ModelSpec(field_make(2), 3)
    with pytest.raises(ValueError):
        SubmoduleV(spec2, pt(field_make(2), 1, 0, 0))
    with pytest.raises(ValueError):
        SubmoduleV(ModelSpec(f3, 3), pt(field_make(3, 2), 1, 0, 0))


def test_contains_monomial_examples(f3, model3):
    # t^j lies in V iff t^j (x) 1 lies in W = pullback_span(V)
    def contains(coords, j):
        W = pullback_span(SubmoduleV(model3, pt(f3, *coords)))
        return W.contains(TensorElement.monomial(model3, j, 0))

    assert contains((1, 0, 0), 1)
    assert not contains((0, 0, 1), 2)
    assert not contains((1, 0, 0), 0)
    # t^3 S lies in every V
    assert all(contains(coords, 3) for coords in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)))


def test_pullback_span_memberships(f3, model3):
    t2 = tau_power(model3, 2)
    W = pullback_span(SubmoduleV(model3, pt(f3, 1, 0, 0)))
    assert W.contains(times_t_right(t2))          # both t and t^2 inside V
    assert not W.contains(t2)
    W = pullback_span(SubmoduleV(model3, pt(f3, 0, 0, 1)))
    assert not W.contains(t2)
    assert not W.contains(times_t_right(times_t_right(t2)))   # t^2 not in V
    e3 = times_t_right(times_t_right(times_t_right(t2)))
    assert W.contains(e3)


def _spanning_rows(V):
    """The spanning set of W written out literally: the hyperplane-kernel
    vectors and t^p, .., t^{2p-1}, each shifted by every multiple of p that
    leaves a nonzero row, tensored with every t^j, j < p."""
    spec = V.spec
    p, lim = spec.p, spec.left_bound
    one = spec.field.one.index
    h = V.hyperplane.coords
    k = next(i for i, c in enumerate(h) if c)
    gens = [{pos: one, k: (-c).index} for pos, c in enumerate(h) if pos != k]
    gens += [{e: one} for e in range(p, 2 * p)]
    rows = []
    for gen in gens:
        for shift in range(0, lim - min(gen), p):
            for j in range(p):
                row = [0] * spec.dimension
                for e, c in gen.items():
                    if e + shift < lim:
                        row[(e + shift) * p + j] = c
                rows.append(row)
    return rows


@pytest.mark.parametrize("m, M", [(1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5), (3, 3)])
def test_pullback_span_is_the_reduced_form_of_its_spanning_rows(m, M):
    """The closed-form basis is the reduced row echelon form of the spanning set."""
    field = field_make(3, m)
    spec = ModelSpec(field, M)
    for point in projective_plane(field):
        V = SubmoduleV(spec, point)
        want, _ = _rref(field, _spanning_rows(V))
        W = pullback_span(V)
        assert W._mat == want, point
        assert W._pivots == [next(k for k, v in enumerate(r) if v) for r in want], point


@pytest.mark.parametrize("m, rows", [
    (1, [[1, 2, 0], [2, 1, 0], [0, 1, 1]]),
    (1, [[0, 1, 2], [1, 2, 0], [1, 0, 1], [2, 2, 2]]),
    (2, [[1, 3, 5, 0], [4, 7, 2, 8], [5, 1, 0, 3], [0, 0, 6, 6]]),
    (2, [[2, 0, 7], [5, 0, 1], [0, 4, 4], [7, 0, 2]]),
])
def test_rank_eliminates_rows_not_in_echelon_form(m, rows):
    """A later row nonzero at the first row's leading column is reduced against it:
    the rank is the reduced form's pivot count, and the rows are left as given."""
    field = field_make(3, m)
    assert rows[1][next(k for k, x in enumerate(rows[0]) if x)]
    before = [list(r) for r in rows]
    assert localmodel._rank(field, rows) == len(_rref(field, rows)[1])
    assert rows == before


def test_each_W_owns_its_rows():
    """Two W of one model share no row, U's unit rows included: writing into one
    leaves the other as pullback_span builds it."""
    field = field_make(3, 2)
    spec = ModelSpec(field, 4)
    V1, V2 = (SubmoduleV(spec, pt(field, *h)) for h in ((1, 0, 0), (0, 1, 1)))
    W1, W2 = pullback_span(V1), pullback_span(V2)
    assert not {id(row) for row in W1._mat} & {id(row) for row in W2._mat}
    before = [row[:] for row in W2._mat]
    W1._mat[-1][0] = 1
    assert W2._mat == before == pullback_span(V2)._mat


def _count_calls(capsys, argv):
    """Calls of _rank, pullback_span, the quotient's colength, the shared
    colength-and-claims step, the full-model oracle, the truncation guard and the
    constructors of ProjectivePoint, SubmoduleV and TensorElement in one CLI run;
    "a in b" counts the calls of a made while b runs."""
    names = {localmodel._rank.__code__: "rank", _rref.__code__: "rref",
             pullback_span.__code__: "span",
             localmodel._classify.__code__: "colength",
             localmodel._colength_and_claims.__code__: "step",
             localmodel._full_model.__code__: "oracle",
             localmodel._truncation_stable.__code__: "guard",
             ProjectivePoint.__init__.__code__: "point",
             SubmoduleV.__init__.__code__: "submodule",
             TensorElement.__init__.__code__: "tensor"}
    calls = Counter()
    running = Counter()

    def profile(frame, event, arg):
        name = names.get(frame.f_code)
        if name is None:
            return
        if event == "return":
            running[name] -= 1
        elif event == "call":
            calls[name] += 1
            for outer, depth in running.items():
                if depth:
                    calls[f"{name} in {outer}"] += 1
            running[name] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        code = main(argv)
    finally:
        sys.setprofile(previous)
    capsys.readouterr()
    assert code == 0
    return calls


def _points(q):
    return q * q + q + 1


# the unit group's orbits on the plane, one per colength, at every q: the walk
# ranks their leaders [1:0:0], [1:0:1] and [1:1:0] and nothing else
ORBITS = 3


def test_localmodel_row_reduces_only_for_colengths(capsys):
    """localmodel classifies one point per unit-group orbit, three per field, from
    its quotient h^T X_k and builds no W; --verify runs the full-model oracle once
    per point, at M, on W's kernel rows as index triples, and checks the tau^2 table
    at M + 1 once per request; no dense W is built at either.  The quotient's
    colength is taken once per orbit, at M.  _rank runs at most once per
    colength, of the quotient or of the oracle.  The walk and the oracle run on
    index triples: neither builds a plane point or a submodule."""
    for m in (2, 3, 4, 5):
        q = str(3 ** m)
        calls = _count_calls(capsys, ["localmodel", "--q", q])
        assert calls["colength"] == ORBITS and calls["span"] == calls["oracle"] == 0, calls
        assert calls["rank"] <= calls["colength"], calls
        assert calls["point"] == calls["submodule"] == 0, calls
        calls = _count_calls(capsys, ["localmodel", "--q", q, "--verify"])
        assert calls["colength"] == ORBITS and calls["span"] == 0, calls
        assert calls["oracle"] == _points(3 ** m), calls
        assert calls["rref in span"] == 0
        assert calls["rank"] <= calls["colength"] + calls["oracle"], calls
        assert calls["point"] == calls["submodule"] == 0, calls


@pytest.mark.parametrize("argv, guarded", [
    (["localmodel", "--q", "9"], False),
    (["strata", "--verify"], False),
    (["localmodel", "--q", "9", "--verify"], True),
], ids=["localmodel", "strata-verify", "localmodel-verify"])
def test_tensor_elements_are_built_only_by_the_truncation_guard(capsys, argv, guarded):
    """The tau^2 table is written in closed form, so neither the walk nor the
    table's first build multiplies TensorElements; only localmodel --verify's
    guard does, at M + 1, to check the table against the products."""
    # the run builds the table afresh
    localmodel._tau_square_blocks.cache_clear()
    localmodel._block_entries.cache_clear()
    calls = _count_calls(capsys, argv)
    assert calls["tensor"] == calls["tensor in guard"], calls
    assert bool(calls["tensor"]) == guarded, calls


# the p = 3 fields keep their ids by m alone
@pytest.mark.parametrize("p, m", [
    *(pytest.param(3, m, id=str(m)) for m in range(1, 6)),
    *(pytest.param(p, m, id=f"{p}^{m}") for p, top in ((2, 4), (5, 3), (7, 2))
      for m in range(1, top + 1)),
])
def test_the_frobenius_table_is_x_cubed(p, m):
    """The Frobenius x -> x^p (x^3 at p = 3), tabled here from FieldElement products,
    fixes exactly the prime field's indices 0 .. p - 1, and its m-th iterate is the
    identity: the field's multiplication table has GF(p^m)'s Galois group."""
    field = field_make(p, m)
    fr = [power(x, p).index for x in field.elements]
    assert [x for x in range(field.q) if fr[x] == x] == list(range(p))
    iterate = list(range(field.q))
    for _ in range(m):
        iterate = [fr[x] for x in iterate]
    assert iterate == list(range(field.q))


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_the_orbit_walk_is_the_per_point_walk(m):
    """Classifying one point per unit-group orbit changes no yielded tuple: with and
    without the oracle, the walk is _classify and the coordinate label taken at
    every point, in _plane_indices's order."""
    field = field_make(3, m)
    want = [(h, *localmodel._classify(field, h), localmodel._coordinate_label(h))
            for h in _plane_indices(field.q)]
    for verify in (False, True):
        assert list(localmodel._plane_classes(field, verify)) == want, verify


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_the_unit_group_orbits_are_the_colength_classes(m):
    """The units u = 1 + u1 s + u2 s^2 of k[s]/(s^3) act on the plane by h -> a u, with
    a = h2 + h1 s + h0 s^2, so a u = (h0 + h1 u1 + h2 u2, h1 + h2 u1, h2).  The first
    point of colength c in the walk's order has q^(c - 1) distinct images and q^(3 - c)
    units fixing it; each orbit is the whole colength-c class, the three partition the
    plane, and c - 1 is the fiber dimension of the class's label.  Run on FieldElement
    arithmetic and ProjectivePoint's scaling, with no call of _plane_classes."""
    field = field_make(3, m)
    q = field.q
    colength = {h: localmodel._classify(field, h)[0] for h in _plane_indices(q)}
    leaders = {}
    for h, c in colength.items():
        leaders.setdefault(c, h)
    assert sorted(leaders) == [1, 2, 3]
    units = list(product(field.elements, repeat=2))
    orbits = []
    for c, h in sorted(leaders.items()):
        h0, h1, h2 = (field.elements[i] for i in h)
        images = [ProjectivePoint((h0 + h1 * u1 + h2 * u2, h1 + h2 * u1, h2))
                  for u1, u2 in units]
        orbit = set(images)
        assert len(orbit) == q ** (c - 1), (q, c)
        assert images.count(ProjectivePoint((h0, h1, h2))) == q ** (3 - c), (q, c)
        assert {colength[tuple(x.index for x in point.coords)] for point in orbit} == {c}
        assert c - 1 == _FIBER_DIM[_COLENGTH_LABEL[c]]
        orbits.append(orbit)
    assert sum(map(len, orbits)) == _points(q)
    assert set().union(*orbits) == set(projective_plane(field))


def test_census_refuses_a_characteristic_other_than_3():
    """The plane of colength-1 submodules is p = 3's: stratum_census and the
    verified walk refuse p = 2 and p = 5 as SubmoduleV does, before any point."""
    for p in (2, 5):
        spec = ModelSpec(field_make(p))
        with pytest.raises(ValueError, match="implemented for p = 3"):
            stratum_census(spec)
        with pytest.raises(ValueError, match="implemented for p = 3"):
            next(localmodel._plane_classes(spec.field, True))


def test_strata_verify_ranks_each_point_once_and_builds_no_W(capsys):
    """strata --verify's census walks the plane as localmodel does, without
    the oracle: GF(3)'s 13 points take one colength per unit-group orbit, three in
    all, and no W, plane point or submodule is built."""
    calls = _count_calls(capsys, ["strata", "--verify"])
    assert calls["colength"] == ORBITS and calls["span"] == calls["oracle"] == 0, calls
    assert calls["point"] == calls["submodule"] == 0, calls


@pytest.mark.parametrize("argv, steps", [
    (["localmodel", "--q", "9"], ORBITS),
    (["localmodel", "--q", "9", "--verify"], ORBITS + _points(9)),
    (["strata", "--verify"], ORBITS),
], ids=["localmodel", "localmodel-verify", "strata-verify"])
def test_quotient_and_oracle_share_one_step_per_point(capsys, argv, steps):
    """The quotient's images go through _colength_and_claims once per unit-group
    orbit and, under localmodel --verify, the full model's residues once per
    point."""
    assert _count_calls(capsys, argv)["step"] == steps


def _full_residues(W):
    """The reduction the block residues replace: each whole tau^2 t^k row
    reduced against every row of W."""
    return [_reduce_against(W.spec.field, W._mat, W._pivots, e.dense())
            for e in _tau_square_multiples(W.spec)]


@pytest.mark.parametrize("m, M", [(m, M) for m in (1, 2, 3) for M in (3, 4)])
def test_block_residues_are_the_full_residues(m, M):
    """Each block residue is the first p^2 entries of the full residue, the
    full residue is zero past them, every later tau^2 t^k has a zero block, and
    the colength and claims of the quotient h^T X_k agree with the full residues
    and with the full-model oracle."""
    field = field_make(3, m)
    spec = ModelSpec(field, M)
    p2 = spec.p ** 2
    blocks = [e.dense()[:p2] for e in _tau_square_multiples(spec)]
    for point in projective_plane(field):
        V = SubmoduleV(spec, point)
        W = pullback_span(V)
        full = _full_residues(W)
        residues = tau_square_residues(W)
        assert residues == [r[:p2] for r in full[:len(residues)]], point
        assert not any(any(b) for b in blocks[len(residues):]), point
        assert not any(any(r[p2:]) for r in full), point
        assert intersection_colength(V) == len(_rref(field, full)[0]), point
        mem = [not any(r) for r in full[:4]]
        t1, t2 = (W.contains(TensorElement.monomial(spec, j, 0)) for j in (1, 2))
        assert claim_results(V) == {"a": not mem[0], "b": mem[1] == (t1 and t2),
                                    "c": mem[2] == t2, "d": mem[3]}, point
        # the quotient h^T X_k and the full model W give the same classification
        assert localmodel._full_model(field, V.h) == \
            (intersection_colength(V), claim_results(V)), point


def test_tau_square_residues_refuse_a_W_without_U(f3, model3):
    line = SubspaceBasis.from_spanning(model3, [tau_power(model3, 2)])
    W = pullback_span(SubmoduleV(model3, pt(f3, 1, 1, 1)))
    short = SubspaceBasis(model3, W._mat[:-1], W._pivots[:-1])
    for bad in (line, short):
        with pytest.raises(RuntimeError):
            tau_square_residues(bad)


def test_localmodel_reduces_only_the_open_block(capsys, monkeypatch):
    """At q = 9 the oracle of --verify reduces each tau^2 block by the kernel rows
    of W that act on it, one per nonzero block entry off the row c of the point's
    last nonzero coordinate: 3, 4 or 5 per point for c = 2, 1 or 0, so
    81*3 + 9*4 + 1*5 = 284 row actions, and it writes no list of rows.  Each
    colength, of the quotient (once per unit-group orbit) or of the oracle (once per
    point), ranks at most p = 3 rows; the same at M = 3 and at the ceiling, since
    the oracle never looks past the block."""
    actions_of, residues_of = localmodel._block_actions, localmodel._oracle_residues
    rank = localmodel._rank
    acted, reduced, ranked, written = [], [], [], []

    def actions_spy(p, c):
        actions = actions_of(p, c)
        if sys._getframe(1).f_code is residues_of.__code__:
            acted.append([len(a) for a in actions])
        return actions

    def residues_spy(field, h):
        residues = residues_of(field, h)
        reduced.extend(len(v) for v in residues)
        return residues

    def rank_spy(field, rows):
        rows = list(rows)
        if sys._getframe(1).f_code is localmodel._colength_and_claims.__code__:
            ranked.append(len(rows))
        return rank(field, rows)

    monkeypatch.setattr(localmodel, "_block_actions", actions_spy)
    monkeypatch.setattr(localmodel, "_oracle_residues", residues_spy)
    monkeypatch.setattr(localmodel, "_kernel_rows", lambda *a: written.append(a))
    monkeypatch.setattr(localmodel, "_rank", rank_spy)
    # one action per nonzero entry (i, j) of a block with i != c, by the points' c
    entries = [i for block in localmodel._block_entries(3) for i, _, _ in block]
    last = Counter(2 if h[2] else 1 if h[1] else 0 for h in _plane_indices(9))
    want = sum(n * sum(i != c for i in entries) for c, n in last.items())
    assert want == 81 * 3 + 9 * 4 + 1 * 5 == 284
    for M in (3, _MAX_M):
        for log in (acted, reduced, ranked):
            log.clear()
        assert main(["localmodel", "--q", "9", "--M", str(M), "--verify"]) == 0
        capsys.readouterr()
        # the oracle reduces the three nonzero blocks per point, at M only; the
        # quotient is ranked once per unit-group orbit and the oracle once per point
        assert len(acted) == 91 and len(reduced) == 3 * 91, M
        assert sum(map(sum, acted)) == want and max(map(max, acted)) <= 6, M
        assert max(reduced) <= 9 and written == [], M
        assert len(ranked) == ORBITS + 91 and max(ranked) <= 3, (M, max(ranked))


def test_localmodel_verify_builds_no_dense_W(capsys, monkeypatch):
    """The oracle reduces on the block i < p alone, so --verify at the M ceiling
    builds no dense W."""
    def refuse(V):
        raise AssertionError("pullback_span called")

    monkeypatch.setattr(localmodel, "pullback_span", refuse)
    assert main(["localmodel", "--q", "3", "--M", str(_MAX_M), "--verify"]) == 0
    assert f"stable at M={_MAX_M + 1}: PASS" in capsys.readouterr().out


@pytest.mark.parametrize("m", [1, 2, 3], ids=["GF3", "GF9", "GF27"])
@pytest.mark.parametrize("M", [3, 4, 6])
def test_oracle_residues_are_the_dense_W_residues(m, M):
    """Entry by entry, the oracle's residues of the tau^2 blocks are those of the
    dense reduced form of W, and _kernel_rows written out densely are
    pullback_span's first p(p-1) rows cut to the block, rows that
    test_pullback_span_is_the_reduced_form_of_its_spanning_rows pins to the
    spanning set.  A flipped sign in the elimination agrees with the quotient on
    every colength and claim, so only these entries tell it apart."""
    field = field_make(3, m)
    spec = ModelSpec(field, M)
    p, p2 = spec.p, spec.p ** 2
    for point in projective_plane(field):
        V = SubmoduleV(spec, point)
        W = pullback_span(V)
        assert localmodel._oracle_residues(field, V.h) == tau_square_residues(W), point
        dense = []
        for k, other, x in localmodel._kernel_rows(field, V.h):
            row = [0] * p2
            row[k], row[other] = 1, x
            dense.append(row)
        assert dense == [row[:p2] for row in W._mat[:p * (p - 1)]], point


def test_membership_trivialities(f3, f9, model3, model9):
    W = pullback_span(SubmoduleV(model3, pt(f3, 1, 1, 1)))
    assert W.contains(TensorElement(model3, {}))
    with pytest.raises(ValueError):
        W.contains(TensorElement.monomial(model9, 0, 0))


def test_claims_hold_on_every_point_of_the_small_plane(f3, model3):
    for point in projective_plane(f3):
        res = claim_results(SubmoduleV(model3, point))
        assert res == {"a": True, "b": True, "c": True, "d": True}, point


def test_colength_examples_with_stability_check(f3, model3):
    deeper = ModelSpec(f3, 4)
    for coords, want in (((1, 0, 0), 1), ((0, 1, 0), 2), ((0, 0, 1), 3)):
        point = pt(f3, *coords)
        assert intersection_colength(SubmoduleV(model3, point)) == want
        assert intersection_colength(SubmoduleV(deeper, point)) == want


@pytest.mark.parametrize("m", [1, 2], ids=["GF3", "GF9"])
def test_colength_formula_and_truncation_stability(m):
    field = field_make(3, m)
    spec, deeper = ModelSpec(field, 3), ModelSpec(field, 4)
    for point in projective_plane(field):
        V = SubmoduleV(spec, point)
        W = pullback_span(V)
        e = tau_power(spec, 2)
        hits = 0
        for j in (1, 2):
            e = times_t_right(e)
            hits += W.contains(e)
        c = intersection_colength(V)
        assert c == 3 - hits
        # the defining rank: dim(E + W) - dim W for the tau^2 line E
        assert c == len(_rref(field, W._mat + tau_square_span(spec)._mat)[0]) - W.dim
        assert c == intersection_colength(SubmoduleV(deeper, point))


def test_classification_matches_colength(f3, model3):
    bijection = {1: PSI4, 2: PSI3, 3: PSI2}
    for point in projective_plane(f3):
        V = SubmoduleV(model3, point)
        assert classify_stratum(V) == bijection[intersection_colength(V)]


def test_classify_examples(f3, model3):
    assert classify_stratum(SubmoduleV(model3, pt(f3, 1, 0, 0))) == PSI4
    assert classify_stratum(SubmoduleV(model3, pt(f3, 2, 1, 0))) == PSI3
    assert classify_stratum(SubmoduleV(model3, pt(f3, 1, 1, 1))) == PSI2


def test_census_counts(model3, model9):
    assert stratum_census(model3) == {PSI2: 9, PSI3: 3, PSI4: 1}
    assert sum(stratum_census(model3).values()) == 13
    assert stratum_census(model9) == {PSI2: 81, PSI3: 9, PSI4: 1}


@pytest.mark.parametrize("m", [1, 2], ids=["GF3", "GF9"])
def test_census_counts_colengths_not_coordinate_labels(capsys, monkeypatch, m):
    """The census ranks each point's quotient; the labels read off the
    coordinates play no part in it, so strata --verify still passes."""
    monkeypatch.setattr(localmodel, "_coordinate_label", lambda h: PSI2)
    q = 3 ** m
    assert stratum_census(ModelSpec(field_make(3, m))) == {PSI2: q * q, PSI3: q, PSI4: 1}
    assert main(["strata", "--verify"]) == 0
    assert "verify: dimension cross-checks: PASS" in capsys.readouterr().out


def _drop_block(blocks, k):
    return blocks[:k] + blocks[k + 1:]


def _swap_indices(blocks):
    return tuple(tuple((j, i, x) for i, j, x in b) for b in blocks)


def _right_index(blocks):
    return tuple(tuple((j, j, x) for i, j, x in b) for b in blocks)


def _disagreements(monkeypatch, mutate):
    """Points of GF(9) whose quotient classification, with the tau^2 block
    entries mutated, differs from the full-model oracle."""
    field = field_make(3, 2)
    spec = ModelSpec(field, 3)
    entries = localmodel._block_entries
    monkeypatch.setattr(localmodel, "_block_entries", lambda p: mutate(entries(p)))
    out = []
    for point in projective_plane(field):
        V = SubmoduleV(spec, point)
        images = localmodel._quotient(field, V.h)
        if (localmodel._colength_and_claims(field, V.h, images)
                != localmodel._full_model(field, V.h)):
            out.append(point)
    return out


@pytest.mark.parametrize("mutate", [
    *(lambda blocks, k=k: _drop_block(blocks, k) for k in range(3)),
    _right_index,       # h pairs with the right factor's index: h_j X_k[i][j]
], ids=["drop X0", "drop X1", "drop X2", "right index"])
def test_quotient_mutants_disagree_with_the_full_model(monkeypatch, mutate):
    assert _disagreements(monkeypatch, mutate)


def test_a_transposed_quotient_is_the_same_map(monkeypatch):
    """X_k h in place of h^T X_k cannot be told apart: in characteristic 3
    every tau^2 block is symmetric (tau^2 = t^2 (x) 1 + t (x) t + 1 (x) t^2, and
    its right multiples keep the block terms t^2 (x) t + t (x) t^2 and
    t^2 (x) t^2), so the transposed mutant is the quotient itself."""
    for block in localmodel._tau_square_blocks(3):
        assert all(block[3 * i + j] == block[3 * j + i] for i in range(3) for j in range(3))
    assert _disagreements(monkeypatch, _swap_indices) == []


def test_the_tau_square_table_is_three_blocks_at_every_M():
    """The table keyed by p alone is the one every model would build: over GF(p^m),
    m = 1..3, and at every truncation level M = 3..12, the first p^2 coordinates
    of tau^2 t^k are the table's blocks, then zero.  At p = 3 that is three
    blocks, at p = 5 five and at p = 7 seven (m = 1, 2 only); at p = 2, where
    tau^2 = 0, none.  The table is written in closed form, so this compares it
    with the TensorElement products."""
    for p, count in ((3, 3), (2, 0), (5, 5), (7, 7)):
        table = localmodel._tau_square_blocks(p)
        assert len(table) == count and all(any(block) for block in table)
        for m in (1, 2, 3) if p < 7 else (1, 2):
            for M in range(3, 13):
                spec = ModelSpec(field_make(p, m), M)
                blocks = [tuple(e.dense()[:p * p]) for e in _tau_square_multiples(spec)]
                assert tuple(blocks[:count]) == table, (p, m, M)
                assert not any(any(block) for block in blocks[count:]), (p, m, M)


def test_base_change_has_colength_p_in_the_ambient_module(f3, f9, model3, model9):
    for field, model in ((f3, model3), (f9, model9)):
        for point in projective_plane(field):
            W = pullback_span(SubmoduleV(model, point))
            assert model.dimension - W.dim == 3


def test_tau_square_span_is_the_cyclic_line(model3):
    E = tau_square_span(model3)
    assert E.dim == model3.left_bound  # one basis vector per surviving power of t
    assert E.contains(tau_power(model3, 2))


def test_subspace_basis_rows_are_canonical(f3, model3):
    V = SubmoduleV(model3, pt(f3, 0, 1, 2))
    W1 = pullback_span(V)
    W2 = SubspaceBasis.from_spanning(model3, list(reversed(basis_rows(W1))))
    assert basis_rows(W1) == basis_rows(W2)


def test_tensor_repr_and_hash(model3):
    assert repr(TensorElement.monomial(model3, 1, 2, 2)) == "[2 in GF(3)]t^1(x)t^2"
    assert repr(TensorElement(model3, {})) == "0"
    a = TensorElement.monomial(model3, 1, 2) + TensorElement.monomial(model3, 0, 0)
    b = TensorElement.monomial(model3, 0, 0) + TensorElement.monomial(model3, 1, 2)
    assert a == b and hash(a) == hash(b)


@pytest.mark.parametrize("op", [operator.add, operator.sub], ids=["add", "sub"])
def test_tensor_arithmetic_with_a_non_tensor_raises_type_error(f3, model3, op):
    e = TensorElement.monomial(model3, 1, 2)
    for other in (1, f3.one, e.dense()):
        with pytest.raises(TypeError):
            op(e, other)


def test_tensor_normal_form_bounds(model3):
    # 1 x t^3 rewrites to t^3 x 1; 1 x t^4 to t^3 x t
    assert TensorElement.monomial(model3, 0, 3) == TensorElement.monomial(model3, 3, 0)
    assert TensorElement.monomial(model3, 0, 4) == TensorElement.monomial(model3, 3, 1)
    with pytest.raises(ValueError):
        TensorElement.monomial(model3, -1, 0)
    with pytest.raises(ValueError):
        TensorElement.monomial(model3, 0, -1)
    assert not TensorElement.monomial(model3, 9, 0)   # truncated away
