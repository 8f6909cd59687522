import random
import sys
from collections import Counter
from itertools import product

import pytest

from frobstrat import localmodel
from frobstrat.cli import main
from frobstrat.gfield import ProjectivePoint, field_make, projective_plane
from frobstrat.localmodel import (
    ModelSpec,
    SubmoduleV,
    SubspaceBasis,
    TensorElement,
    _reduce_against,
    _rref,
    _tau_square_multiples,
    _tau_square_residues,
    claim_results,
    classify_stratum,
    intersection_colength,
    pullback_span,
    quotient_classification,
    stratum_census,
    tau_power,
    tau_square_span,
    times_t_left,
    times_t_right,
)
from frobstrat.polygon import PSI2, PSI3, PSI4
from oracles import basis_rows


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


def _count_calls(capsys, argv):
    """Calls of _rref, pullback_span, _colength and the full-model oracle in one
    CLI run, and the _rref calls made inside pullback_span."""
    names = {_rref.__code__: "rref", pullback_span.__code__: "span",
             localmodel._colength.__code__: "colength",
             localmodel._full_model.__code__: "oracle"}
    calls = Counter()
    depth = 0

    def profile(frame, event, arg):
        nonlocal depth
        name = names.get(frame.f_code)
        if name == "span" and event == "return":
            depth -= 1
        if event != "call" or name is None:
            return
        calls[name] += 1
        if name == "span":
            depth += 1
        elif name == "rref" and depth:
            calls["rref in span"] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        code = main(argv)
    finally:
        sys.setprofile(previous)
    capsys.readouterr()
    assert code == 0
    return calls


def test_localmodel_row_reduces_only_for_colengths(capsys):
    """localmodel classifies each point from its quotient h^T X_k and builds no W;
    --verify builds one W per point at M and one at M + 1 for the full-model
    oracle; the quotient's colength is taken once, at M.  _rref runs at most
    once per colength, of the quotient or of the oracle, and never inside
    pullback_span, which writes W down without row reduction."""
    calls = _count_calls(capsys, ["localmodel", "--q", "9"])
    assert calls["colength"] == 91 and calls["span"] == calls["oracle"] == 0, calls
    assert calls["rref"] <= calls["colength"], calls
    calls = _count_calls(capsys, ["localmodel", "--q", "9", "--verify"])
    assert calls["colength"] == 91 and calls["span"] == calls["oracle"] == 2 * 91, calls
    assert calls["rref in span"] == 0
    assert calls["rref"] <= calls["colength"] + calls["oracle"], calls


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
        residues = [list(r) for r in _tau_square_residues(W)]
        assert residues == [r[:p2] for r in full[:len(residues)]], point
        assert not any(any(b) for b in blocks[len(residues):]), point
        assert not any(any(r[p2:]) for r in full), point
        assert intersection_colength(V) == len(_rref(field, full)[0]), point
        mem = [not any(r) for r in full[:4]]
        t1, t2 = (W.contains(TensorElement.monomial(spec, j, 0)) for j in (1, 2))
        assert claim_results(V) == {"a": not mem[0], "b": mem[1] == (t1 and t2),
                                    "c": mem[2] == t2, "d": mem[3]}, point
        # the quotient h^T X_k and the full model W give the same classification
        assert quotient_classification(V) == localmodel._full_model(V) == \
            (intersection_colength(V), claim_results(V)), point
    # every W shares U's unit rows; nothing above may have written into them
    dim = spec.dimension
    unit = [[int(k == c) for k in range(dim)] for c in range(p2, dim)]
    assert localmodel._unit_rows(p2, dim) == (unit, list(range(p2, dim)))


def test_tau_square_residues_refuse_a_W_without_U(f3, model3):
    line = SubspaceBasis.from_spanning(model3, [tau_power(model3, 2)])
    W = pullback_span(SubmoduleV(model3, pt(f3, 1, 1, 1)))
    short = SubspaceBasis(model3, W._mat[:-1], W._pivots[:-1])
    for bad in (line, short):
        with pytest.raises(RuntimeError):
            list(_tau_square_residues(bad))


def test_localmodel_reduces_only_the_open_block(capsys, monkeypatch):
    """At q = 9 the oracle of --verify reduces each tau^2 block against the
    p(p-1) = 6 block rows of W alone, and each colength, of the quotient or of
    the oracle, ranks at most p = 3 rows."""
    reduce_against, rref = localmodel._reduce_against, localmodel._rref
    reduced, ranked = [], []

    def reduce_spy(field, mat, pivots, vec):
        if sys._getframe(1).f_code is localmodel._tau_square_residues.__code__:
            reduced.append((len(mat), len(vec)))
        return reduce_against(field, mat, pivots, vec)

    def rref_spy(field, rows):
        rows = list(rows)
        if sys._getframe(1).f_code in (localmodel._colength.__code__,
                                       localmodel._full_model.__code__):
            ranked.append(len(rows))
        return rref(field, rows)

    monkeypatch.setattr(localmodel, "_reduce_against", reduce_spy)
    monkeypatch.setattr(localmodel, "_rref", rref_spy)
    assert main(["localmodel", "--q", "9", "--verify"]) == 0
    capsys.readouterr()
    # the oracle reduces the three nonzero blocks per point at M and at M + 1;
    # the quotient is ranked once per point and the oracle twice
    assert len(reduced) == 3 * 2 * 91
    assert all(n <= 6 and length <= 9 for n, length in reduced), max(reduced)
    assert len(ranked) == 3 * 91 and max(ranked) <= 3, max(ranked)


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
    monkeypatch.setattr(localmodel, "classify_stratum", lambda V: PSI2)
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
        images = localmodel._quotient(V)
        if (localmodel._colength(spec, images), localmodel._claims(V, images)) \
                != localmodel._full_model(V):
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
    blocks; at p = 2, where tau^2 = 0, none."""
    for p, count in ((3, 3), (2, 0)):
        table = localmodel._tau_square_blocks(p)
        assert len(table) == count and all(any(block) for block in table)
        for m in (1, 2, 3):
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


def test_tensor_normal_form_bounds(model3):
    # 1 x t^3 rewrites to t^3 x 1; 1 x t^4 to t^3 x t
    assert TensorElement.monomial(model3, 0, 3) == TensorElement.monomial(model3, 3, 0)
    assert TensorElement.monomial(model3, 0, 4) == TensorElement.monomial(model3, 3, 1)
    with pytest.raises(ValueError):
        TensorElement.monomial(model3, -1, 0)
    with pytest.raises(ValueError):
        TensorElement.monomial(model3, 0, -1)
    assert not TensorElement.monomial(model3, 9, 0)   # truncated away
