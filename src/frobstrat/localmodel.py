"""Truncated local model of a Frobenius pull-back of a push-forward at a point.

Write S = k[t]/(t^{pM}) for the truncated upstairs stalk and R = k[u]/(u^M)
for its p-th power subring via u -> t^p.  The tensor square S (x)_R S has
k-basis { t^i (x) t^j : 0 <= i < pM, 0 <= j < p }: the rewrite rule
1 (x) t^p = t^p (x) 1 keeps right exponents below p, and left exponents at or
past pM are truncated away.  The module action of the stalk is multiplication
in the right factor.

Colength-1 R-submodules V of S are cut out by a single linear functional on
the coefficients of 1, t, t^2 (everything in t^p S is forced into V), so they
form a projective plane.  Base-changing V along the right factor, taking
powers of tau = t (x) 1 - 1 (x) t, and exact row reduction over the base
field decide which stratum each plane point belongs to.  The truncation level
M >= 3 keeps every exponent the classification touches (at most 5) alive.
"""

from functools import cache
from itertools import count, takewhile
from math import comb

from ._record import Record, _set
from .gfield import FieldElement, FieldSpec, ProjectivePoint, _plane_indices, _point_text
from .polygon import _COLENGTH_LABEL, PSI2, PSI3, PSI4, REGIME

__all__ = [
    "ModelSpec",
    "SubmoduleV",
    "SubspaceBasis",
    "TensorElement",
    "claim_results",
    "classify_stratum",
    "intersection_colength",
    "pullback_span",
    "stratum_census",
    "tau_power",
    "tau_square_span",
    "times_t_left",
    "times_t_right",
]


def _check_level(M):
    """Refuse a truncation level M below 3, which drops exponents the classification uses."""
    if M < 3:
        raise ValueError(f"truncation level M must be at least 3, got {M}")


class ModelSpec(Record):
    """Field and truncation level of one local model, with the field's characteristic
    ``p``, the left exponents' bound ``left_bound`` = pM and ``dimension`` = p^2 M."""

    __match_args__ = ("field", "M")
    __slots__ = __match_args__ + ("p", "left_bound", "dimension")

    def __init__(self, field: FieldSpec, M: int = 3):
        _check_level(M)
        _set(self, "field", field)
        _set(self, "M", M)
        _set(self, "p", field.p)
        _set(self, "left_bound", field.p * M)
        _set(self, "dimension", field.p * M * field.p)


def _check_coefficient(spec, c):
    # identity first: == would run the Python-level Record.__eq__
    if not (isinstance(c, FieldElement) and (c.spec is spec.field or c.spec == spec.field)):
        raise ValueError(f"coefficient {c!r} is not an element of {spec.field!r}")


class TensorElement(Record):
    """Element of the truncated tensor square in normal form.

    ``terms`` holds its nonzero ``((i, j), coefficient)`` pairs, 0 <= i < pM and
    0 <= j < p, sorted in monomial order (left exponent, then right).  The
    constructor takes them as a mapping or as pairs, drops zero coefficients and
    rejects a coefficient that is not an element of the model's field or a
    monomial outside that normal form.
    """

    __slots__ = __match_args__ = ("spec", "terms")

    def __init__(self, spec, terms):
        terms = dict(terms)
        for (i, j), c in terms.items():
            _check_coefficient(spec, c)
            if not (0 <= i < spec.left_bound and 0 <= j < spec.p):
                raise ValueError(f"t^{i}(x)t^{j} is outside the normal form "
                                 f"0 <= i < {spec.left_bound}, 0 <= j < {spec.p}")
        _set(self, "spec", spec)
        _set(self, "terms", tuple(sorted(item for item in terms.items() if item[1])))

    @classmethod
    def monomial(cls, spec, i, j, coeff=None):
        if coeff is None:
            coeff = spec.field.one
        elif isinstance(coeff, int):
            coeff = spec.field.element(coeff)
        # checked here too: truncation below can drop the term it sits on
        _check_coefficient(spec, coeff)
        if i < 0:
            raise ValueError(f"negative left exponent {i}")
        if j < 0:
            raise ValueError(f"negative right exponent {j}")
        # normal form: move whole p-th powers of the right factor to the left
        i += spec.p * (j // spec.p)
        j %= spec.p
        return cls(spec, {(i, j): coeff} if i < spec.left_bound else {})

    def __bool__(self):
        return bool(self.terms)

    def _check(self, other):
        if self.spec is not other.spec and self.spec != other.spec:
            raise ValueError("elements belong to different local models")

    def __add__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for k, v in other.terms:
            s = out.get(k)
            out[k] = v if s is None else s + v
        return TensorElement(self.spec, out)

    def __neg__(self):
        return TensorElement(self.spec, {k: -v for k, v in self.terms})

    def __sub__(self, other):
        if not isinstance(other, TensorElement):
            return NotImplemented
        return self + (-other)

    def dense(self):
        """Coefficient indices flattened in monomial order (i asc, then j asc)."""
        p = self.spec.p
        v = [0] * self.spec.dimension
        for (i, j), c in self.terms:
            v[i * p + j] = c.index
        return v

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for (i, j), c in self.terms:
            cs = "" if c == self.spec.field.one else f"[{c!r}]"
            parts.append(f"{cs}t^{i}(x)t^{j}")
        return " + ".join(parts)


def times_t_left(e):
    """Multiply by t in the left factor; exponents past truncation drop."""
    lim = e.spec.left_bound
    out = {}
    for (i, j), c in e.terms:
        if i + 1 < lim:
            out[(i + 1, j)] = c
    return TensorElement(e.spec, out)


def times_t_right(e):
    """Multiply by t in the right factor, re-normalizing t^p into the left."""
    spec = e.spec
    p, lim = spec.p, spec.left_bound
    out = {}
    for (i, j), c in e.terms:
        if j + 1 < p:
            out[(i, j + 1)] = c
        elif i + p < lim:
            out[(i + p, 0)] = c
    return TensorElement(spec, out)


def tau_power(spec, n):
    """n-th power of tau = t (x) 1 - 1 (x) t in normal form.

    tau^p = 0: the middle binomial coefficients vanish mod p and the two
    outer terms collapse under the t^p rewrite."""
    if n < 0:
        raise ValueError(f"exponent must be non-negative, got {n}")
    e = TensorElement.monomial(spec, 0, 0)
    for _ in range(n):
        e = times_t_left(e) - times_t_right(e)
    return e


def _reduce_against(field, mat, pivots, vec):
    """Copy of ``vec`` with every pivot column of the reduced echelon rows ``mat``
    cleared; each row is zero in the others' pivot columns, so their order is free."""
    add, neg, mul = field._add, field._neg, field._mul
    v = list(vec)
    for prow, pc in zip(mat, pivots):
        x = v[pc]
        if x:
            # v -= x * prow; prow is zero before its pivot column pc, and a zero
            # entry of it adds index 0, the field's zero
            mrow = mul[neg[x]]
            for k in range(pc, len(v)):
                v[k] = add[v[k]][mrow[prow[k]]]
    return v


def _rref(field, rows):
    """Canonical reduced row echelon form of the element-index rows over the field: the
    independent rows as copies, sorted by pivot column (monomial order), and their pivots."""
    # no command calls this: it builds SubspaceBasis.from_spanning and is the
    # tests' oracle for pullback_span and _rank
    basis = {}  # pivot column -> reduced row
    for row in rows:
        v = _reduce_against(field, basis.values(), basis, row)
        for pc, x in enumerate(v):
            if x:
                srow = field._mul[field._inv[x]]  # scale the leading entry to one
                v = [srow[a] for a in v]
                # clear the new pivot column from the earlier rows that hold it
                for qc in [qc for qc, qrow in basis.items() if qrow[pc]]:
                    basis[qc] = _reduce_against(field, [v], [pc], basis[qc])
                basis[pc] = v
                break
    pivots = sorted(basis)
    return [basis[pc] for pc in pivots], pivots


def _rank(field, rows):
    """Rank of the element-index rows by forward elimination; a row is copied only
    to be reduced, so input rows are not mutated."""
    add, neg, mul, inv = field._add, field._neg, field._mul, field._inv
    # (pivot column, pivot row, inverse of its entry there): the rows stay
    # unscaled, each zero in the pivot columns of the rows before it
    basis = []
    for row in rows:
        v = row
        for pc, prow, lead in basis:
            x = v[pc]
            if x:
                if v is row:
                    v = list(row)
                # v -= (x / prow[pc]) * prow; prow is zero before pc
                mrow = mul[mul[neg[x]][lead]]
                for k in range(pc, len(v)):
                    v[k] = add[v[k]][mrow[prow[k]]]
        if x := next(filter(None, v), 0):  # the leading entry, found in C
            basis.append((v.index(x), v, inv[x]))
    return len(basis)


class SubspaceBasis:
    """Row-reduced k-basis of a subspace of the truncated tensor square."""

    __slots__ = ("spec", "_mat", "_pivots", "dim")

    def __init__(self, spec, mat, pivots):
        """Wrap reduced echelon rows and their pivot columns."""
        self.spec, self._mat, self._pivots, self.dim = spec, mat, pivots, len(mat)

    @classmethod
    def from_spanning(cls, spec, elements):
        for e in elements:
            if e.spec != spec:
                raise ValueError("spanning element belongs to a different local model")
        return cls(spec, *_rref(spec.field, [e.dense() for e in elements]))

    def contains(self, e):
        """Exact membership by reduction against the echelon basis."""
        if e.spec != self.spec:
            raise ValueError("element belongs to a different local model")
        return not any(_reduce_against(self.spec.field, self._mat, self._pivots,
                                       e.dense()))


def _check_characteristic(p):
    # the plane of colength-1 submodules, cut out by functionals on 1, t, t^2, is p = 3's
    if p != REGIME[0]:
        raise ValueError("the hyperplane encoding of colength-1 submodules is "
                         f"implemented for p = {REGIME[0]}")


class SubmoduleV(Record):
    """Colength-1 R-submodule of S, cut out by a hyperplane functional.

    The point [a : b : c] encodes V = { f : a f(0-coeff) + b f(1-coeff)
    + c f(2-coeff) = 0 }; all of t^p S lies in V automatically because the
    maximal ideal kills the one-dimensional quotient.  ``h`` holds the
    functional's coordinates as element indices.  Membership is asked of the
    base change: f lies in V iff pullback_span(V).contains(f (x) 1).
    """

    __match_args__ = ("spec", "hyperplane")
    __slots__ = __match_args__ + ("h",)

    def __init__(self, spec: ModelSpec, hyperplane: ProjectivePoint):
        _check_characteristic(spec.p)
        # identity first: != would run the Python-level Record.__eq__
        if hyperplane.spec is not spec.field and hyperplane.spec != spec.field:
            raise ValueError("hyperplane point lives over a different field")
        _set(self, "spec", spec)
        _set(self, "hyperplane", hyperplane)
        a, b, c = hyperplane.coords
        _set(self, "h", (a.index, b.index, c.index))


@cache
def _kernel_pattern(p, c):
    """W's rows e_(i,j) - (h_i/h_c) e_(c,j), i != c, j < p, for the points h whose last
    nonzero coordinate is c, as (pivot column, other column, i) on the block i < p: the
    one place the lemma's rows are written.  No row is nonzero in another's pivot column."""
    return tuple((i * p + j, c * p + j, i) for i in range(p) if i != c for j in range(p))


def _last_and_scale(field, h):
    """The last nonzero coordinate c of h and the table x -> -x/h_c."""
    c = 2 if h[2] else 1 if h[1] else 0
    return c, field._mul[field._neg[field._inv[h[c]]]]


def _kernel_rows(field, h):
    """_kernel_pattern's rows of the point h as (pivot column, other column, entry)."""
    c, scale = _last_and_scale(field, h)
    return [(k, other, scale[h[i]]) for k, other, i in _kernel_pattern(field.p, c)]


def pullback_span(V):
    """Reduced echelon basis of the image W of V (x)_R S in the truncated model.

    W is spanned by (t^{pa} v) (x) t^j over the R-generators v of V (ker h in
    span{1, .., t^{p-1}}, and t^p, .., t^{2p-1}), a < M and j < p.  The shifted
    t^p, .., t^{2p-1} span U = <t^i (x) t^j : i >= p>, so W = ker(h) (x) k^p + U.
    The rows of _kernel_rows, then a unit row per column of U, sorted by pivot, are
    the unique reduced row echelon form of W, which row-reducing the spanning set gives."""
    p, dimension = V.spec.p, V.spec.dimension
    # U's unit rows after the kernel rows, as triples whose other column is the pivot
    rows = _kernel_rows(V.spec.field, V.h) + [(k, k, 0) for k in range(p * p, dimension)]
    # index 1 is the field's one
    mat = [[1 if col == k else x if col == other else 0 for col in range(dimension)]
           for k, other, x in rows]
    return SubspaceBasis(V.spec, mat, [k for k, _, _ in rows])


def _tau_square_multiples(spec):
    """tau^2 t^k for k = 0, 1, .. as long as it survives truncation."""
    e = tau_power(spec, 2)
    while e:
        yield e
        e = times_t_right(e)


def tau_square_span(spec):
    """Basis of the line generated by tau^2 under the right-factor module
    action, within truncation."""
    return SubspaceBasis.from_spanning(spec, list(_tau_square_multiples(spec)))


@cache
def _tau_square_blocks(p):
    """The blocks X_k, the first p^2 coordinates (left exponent i < p) of tau^2 t^k,
    before the first zero one (none at p = 2, where tau^2 = 0), in closed form: over R,
    tau^2 t^k = sum_i (-1)^i C(2, i) t^i (x) t^(2-i+k), and t^p in a right exponent moves
    to the left factor, out of the block.  Right multiplication by t never lowers a left
    exponent, so later tau^2 t^k lie in U, and any M >= 3 leaves the blocks whole.  The
    entries are integers mod p, the same element indices in every GF(p^m)."""
    blocks = (tuple((-1) ** i * comb(2, i) % p if i + j == 2 + k else 0
                    for i in range(p) for j in range(p)) for k in count())
    return tuple(takewhile(any, blocks))


def _truncation_stable(spec):
    """Whether the tau^2 t^k of ``spec`` cut to their first p^2 coordinates are
    _tau_square_blocks(p) up to the first zero cut, and zero after it (in U)."""
    cuts = [tuple(e.dense()[:spec.p ** 2]) for e in _tau_square_multiples(spec)]
    # the nonzero cuts are the table, and all of them come before the first zero one
    return tuple(filter(any, cuts)) == _tau_square_blocks(spec.p) == tuple(takewhile(any, cuts))


@cache
def _block_entries(p):
    """(i, j, x) for each nonzero entry x = X_k[i][j] of the tau^2 blocks X_k;
    built once per characteristic."""
    return tuple(tuple(divmod(k, p) + (x,) for k, x in enumerate(b) if x)
                 for b in _tau_square_blocks(p))


def _quotient(field, h):
    """Image h^T X_k in S (x) S / W of each tau^2 t^k, k = 0, 1, .. before the first
    zero block, for the point whose coordinates have element indices h: modulo U, W
    is ker(h) (x) k^p, so h^T on the left factor maps S (x) S / W onto k^p."""
    add, mul = field._add, field._mul
    images = []
    for entries in _block_entries(field.p):
        v = [0] * field.p
        for i, j, x in entries:
            if h[i]:
                v[j] = add[v[j]][mul[h[i]][x]]
        images.append(v)
    return images


def _colength_and_claims(field, h, rows):
    """(colength, claim_results) of the point h from the images or residues of
    tau^2 t^k modulo W: the colength is their rank, and tau^2 t^k lies in W iff its
    row is zero; rows past the last one given are zero."""
    mem = [not any(r) for r in rows[:4]] + [True] * (4 - len(rows))
    t1, t2 = not h[1], not h[2]
    return _rank(field, rows), {
        "a": not mem[0], "b": mem[1] == (t1 and t2), "c": mem[2] == t2, "d": mem[3]}


def _classify(field, h):
    """(colength, claim results) of the point h from its quotient h^T X_k; no W is built."""
    c, claims = _colength_and_claims(field, h, _quotient(field, h))
    if not 1 <= c <= 3:
        raise RuntimeError(f"colength {c} outside 1..3: local-model invariant broken")
    return c, claims


@cache
def _block_actions(p, c):
    """Per tau^2 block, the _kernel_pattern(p, c) rows whose pivot entry in it is nonzero:
    as no row's other column is a pivot, the rows that reducing the block applies."""
    return tuple(tuple(r for r in _kernel_pattern(p, c) if b[r[0]]) for b in _tau_square_blocks(p))


def _oracle_residues(field, h):
    """Residues modulo W of the tau^2 blocks X_k of the point h, reduced against W's
    kernel rows alone: exact at every M, as U's unit rows clear W past the block,
    where the kernel rows are zero.  Only the rows that act are evaluated."""
    add, neg, mul = field._add, field._neg, field._mul
    c, scale = _last_and_scale(field, h)
    residues = [list(block) for block in _tau_square_blocks(field.p)]
    for v, actions in zip(residues, _block_actions(field.p, c)):
        for k, other, i in actions:  # v -= v[k] * row: its pivot entry one, its other -h_i/h_c
            v[k], v[other] = 0, add[v[other]][neg[mul[v[k]][scale[h[i]]]]]
    return residues


def _full_model(field, h):
    """The --verify oracle for _classify, from the tau^2 residues modulo W itself."""
    return _colength_and_claims(field, h, _oracle_residues(field, h))


def intersection_colength(V):
    """Colength of the intersection of the base-changed submodule W with the
    tau^2-line E: dim E - dim(E ∩ W) = dim(E + W) - dim W, the rank of the
    images h^T X_k (see _quotient).  It lands in {1, 2, 3} or raises."""
    return _classify(V.spec.field, V.h)[0]


def _coordinate_label(h):
    """Stratum label of the point h from its coordinates: both t and t^2 in V gives Psi4,
    only t^2 Psi3, t^2 missing Psi2, as _COLENGTH_LABEL gives for _classify's colength."""
    return PSI2 if h[2] else PSI3 if h[1] else PSI4  # t^j (j < 3) lies in V iff h_j = 0


def classify_stratum(V):
    """Stratum label of V's point read off its coordinates, as _coordinate_label."""
    return _coordinate_label(V.h)


def claim_results(V):
    """Check the four membership facts driving the classification, for one V.

    a: tau^2 never lies in the base-changed submodule W.
    b: tau^2 t lies in W iff both t and t^2 lie in V.
    c: tau^2 t^2 lies in W iff t^2 lies in V.
    d: tau^2 t^3 always lies in W.

    Returns {"a": .., "b": .., "c": .., "d": ..} with True meaning the fact
    holds for this V.
    """
    return _classify(V.spec.field, V.h)[1]


def stratum_census(spec):
    """{label: count} over the plane points, each counted by its colength, the rank
    of the quotient h^T X_k taken once per unit-group orbit, never by its coordinate
    label: q^2, q and 1 for Psi2, Psi3 and Psi4, partitioning all q^2 + q + 1 points."""
    counts = {PSI2: 0, PSI3: 0, PSI4: 0}
    for _, col, _, _ in _plane_classes(spec.field):
        counts[_COLENGTH_LABEL[col]] += 1
    return counts


def _plane_classes(field, verify=False):
    """(h, colength, claims, label) of each plane point h, in _plane_indices's order;
    with ``verify`` the full-model oracle must agree on each.  Each tau^2 block's entry
    at (i, j) depends on i + j >= 2 alone, so the quotient rows are D T(h) for a fixed D,
    T(h) = h2 I + h1 N + h0 N^2 being multiplication by a = h2 + h1 s + h0 s^2 in k[s]/(s^3).
    A unit u = 1 + u1 s + u2 s^2 gives D T(h) T(u) = D T(a u), of the same rank and zero
    rows: the first point of each unit-group orbit that the walk reaches is classified and
    its whole orbit marked in ``codes`` (colength + 4 * failed-claim bits by walk position),
    read back by every point.  The orbits, the colength classes, have leaders [1:0:0],
    [1:0:1] and [1:1:0]."""
    _check_characteristic(field.p)
    for block in _block_entries(field.p):
        by_sum = {i + j: x for i, j, x in block}
        if set(block) != {(i, s - i, x) for s, x in by_sum.items() if s >= 2
                          for i in range(s - 2, 3)}:
            raise RuntimeError("a tau^2 block entry depends on more than i + j: "
                               "the unit-orbit walk's premise fails")
    q, add, mul, inv = field.q, field._add, field._mul, field._inv
    codes, known = bytearray(q * q + q + 1), {}  # code -> (colength, claims)
    for i, h in enumerate(_plane_indices(q)):
        if not codes[i]:
            col, res = _classify(field, h)
            code = col if all(res.values()) else col + sum(
                4 << k for k, ok in enumerate(res.values()) if not ok)
            known[code] = col, res
            h0, h1, h2 = h
            # a u = (h0 + h1 u1 + h2 u2, h1 + h2 u1, h2); u1 and u2 act only through h1, h2
            for u1 in range(q) if h1 or h2 else (0,):
                a1, b = add[h0][mul[h1][u1]], add[h1][mul[h2][u1]]
                for u2 in range(q) if h2 else (0,):
                    a = add[a1][mul[h2][u2]]
                    row = mul[inv[a or b or h2]]  # scales the first nonzero coordinate to one
                    codes[row[b] * q + row[h2] if a else q * q + (row[h2] if b else q)] = code
        col, res = known[codes[i]]
        if verify and (full := _full_model(field, h)) != (col, res):
            raise RuntimeError(f"point {_point_text(field.names, h)}: quotient gives "
                               f"{(col, res)}, full model {full}")
        yield h, col, res, _coordinate_label(h)
