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

from functools import lru_cache
from itertools import takewhile

from ._record import Record, _set
from .gfield import FieldElement, FieldSpec, ProjectivePoint, projective_plane
from .polygon import PSI2, PSI3, PSI4, REGIME

# the stratum of each colength; classify_stratum reads the same labels off
# the point's coordinates
_COLENGTH_LABEL = {1: PSI4, 2: PSI3, 3: PSI2}

__all__ = [
    "ModelSpec",
    "SubmoduleV",
    "SubspaceBasis",
    "TensorElement",
    "claim_results",
    "classify_stratum",
    "intersection_colength",
    "pullback_span",
    "quotient_classification",
    "stratum_census",
    "tau_power",
    "tau_square_span",
    "times_t_left",
    "times_t_right",
]


class ModelSpec(Record):
    """Field and truncation level of one local model; ``p`` is the field's
    characteristic."""

    __match_args__ = ("field", "M")
    __slots__ = __match_args__ + ("p",)

    def __init__(self, field: FieldSpec, M: int = 3):
        if M < 3:
            raise ValueError(f"truncation level M must be at least 3, got {M}")
        _set(self, "field", field)
        _set(self, "M", M)
        _set(self, "p", field.p)

    @property
    def left_bound(self):
        """Left exponents run below p*M."""
        return self.p * self.M

    @property
    def dimension(self):
        """k-dimension of the truncated tensor square."""
        return self.p * self.M * self.p


def _check_coefficient(spec, c):
    if not (isinstance(c, FieldElement) and c.spec == spec.field):
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
        if self.spec != other.spec:
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
    """Reduced row echelon form over the field; rows are element-index vectors.

    Column order is the monomial order baked into the flattening, so the
    result is the canonical reduced basis.  Returns the independent rows
    sorted by pivot column and those pivot columns; input rows are not mutated.
    """
    add, neg, mul, inv = field._add, field._neg, field._mul, field._inv
    basis = {}
    for row in rows:
        v = list(row)
        for pc, prow in basis.items():
            x = v[pc]
            if x:
                mrow = mul[neg[x]]
                for k in range(pc, len(v)):
                    v[k] = add[v[k]][mrow[prow[k]]]
        for pc, x in enumerate(v):
            if x:
                break
        else:
            continue
        if x != 1:  # index 1 is the field's one
            srow = mul[inv[x]]
            v = [srow[a] for a in v]
        # clear the new pivot column from the earlier rows, copies of their inputs
        for qrow in basis.values():
            x = qrow[pc]
            if x:
                mrow = mul[neg[x]]
                for k in range(pc, len(v)):
                    qrow[k] = add[qrow[k]][mrow[v[k]]]
        basis[pc] = v
    pivots = sorted(basis)
    return [basis[pc] for pc in pivots], pivots


class SubspaceBasis:
    """Row-reduced k-basis of a subspace of the truncated tensor square."""

    __slots__ = ("spec", "_mat", "_pivots")

    def __init__(self, spec, mat, pivots):
        """Wrap reduced echelon rows and their pivot columns.  Rows may be shared
        between bases (see _unit_rows): never write into them."""
        self.spec, self._mat, self._pivots = spec, mat, pivots

    @classmethod
    def from_spanning(cls, spec, elements):
        for e in elements:
            if e.spec != spec:
                raise ValueError("spanning element belongs to a different local model")
        return cls(spec, *_rref(spec.field, [e.dense() for e in elements]))

    @property
    def dim(self):
        return len(self._mat)

    def contains(self, e):
        """Exact membership by reduction against the echelon basis."""
        if e.spec != self.spec:
            raise ValueError("element belongs to a different local model")
        return not any(_reduce_against(self.spec.field, self._mat, self._pivots,
                                       e.dense()))


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
        if spec.p != REGIME[0]:
            raise ValueError("the hyperplane encoding of colength-1 submodules is "
                             f"implemented for p = {REGIME[0]}")
        # identity first: != would run the Python-level Record.__eq__
        if hyperplane.spec is not spec.field and hyperplane.spec != spec.field:
            raise ValueError("hyperplane point lives over a different field")
        _set(self, "spec", spec)
        _set(self, "hyperplane", hyperplane)
        a, b, c = hyperplane.coords
        _set(self, "h", (a.index, b.index, c.index))


def pullback_span(V):
    """Reduced echelon basis of the image W of V (x)_R S in the truncated model.

    W is spanned by (t^{pa} v) (x) t^j over the R-generators v of V (ker h in
    span{1, .., t^{p-1}}, and t^p, .., t^{2p-1}), a < M and j < p.  The shifted
    t^p, .., t^{2p-1} span U = <t^i (x) t^j : i >= p>, so W = ker(h) (x) k^p + U.
    With c the last nonzero coordinate of h, the rows e_(i,j) - (h_i/h_c) e_(c,j)
    for i != c, j < p, then a unit row per column of U, sorted by pivot, are each
    zero in the others' pivot columns: the unique reduced row echelon form of W,
    which row-reducing the spanning set would also give."""
    field, p, h = V.spec.field, V.spec.p, V.h
    c = 2 if h[2] else 1 if h[1] else 0  # the last nonzero coordinate
    scale = field._mul[field._neg[field._inv[h[c]]]]  # x -> -x/h_c
    pivots = [i * p + j for i in range(p) if i != c for j in range(p)]
    zero = [0] * V.spec.dimension
    mat = [zero.copy() for _ in pivots]
    for row, k in zip(mat, pivots):
        row[k] = 1  # index 1 is the field's one
        row[c * p + k % p] = scale[h[k // p]]
    unit_rows, unit_pivots = _unit_rows(p * p, V.spec.dimension)
    return SubspaceBasis(V.spec, mat + unit_rows, pivots + unit_pivots)


@lru_cache(maxsize=8)
def _unit_rows(p2, dimension):
    """U's unit rows, one per column from p^2 on, and their pivots: the same in
    every field, so shared by every W of every model of that size; never mutated."""
    pivots = list(range(p2, dimension))
    # index 1 is the field's one
    return [[1 if k == c else 0 for k in range(dimension)] for c in pivots], pivots


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


@lru_cache(maxsize=8)
def _tau_square_blocks(p):
    """The blocks X_k, the first p^2 coordinates (left exponent i < p) of tau^2 t^k,
    before the first zero one (none at p = 2, where tau^2 = 0).  Right multiplication
    by t never lowers a left exponent, so from that block on every tau^2 t^k lies
    in U, and truncation at any M >= 3 leaves the blocks whole.  Their entries are
    integers mod p, whose element indices are the same in every GF(p^m): one
    build over GF(p) at M = 3 serves every model of characteristic p."""
    spec = ModelSpec(FieldSpec(p))
    return tuple(takewhile(any, (tuple(e.dense()[:p * p]) for e in _tau_square_multiples(spec))))


def _tau_square_residues(W):
    """Residues modulo W of tau^2 t^k for each block X_k, cut to the block i < p,
    its first p^2 coordinates.  Exact when W contains U: W's reduced rows from
    pivot p^2 on are then U's unit rows and the n before them are zero past the
    block, so a full residue is the block reduced against those n, zero-padded."""
    p2 = W.spec.p ** 2
    n = W.dim - (W.spec.dimension - p2)
    if n < 0 or W._pivots[n] != p2:
        raise RuntimeError("W does not contain U: the block reduction would be wrong")
    field, mat, pivots = W.spec.field, W._mat[:n], W._pivots[:n]
    for block in _tau_square_blocks(W.spec.p):
        yield _reduce_against(field, mat, pivots, block)


@lru_cache(maxsize=8)
def _block_entries(p):
    """(i, j, x) for each nonzero entry x = X_k[i][j] of the tau^2 blocks X_k;
    built once per characteristic."""
    return tuple(tuple(divmod(k, p) + (x,) for k, x in enumerate(b) if x)
                 for b in _tau_square_blocks(p))


def _quotient(V):
    """Image h^T X_k in S (x) S / W of each tau^2 t^k, k = 0, 1, .. before the first
    zero block: modulo U, W is ker(h) (x) k^p, so h^T on the left factor maps
    S (x) S / W onto k^p."""
    add, mul, h = V.spec.field._add, V.spec.field._mul, V.h
    images = []
    for entries in _block_entries(V.spec.p):
        v = [0] * V.spec.p
        for i, j, x in entries:
            if h[i]:
                v[j] = add[v[j]][mul[h[i]][x]]
        images.append(v)
    return images


def _colength(spec, images):
    """Rank of the images of the tau^2 line modulo W."""
    return len(_rref(spec.field, images)[1])


def _claims(V, rows):
    """claim_results from the images or residues of tau^2 t^k modulo W: tau^2 t^k
    lies in W iff its row is zero, and rows past the last one given are zero."""
    mem = [not any(r) for r in rows[:4]] + [True] * (4 - len(rows))
    t1, t2 = not V.h[1], not V.h[2]
    return {"a": not mem[0], "b": mem[1] == (t1 and t2), "c": mem[2] == t2, "d": mem[3]}


def quotient_classification(V):
    """(colength, claim results) of V from one quotient h^T X_k; no W is built.
    A colength outside {1, 2, 3} is an internal invariant break and raises hard."""
    images = _quotient(V)
    c = _colength(V.spec, images)
    if not 1 <= c <= 3:
        raise RuntimeError(f"colength {c} outside 1..3: local-model invariant broken")
    return c, _claims(V, images)


def _full_model(V):
    """The --verify oracle for quotient_classification: (colength, claim results)
    from W itself, pullback_span's rows reducing the tau^2 residues for _rref."""
    residues = list(_tau_square_residues(pullback_span(V)))
    return len(_rref(V.spec.field, residues)[1]), _claims(V, residues)


def intersection_colength(V):
    """Colength of the intersection of the base-changed submodule W with the
    tau^2-line E: dim E - dim(E ∩ W) = dim(E + W) - dim W, the rank of the
    images h^T X_k (see _quotient).  It lands in {1, 2, 3} or raises."""
    return quotient_classification(V)[0]


def classify_stratum(V):
    """Stratum label of a plane point: both t and t^2 in V gives Psi4, only
    t^2 gives Psi3, t^2 missing gives Psi2.  Matches intersection_colength
    through 1 -> Psi4, 2 -> Psi3, 3 -> Psi2."""
    _, h1, h2 = V.h  # t^j (j < 3) lies in V iff h_j = 0
    return PSI2 if h2 else PSI3 if h1 else PSI4


def claim_results(V):
    """Check the four membership facts driving the classification, for one V.

    a: tau^2 never lies in the base-changed submodule W.
    b: tau^2 t lies in W iff both t and t^2 lie in V.
    c: tau^2 t^2 lies in W iff t^2 lies in V.
    d: tau^2 t^3 always lies in W.

    Returns {"a": .., "b": .., "c": .., "d": ..} with True meaning the fact
    holds for this V.
    """
    return quotient_classification(V)[1]


def stratum_census(spec):
    """Classify every point of the projective plane over the model's field by
    its colength, the rank of the quotient h^T X_k.

    Returns {label: count}; the counts are q^2, q and 1 for Psi2, Psi3 and
    Psi4, partitioning all q^2 + q + 1 points.
    """
    counts = {PSI2: 0, PSI3: 0, PSI4: 0}
    for pt in projective_plane(spec.field):
        counts[_COLENGTH_LABEL[intersection_colength(SubmoduleV(spec, pt))]] += 1
    return counts
