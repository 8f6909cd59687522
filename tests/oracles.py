"""Reference forms the tests hold the program to, built from public state.

Nothing in ``frobstrat`` computes these: a polygon's exact slopes and their
largest gap come from its ``vertices``, the list forms ``json.dumps`` writes
for polygons, plane points and field elements from ``vertices`` and
``coeffs``, and a basis's tensor elements from its reduced rows ``_mat``.
"""

from fractions import Fraction

from frobstrat.gfield import ProjectivePoint
from frobstrat.localmodel import TensorElement


def slopes(P):
    """Exact segment slopes of a polygon, left to right."""
    return [Fraction(y1 - y0, x1 - x0)
            for (x0, y0), (x1, y1) in zip(P.vertices, P.vertices[1:])]


def max_slope_gap(P):
    """Largest difference between consecutive segment slopes."""
    ss = slopes(P)
    if len(ss) < 2:
        raise ValueError("polygon has a single segment; no slope gaps")
    return max(a - b for a, b in zip(ss, ss[1:]))


def to_pairs(P):
    """A polygon as a list of [rank, degree] pairs."""
    return [[r, dg] for r, dg in P.vertices]


def to_coeffs(e):
    """A field element as its little-endian list of residues."""
    return list(e.coeffs)


def to_lists(pt):
    """A plane point as three coefficient lists."""
    return [to_coeffs(c) for c in pt.coords]


def stdlib_form(value):
    """The json.dumps default for the values _json_text writes itself."""
    return to_lists(value) if isinstance(value, ProjectivePoint) else to_pairs(value)


def basis_rows(W):
    """A subspace basis as tensor elements, sorted by pivot."""
    p, elems = W.spec.p, W.spec.field.elements
    return tuple(TensorElement(W.spec, {(k // p, k % p): elems[idx]
                                        for k, idx in enumerate(row) if idx})
                 for row in W._mat)
