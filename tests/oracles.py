"""Reference forms the tests hold the program to, built from public state.

Nothing in ``frobstrat`` computes these: a polygon's exact slopes and their
largest gap come from its ``vertices``, the list forms ``json.dumps`` writes
for polygons, plane points and field elements from ``vertices`` and
``coeffs``, a basis's tensor elements from its reduced rows ``_mat``, and the
tau^2 residues modulo a dense W from its reduced rows and pivots.
The four (3, 2, 3) polygons are spelled out as the paper's vertex formulas in
d, which the names ``frobstrat`` computes by rule must match.  The number of
destabilized polygons is counted from their definition alone.
"""

from fractions import Fraction
from functools import cache
from math import gcd

from frobstrat.gfield import FieldElement
from frobstrat.localmodel import TensorElement, _reduce_against, _tau_square_blocks
from frobstrat.polygon import LatticePolygon


def psi_polygon(index, d):
    """The destabilized pull-back polygon Psi<index> at (p, g, r) = (3, 2, 3), degree d."""
    if index == 1:
        return LatticePolygon(((0, 0), (1, d + 1), (3, 3 * d)))
    if index == 2:
        return LatticePolygon(((0, 0), (2, 2 * d + 1), (3, 3 * d)))
    if index == 3:
        return LatticePolygon(((0, 0), (1, d + 1), (2, 2 * d + 1), (3, 3 * d)))
    if index == 4:
        return LatticePolygon(((0, 0), (1, d + 2), (2, 2 * d + 2), (3, 3 * d)))
    raise ValueError(f"template index must be 1..4, got {index}")


def count_destabilized_polygons(p, g, r, d):
    """Number of chains from (0, 0) to (r, p*d) with at least two segments whose
    slopes lie in the window p*d/r +- (r-1)(2g-2) and fall strictly, by at most
    2g - 2 per step.  Counted by completions from each (x, y, last slope), the
    slope a reduced fraction, with no bound but the definition's."""
    end, gap = p * d, 2 * g - 2
    # dy/w lies in the window iff lo * w <= dy * r <= hi * w
    lo, hi = end - (r - 1) * gap * r, end + (r - 1) * gap * r

    @cache
    def completions(x, y, num, den):
        # num/den is the last slope; den == 0 before the first segment, so a
        # lone segment never closes
        total = 0
        for x1 in range(x + 1, r + 1):
            w = x1 - x
            # rises of the window, and after a segment those within gap below it
            low, high = -(-lo * w // r), hi * w // r
            if den:
                low, high = max(low, -(-(num - gap * den) * w // den)), min(high, num * w // den)
            for dy in [end - y] if x1 == r else range(low, high + 1):
                if not lo * w <= dy * r <= hi * w:
                    continue
                if den and not 0 < num * w - dy * den <= gap * den * w:
                    continue
                if x1 == r:
                    total += den > 0
                else:
                    k = gcd(dy, w)
                    total += completions(x1, y + dy, dy // k, w // k)
        return total

    return completions(0, 0, 0, 0)


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
    if isinstance(value, FieldElement):
        return to_coeffs(value)
    return to_pairs(value)


def basis_rows(W):
    """A subspace basis as tensor elements, sorted by pivot."""
    p, elems = W.spec.p, W.spec.field.elements
    return tuple(TensorElement(W.spec, {(k // p, k % p): elems[idx]
                                        for k, idx in enumerate(row) if idx})
                 for row in W._mat)


def tau_square_residues(W):
    """Residues modulo W of tau^2 t^k for each block X_k, cut to the block i < p,
    its first p^2 coordinates.  Exact when W contains U: W's reduced rows from
    pivot p^2 on are then U's unit rows and the n before them are zero past the
    block, so a full residue is the block reduced against those n, zero-padded."""
    p2 = W.spec.p ** 2
    n = W.dim - (W.spec.dimension - p2)
    if n < 0 or W._pivots[n] != p2:
        raise RuntimeError("W does not contain U: the block reduction would be wrong")
    field, mat, pivots = W.spec.field, W._mat[:n], W._pivots[:n]
    return [_reduce_against(field, mat, pivots, block) for block in _tau_square_blocks(W.spec.p)]
