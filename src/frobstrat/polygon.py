"""Convex lattice polygons in the rank-degree plane and their dominance order.

A polygon starts at (0, 0), ends at (m, n), and has integral vertices with
strictly increasing ranks and strictly decreasing segment slopes.  The
Harder-Narasimhan polygon of a destabilized Frobenius pull-back is such a
polygon with at least two segments; the genus bounds consecutive slope gaps
by 2g - 2, which together with the fixed average slope p*d/r makes the
enumeration finite.
"""

from functools import cache
from math import prod

from ._record import Record, _set
from .gfield import _is_prime
from .slopecalc import canonical_filtration_degrees

__all__ = [
    "CurveParams",
    "EQUAL",
    "GREATER_OR_EQUAL",
    "INCOMPARABLE",
    "LESS_OR_EQUAL",
    "LatticePolygon",
    "OTHER",
    "PSI1",
    "PSI2",
    "PSI3",
    "PSI4",
    "PSI_LABELS",
    "REGIME",
    "SEMISTABLE",
    "bruteforce_destabilized_polygons",
    "dominates",
    "enumerate_destabilized_polygons",
    "name_polygon",
    "polygon_of_filtration",
    "regime_polygons",
]

PSI1, PSI2, PSI3, PSI4 = "Psi1", "Psi2", "Psi3", "Psi4"
PSI_LABELS = (PSI1, PSI2, PSI3, PSI4)
SEMISTABLE = "semistable"
OTHER = "other"
# The paper's table.  (p, g, r) of the one regime it classifies, where the Psi
# labels are named.  An entry below that a ROADMAP item will derive names that
# item; it is read off the paper until then, and moves to tests/oracles.py after.
REGIME = (3, 2, 3)
# a regime polygon's label by the ranks of its interior vertices; of the two with
# vertices at both ranks, the canonical one is Psi4 (see _regime_labels).  The
# labels are the paper's names, so no item derives them
_BREAK_LABELS = {(1,): PSI1, (2,): PSI2, (1, 2): PSI3}
# the stratum of each colength of the local model's quotient, which item 2 derives
# as the rank of the Toeplitz matrix T(h); localmodel._coordinate_label reads the
# same labels off the point's coordinates
_COLENGTH_LABEL = {1: PSI4, 2: PSI3, 3: PSI2}
# each stratum's parameter-space fiber dimension, which item 2 derives from the
# rank-stratification certificate and item 12 carries to the moduli dimensions
_FIBER_DIM = {PSI2: 2, PSI3: 1, PSI4: 0}

GREATER_OR_EQUAL = "greater-or-equal"
LESS_OR_EQUAL = "less-or-equal"
EQUAL = "equal"
INCOMPARABLE = "incomparable"

# Largest box the brute-force scan may take on.  The box count is an upper
# bound on the scan's work, which prunes failing prefixes: an r = 5, g = 2 box
# (2,019,599 candidates at most) costs 9-10k rise checks, about 0.002 s.
# g = 3 at r = 5 (over 26 million) and r = 6 at g = 2 (445,588,163 for p = 3,
# d = 1) are refused, although the pruned scan takes 0.007-0.014 s on each.
_MAX_BOX_CANDIDATES = 5_000_000


class CurveParams(Record):
    """Characteristic, genus, rank and degree fixing one enumeration problem."""

    __slots__ = __match_args__ = ("p", "g", "r", "d")

    def __init__(self, p: int, g: int, r: int, d: int):
        if not isinstance(p, int) or not _is_prime(p):
            raise ValueError(f"characteristic must be prime, got {p!r}")
        if g < 1:
            raise ValueError(f"genus must be at least 1, got {g}")
        if r < 1:
            raise ValueError(f"rank must be positive, got {r}")
        _set(self, "p", p)
        _set(self, "g", g)
        _set(self, "r", r)
        _set(self, "d", d)


class LatticePolygon(Record):
    """Strictly convex lattice polygon from (0, 0) to its endpoint."""

    __slots__ = __match_args__ = ("vertices",)

    def __init__(self, vertices: tuple[tuple[int, int], ...]):
        verts = tuple(map(tuple, vertices))
        _set(self, "vertices", verts)
        # one pass over consecutive vertices; faults are reported in a fixed
        # order: a non-integral vertex, too few vertices, the start, a width
        # that is not positive anywhere, then the first slope that fails to fall
        # (a pass per fault, with the same messages in the same order, took twice
        # as long to build the 8,779 polygons enumerate emits at (3,2,7), (3,2,8)
        # and (5,3,6), d = 0..2)
        x0 = y0 = pdy = pw = None
        narrow, falls = False, None
        for v in verts:
            x1, y1 = v if len(v) == 2 else (None, None)
            # exact ints first; isinstance admits other int subclasses but not
            # bool, which JSON writes as false or true
            if not ((type(x1) is int or isinstance(x1, int) and type(x1) is not bool)
                    and (type(y1) is int or isinstance(y1, int) and type(y1) is not bool)):
                raise ValueError(f"vertices must be integral lattice points, got {v!r}")
            if x0 is not None:
                dy, w = y1 - y0, x1 - x0
                if w <= 0:
                    narrow = True
                # dy/w < pdy/pw by cross-multiplication, widths being positive
                elif pw and falls is None and dy * pw >= pdy * w:
                    from fractions import Fraction
                    falls = f"{Fraction(pdy, pw)} then {Fraction(dy, w)}"
                pdy, pw = dy, w
            x0, y0 = x1, y1
        if len(verts) < 2:
            raise ValueError("polygon needs at least two vertices")
        if verts[0] != (0, 0):
            raise ValueError(f"polygon must start at (0, 0), got {verts[0]}")
        if narrow:
            raise ValueError("vertex ranks must strictly increase")
        if falls:
            raise ValueError(f"segment slopes must strictly decrease, got {falls}")

    @property
    def endpoint(self):
        return self.vertices[-1]

    @property
    def segment_count(self):
        return len(self.vertices) - 1

    def __repr__(self):
        pts = " ".join(f"({r},{dg})" for r, dg in self.vertices)
        return f"LatticePolygon[{pts}]"


def _integer_heights(P):
    """Heights of P at x = 1..m, each as (numerator, positive denominator)."""
    return [(y0 * (x1 - x0) + (y1 - y0) * (x - x0), x1 - x0)
            for (x0, y0), (x1, y1) in zip(P.vertices, P.vertices[1:])
            for x in range(x0 + 1, x1 + 1)]


def dominates(P, Q):
    """Compare two polygons with shared endpoints in the dominance order.

    Heights are compared at every integer abscissa; that suffices because
    both graphs are piecewise linear with integer breakpoints.
    """
    if P.endpoint != Q.endpoint:
        raise ValueError(
            f"polygons end at {P.endpoint} and {Q.endpoint}; dominance needs shared endpoints")
    # sign of P's height minus Q's at each abscissa, by cross-multiplication
    signs = {(hp * wq > hq * wp) - (hp * wq < hq * wp)
             for (hp, wp), (hq, wq) in zip(_integer_heights(P), _integer_heights(Q))}
    above, below = -1 not in signs, 1 not in signs
    if above and below:
        return EQUAL
    if above:
        return GREATER_OR_EQUAL
    if below:
        return LESS_OR_EQUAL
    return INCOMPARABLE


def enumerate_destabilized_polygons(params):
    """All polygons a destabilized pull-back's filtration can trace out.

    Directed search over vertex chains from (0, 0) to (r, p*d) with strictly
    decreasing slopes, every consecutive gap at most 2g - 2, and at least two
    segments.  Each step admits the integer rises dy over width w that fall
    below the last slope by at most 2g - 2 and pass a reachability cut: the
    mean slope left lies strictly below dy/w, by at most (2g-2) per remaining
    segment.  So the closing segment falls strictly and only its gap is
    checked.  The cut drops no chain that can finish but keeps some that
    cannot (each with 2 or more units of width left); on the tested cases the
    search visits at most 2 nodes per polygon.  The slope window is derived,
    not imposed: the first slope lies in (p*d/r, p*d/r + (2g-2)(r-1)^2/r], and
    at most r - 1 drops of at most 2g - 2 follow it, so every slope is within
    p*d/r +- (r-1)(2g-2).  Results are sorted lexicographically by vertex list.
    """
    if params.g < 2:
        raise ValueError(f"enumeration needs genus >= 2, got {params.g}")
    p, g, r, d = params.p, params.g, params.r, params.d
    end_y = p * d
    gap = 2 * g - 2
    found = []

    def extend(chain, x0, y0, pdy, pw):
        # (x0, y0) ends the chain; (pdy, pw) is its last segment, pw == 0 before the first
        span, left = r - x0, end_y - y0
        for w in range(1, span):
            # the rest must still reach (r, p*d): its mean slope lies strictly
            # below dy/w, and at most (2g-2) * rest below it, since at most
            # rest more segments each fall by at most 2g-2
            rest = span - w
            low = left * w // span + 1
            high = (left + gap * rest * rest) * w // span
            if pw:
                # dy/w < pdy/pw and pdy/pw - dy/w <= gap, by floor and ceiling division
                bound = (pdy * w - 1) // pw
                if bound < high:
                    high = bound
                bound = -((gap * pw - pdy) * w // pw)
                if bound > low:
                    low = bound
            x = x0 + w
            for dy in range(low, high + 1):
                extend(chain + ((x, y0 + dy),), x, y0 + dy, dy, w)
        # pw: not a single segment; the closing slope left/span falls by at most 2g-2
        if pw and pdy * span <= (left + gap * span) * pw:
            found.append(LatticePolygon(chain + ((r, end_y),)))

    # widths, then rises, are tried in ascending order, so chains come out sorted
    try:
        extend(((0, 0),), 0, 0, 0, 0)
    except RecursionError:
        # one level per segment, so the rank sets the depth: a refusal of the input
        raise ValueError(f"r = {r} needs a polygon search deeper than Python's "
                         "recursion limit") from None
    return found


def bruteforce_destabilized_polygons(params):
    """Box-scan cross-check for :func:`enumerate_destabilized_polygons`.

    Walks the chains of interior vertices in the slope-bound box, trying
    abscissae, then rises, in ascending order.  The window's heights at each
    abscissa, built once, double as the rises a segment of that width may
    have in it: from a vertex in the window each lands in it again, since
    ceil(a) + ceil(b) >= a + b.  So a rise is judged only on the one segment
    it adds: after the chain's last segment it must fall strictly below it,
    by at most 2g - 2.  A chain that fails is dropped with every extension.
    A nonempty chain is closed at (r, p*d) after its extensions, so the lists
    come out sorted; its closing segment is judged on the window, the fall
    and the gap.  A check stands for one of the box's prod(1 + |height
    range|) - 1 chains, judged at most once as a prefix and once closed, so
    the box count bounds the work.  All checks are integer
    cross-multiplications on the chain's rises and widths, so this path
    shares no code with the directed search.  A box of more than
    ``_MAX_BOX_CANDIDATES`` candidates raises ValueError before the scan
    starts.
    """
    if params.g < 2:
        raise ValueError(f"enumeration needs genus >= 2, got {params.g}")
    p, g, r, d = params.p, params.g, params.r, params.d
    end_y = p * d
    gap = 2 * g - 2
    band = (r - 1) * gap
    # slope window [pd/r - band, pd/r + band] cleared of denominators:
    # s = dy/w is admissible iff lo_num * w <= dy * r <= hi_num * w.
    lo_num = p * d - band * r
    hi_num = p * d + band * r

    # the heights of abscissa x in the window, ceil(x * lo_num / r) to
    # floor(x * hi_num / r), built once per scan; heights[w] are also the
    # rises of a width-w segment in the window
    heights = [range(-((-x * lo_num) // r), x * hi_num // r + 1) for x in range(r)]

    # candidates: every nonempty subset of interior abscissae times every
    # height vector over it, i.e. prod(1 + |heights[x]|) - 1
    box = prod(len(heights[x]) + 1 for x in range(1, r)) - 1
    if box > _MAX_BOX_CANDIDATES:
        raise ValueError(f"brute-force box holds {box} candidates, above the "
                         f"ceiling of {_MAX_BOX_CANDIDATES}")
    found = []

    def walk(verts, pdy, pw):
        # (pdy, pw) is the chain's last segment, pw == 0 before the first; a
        # new segment's rise dy over width w is one of heights[w], so it lies
        # in the window, and after pdy/pw it must fall strictly below it, by
        # at most 2g - 2
        x0, y0 = verts[-1]
        for x in range(x0 + 1, r):
            w = x - x0
            pdy_w, gap_w = pdy * w, gap * pw * w
            for dy in heights[w]:
                if not pw or 0 < pdy_w - dy * pw <= gap_w:
                    walk(verts + ((x, y0 + dy),), dy, w)
        # closing after extending keeps the lists in lexicographic order;
        # pw: not a single segment
        w, dy = r - x0, end_y - y0
        if (pw and lo_num * w <= dy * r <= hi_num * w
                and 0 < pdy * w - dy * pw <= gap * pw * w):
            found.append(LatticePolygon(verts + ((r, end_y),)))

    walk(((0, 0),), 0, 0)
    return found


def polygon_of_filtration(pieces):
    """Cumulative (rank, degree) polygon of a filtration's graded pieces.

    Pieces are listed top slope first; their ranks must be positive and their
    slopes strictly decrease, which ``LatticePolygon`` checks.
    """
    pieces = [tuple(piece) for piece in pieces]
    if not pieces:
        raise ValueError("filtration needs at least one graded piece")
    verts = [(0, 0)]
    for rank, degree in pieces:
        x, y = verts[-1]
        verts.append((x + rank, y + degree))
    return LatticePolygon(tuple(verts))


# Psi4 is the unit-rank polygon of the canonical filtration of F^*F_*L, deg L =
# d - (p-1)(g-1), that of Joshi, Ramanan, Xia and Yu (Compositio 2006); built
# once, at d = 0, since every other degree is a shear of it (see regime_polygons)
@cache
def _regime_labels():
    """Vertices -> label of enumerate's polygons at REGIME and d = 0, in its order."""
    p, g, _ = REGIME
    top = polygon_of_filtration((1, t) for t in
                                canonical_filtration_degrees(p, g, -(p - 1) * (g - 1)))
    return {P.vertices: PSI4 if P == top else _BREAK_LABELS[tuple(x for x, _ in P.vertices[1:-1])]
            for P in enumerate_destabilized_polygons(CurveParams(*REGIME, 0))}


def regime_polygons(d):
    """Label -> polygon, in enumerate's order, for its polygons at REGIME and degree d."""
    # those at d = 0 sheared by y -> y + d*x: at p = r raising d by 1 adds 1 to
    # every slope, and the shear keeps enumerate's (lexicographic) order
    return {lab: LatticePolygon([(x, y + d * x) for x, y in verts])
            for verts, lab in _regime_labels().items()}


def name_polygon(P, params):
    """The label of the regime polygon with P's vertices at the given degree
    (see regime_polygons), SEMISTABLE for a single segment, else OTHER."""
    if (params.p, params.g, params.r) != REGIME:
        raise ValueError(
            f"unclassified regime: polygon naming is defined for (p, g, r) = {REGIME}")
    p, _, r = REGIME
    d = params.d
    if P.endpoint != (r, p * d):
        raise ValueError(f"polygon ends at {P.endpoint}, expected {(r, p * d)}")
    if P.segment_count == 1:
        return SEMISTABLE
    # sheared back to d = 0 (see regime_polygons)
    return _regime_labels().get(tuple((x, y - d * x) for x, y in P.vertices), OTHER)
