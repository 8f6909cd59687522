"""Exact slope and degree bookkeeping for Frobenius push-forwards and pull-backs.

Everything is computed in integers and ``Fraction``s; the certificates hinge
on strict inequalities with denominator p, so no floating point appears
anywhere.
"""

from ._record import Record, _set
from .gfield import _check_p_ceiling, _is_prime

__all__ = [
    "BundleData",
    "CertificateReport",
    "SubrankBound",
    "canonical_filtration_degrees",
    "degree_from_colength",
    "embedding_certificate",
    "euler_characteristic",
    "pushforward_degree",
    "stability_certificate",
    "sun_upper_bound",
]


class BundleData(Record):
    """Rank and degree of a bundle; the slope is degree/rank."""

    __slots__ = __match_args__ = ("rank", "degree")

    def __init__(self, rank: int, degree: int):
        if rank < 1:
            raise ValueError(f"rank must be positive, got {rank}")
        _set(self, "rank", rank)
        _set(self, "degree", degree)

    @property
    def slope(self):
        from fractions import Fraction
        return Fraction(self.degree, self.rank)


def euler_characteristic(rank, degree, g):
    """Riemann-Roch Euler characteristic: degree + rank(1 - g)."""
    return degree + rank * (1 - g)


def pushforward_degree(b, p, g):
    """Degree of the Frobenius push-forward: deg + rank(p-1)(g-1).

    The rank multiplies by p; the degree shift is exactly what conservation
    of the Euler characteristic under a degree-p finite flat map forces.
    """
    if p < 2:
        raise ValueError(f"characteristic must be at least 2, got {p}")
    if g < 0:
        raise ValueError(f"genus must be non-negative, got {g}")
    return b.degree + b.rank * (p - 1) * (g - 1)


def sun_upper_bound(subrank, p, g, pushforward_slope):
    """Strict upper bound for the slope of a proper subsheaf of a stable
    push-forward of a line bundle: slope(push-forward) - (p - subrank)(g - 1)/p.

    ``subrank = p`` is allowed and returns the push-forward slope itself
    (the gap term vanishes).
    """
    if not 1 <= subrank <= p:
        raise ValueError(f"subrank must lie in 1..{p}, got {subrank}")
    from fractions import Fraction
    return Fraction(pushforward_slope) - Fraction((p - subrank) * (g - 1), p)


class SubrankBound(Record):
    """One row of a certificate witness: the slope bound for one subrank."""

    __slots__ = __match_args__ = ("subrank", "bound", "threshold", "ok")

    def __init__(self, subrank: int, bound: "Fraction", threshold: "Fraction", ok: bool):
        _set(self, "subrank", subrank)
        _set(self, "bound", bound)
        _set(self, "threshold", threshold)
        _set(self, "ok", ok)


class CertificateReport(Record):
    """Outcome of a certificate plus the per-subrank inequalities behind it."""

    __slots__ = __match_args__ = ("kind", "passed", "bounds")

    def __init__(self, kind: str, passed: bool, bounds: tuple[SubrankBound, ...]):
        _set(self, "kind", kind)
        _set(self, "passed", passed)
        _set(self, "bounds", bounds)


def _certificate(kind, p, g, r, d, t):
    _check_p_ceiling(p)
    if not _is_prime(p):
        raise ValueError(f"characteristic must be prime, got {p}")
    # r = 1 has no proper subranks, so both certificates hold vacuously
    if g < 2:
        raise ValueError(f"the subsheaf slope bound needs genus >= 2, got {g}")
    if r not in (1, p):
        raise ValueError(
            f"certificates cover the rank-equals-characteristic case; got r={r}, p={p}")
    fl_slope = BundleData(p, pushforward_degree(BundleData(1, t), p, g)).slope
    threshold = BundleData(r, d).slope
    bounds = [sun_upper_bound(s, p, g, fl_slope) for s in range(1, r)]
    rows = tuple(SubrankBound(s, b, threshold, b <= threshold) for s, b in enumerate(bounds, 1))
    return CertificateReport(kind, all(row.ok for row in rows), rows)


def stability_certificate(p, g, r, d, t):
    """Certify that a full-rank, degree-d subsheaf of the push-forward of a
    degree-t line bundle is stable.

    For every proper subrank s the strict subsheaf bound must not exceed the
    slope d/r; equality is enough because the bound itself is strict.  The
    report records each subrank's inequality.
    """
    fl_degree = pushforward_degree(BundleData(1, t), p, g)
    if fl_degree < d:
        raise ValueError(
            f"push-forward degree {fl_degree} cannot contain a full-rank subsheaf of degree {d}")
    return _certificate("stability", p, g, r, d, t)


def embedding_certificate(p, g, r, d, t):
    """Certify that the adjoint map from a destabilized stable bundle into the
    push-forward is injective.

    The image would be a subsheaf whose slope exceeds d/r by stability and is
    strictly below the subrank bound; the certificate checks that the open
    interval (d/r, bound) is empty for every proper subrank, so no such image
    of lower rank can exist.  Vacuously true when r = 1.
    """
    return _certificate("embedding", p, g, r, d, t)


def canonical_filtration_degrees(p, g, t):
    """Degrees of the graded pieces of the canonical filtration of the
    pull-back of a push-forward of a degree-t line bundle, top piece first:
    t + i(2g - 2) for i = p-1 .. 0.  They sum to p*t + p(p-1)(g-1)."""
    if g < 1:
        raise ValueError(f"genus must be at least 1, got {g}")
    return [t + i * (2 * g - 2) for i in range(p - 1, -1, -1)]


def degree_from_colength(d, colength):
    """Degree of the intersection of the pulled-back bundle with the rank-1
    canonical subsheaf: (d + 3) - colength, d + 3 being the degree of the top
    canonical graded piece when the auxiliary line bundle has degree d - 1."""
    if colength not in (1, 2, 3):
        raise ValueError(f"colength must be 1, 2 or 3, got {colength}")
    return d + 3 - colength
