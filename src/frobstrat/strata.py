"""Dimension ledger of the Frobenius strata for rank 3 in characteristic 3 on
a genus-2 curve: fiber, parameter-space and moduli-space dimensions, the dual
involution, and the table of enumerate's polygons named by regime_polygons."""

from ._record import Record, _set
from .polygon import (_FIBER_DIM, PSI1, PSI2, PSI3, PSI4, PSI_LABELS, REGIME, LatticePolygon,
                      regime_polygons)

__all__ = [
    "CURVE_DIM",
    "StrataTable",
    "StratumRecord",
    "dualize_polygon",
    "moduli_dimension",
    "moduli_stratum_dimension",
    "quot_fiber_dimension",
    "quot_stratum_dimension",
    "strata_table",
]

CURVE_DIM = 1  # the base is a curve


def quot_fiber_dimension(label):
    """Dimension of the parameter-space fiber over a (point, line bundle)
    pair: a plane for Psi2, a line for Psi3, a single point for Psi4.
    Psi1 has no such fiber; the parameter construction covers Psi2..Psi4."""
    try:
        return _FIBER_DIM[label]
    except KeyError:
        raise ValueError(f"no parameter-space fiber for label {label!r}") from None


def quot_stratum_dimension(label, g):
    """Total parameter-space dimension: fiber + dim(curve) + dim(Picard)
    = fiber + 1 + g."""
    return quot_fiber_dimension(label) + CURVE_DIM + g


def moduli_stratum_dimension(label, g):
    """Stratum dimension inside the moduli space (genus-2 regime only).

    Psi2 and Psi3 transfer their parameter-space dimensions along an
    injective classifying morphism; the Psi4 stratum is a copy of the
    Jacobian, dimension g; Psi1 transports from Psi2 by the duality swapping
    the two labels.
    """
    if g != REGIME[1]:
        raise ValueError(
            f"moduli stratum dimensions are established for genus {REGIME[1]} only, got g={g}")
    if label == PSI1:
        return quot_stratum_dimension(PSI2, g)
    if label in (PSI2, PSI3):
        return quot_stratum_dimension(label, g)
    if label == PSI4:
        return g
    raise ValueError(f"unknown stratum label {label!r}")


def moduli_dimension(r, g):
    """Dimension of the moduli space of stable bundles: r^2(g - 1) + 1."""
    if r < 1:
        raise ValueError(f"rank must be positive, got {r}")
    if g < 2:
        raise ValueError(f"the dimension formula needs genus >= 2, got {g}")
    return r * r * (g - 1) + 1


def dualize_polygon(P):
    """Polygon traced out by the dual bundle's pull-back: slopes negated and
    reversed.  Vertices (x, y) map to (r - x, y - D) for endpoint (r, D),
    then re-sort from (0, 0); applying it twice gives back P."""
    r, D = P.endpoint
    verts = sorted((r - x, y - D) for x, y in P.vertices)
    return LatticePolygon(tuple(verts))


class StratumRecord(Record):
    """One row of the dimension table.

    Psi1 carries no parameter-space data, so its fiber dim is None, and so is
    its quot dim, which like the closed stratum dimension is derived.
    """

    __slots__ = __match_args__ = ("label", "polygon", "stratum_dim", "fiber_dim")

    def __init__(self, label: str, polygon: LatticePolygon, stratum_dim: int,
                 fiber_dim: int | None = None):
        _set(self, "label", label)
        _set(self, "polygon", polygon)
        _set(self, "stratum_dim", stratum_dim)
        _set(self, "fiber_dim", fiber_dim)

    @property
    def quot_dim(self):
        """Parameter-space dimension fiber + dim(curve) + g, or None without a fiber."""
        return None if self.fiber_dim is None else self.fiber_dim + CURVE_DIM + REGIME[1]

    @property
    def closed_stratum_dim(self):
        """Open and closed stratum dimensions agree."""
        return self.stratum_dim


class StrataTable(Record):
    """The four stratum records plus the headline numbers of the regime."""

    __slots__ = __match_args__ = ("records", "codimension", "top_components")

    def __init__(self, records: tuple[StratumRecord, ...], codimension: int, top_components: int):
        _set(self, "records", records)
        _set(self, "codimension", codimension)
        _set(self, "top_components", top_components)


def strata_table(d):
    """Full dimension table for degree d; the dimensions are d-independent.

    Also reports the codimension of the whole destabilized locus (moduli
    dimension minus the top stratum dimension) and how many strata attain
    the top dimension.
    """
    _, g, r = REGIME
    polygons = regime_polygons(d)
    if missing := [label for label in PSI_LABELS if label not in polygons]:
        raise RuntimeError(f"the naming rule names no {', '.join(missing)} polygon at d = {d}")
    # Psi1 has no parameter-space fiber
    records = tuple(StratumRecord(label, polygons[label], moduli_stratum_dimension(label, g),
                                  _FIBER_DIM.get(label)) for label in PSI_LABELS)
    top = max(rec.stratum_dim for rec in records)
    return StrataTable(
        records=records,
        codimension=moduli_dimension(r, g) - top,
        top_components=sum(1 for rec in records if rec.stratum_dim == top),
    )
