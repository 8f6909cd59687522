import json

import pytest

from frobstrat.cli import main
from frobstrat.polygon import (
    PSI1,
    PSI2,
    PSI3,
    PSI4,
    CurveParams,
    LatticePolygon,
    enumerate_destabilized_polygons,
    name_polygon,
)
from frobstrat.strata import (
    StratumRecord,
    dualize_polygon,
    moduli_dimension,
    moduli_stratum_dimension,
    quot_fiber_dimension,
    quot_stratum_dimension,
    strata_table,
)
from oracles import psi_polygon

LABEL_SWAP = {PSI1: PSI2, PSI2: PSI1, PSI3: PSI3, PSI4: PSI4}


def test_quot_fiber_dimensions():
    assert quot_fiber_dimension(PSI2) == 2
    assert quot_fiber_dimension(PSI3) == 1
    assert quot_fiber_dimension(PSI4) == 0
    with pytest.raises(ValueError):
        quot_fiber_dimension(PSI1)


def test_quot_stratum_dimensions_genus_two():
    assert quot_stratum_dimension(PSI2, 2) == 5
    assert quot_stratum_dimension(PSI3, 2) == 4
    assert quot_stratum_dimension(PSI4, 2) == 3
    for label in (PSI2, PSI3, PSI4):
        assert quot_stratum_dimension(label, 2) - quot_fiber_dimension(label) == 3


def test_moduli_stratum_dimensions():
    assert moduli_stratum_dimension(PSI1, 2) == 5
    assert moduli_stratum_dimension(PSI2, 2) == 5
    assert moduli_stratum_dimension(PSI3, 2) == 4
    assert moduli_stratum_dimension(PSI4, 2) == 2
    with pytest.raises(ValueError):
        moduli_stratum_dimension(PSI2, 3)
    with pytest.raises(ValueError):
        moduli_stratum_dimension("Psi9", 2)


def test_injectivity_transfer_and_the_psi4_defect():
    # the classifying map carries the parameter dimension for Psi2 and Psi3,
    # but collapses the Psi4 locus down to the Jacobian
    assert moduli_stratum_dimension(PSI2, 2) == quot_stratum_dimension(PSI2, 2)
    assert moduli_stratum_dimension(PSI3, 2) == quot_stratum_dimension(PSI3, 2)
    assert moduli_stratum_dimension(PSI4, 2) == 2 < quot_stratum_dimension(PSI4, 2)


def test_moduli_dimension_formula():
    assert moduli_dimension(3, 2) == 10
    assert moduli_dimension(1, 2) == 2     # rank 1: the Picard dimension g
    assert moduli_dimension(2, 2) == 5
    with pytest.raises(ValueError):
        moduli_dimension(3, 1)
    with pytest.raises(ValueError):
        moduli_dimension(0, 2)


@pytest.mark.parametrize("d", range(-10, 11))
def test_dualize_swaps_first_two_templates(d):
    assert dualize_polygon(psi_polygon(1, d)) == psi_polygon(2, -d)
    assert dualize_polygon(psi_polygon(2, d)) == psi_polygon(1, -d)
    assert dualize_polygon(psi_polygon(3, d)) == psi_polygon(3, -d)
    assert dualize_polygon(psi_polygon(4, d)) == psi_polygon(4, -d)


def test_dualize_is_an_involution():
    for verts in (((0, 0), (1, 1), (3, 0)), ((0, 0), (1, 3), (2, 4), (4, 2))):
        P = LatticePolygon(verts)
        assert dualize_polygon(dualize_polygon(P)) == P


@pytest.mark.parametrize("d", [-3, 0, 2])
def test_dualize_maps_enumeration_onto_the_mirror_enumeration(d):
    params = CurveParams(3, 2, 3, d)
    mirror = CurveParams(3, 2, 3, -d)
    polys = enumerate_destabilized_polygons(params)
    duals = sorted((dualize_polygon(P) for P in polys), key=lambda P: P.vertices)
    assert duals == enumerate_destabilized_polygons(mirror)
    for P in polys:
        assert name_polygon(dualize_polygon(P), mirror) == LABEL_SWAP[
            name_polygon(P, params)]


def test_strata_table_dimensions():
    table = strata_table(0)
    assert [r.label for r in table.records] == [PSI1, PSI2, PSI3, PSI4]
    assert [r.stratum_dim for r in table.records] == [5, 5, 4, 2]
    assert [r.closed_stratum_dim for r in table.records] == [5, 5, 4, 2]
    assert [r.fiber_dim for r in table.records] == [None, 2, 1, 0]
    assert [r.quot_dim for r in table.records] == [None, 5, 4, 3]
    assert table.codimension == 5
    assert table.top_components == 2


def test_strata_table_is_degree_independent():
    base = strata_table(0)
    for d in (1, 7, -5):
        table = strata_table(d)
        assert [r.stratum_dim for r in table.records] == [
            r.stratum_dim for r in base.records]
        assert table.codimension == base.codimension
        assert [r.polygon for r in table.records] == [
            psi_polygon(i, d) for i in (1, 2, 3, 4)]


def test_strata_table_duality_transport():
    plus, minus = strata_table(1), strata_table(-1)
    dims_plus = {r.label: r.stratum_dim for r in plus.records}
    dims_minus = {r.label: r.stratum_dim for r in minus.records}
    for label, swapped in LABEL_SWAP.items():
        assert dims_plus[label] == dims_minus[swapped]


def test_strata_dims_stay_inside_the_moduli_space():
    for rec in strata_table(3).records:
        assert 0 <= rec.stratum_dim <= moduli_dimension(3, 2)


def test_stratum_record_invariants():
    """The parameter-space and closed stratum dimensions are derived, so they
    cannot disagree with the fiber and stratum dimensions."""
    rec = StratumRecord(PSI2, psi_polygon(2, 0), 5, 2)
    assert (rec.quot_dim, rec.closed_stratum_dim) == (2 + 1 + 2, 5)
    assert StratumRecord(PSI1, psi_polygon(1, 0), 5).quot_dim is None
    for name in ("quot_dim", "closed_stratum_dim"):
        with pytest.raises(AttributeError):
            setattr(rec, name, 6)


def test_table_serialization(capsys):
    main(["strata", "--d", "0", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"strata", "codimension", "top_components"}
    first = payload["strata"][0]
    assert set(first) == {"label", "vertices", "fiber_dim", "quot_dim",
                          "stratum_dim", "closed_equals_open"}
    assert first["closed_equals_open"] is True
    assert payload["strata"][3]["stratum_dim"] == 2
