"""The thirteen value records (fields, their elements, plane points and tensor
elements among them) behave as frozen value types, importing the package
loads none of the heavy introspection modules nor ``fractions`` (which only
``certify`` among the commands loads), and the package re-exports every
public name of its modules."""

import copy
import importlib
import pickle
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import frobstrat
from frobstrat import (
    BundleData,
    CertificateReport,
    CurveParams,
    FieldElement,
    FieldSpec,
    LatticePolygon,
    ModelSpec,
    ProjectivePoint,
    StrataTable,
    StratumRecord,
    SubmoduleV,
    SubrankBound,
    SubspaceBasis,
    TensorElement,
    bruteforce_destabilized_polygons,
    canonical_filtration_degrees,
    field_make,
    gfield,
    projective_plane,
    pushforward_degree,
    tau_power,
)
from frobstrat._record import Record
from frobstrat.cli import main
from frobstrat.localmodel import _block_entries, _tau_square_blocks
from oracles import psi_polygon

F3, F9, F27 = field_make(3), field_make(3, 2), field_make(3, 3)
SPEC, SPEC3 = ModelSpec(F9, 3), ModelSpec(F3, 3)
POINT = projective_plane(F9)[5]
TERMS = (((0, 1), F9.one), ((4, 2), F9.element([0, 1])))
TRI = psi_polygon(2, 0)
BOUND = SubrankBound(1, Fraction(-1, 3), Fraction(0), True)
REC = StratumRecord("Psi2", TRI, 5, 2)

# (class, positional arguments, the same arguments by keyword)
CASES = [
    (FieldSpec, (3, 2), dict(p=3, m=2)),
    (FieldElement, (F9, (1, 2), 7), dict(spec=F9, coeffs=(1, 2), index=7)),
    (ProjectivePoint, (POINT.coords,), dict(coords=POINT.coords)),
    (TensorElement, (SPEC, TERMS), dict(spec=SPEC, terms=TERMS)),
    (ModelSpec, (F9, 4), dict(field=F9, M=4)),
    (SubmoduleV, (SPEC, POINT), dict(spec=SPEC, hyperplane=POINT)),
    (CurveParams, (3, 2, 3, 1), dict(p=3, g=2, r=3, d=1)),
    (LatticePolygon, (((0, 0), (1, 2), (3, 3)),), dict(vertices=((0, 0), (1, 2), (3, 3)))),
    (BundleData, (3, 1), dict(rank=3, degree=1)),
    (SubrankBound, (1, Fraction(-1, 3), Fraction(0), True),
     dict(subrank=1, bound=Fraction(-1, 3), threshold=Fraction(0), ok=True)),
    (CertificateReport, ("stability", True, (BOUND,)),
     dict(kind="stability", passed=True, bounds=(BOUND,))),
    (StratumRecord, ("Psi3", TRI, 4, 1),
     dict(label="Psi3", polygon=TRI, stratum_dim=4, fiber_dim=1)),
    (StrataTable, ((REC,), 5, 2), dict(records=(REC,), codimension=5, top_components=2)),
]
IDS = [cls.__name__ for cls, _, _ in CASES]


@pytest.mark.parametrize("cls, args, kwargs", CASES, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, args, kwargs):
    a, b = cls(*args), cls(**kwargs)
    assert a == b and hash(a) == hash(b)
    for name, value in kwargs.items():
        assert getattr(a, name) == value


@pytest.mark.parametrize("cls, args, kwargs", CASES, ids=IDS)
def test_equal_values_give_equal_objects_and_hashes(cls, args, kwargs):
    a, b = cls(*args), cls(*args)
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("cls, args, kwargs", CASES, ids=IDS)
def test_another_class_with_the_same_values_is_unequal(cls, args, kwargs):
    a = cls(*args)
    sub = type("Sub", (cls,), {})(*args)
    assert a.__eq__(sub) is NotImplemented
    assert a != sub and sub != a
    assert a != tuple(args)
    assert a.__eq__(tuple(args)) is NotImplemented


@pytest.mark.parametrize("cls, args, kwargs", CASES, ids=IDS)
def test_fields_can_be_neither_assigned_nor_deleted(cls, args, kwargs):
    a = cls(*args)
    for name, value in kwargs.items():
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(a, name, value)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(a, name)
        assert getattr(a, name) == value
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == cls(*args)


@pytest.mark.parametrize("cls, args, kwargs", CASES, ids=IDS)
def test_copies_and_pickles_are_equal(cls, args, kwargs):
    a = cls(*args)
    for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert b == a and hash(b) == hash(a) and type(b) is cls
        if cls is ModelSpec:
            # the derived sizes are rebuilt with the copy
            assert (b.left_bound, b.dimension) == (a.left_bound, a.dimension) == (12, 36)


def test_copies_of_a_field_rebuild_its_tables():
    for b in (copy.deepcopy(F9), pickle.loads(pickle.dumps(F9))):
        assert b is not F9
        assert (b._add, b._mul, b._inv) == (F9._add, F9._mul, F9._inv)
        # each copy owns its elements, and its zero and one are among them
        assert b.elements == F9.elements and b.elements is not F9.elements
        assert b.zero is b.elements[0] and b.one is b.elements[1] and b.one.spec is b


def test_defaults():
    assert ModelSpec(F9).M == 3
    rec = StratumRecord("Psi1", TRI, 5)
    assert rec.fiber_dim is None and rec.quot_dim is None
    assert rec == StratumRecord("Psi1", TRI, 5, None)


def test_reprs():
    assert repr(BundleData(3, 1)) == "BundleData(rank=3, degree=1)"
    assert repr(CurveParams(3, 2, 3, 1)) == "CurveParams(p=3, g=2, r=3, d=1)"
    assert repr(ModelSpec(field_make(3))) == "ModelSpec(field=GF(3), M=3)"
    assert repr(SubrankBound(2, Fraction(1, 3), Fraction(1), True)) == \
        "SubrankBound(subrank=2, bound=Fraction(1, 3), threshold=Fraction(1, 1), ok=True)"
    assert repr(TRI) == "LatticePolygon[(0,0) (2,1) (3,0)]"


def test_polygon_normalises_its_vertices_to_tuples():
    P = LatticePolygon([[0, 0], [1, 2], [3, 3]])
    assert P.vertices == ((0, 0), (1, 2), (3, 3))
    assert type(P.vertices) is tuple and all(type(v) is tuple for v in P.vertices)
    assert P == LatticePolygon(((0, 0), (1, 2), (3, 3)))


@pytest.mark.parametrize("make, message", [
    (lambda: ModelSpec(F9, 2), "truncation level M must be at least 3, got 2"),
    (lambda: SubmoduleV(ModelSpec(field_make(5)), projective_plane(field_make(5))[0]),
     "the hyperplane encoding of colength-1 submodules is implemented for p = 3"),
    (lambda: SubmoduleV(SPEC, projective_plane(field_make(3))[0]),
     "hyperplane point lives over a different field"),
    (lambda: CurveParams(4, 2, 3, 0), "characteristic must be prime, got 4"),
    (lambda: CurveParams("3", 2, 3, 0), "characteristic must be prime, got '3'"),
    (lambda: CurveParams(3, 0, 3, 0), "genus must be at least 1, got 0"),
    (lambda: CurveParams(3, 2, 0, 0), "rank must be positive, got 0"),
    (lambda: LatticePolygon(((0, 0), (1, 1.5))),
     "vertices must be integral lattice points, got (1, 1.5)"),
    (lambda: LatticePolygon(((0, 0), (1, 2, 3))),
     "vertices must be integral lattice points, got (1, 2, 3)"),
    (lambda: LatticePolygon(((0, 0),)), "polygon needs at least two vertices"),
    (lambda: LatticePolygon(((1, 0), (2, 1))), "polygon must start at (0, 0), got (1, 0)"),
    (lambda: LatticePolygon(((0, 0), (0, 1))), "vertex ranks must strictly increase"),
    (lambda: LatticePolygon(((0, 0), (2, 1), (3, 3))),
     "segment slopes must strictly decrease, got 1/2 then 2"),
    (lambda: BundleData(0, 1), "rank must be positive, got 0"),
    (lambda: tau_power(SPEC, -1), "exponent must be non-negative, got -1"),
    (lambda: SubspaceBasis.from_spanning(SPEC, [TensorElement(SPEC3, {})]),
     "spanning element belongs to a different local model"),
    (lambda: TensorElement(SPEC, {}) + TensorElement(SPEC3, {}),
     "elements belong to different local models"),
    (lambda: TensorElement.monomial(SPEC, 0, 0, F27.element([0, 0, 1])),
     "coefficient x^2 in GF(3^3; 1 + 2x^2 + x^3) is not an element of GF(3^2; 1 + x^2)"),
    (lambda: TensorElement(SPEC, {(0, 0): F27.element(2)}),
     "coefficient 2 in GF(3^3; 1 + 2x^2 + x^3) is not an element of GF(3^2; 1 + x^2)"),
    # a foreign coefficient where monomial truncates: t^9(x)1, and t^7(x)t^5 = t^10(x)t^2
    (lambda: TensorElement.monomial(SPEC, 9, 0, F27.element([0, 1])),
     "coefficient x in GF(3^3; 1 + 2x^2 + x^3) is not an element of GF(3^2; 1 + x^2)"),
    (lambda: TensorElement.monomial(SPEC, 7, 5, F27.element([1, 1])),
     "coefficient 1 + x in GF(3^3; 1 + 2x^2 + x^3) is not an element of GF(3^2; 1 + x^2)"),
    # exponents outside the normal form: t^0(x)t^5 is t^3(x)t^2 unnormalized, and
    # t^9(x)1 would index past dense()
    (lambda: TensorElement(SPEC, {(0, 5): F9.one}),
     "t^0(x)t^5 is outside the normal form 0 <= i < 9, 0 <= j < 3"),
    (lambda: TensorElement(SPEC, {(0, 3): F9.one}),
     "t^0(x)t^3 is outside the normal form 0 <= i < 9, 0 <= j < 3"),
    (lambda: TensorElement(SPEC, {(9, 0): F9.one}),
     "t^9(x)t^0 is outside the normal form 0 <= i < 9, 0 <= j < 3"),
    (lambda: TensorElement(SPEC, [((-1, 0), F9.one)]),
     "t^-1(x)t^0 is outside the normal form 0 <= i < 9, 0 <= j < 3"),
    (lambda: ProjectivePoint((F9.one, F9.one)),
     "projective points here live in P^2: need 3 coordinates"),
    (lambda: ProjectivePoint((F9.one, F3.one, F9.one)),
     "coordinates must all belong to one field"),
    (lambda: ProjectivePoint((F9.zero, F9.zero, F9.zero)),
     "projective point needs a nonzero coordinate"),
    (lambda: F9.element([1, 2, 0]), "coefficient vector longer than extension degree 2"),
    (lambda: psi_polygon(5, 0), "template index must be 1..4, got 5"),
    (lambda: bruteforce_destabilized_polygons(CurveParams(3, 1, 3, 0)),
     "enumeration needs genus >= 2, got 1"),
    (lambda: pushforward_degree(BundleData(3, 1), 1, 2),
     "characteristic must be at least 2, got 1"),
    (lambda: pushforward_degree(BundleData(3, 1), 3, -1), "genus must be non-negative, got -1"),
    # its own id: CurveParams' case above has the same message
    pytest.param(lambda: canonical_filtration_degrees(3, 0, 0), "genus must be at least 1, got 0",
                 id="canonical_filtration_degrees-genus must be at least 1, got 0"),
])
def test_validation_messages(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


# the arguments each table is looked up with, derived from a model as its call site does
_TABLE_KEYS = {_tau_square_blocks: lambda spec: (spec.p,),
               _block_entries: lambda spec: (spec.p,)}


@pytest.mark.parametrize("lookup", [_tau_square_blocks, _block_entries])
def test_equal_model_specs_share_one_cache_entry(lookup):
    a, b = ModelSpec(FieldSpec(3, 2), 3), ModelSpec(FieldSpec(3, 2), 3)
    assert a is not b and a.field is not b.field
    first = lookup(*_TABLE_KEYS[lookup](a))
    before = lookup.cache_info()
    assert lookup(*_TABLE_KEYS[lookup](b)) is first
    after = lookup.cache_info()
    assert (after.hits, after.misses, after.currsize) == \
        (before.hits + 1, before.misses, before.currsize)


def test_a_repeated_request_compares_no_records(monkeypatch, capsys):
    """The local model's tables are keyed by the integers they depend on, so a
    request that repeats an earlier one in the same process finds them without
    comparing an equal but distinct ModelSpec with the cached one."""
    eq, calls = Record.__eq__, []

    def counting(self, other):
        calls.append(type(self).__name__)
        return eq(self, other)

    monkeypatch.setattr(Record, "__eq__", counting)
    second = {}
    for command in ("localmodel --q 27 --verify", "strata --verify"):
        for _ in range(2):
            calls.clear()
            assert main(command.split()) == 0
        second[command] = len(calls)
    capsys.readouterr()
    assert second == {"localmodel --q 27 --verify": 0, "strata --verify": 0}


@pytest.mark.parametrize("first, second, field", [
    ("localmodel --q 27", "localmodel --q 27", (3, 3)),
    ("strata --verify", "localmodel --q 3 --verify", (3, 1)),
])
def test_repeated_requests_build_their_field_once(monkeypatch, capsys, first, second, field):
    """field_make builds a field for the first request of the process that needs
    it and hands the same field, tables and all, to the next one."""
    build, built = FieldSpec._build_tables, []

    def counting(self):
        built.append((self.p, self.m))
        build(self)

    monkeypatch.setattr(FieldSpec, "_build_tables", counting)
    gfield._fields.cache_clear()  # a field cached by an earlier test would hide the build
    for command in (first, second):
        assert main(command.split()) == 0
    capsys.readouterr()
    assert built == [field]


_FRACTION_MODULES = ("fractions", "decimal", "numbers")


def _fresh_modules(watched, *argv):
    """The modules of ``watched`` loaded by a fresh isolated interpreter (so
    nothing the test runner loaded counts) after ``import frobstrat,
    frobstrat.cli`` and, given an argv, one ``frobstrat.cli.main(argv)``."""
    src = str(Path(frobstrat.__file__).resolve().parents[1])
    probe = ("import sys, io, contextlib; sys.path.insert(0, sys.argv[1]); "
             "import frobstrat, frobstrat.cli\n"
             "if sys.argv[3:]:\n"
             "    with contextlib.redirect_stdout(io.StringIO()):\n"
             "        assert frobstrat.cli.main(sys.argv[3:]) == 0\n"
             "print(' '.join(m for m in sys.argv[2].split() if m in sys.modules))")
    done = subprocess.run([sys.executable, "-I", "-c", probe, src, " ".join(watched), *argv],
                          capture_output=True, text=True, timeout=60, check=True)
    return done.stdout.split()


def test_import_loads_no_introspection_modules():
    watched = ("dataclasses", "inspect", "ast", "dis", "tokenize") + _FRACTION_MODULES
    assert _fresh_modules(watched) == []


def test_import_loads_only_the_package():
    """``import frobstrat`` in a fresh isolated interpreter adds no module from
    outside the package to what the interpreter loaded at start-up."""
    src = str(Path(frobstrat.__file__).resolve().parents[1])
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules)\n"
             "import frobstrat\n"
             "print(' '.join(sorted(m for m in set(sys.modules) - before\n"
             "                      if m.partition('.')[0] != 'frobstrat')))")
    done = subprocess.run([sys.executable, "-I", "-c", probe, src],
                          capture_output=True, text=True, timeout=60, check=True)
    assert done.stdout.split() == []


@pytest.mark.parametrize("command, loaded", [
    ("enumerate --verify --format json", []),
    ("localmodel --verify", []),
    ("strata --verify", []),
    ("dual --verify", []),
    # the probe can see them: certify builds the first Fraction
    ("certify --verify", list(_FRACTION_MODULES)),
])
def test_only_certify_loads_fractions(command, loaded):
    assert _fresh_modules(_FRACTION_MODULES, *command.split()) == loaded


_MODULES = ("gfield", "localmodel", "polygon", "slopecalc", "strata")


@pytest.mark.parametrize("module", _MODULES)
def test_package_reexports_every_public_name(module):
    mod = importlib.import_module(f"frobstrat.{module}")
    missing = [name for name in mod.__all__
               if getattr(frobstrat, name, None) is not getattr(mod, name)]
    assert missing == []
    # and the converse: every public name of the package is one of the
    # modules' __all__ names or a submodule (cli appears once it is imported)
    exported = {name for m in _MODULES
                for name in importlib.import_module(f"frobstrat.{m}").__all__}
    extra = [name for name, value in vars(frobstrat).items()
             if not name.startswith("_") and name not in exported
             and getattr(value, "__name__", None) != f"frobstrat.{name}"]
    assert extra == []
