"""Every def in ``src/frobstrat`` is entered by some command, or listed here,
and so is every statement inside an entered def.

The trace runs every argv that ``test_goldens.py`` pins (the recorded golden
requests, the refusals and the ``--help`` texts) and README's command-line
examples through ``main`` under one ``sys.settrace`` hook, which collects every
Python function entered and every line of the package run.  Each ``def`` of the
package's modules, found in their source and keyed ``module:Qualname``, that
none of them enters must appear in ``UNREACHED`` with its group and reason.
Each statement inside a def that holds code, that none of them runs and whose
def is not in ``UNREACHED`` must appear in ``UNRUN``, keyed by its def's
``module:Qualname`` and its first line's text, with its group and the test that
drives it.  A def or statement newly left unrun fails its test until it is wired
in, moved to the tests or listed; a listed one that a command now runs fails it
until its entry is dropped.
"""

import ast
import importlib
import json
import re
import sys
from functools import cache
from pathlib import Path

import pytest

import frobstrat
from test_goldens import GOLDENS, HELP, REFUSALS, _record as run_argv

README = Path(__file__).resolve().parents[1] / "README.md"
SOURCES = sorted(Path(frobstrat.__file__).parent.glob("*.py"))
# the files whose statements are traced, by module name: all of them
LEDGERED = {path.stem: path for path in SOURCES}

FROBBENCH = "frobbench LAYERS"
API = "API boundary"
GUARD = "misuse guard"
IMPORT = "import time"

# module:Qualname -> (group, reason) of each def that no command enters
UNREACHED = {
    "localmodel:claim_results": (FROBBENCH, "a traced layer; the CLI calls the quotient"),
    "localmodel:intersection_colength":
        (FROBBENCH, "a traced layer; the plane walk ranks the quotient itself"),
    "localmodel:tau_square_span": (FROBBENCH, "a traced layer; the CLI reads the tau^2 blocks"),
    "localmodel:SubspaceBasis.from_spanning":
        (FROBBENCH, "a traced layer; pullback_span writes its basis directly"),
    "localmodel:_rref": (FROBBENCH, "the reduced form behind the traced from_spanning, and "
                         "the tests' oracle for pullback_span and _rank"),
    "localmodel:classify_stratum":
        (FROBBENCH, "a traced layer; the plane walk labels each index triple itself"),
    "gfield:projective_plane": (FROBBENCH, "a traced layer; the plane walk runs on index triples"),
    "localmodel:SubspaceBasis.contains": (API, "exact membership, the lemma the tests check"),
    "localmodel:pullback_span": (FROBBENCH, "a traced layer, and the dense W whose rows and "
                                 "residues the tests hold the --verify oracle to"),
    "localmodel:_kernel_rows": (FROBBENCH, "W's kernel rows for the traced pullback_span; the "
                                "--verify oracle evaluates only the entries that act"),
    "localmodel:_reduce_against": (API, "membership in a dense W, SubspaceBasis.contains"),
    "localmodel:SubspaceBasis.__init__":
        (API, "a dense basis; the oracle eliminates against W's kernel rows as triples"),
    "localmodel:SubmoduleV.__init__":
        (API, "a submodule of a point; the plane walk and its oracle take index triples"),
    "gfield:ProjectivePoint.__init__":
        (API, "a point from elements; the plane walk and its oracle take index triples"),
    "gfield:ProjectivePoint.spec": (API, "a point's field, read by SubmoduleV and repr"),
    "gfield:FieldSpec.element": (API, "an element from an int or coefficients"),
    "gfield:ProjectivePoint.of": (API, "a point from ints or coefficient lists"),
    "gfield:FieldElement.__mul__":
        (API, "ProjectivePoint's normalization uses it; commands use the index tables"),
    "gfield:FieldElement.inverse":
        (API, "ProjectivePoint's normalization uses it; commands use the index tables"),
    "gfield:FieldSpec.__repr__": (API, "repr; a mixed-field error names its fields"),
    "gfield:FieldElement.__repr__": (API, "repr"),
    "gfield:ProjectivePoint.__repr__":
        (API, "repr; commands write a point's text from its indices"),
    "localmodel:TensorElement.__repr__": (API, "repr"),
    "polygon:LatticePolygon.__repr__": (API, "repr"),
    "_record:Record.__repr__": (API, "repr of the records without their own"),
    "_record:Record.__hash__": (API, "records hash by value; no command hashes one"),
    "_record:Record.__reduce__": (API, "copies and pickles rebuild through __init__"),
    "_record:Record.__setattr__": (GUARD, "refuses assignment to a field"),
    "_record:Record.__delattr__": (GUARD, "refuses deletion of a field"),
    "_record:Record.__init_subclass__":
        (IMPORT, "runs as each record class is defined, before the trace starts"),
}

REFUSAL = "a refusal"
INVARIANT = "a broken invariant"
PARITY = "json.dumps parity"
READER = "a reader that closes stdout"
ECHELON = "rows not in echelon form"

# (module:Qualname of its def, stripped first line) -> (group, the test that drives it)
# of each statement of a LEDGERED file that no command runs, inside a def that one
# enters; statements of one def that read alike share one
UNRUN = {
    ("cli:_int_text", "except ValueError:"):
        (REFUSAL, "test_localmodel_refuses_a_size_past_the_digit_limit_at_its_ceiling"),
    ("cli:_int_text", 'return f"about 10^{int((n.bit_length() - 1) * log10(2))}"'):
        (REFUSAL, "test_localmodel_refuses_a_size_past_the_digit_limit_at_its_ceiling"),
    ("cli:_json_text", 'return "{}"'): (PARITY, "test_json_text_matches_the_stdlib"),
    ("cli:_json_text", 'return "[]"'):
        (PARITY, "test_json_output_is_the_stdlib_dump_of_its_payload"),
    ("cli:_json_text", "verts = value.vertices"): (PARITY, "test_json_text_matches_the_stdlib"),
    ("cli:_json_text", "return _rows_format(len(verts), 2, indent) % sum(verts, ())"):
        (PARITY, "test_json_text_matches_the_stdlib"),
    ("cli:_json_text",
     'raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")'):
        (PARITY, "test_json_text_refuses_what_no_payload_holds"),
    ("cli:cmd_localmodel",
     'raise RuntimeError(f"point {_point_text(names, h)} has colength {col} "'):
        (INVARIANT, "test_label_colength_mismatch_exits_1"),
    ("cli:main", "except RuntimeError as exc:"): (INVARIANT, "test_broken_colength_exits_1"),
    ("cli:main", "return _fail(exc, 1)"): (INVARIANT, "test_broken_colength_exits_1"),
    ("cli:main", "except BrokenPipeError:"):
        (READER, "test_a_reader_that_closes_stdout_early_ends_the_run_with_141"),
    ("cli:main", "os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())"):
        (READER, "test_a_reader_that_closes_stdout_early_ends_the_run_with_141"),
    ("cli:main", "return 141"):
        (READER, "test_a_reader_that_closes_stdout_early_ends_the_run_with_141"),
    ("localmodel:_check_coefficient",
     'raise ValueError(f"coefficient {c!r} is not an element of {spec.field!r}")'):
        (GUARD, "test_validation_messages"),
    ("localmodel:TensorElement.__init__",
     'raise ValueError(f"t^{i}(x)t^{j} is outside the normal form "'):
        (GUARD, "test_validation_messages"),
    ("localmodel:TensorElement.monomial", "elif isinstance(coeff, int):"):
        (API, "test_left_and_right_multiplication_commute"),
    ("localmodel:TensorElement.monomial", "coeff = spec.field.element(coeff)"):
        (API, "test_left_and_right_multiplication_commute"),
    ("localmodel:TensorElement.monomial", 'raise ValueError(f"negative left exponent {i}")'):
        (GUARD, "test_tensor_normal_form_bounds"),
    ("localmodel:TensorElement.monomial", 'raise ValueError(f"negative right exponent {j}")'):
        (GUARD, "test_tensor_normal_form_bounds"),
    ("localmodel:TensorElement._check",
     'raise ValueError("elements belong to different local models")'):
        (GUARD, "test_validation_messages"),
    ("localmodel:TensorElement.__add__", "return NotImplemented"):
        (API, "test_tensor_arithmetic_with_a_non_tensor_raises_type_error"),
    ("localmodel:TensorElement.__sub__", "return NotImplemented"):
        (API, "test_tensor_arithmetic_with_a_non_tensor_raises_type_error"),
    ("localmodel:tau_power", 'raise ValueError(f"exponent must be non-negative, got {n}")'):
        (GUARD, "test_validation_messages"),
    # every row list _classify and _full_model rank is in echelon form already
    ("localmodel:_rank", "mrow = mul[mul[neg[x]][lead]]"):
        (ECHELON, "test_rank_eliminates_rows_not_in_echelon_form"),
    ("localmodel:_rank", "v = [add[a][mrow[b]] for a, b in zip(v, prow)]"):
        (ECHELON, "test_rank_eliminates_rows_not_in_echelon_form"),
    ("localmodel:_check_characteristic",
     'raise ValueError("the hyperplane encoding of colength-1 submodules is "'):
        (GUARD, "test_census_refuses_a_characteristic_other_than_3"),
    ("localmodel:_classify",
     'raise RuntimeError(f"colength {c} outside 1..3: local-model invariant broken")'):
        (INVARIANT, "test_broken_colength_exits_1"),
    ("localmodel:_plane_classes",
     'raise RuntimeError("a tau^2 block entry depends on more than i + j: "'):
        (INVARIANT, "test_a_block_entry_outside_the_prime_field_exits_1"),
    ("localmodel:_plane_classes",
     'raise RuntimeError(f"point {_point_text(field.names, h)}: quotient gives "'):
        (INVARIANT, "test_localmodel_verify_exits_1_when_the_full_model_disagrees_at_M"),
    ("_record:Record.__eq__", "return NotImplemented"):
        (API, "test_another_class_with_the_same_values_is_unequal"),
    ("gfield:_is_prime", "return False"): (GUARD, "test_curve_params_validation"),
    ("gfield:_default_modulus",
     'raise RuntimeError(f"no irreducible degree-{m} polynomial over GF({p})")'):
        (INVARIANT, "test_a_degree_without_an_irreducible_modulus_is_a_broken_invariant"),
    ("gfield:FieldSpec.__init__",
     'raise ValueError(f"characteristic must be a prime integer, got {p!r}")'):
        (GUARD, "test_rejects_non_prime_characteristic"),
    ("gfield:FieldSpec.__init__",
     'raise ValueError(f"extension degree must be a positive integer, got {m!r}")'):
        (GUARD, "test_rejects_bad_degree"),
    ("gfield:FieldSpec.__init__",
     'raise ValueError(f"q = {p}^{m} is above the ceiling {_MAX_Q}: the field would "'):
        (GUARD, "test_a_field_above_the_ceiling_is_refused_before_any_work"),
    ("gfield:FieldElement._lookup", "return NotImplemented"):
        (API, "test_other_operands_are_refused"),
    ("gfield:FieldElement._lookup",
     'raise ValueError(f"mixed-field arithmetic between {self.spec!r} and {other.spec!r}")'):
        (GUARD, "test_mixed_field_arithmetic_is_an_error"),
    ("polygon:CurveParams.__init__",
     'raise ValueError(f"{name} must be an integer, got {value!r}")'):
        (GUARD, "test_validation_messages"),
    ("polygon:CurveParams.__init__", 'raise ValueError(f"genus must be at least 1, got {g}")'):
        (GUARD, "test_curve_params_validation"),
    # each fault LatticePolygon's walk reports; no command builds a faulty polygon
    ("polygon:LatticePolygon.__init__",
     'raise ValueError(f"vertices must be integral lattice points, got {v!r}")'):
        (GUARD, "test_validation_reports_one_fault_of_several_in_a_fixed_order"),
    ("polygon:LatticePolygon.__init__", "narrow = True"):
        (GUARD, "test_validation_reports_one_fault_of_several_in_a_fixed_order"),
    ("polygon:LatticePolygon.__init__", "from fractions import Fraction"):
        (GUARD, "test_validation_reports_one_fault_of_several_in_a_fixed_order"),
    ("polygon:LatticePolygon.__init__",
     'falls = f"{Fraction(pdy, pw)} then {Fraction(dy, w)}"'):
        (GUARD, "test_validation_reports_one_fault_of_several_in_a_fixed_order"),
    ("polygon:LatticePolygon.__init__",
     'raise ValueError("polygon needs at least two vertices")'):
        (GUARD, "test_validation_reports_one_fault_of_several_in_a_fixed_order"),
    ("polygon:LatticePolygon.__init__",
     'raise ValueError(f"polygon must start at (0, 0), got {verts[0]}")'):
        (GUARD, "test_validation_reports_one_fault_of_several_in_a_fixed_order"),
    ("polygon:LatticePolygon.__init__",
     'raise ValueError("vertex ranks must strictly increase")'):
        (GUARD, "test_validation_reports_one_fault_of_several_in_a_fixed_order"),
    ("polygon:LatticePolygon.__init__",
     'raise ValueError(f"segment slopes must strictly decrease, got {falls}")'):
        (GUARD, "test_validation_reports_one_fault_of_several_in_a_fixed_order"),
    ("polygon:dominates", "raise ValueError("):
        (GUARD, "test_dominates_requires_shared_endpoints"),
    # the commands compare only polygons that one dominates
    ("polygon:dominates", "if below:"): (API, "test_dominates_examples"),
    ("polygon:dominates", "return LESS_OR_EQUAL"): (API, "test_dominates_examples"),
    ("polygon:dominates", "return INCOMPARABLE"): (API, "test_dominates_examples"),
    ("polygon:enumerate_destabilized_polygons.<locals>.extend",
     'raise RuntimeError(f"search step from {(x0, y0)} to {(x, y0 + dy)} "'):
        (INVARIANT, "test_a_loosened_search_bound_is_a_broken_invariant"),
    ("polygon:enumerate_destabilized_polygons.<locals>.extend",
     'raise RuntimeError(f"closing step from {(x0, y0)} to {(r, end_y)} "'):
        (INVARIANT, "test_a_loosened_search_bound_is_a_broken_invariant"),
    ("polygon:enumerate_destabilized_polygons", "except RecursionError:"):
        (REFUSAL, "test_a_search_deeper_than_the_recursion_limit_is_refused"),
    ("polygon:enumerate_destabilized_polygons",
     'raise ValueError(f"r = {r} needs a polygon search deeper than Python\'s "'):
        (REFUSAL, "test_a_search_deeper_than_the_recursion_limit_is_refused"),
    ("polygon:bruteforce_destabilized_polygons",
     'raise ValueError(f"enumeration needs genus >= 2, got {params.g}")'):
        (GUARD, "test_validation_messages"),
    ("polygon:polygon_of_filtration",
     'raise ValueError("filtration needs at least one graded piece")'):
        (GUARD, "test_polygon_of_filtration_rejects_non_decreasing_slopes"),
    ("polygon:name_polygon",
     'raise ValueError(f"polygon ends at {P.endpoint}, expected {(r, p * d)}")'):
        (GUARD, "test_name_polygon_regime_errors"),
    ("polygon:name_polygon", "raise ValueError("): (GUARD, "test_name_polygon_regime_errors"),
    # the commands name only destabilized polygons, of two segments or more
    ("polygon:name_polygon", "return SEMISTABLE"): (API, "test_name_polygon_examples"),
    ("slopecalc:BundleData.__init__",
     'raise ValueError(f"rank must be positive, got {rank}")'):
        (GUARD, "test_bundle_data_validation"),
    ("slopecalc:pushforward_degree",
     'raise ValueError(f"characteristic must be at least 2, got {p}")'):
        (GUARD, "test_validation_messages"),
    ("slopecalc:pushforward_degree",
     'raise ValueError(f"genus must be non-negative, got {g}")'):
        (GUARD, "test_validation_messages"),
    ("slopecalc:degree_from_colength",
     'raise ValueError(f"colength must be 1, 2 or 3, got {colength}")'):
        (GUARD, "test_degree_from_colength"),
    ("slopecalc:canonical_filtration_degrees",
     'raise ValueError(f"genus must be at least 1, got {g}")'):
        (GUARD, "test_validation_messages"),
    ("slopecalc:sun_upper_bound",
     'raise ValueError(f"subrank must lie in 1..{p}, got {subrank}")'):
        (GUARD, "test_sun_upper_bound_rejects_bad_subrank"),
    ("slopecalc:_certificate",
     'raise ValueError(f"{name} must be an integer, got {value!r}")'):
        (GUARD, "test_certificates_refuse_arguments_that_are_not_ints"),
    ("slopecalc:_certificate",
     'raise ValueError(f"characteristic must be prime, got {p!r}")'):
        (GUARD, "test_certificates_refuse_arguments_that_are_not_ints"),
    ("slopecalc:_certificate",
     'raise ValueError(f"the subsheaf slope bound needs genus >= 2, got {g}")'):
        (REFUSAL, "test_certify_regime_error"),
    ("strata:moduli_dimension", 'raise ValueError(f"rank must be positive, got {r}")'):
        (GUARD, "test_moduli_dimension_formula"),
    ("strata:moduli_dimension",
     'raise ValueError(f"the dimension formula needs genus >= 2, got {g}")'):
        (GUARD, "test_moduli_dimension_formula"),
    ("strata:quot_fiber_dimension", "except KeyError:"): (GUARD, "test_quot_fiber_dimensions"),
    ("strata:quot_fiber_dimension",
     'raise ValueError(f"no parameter-space fiber for label {label!r}") from None'):
        (GUARD, "test_quot_fiber_dimensions"),
    ("strata:moduli_stratum_dimension",
     'raise ValueError(f"unknown stratum label {label!r}")'):
        (GUARD, "test_moduli_stratum_dimensions"),
    ("strata:moduli_stratum_dimension", "raise ValueError("):
        (GUARD, "test_moduli_stratum_dimensions"),
    ("strata:strata_table",
     'raise RuntimeError(f"the naming rule names no {\', \'.join(missing)} polygon at d = {d}")'):
        (INVARIANT, "test_strata_exits_1_naming_a_label_the_naming_rule_misses"),
}


def _readme_examples():
    """The argv of each `frobstrat ...  # comment` line in README."""
    text = README.read_text(encoding="utf-8")
    examples = [line.split() for line in re.findall(r"^frobstrat (.+?)\s+#", text, re.M)]
    assert len(examples) == 6
    return examples


def _defs():
    """(file, first line, name) -> module:Qualname of every def in the package;
    the first line of a decorated def is that of its first decorator, as in
    its code object's co_firstlineno."""
    defs = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = min([child.lineno] + [d.lineno for d in child.decorator_list])
                defs[path, line, child.name] = f"{Path(path).stem}:{prefix}{child.name}"
                visit(child, path, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in SOURCES:
        visit(ast.parse(path.read_text(encoding="utf-8")), str(path.resolve()), "")
    return defs


def _statements(path):
    """((def qualname, stripped first line), lines) of each statement inside a def of the
    file at ``path``: a simple statement's lines, or a compound statement's and an except
    clause's up to its body."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    found = []

    def visit(node, owner, prefix):
        for child in ast.iter_child_nodes(node):
            if owner and isinstance(child, (ast.stmt, ast.excepthandler)):
                body = getattr(child, "body", None)
                end = body[0].lineno - 1 if type(body) is list else child.end_lineno
                found.append(((owner, lines[child.lineno - 1].strip()),
                              set(range(child.lineno, end + 1))))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, prefix + child.name, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, owner, f"{prefix}{child.name}.")
            else:
                visit(child, owner, prefix)

    visit(ast.parse(text), None, "")
    return found


def _code_lines(code):
    """The lines that hold bytecode of ``code`` or of a code object nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if type(const) is type(code):
            lines |= _code_lines(const)
    return lines


@cache
def _traced():
    """(file, first line, name) of every function entered, and (file, line) of every
    line of a LEDGERED file run, while ``main`` runs each pinned argv and README example."""
    with open(GOLDENS, encoding="utf-8") as fh:
        argvs = [key.split(" ") for key in json.load(fh)]
    argvs += [*HELP, *REFUSALS, *_readme_examples()]
    # a cached result would hide its function's body from the trace
    for path in SOURCES:
        if path.stem != "__main__":
            module = importlib.import_module(f"frobstrat.{path.stem}")
            for value in vars(module).values():
                getattr(value, "cache_clear", lambda: None)()
    codes, lines = set(), set()
    ledgered = {str(path) for path in LEDGERED.values()}

    def on_line(frame, event, arg):
        lines.add((frame.f_code.co_filename, frame.f_lineno))
        return on_line

    def on_call(frame, event, arg):
        codes.add(frame.f_code)
        # only the LEDGERED files' frames report their lines, each event a Python call
        return on_line if frame.f_code.co_filename in ledgered else None

    outer = sys.gettrace()
    sys.settrace(on_call)
    try:
        for argv in argvs:
            run_argv(argv)
    finally:
        sys.settrace(outer)
    entered = {(str(Path(code.co_filename).resolve()), code.co_firstlineno, code.co_name)
               for code in codes}
    return entered, lines


def test_every_unreached_def_is_listed():
    defs = _defs()
    unreached = set(defs.values()) - {defs.get(key) for key in _traced()[0]}
    faults = [f"{name}: no command enters it; wire it in, move it to the tests "
              "or list it in UNREACHED" for name in sorted(unreached - UNREACHED.keys())]
    faults += [f"{name}: listed in UNREACHED, but "
               + ("no such def exists" if name not in defs.values() else "a command enters it")
               for name in sorted(UNREACHED.keys() - unreached)]
    assert not faults, "\n".join(faults)


def _unrun_faults(module):
    """What ``UNRUN`` gets wrong about the statements of LEDGERED file ``module``."""
    path, ran = LEDGERED[module], _traced()[1]
    listed = {key: entry for key, entry in UNRUN.items()
              if key[0].partition(":")[0] == module}
    statements, unrun = [], set()
    executable = _code_lines(compile(path.read_text(encoding="utf-8"), str(path), "exec"))
    for (owner, line), own in _statements(path):
        key, own = (f"{module}:{owner}", line), own & executable
        statements.append((key, own))
        # an unreached def's statements are its UNREACHED entry's
        if own and key[0] not in UNREACHED and not {(str(path), n) for n in own} & ran:
            unrun.add(key)
    tests = "".join(path.read_text(encoding="utf-8")
                    for path in Path(__file__).parent.glob("test_*.py"))
    faults = [f"{key}: no command runs it; wire it in or list it in UNRUN"
              for key in sorted(unrun - listed.keys())]
    faults += [f"{key}: listed in UNRUN, but "
               + ("a command runs it" if any(k == key and own for k, own in statements)
                  else "no such statement exists")
               for key in sorted(listed.keys() - unrun)]
    faults += [f"{key}: UNRUN names {test}, which no test file defines"
               for key, (_, test) in sorted(listed.items()) if f"def {test}(" not in tests]
    return faults


def test_every_unrun_cli_statement_is_listed():
    faults = _unrun_faults("cli")
    assert not faults, "\n".join(faults)


def test_every_unrun_localmodel_statement_is_listed():
    faults = _unrun_faults("localmodel")
    assert not faults, "\n".join(faults)


@pytest.mark.parametrize("module", sorted(LEDGERED.keys() - {"cli", "localmodel"}))
def test_every_unrun_statement_is_listed(module):
    faults = _unrun_faults(module)
    assert not faults, "\n".join(faults)


def test_every_unrun_entry_names_a_ledgered_module():
    strays = sorted(key for key in UNRUN if key[0].partition(":")[0] not in LEDGERED)
    assert not strays, strays
