"""Tests of the benchmark itself: python3 -m pytest frobbench -q"""

from __future__ import annotations

import json
import signal
import sys
from pathlib import Path

import pytest

import checks
import hostspeed
import run
import tracing
import workloads

sys.path.insert(0, str(run.SRC))

import frobstrat.cli as cli  # noqa: E402
from frobstrat import localmodel  # noqa: E402

SEEDS = range(40)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_a_seed_gives_the_same_argv_lists(workload):
    first = workloads.passes(workload, 7, 3)
    assert first == workloads.passes(workload, 7, 3)
    assert first != workloads.passes(workload, 8, 3)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_goldens_cover_the_parameter_space(workload):
    goldens = checks.load_goldens()
    space = set(workloads.space(workload))
    assert all(checks.golden_key(argv) in goldens for argv in space)
    generated = {req.argv for seed in SEEDS
                 for reqs in workloads.passes(workload, seed, 2) for req in reqs if req.valid}
    assert generated <= space


def _cost_class(req):
    """A request without the arguments the seed may vary at no cost."""
    free = {"--d", "--t", "--format"}
    kept = [a for i, a in enumerate(req.argv) if a not in free and req.argv[i - 1] not in free]
    return (True, *kept) if req.valid else (False, req.argv[:2] == ("certify", "--p"))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_pass_has_the_same_cost_classes(workload):
    shapes = {tuple(sorted(map(_cost_class, reqs)))
              for seed in range(5) for reqs in workloads.passes(workload, seed, 3)}
    assert len(shapes) == 1


def test_sweep_invalid_share_is_fixed():
    for reqs in workloads.passes("sweep", 3, 4):
        invalid = [r for r in reqs if not r.valid]
        assert len(reqs) == sum(workloads.SWEEP_COUNTS.values()) + len(invalid)
        assert len(invalid) == workloads.SWEEP_NONPRIME + workloads.SWEEP_OTHER_INVALID


def _span(name, start, end, parent):
    return tracing.Span(name, start, end, parent, 0)


def test_self_time_of_a_synthetic_span_tree():
    spans = [
        _span("root", 0.0, 10.0, None),   # children cover 1..4 and 5..9
        _span("a", 1.0, 4.0, 0),          # child covers 2..3
        _span("leaf", 2.0, 3.0, 1),
        _span("a", 5.0, 9.0, 0),          # children overlap: cover 5..8
        _span("leaf", 5.0, 7.0, 3),
        _span("leaf", 6.0, 8.0, 3),
        _span("late", 9.5, 12.0, 0),      # runs past its parent: 9.5..10 counts
    ]
    got = tracing.self_times(spans)
    assert got["root"] == (1, pytest.approx(10.0 - 3.0 - 4.0 - 0.5))
    assert got["a"] == (2, pytest.approx((3.0 - 1.0) + (4.0 - 3.0)))
    assert got["leaf"] == (3, pytest.approx(1.0 + 2.0 + 2.0))
    assert got["late"] == (1, pytest.approx(2.5))


def test_wrappers_restore_the_original_functions():
    originals = {
        "cli.main": cli.main,
        "cli.field_make": cli.field_make,
        "localmodel.pullback_span": localmodel.pullback_span,
        "from_spanning": localmodel.SubspaceBasis.__dict__["from_spanning"],
    }
    with tracing.Tracer():
        assert cli.main is not originals["cli.main"]
        assert cli.field_make is not originals["cli.field_make"]
        assert localmodel.pullback_span is not originals["localmodel.pullback_span"]
        assert localmodel.SubspaceBasis.__dict__["from_spanning"] is not originals["from_spanning"]
    assert cli.main is originals["cli.main"]
    assert cli.field_make is originals["cli.field_make"]
    assert localmodel.pullback_span is originals["localmodel.pullback_span"]
    assert localmodel.SubspaceBasis.__dict__["from_spanning"] is originals["from_spanning"]


def test_traced_request_counts_calls_between_modules():
    with tracing.Tracer() as tracer:
        rc, out, *_ = run.call(cli, ["localmodel", "--q", "3"])
    assert rc == 0 and "Psi2=9" in out
    calls = {name: n for name, (n, _) in tracing.self_times(tracer.spans).items()}
    # 13 points, each built once by claim_results and once by intersection_colength
    assert calls["localmodel.pullback_span"] == 26
    assert calls["cli.main"] == 1
    assert tracer.counts["gfield.projective_plane.points"] == 2 * 13
    roots = [s for s in tracer.spans if s.parent is None]
    assert [s.name for s in roots] == ["cli.main"]


def test_per_layer_metric_names_match_benchmark_json():
    names = set()
    for entry in tracing.LAYERS:
        name = tracing.layer_name(entry)
        names |= {f"{name}.calls", f"{name}.self_s"}
        if len(entry) > 2:
            names.add(f"{name}.{entry[2]}")
    names.add("localmodel.span_builds_per_point")
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"] for m in bench["per_layer"]} == names
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)
    reference = json.loads(Path(__file__).with_name("reference.json").read_text())
    assert set(reference["end_to_end"]) == {m["name"] for m in bench["end_to_end"]}
    assert set(reference["per_layer"]) == (
        {tracing.layer_name(e) for e in tracing.LAYERS} | {"localmodel.span_builds_per_point"})


@pytest.mark.parametrize("verts, problem", [
    (((0, 0), (1, 1), (3, 0)), None),
    (((0, 0), (3, 0)), "fewer than two segments"),
    (((0, 0), (1, 1), (3, 1)), "endpoints"),
    (((0, 0), (1, 0), (3, 0)), "slopes do not strictly fall"),
    (((0, 0), (1, 3), (3, 0)), "slope gap exceeds 2"),
])
def test_polygon_check(verts, problem):
    got = checks.polygon_problem(verts, 3, 2, 3, 0)
    assert got == problem or (problem and got.startswith(problem))


def test_outcomes_follow_the_exit_code_rule_and_the_goldens():
    invalid = workloads.Request(("certify", "--p", "4", "--r", "4"), valid=False)
    assert checks.check(invalid, 2, "", "error: p", {})[0] == checks.OK
    assert checks.check(invalid, 1, "certificates ...", "", {})[0] == checks.FAILED
    other = workloads.Request(("enumerate", "--g", "1", "--d", "0"), valid=False)
    assert checks.check(other, 2, "", "error: g", {})[0] == checks.OK
    assert checks.check(other, 0, "found 0 polygons", "", {})[0] == checks.WRONG
    assert checks.check(other, 2, "usage", "error: g", {})[0] == checks.WRONG
    valid = workloads.Request(("strata", "--d", "0", "--format", "table"))
    rc, out, err, *_ = run.call(cli, valid.argv)
    goldens = {checks.golden_key(valid.argv): checks.golden_record(rc, out, err)}
    assert checks.check(valid, rc, out, err, goldens)[0] == checks.OK
    assert checks.check(valid, rc, out + " ", err, goldens)[0] == checks.WRONG
    assert checks.check(valid, rc, out, err, {})[0] == checks.WRONG


def test_meter_takes_its_kernels_out_and_scales_to_the_reference_speed():
    ref = hostspeed.REFERENCE_S
    meter = hostspeed.Meter()
    meter.starts = [0.0, 1.0, 1.5, 3.0]
    meter.durations = [ref, 2 * ref, 2 * ref, 2 * ref]
    # two kernels inside the request; the host ran at half the reference speed
    assert meter.scaled(0.9, 2.0) == pytest.approx((1.1 - 4 * ref) / 2)
    assert meter.scaled(0.1, 0.2) == pytest.approx(0.1 * 2 / 3)


def test_meter_samples_while_entered_and_restores_the_alarm():
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.Meter(period=0.01) as meter:
        rc, out, _, start, end = run.call(cli, ["localmodel", "--q", "9", "--M", "3"])
    assert rc == 0 and len(meter.durations) > 2
    assert 0 < meter.scaled(start, end) < 10 * (end - start)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
