"""frobstrat benchmark: one closed-loop client sending seeded requests through
``frobstrat.cli.main`` in this process, checking every answer.

    python3 frobbench/run.py --workload census --seed 1 --seconds 16 --trace 0

Run from the repository root; the program is imported from ``src/``.  A run
warms up on the first requests of a pass (about 2 s) and then makes
round(seconds / nominal pass time) measured passes of the seeded requests
(see ``workloads.py``); requests are sent one at a time, each after the
previous answer.

--trace 0 prints the end-to-end metrics, measured with tracing off.  Every
time in them is scaled to one reference host speed by ``hostspeed.Meter``,
which times a fixed kernel of the benchmark's own every 50 ms during the
passes (and five times in each set-up interpreter), so that the shared host's
swings in speed cancel; the detail line before the result gives the measured
wall-clock wall_s and setup_s beside them.
  setup_s      median over fresh interpreters of importing frobstrat and
               building the workload's fields with field_make; the
               interpreters are started in groups after the warm-up and after
               each measured pass, so they sample the whole run, not one moment
  wall_s       median over passes of the summed request latencies of a pass
  items_per_s  median over passes of items / pass time; an item is a point
               classified (census), a polygon emitted (search), a polygon
               confirmed by the box scan (crosscheck) or a request (sweep)
  job_ms_p50   median over passes of the pass's median request latency
  job_ms_tail  median over passes of the pass's latency at the highest
               percentile with at least 10 requests beyond it (p96.53 of a
               288-request sweep pass); in a pass of under 20 requests that
               percentile would fall below the median, so the pass's slowest
               request is taken instead
  peak_rss_mb  peak resident memory of this process

--trace 1 replays the first measured pass three times untraced and three
times traced, alternating, and prints the per-layer metrics: <layer>.calls,
the extra counts and localmodel.span_builds_per_point from one traced replay
(they are the same in each), <layer>.self_s as the median over the traced
replays.  The tracing overhead is the median over the pairs of traced minus
untraced pass time.  The spans of every traced replay are written to
.frobbench/spans-<workload>-<seed>.json.

The last stdout line is one JSON object with "correct", "attempted",
"failed" and "metrics".  "failed" counts requests whose answer is not the
expected one: invalid inputs that were not rejected with exit 2, and wrong
answers to valid inputs.  Each of them except the known non-prime certify
defect (see ``checks.py``) also makes "correct" false.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import hostspeed
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".frobbench"
SETUP_PROBES = 21
TRACE_PAIRS = 3
WARMUP_SECONDS = 2.0

# Times one fresh interpreter's import of frobstrat plus its field builds,
# then the host-speed kernel (imported after, so that the modules it loads do
# not speed up the import being timed).
SETUP_PROBE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import frobstrat
for pm in sys.argv[3:]:
    frobstrat.field_make(*map(int, pm.split(":")))
seconds = time.perf_counter() - t0
sys.path.insert(0, sys.argv[2])
import hostspeed, statistics
print(seconds, statistics.median(hostspeed.timed_kernel() for _ in range(SETUP_KERNELS)))
"""
SETUP_KERNELS = 5


def measure_setup(fields, probes):
    """(measured, scaled to the reference host speed) set-up times of
    ``probes`` fresh interpreters, one after another."""
    args = [f"{p}:{m}" for p, m in fields]
    probe = SETUP_PROBE.replace("SETUP_KERNELS", str(SETUP_KERNELS))
    times = []
    for _ in range(probes):
        done = subprocess.run([sys.executable, "-I", "-c", probe, str(SRC), str(HERE), *args],
                              capture_output=True, text=True, timeout=60, check=True)
        seconds, kernel = map(float, done.stdout.split())
        times.append((seconds, seconds * hostspeed.REFERENCE_S / kernel))
    return times


def call(cli, argv):
    """(exit code, stdout, stderr, start, end) of one request."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except Exception as exc:  # a crash is a wrong answer, not the end of the run
            rc = f"{type(exc).__name__}: {exc}"
    end = time.perf_counter()
    return rc, out.getvalue(), err.getvalue(), start, end


class PassResult:
    def __init__(self):
        self.latencies = []
        self.measured = []  # wall-clock latencies, before scaling to the reference speed
        self.items = 0
        self.points = 0
        self.attempted = 0
        self.failed = 0
        self.wrong = []

    @property
    def seconds(self):
        return sum(self.latencies)


def run_pass(workload, requests, goldens, cli, tracer=None, budget=None, meter=None):
    """Send the requests one by one and check each answer; with ``budget``
    stop after the request that brings the pass past that many seconds.
    With a ``meter`` (a running ``hostspeed.Meter``) latencies are scaled to
    the reference host speed."""
    res = PassResult()
    for rid, req in enumerate(requests):
        if budget is not None and res.seconds >= budget:
            break
        if tracer is not None:
            tracer.request = rid
        rc, out, err, start, end = call(cli, req.argv)
        res.measured.append(end - start)
        res.latencies.append(end - start if meter is None else meter.scaled(start, end))
        outcome, problem, info = checks.check(req, rc, out, err, goldens)
        res.attempted += 1
        res.points += info["points"]
        if outcome != checks.OK:
            res.failed += 1
        if outcome == checks.WRONG:
            res.wrong.append(f"{' '.join(req.argv)}: {problem}")
        res.items += {"census": info["points"], "search": info["polygons"],
                      "crosscheck": info["confirmed"], "sweep": 1}[workload]
    return res


def tail(latencies):
    """(value, percentile, requests beyond it) of one pass: the highest
    percentile with at least 10 requests beyond it, or the slowest request
    when the pass has under 20 requests."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 20:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def environment(args):
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "nproc": os.cpu_count(), "platform": platform.platform()}


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args, plan, goldens, cli):
    fields = workloads.FIELDS[args.workload]
    group = -(-SETUP_PROBES // len(plan))  # one group per pass, warm-up included
    with hostspeed.Meter() as meter:
        warm = run_pass(args.workload, plan[0], goldens, cli, budget=WARMUP_SECONDS, meter=meter)
    setup = measure_setup(fields, group)
    measured = []
    for reqs in plan[1:]:
        with hostspeed.Meter() as meter:
            measured.append(run_pass(args.workload, reqs, goldens, cli, meter=meter))
        setup += measure_setup(fields, group)
    results = [warm, *measured]
    tails = [tail(r.latencies) for r in measured]
    _, tail_pct, beyond = tails[0]  # every pass of a workload has as many requests
    attempted = sum(r.attempted for r in measured)
    failed = sum(r.failed for r in measured)
    metrics = {
        "setup_s": metric(statistics.median(s for _, s in setup), "s"),
        "wall_s": metric(statistics.median(r.seconds for r in measured), "s"),
        "items_per_s": metric(statistics.median(r.items / r.seconds for r in measured), "1/s"),
        "job_ms_p50": metric(
            1000 * statistics.median(statistics.median(r.latencies) for r in measured), "ms"),
        "job_ms_tail": metric(1000 * statistics.median(t[0] for t in tails), "ms"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    detail = {"passes": len(measured), "requests": attempted, "setup_probes": len(setup),
              "tail_percentile": round(tail_pct, 2), "tail_beyond": beyond,
              "fail_ratio": failed / attempted,
              "measured_setup_s": statistics.median(m for m, _ in setup),
              "measured_wall_s": statistics.median(sum(r.measured) for r in measured)}
    return results, attempted, failed, metrics, detail


def per_layer(args, plan, goldens, cli):
    warm, replay = plan
    run_pass(args.workload, warm, goldens, cli, budget=WARMUP_SECONDS)
    untraced, traced, tracers = [], [], []
    for _ in range(TRACE_PAIRS):
        untraced.append(run_pass(args.workload, replay, goldens, cli))
        with tracing.Tracer() as tracer:
            traced.append(run_pass(args.workload, replay, goldens, cli, tracer))
        tracers.append(tracer)
    selfs = [tracing.self_times(t.spans) for t in tracers]
    first = tracers[0]
    metrics = {}
    for entry in tracing.LAYERS:
        name = tracing.layer_name(entry)
        metrics[f"{name}.calls"] = metric(selfs[0].get(name, (0, 0.0))[0], "count")
        metrics[f"{name}.self_s"] = metric(
            statistics.median(s.get(name, (0, 0.0))[1] for s in selfs), "s")
        if len(entry) > 2:
            key = f"{name}.{entry[2]}"
            metrics[key] = metric(first.counts[key], "count")
    builds = metrics["localmodel.pullback_span.calls"]["value"]
    metrics["localmodel.span_builds_per_point"] = metric(
        builds / traced[0].points if traced[0].points else 0.0, "ratio")
    detail = {"requests": traced[0].attempted,
              "untraced_wall_s": statistics.median(r.seconds for r in untraced),
              "traced_wall_s": statistics.median(r.seconds for r in traced),
              "tracing_overhead_s": statistics.median(
                  t.seconds - u.seconds for u, t in zip(untraced, traced)),
              "spans": len(first.spans)}
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"spans-{args.workload}-{args.seed}.json", "w", encoding="utf-8") as fh:
        json.dump({"fields": list(tracing.Span._fields),
                   "replays": [[list(s) for s in t.spans] for t in tracers]}, fh)
    return [*untraced, *traced], traced[0].attempted, traced[0].failed, metrics, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=16)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "frobstrat" / "cli.py").is_file():
        print(f"error: no frobstrat sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import frobstrat.cli as cli

    goldens = checks.load_goldens()
    if args.trace:
        plan = workloads.passes(args.workload, args.seed, 2)
        results, attempted, failed, metrics, detail = per_layer(args, plan, goldens, cli)
    else:
        plan = workloads.passes(args.workload, args.seed,
                                1 + workloads.measured_passes(args.workload, args.seconds))
        results, attempted, failed, metrics, detail = end_to_end(args, plan, goldens, cli)
    wrong = [w for r in results for w in r.wrong]
    for line in wrong[:20]:
        print(f"wrong: {line}", file=sys.stderr)
    print(json.dumps({"environment": environment(args), **detail}))
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
