"""Seeded request generators for the frobstrat benchmark.

A workload is a list of passes; a pass is a list of requests, each an argv
for ``frobstrat.cli.main``.  The seed decides the cost-neutral parts of each
request (degrees, auxiliary degrees, output format, order), while every pass
of a workload holds the same mix of cost classes, so two seeds ask different
questions of the same size.  Every valid argv a generator can produce lies in
the workload's finite parameter space (``space``), which the goldens cover.
"""

from __future__ import annotations

import random
from typing import NamedTuple

WORKLOADS = ("census", "search", "crosscheck", "sweep")

# Seconds one pass takes at the commit that defined the benchmark, on a
# 2-core x86-64 machine under Python 3.11.  A run makes
# round(seconds / PASS_SECONDS) measured passes, so its work depends on
# --seconds alone and never on how fast the program is.
PASS_SECONDS = {"census": 6.0, "search": 3.2, "crosscheck": 12.0, "sweep": 1.5}

# (p, m) of the fields each workload's requests build, timed by setup_s.
FIELDS = {
    "census": ((3, 3), (3, 2)),
    "search": (),
    "crosscheck": (),
    "sweep": ((3, 1),),
}

FORMATS = ("table", "json")
SWEEP_DEGREES = range(-4, 5)
SEARCH_REGIMES = ((3, 2, 7), (3, 2, 8), (5, 3, 6))
CROSSCHECK_RANK = 5
# (p, g, degrees): at p = 3, d = 0 makes the box scan visit 2,019,599
# candidates against 1,786,784 for d = 1..4, so it is left out to keep
# every seed's work equal; at p = 5 every degree visits 2,019,599.
CROSSCHECK_REGIMES = ((3, 2, range(1, 5)), (5, 2, range(5)))

# One sweep pass: requests per subcommand, then the invalid share.  12 of the
# 288 requests give certify a non-prime characteristic and 20 break another
# input rule; all 32 must exit 2.
SWEEP_COUNTS = {"strata": 60, "certify": 60, "dual": 60, "enumerate": 60, "localmodel": 16}
SWEEP_NONPRIME = 12
SWEEP_OTHER_INVALID = 20
NONPRIME_P = (4, 6, 8, 9)


class Request(NamedTuple):
    argv: tuple[str, ...]
    valid: bool = True


def _flags(fmt, verify):
    return ("--format", fmt) + (("--verify",) if verify else ())


def localmodel_argv(q, M, fmt, verify):
    return ("localmodel", "--q", str(q), "--M", str(M)) + _flags(fmt, verify)


def enumerate_argv(p, g, r, d, fmt="table", verify=False):
    return ("enumerate", "--p", str(p), "--g", str(g), "--r", str(r),
            "--d", str(d)) + _flags(fmt, verify)


def certify_argv(d, t, fmt, verify):
    t_flag = () if t is None else ("--t", str(t))
    return ("certify", "--d", str(d)) + t_flag + _flags(fmt, verify)


def _simple_argv(command, d, fmt, verify):
    return (command, "--d", str(d)) + _flags(fmt, verify)


def _certify_ts(d):
    # default (d - 1), both passing degrees and two failing ones; t >= d - 2
    # keeps the push-forward large enough for a degree-d subsheaf.
    return (None, d - 2, d - 1, d, d + 1)


CENSUS_CLASSES = ((27, 3, False), (27, 3, True),
                  (9, 3, False), (9, 3, True), (9, 4, False), (9, 4, True))


def space(workload):
    """Every valid argv the workload's generator can produce."""
    if workload == "census":
        return [localmodel_argv(q, M, fmt, v)
                for q, M, v in CENSUS_CLASSES for fmt in FORMATS]
    if workload == "search":
        return [enumerate_argv(p, g, r, d, fmt)
                for p, g, r in SEARCH_REGIMES for d in range(r) for fmt in FORMATS]
    if workload == "crosscheck":
        return [enumerate_argv(p, g, CROSSCHECK_RANK, d, verify=True)
                for p, g, degrees in CROSSCHECK_REGIMES for d in degrees]
    if workload == "sweep":
        out = []
        for fmt in FORMATS:
            for v in (False, True):
                for d in SWEEP_DEGREES:
                    out.append(_simple_argv("strata", d, fmt, v))
                    out.append(_simple_argv("dual", d, fmt, v))
                    out.append(enumerate_argv(3, 2, 3, d, fmt, v))
                    out.extend(certify_argv(d, t, fmt, v) for t in _certify_ts(d))
                for M in (3, 4):
                    out.append(localmodel_argv(3, M, fmt, v))
        return out
    raise ValueError(f"unknown workload {workload!r}")


def _census_pass(rng):
    reqs = [Request(localmodel_argv(q, M, rng.choice(FORMATS), v))
            for q, M, v in CENSUS_CLASSES]
    rng.shuffle(reqs)
    return reqs


def _search_pass(rng):
    reqs = [Request(enumerate_argv(p, g, r, rng.randrange(r), rng.choice(FORMATS)))
            for p, g, r in SEARCH_REGIMES]
    rng.shuffle(reqs)
    return reqs


def _crosscheck_pass(rng):
    reqs = [Request(enumerate_argv(p, g, CROSSCHECK_RANK, rng.choice(degrees), verify=True))
            for p, g, degrees in CROSSCHECK_REGIMES]
    rng.shuffle(reqs)
    return reqs


def _invalid_argv(rng):
    d = str(rng.choice(SWEEP_DEGREES))
    return rng.choice((
        ("localmodel", "--q", str(rng.choice((2, 6, 10, 12)))),
        ("localmodel", "--q", "3", "--M", "2"),
        ("enumerate", "--g", "1", "--d", d),
        ("enumerate", "--p", "4", "--d", d),
        ("enumerate", "--r", "0"),
        ("certify", "--r", "2", "--d", d),
        ("strata", "--d", "x"),
        ("dual", "--d", "1.5"),
    ))


def _sweep_pass(rng):
    reqs = []
    for command, n in SWEEP_COUNTS.items():
        # verify on exactly half the requests; localmodel also splits each
        # half evenly between M = 3 and M = 4
        slots = [(i % 2 == 1, 3 + i // 2 % 2) for i in range(n)]
        rng.shuffle(slots)
        for verify, M in slots:
            fmt = rng.choice(FORMATS)
            d = rng.choice(SWEEP_DEGREES)
            if command == "certify":
                argv = certify_argv(d, rng.choice(_certify_ts(d)), fmt, verify)
            elif command == "enumerate":
                argv = enumerate_argv(3, 2, 3, d, fmt, verify)
            elif command == "localmodel":
                argv = localmodel_argv(3, M, fmt, verify)
            else:
                argv = _simple_argv(command, d, fmt, verify)
            reqs.append(Request(argv))
    for _ in range(SWEEP_NONPRIME):
        p = str(rng.choice(NONPRIME_P))
        reqs.append(Request(("certify", "--p", p, "--r", p,
                             "--d", str(rng.choice(SWEEP_DEGREES))), valid=False))
    reqs.extend(Request(_invalid_argv(rng), valid=False) for _ in range(SWEEP_OTHER_INVALID))
    rng.shuffle(reqs)
    return reqs


_PASS = {"census": _census_pass, "search": _search_pass,
         "crosscheck": _crosscheck_pass, "sweep": _sweep_pass}


def passes(workload, seed, count):
    """``count`` passes of seeded requests; the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    return [_PASS[workload](rng) for _ in range(count)]


def measured_passes(workload, seconds):
    return max(1, round(seconds / PASS_SECONDS[workload]))
