"""Capture the golden answers for every valid argv of every workload.

    python3 frobbench/make_goldens.py

Rewrites frobbench/goldens.json from the program under src/.  Run it only on
a commit whose answers are trusted: the benchmark then holds every later
commit to byte-identical output.
"""

from __future__ import annotations

import json
import sys
from collections import Counter

import checks
import run
import workloads


def main():
    sys.path.insert(0, str(run.SRC))
    import frobstrat.cli as cli

    goldens, codes = {}, Counter()
    for workload in workloads.WORKLOADS:
        for argv in workloads.space(workload):
            rc, out, err, *_ = run.call(cli, argv)
            goldens[checks.golden_key(argv)] = checks.golden_record(rc, out, err)
            codes[workload, rc] += 1
    with open(checks.GOLDENS, "w", encoding="utf-8") as fh:
        json.dump(goldens, fh, indent=0, sort_keys=True)
        fh.write("\n")
    for (workload, rc), n in sorted(codes.items()):
        print(f"{workload}: {n} argv(s) exit {rc}")


if __name__ == "__main__":
    main()
