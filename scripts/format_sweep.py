#!/usr/bin/env python3
"""Time the two routes of the posterior writer per entry count, for FORMAT_MIN_ENTRIES.

    python3 scripts/format_sweep.py --entries 60,200,300,400,500,5000 --cpu 1

For each entry count N this builds --calls seeded matrices of --classes
columns and ceil(N / classes) rows, shaped as the corpus generator's:
exponential weights, one class's times --concentration, each row divided by
its sum. It then times these routes over all the matrices, once each per
round:

* ``template``: `dataio._template_text`, one `%` on a template;
* ``digits``: `dataio._digits_text`, the numpy route.

Before timing, both must return the same text for every matrix. Rounds
alternate the order of the routes. Each line gives N, the median
microseconds per matrix of each route, and the median of the per-round
ratios digits/template (below 1: the numpy route is faster) with the number
of rounds it was faster. --cpu pins this process, and only this process,
to one CPU.
"""

import argparse
import math
import os
import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from minkdecode import dataio  # noqa: E402


def int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part]


def matrices(n: int, args) -> list[np.ndarray]:
    rng = np.random.default_rng([args.seed, n])
    rows = math.ceil(n / args.classes)
    out = []
    for _ in range(args.calls):
        w = rng.exponential(size=(rows, args.classes))
        w[np.arange(rows), rng.integers(0, args.classes, rows)] *= args.concentration
        out.append(w / w.sum(axis=1, keepdims=True))
    return out


def sweep_one(n: int, args) -> str:
    calls = matrices(n, args)
    routes = {"template": dataio._template_text, "digits": dataio._digits_text}
    for m in calls:
        if routes["digits"](m) != routes["template"](m):
            raise AssertionError(f"N={n}: the routes' texts differ")
    times = {name: [] for name in routes}
    names = list(routes)
    for round_ in range(args.rounds):
        for name in names if round_ % 2 == 0 else names[::-1]:
            route = routes[name]
            start = time.perf_counter()
            for m in calls:
                route(m)
            times[name].append((time.perf_counter() - start) / len(calls) * 1e6)
    ratios = [d / t for d, t in zip(times["digits"], times["template"])]
    faster = sum(r < 1.0 for r in ratios)
    fields = [f"entries={calls[0].size:<6d}"]
    fields += [f"{name} {statistics.median(ts):9.2f} us" for name, ts in times.items()]
    fields.append(f"digits/template {statistics.median(ratios):.3f} ({faster}/{args.rounds})")
    return "  ".join(fields)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--entries", type=int_list, default="60,100,200,300,400,500,1000,5000",
                        help="entry counts, each rounded up to whole rows")
    parser.add_argument("--classes", type=int, default=20)
    parser.add_argument("--concentration", type=float, default=30.0)
    parser.add_argument("--calls", type=int, default=20, help="matrices per route and round")
    parser.add_argument("--rounds", type=int, default=40)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--cpu", type=int, help="pin this process to one CPU")
    args = parser.parse_args()

    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    print(f"{args.classes} classes, concentration {args.concentration:g}, {args.calls} calls, "
          f"{args.rounds} rounds, FORMAT_MIN_ENTRIES={dataio.FORMAT_MIN_ENTRIES}", flush=True)
    for n in args.entries:
        print(sweep_one(n, args), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
