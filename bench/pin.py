#!/usr/bin/env python3
"""Recompute bench/pinned.json, the output digests each benchmark run checks.

    python3 bench/pin.py --seeds 0-31 [--workload NAME ...]

For every workload and seed this sets up the workload, runs one experiment
and one decode pass, and records the sha256 of ``report.json`` and the digest
of the decode transcripts (see `run.transcripts_digest`). Run it only on a
commit whose outputs are known to be right: a later run of bench/run.py
counts every op whose output differs from the pin as failed. Entries for
other workloads and seeds are kept.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import run


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, required=True, help="N or LO-HI")
    parser.add_argument("--workload", action="append", choices=sorted(run.WORKLOADS))
    args = parser.parse_args()
    pins = run.load_pins()
    for name in args.workload or sorted(run.WORKLOADS):
        for seed in args.seeds:
            work = run.WORK / f"pin-{name}-s{seed}-p{os.getpid()}"
            try:
                bench = run.Bench(name, run.WORKLOADS[name], seed, {}, work)
                bench.setup(time_import=False)
                bench.warm_up()
                bench.unit(len(bench.corpus))
            finally:
                shutil.rmtree(work, ignore_errors=True)
            if bench.failed:
                print(f"{name} seed {seed}: {bench.failed} failed ops; not pinned",
                      file=sys.stderr)
                return 1
            pins.setdefault(name, {})[str(seed)] = {
                "report": bench.expected_report,
                "transcripts": bench.pass_digests[0],
            }
            print(f"{name} seed {seed} pinned", flush=True)
    run.PINNED.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
