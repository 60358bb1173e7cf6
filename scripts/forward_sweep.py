#!/usr/bin/env python3
"""Time Viterbi's forward passes per state count K, for SCALAR_MAX_STATES.

    python3 scripts/forward_sweep.py --states 3,10,11,12,20 --frames 10:25 --cpu 1

For each K this builds a seeded sticky HMM (stay 0.8, the rest of each row
Dirichlet-drawn) and --calls seeded matrices of Dirichlet posterior rows,
and times these passes over all the calls, once each per round:

* ``array``: `decoder._array_forward` as committed;
* ``scalar``: `decoder._scalar_forward`, up to K = --scalar-max (its
  generated source grows as K squared);
* ``base``: the array pass of another checkout's ``src`` directory
  (--baseline), such as the parent commit's.

Before timing, every pass must return what the array pass does, bit for
bit: the last frame's scores with their sign bits, and every backpointer.
Rounds alternate the order of the passes. Each line gives K, the median
microseconds per call of each pass, and for each other pass the median of
its per-round ratios array/pass (below 1: the committed array pass is
faster) with the number of rounds the array pass was faster. --cpu pins
this process, and only this process, to one CPU.
"""

import argparse
import importlib.util
import os
import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from minkdecode import HmmModel, PosteriorMatrix, decoder, to_log_scores  # noqa: E402
from minkdecode.pipeline import parse_frames  # noqa: E402

STAY = 0.8


def int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part]


def sticky_hmm(rng, k: int) -> HmmModel:
    trans = (1.0 - STAY) * rng.dirichlet(np.ones(k), size=k) + STAY * np.eye(k)
    return HmmModel.from_probs(rng.dirichlet(np.ones(k)), trans,
                               [f"s{i}" for i in range(k)], list(range(k)))


def load_baseline(src: str):
    """The package under src, imported beside this checkout's under another name."""
    init = Path(src, "minkdecode", "__init__.py")
    spec = importlib.util.spec_from_file_location(
        "baseline_minkdecode", init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = package
    spec.loader.exec_module(package)
    return package


def passes_for(k: int, hmm: HmmModel, args, base) -> dict:
    """Each pass to time, as a function of the emissions alone."""
    passes = {"array": lambda emis: decoder._array_forward(emis, hmm)}
    if k <= args.scalar_max:
        passes["scalar"] = lambda emis: decoder._scalar_forward(emis, hmm)
    if base is not None:
        base_hmm = base.HmmModel(hmm.log_initial, hmm.log_transitions,
                                 hmm.state_labels, hmm.state_to_class)
        passes["base"] = lambda emis: base.decoder._array_forward(emis, base_hmm)
    return passes


def bits(result) -> tuple[bytes, list]:
    """A forward pass's result with every sign bit kept."""
    delta, backptr = result
    return np.asarray(delta, dtype=np.float64).tobytes(), [list(prev) for prev in backptr]


def sweep_one(k: int, args, base) -> str:
    rng = np.random.default_rng([args.seed, k])
    hmm = sticky_hmm(rng, k)
    lo, hi = args.frames
    calls = []
    for _ in range(args.calls):
        rows = rng.dirichlet(np.ones(k), size=int(rng.integers(lo, hi + 1)))
        calls.append(decoder._emissions(to_log_scores(PosteriorMatrix(rows)), hmm))
    passes = passes_for(k, hmm, args, base)
    for emis in calls:  # also compiles the scalar kernel before any timing
        want = bits(passes["array"](emis))
        for name, forward in passes.items():
            if bits(forward(emis)) != want:
                raise AssertionError(f"K={k}: {name} differs from the array pass")
    times = {name: [] for name in passes}
    names = list(passes)
    for round_ in range(args.rounds):
        for name in names if round_ % 2 == 0 else names[::-1]:
            forward = passes[name]
            start = time.perf_counter()
            for emis in calls:
                forward(emis)
            times[name].append((time.perf_counter() - start) / len(calls) * 1e6)
    fields = [f"K={k:<4d}"]
    fields += [f"{name} {statistics.median(ts):9.2f} us" for name, ts in times.items()]
    for name in names[1:]:
        ratios = [a / b for a, b in zip(times["array"], times[name])]
        faster = sum(r < 1.0 for r in ratios)
        fields.append(f"array/{name} {statistics.median(ratios):.3f} ({faster}/{args.rounds})")
    return "  ".join(fields)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--states", type=int_list, default="3,10,11,12,16,20,32,64,65,128")
    parser.add_argument("--frames", type=parse_frames, default="10:25",
                        help="frames per call, 'N' or 'LO:HI'")
    parser.add_argument("--calls", type=int, default=100, help="calls per pass and round")
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--scalar-max", type=int, default=20)
    parser.add_argument("--baseline", help="src directory of a checkout to time against")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--cpu", type=int, help="pin this process to one CPU")
    args = parser.parse_args()

    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    base = None if args.baseline is None else load_baseline(args.baseline)
    print(f"frames {args.frames[0]}-{args.frames[1]}, {args.calls} calls, "
          f"{args.rounds} rounds, SCALAR_MAX_STATES={decoder.SCALAR_MAX_STATES}", flush=True)
    for k in args.states:
        print(sweep_one(k, args, base), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
