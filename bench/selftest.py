#!/usr/bin/env python3
"""Self-test of the benchmark on tiny corpora (a few seconds).

    python3 bench/selftest.py

Checks, for every workload shape shrunk to a few short utterances:

* a timed run and a traced run each emit exactly the metrics BENCHMARK.json
  lists, with its units, and no op fails;
* the traced layer self times add up to the traced command wall time, and
  the work counts follow from the corpus size;
* the span file has one well-formed span per line;
* a decode transcript tampered on disk, and a report that differs from its
  pin, are both counted as failed ops.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import run

SEED = 3
SECONDS = 0.2
TINY = {
    "demo_k3": replace(run.WORKLOADS["demo_k3"], utterances=12, frames=(5, 9),
                       decode_chunk=5, setup_reps=2),
    "long_k20": replace(run.WORKLOADS["long_k20"], utterances=3, frames=(30, 40),
                        setup_reps=2),
}


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise AssertionError(what)


def check_names(result: dict, declared: list[dict], what: str) -> None:
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    expect(got == want, f"{what}: metrics {sorted(got.items())} != {sorted(want.items())}")
    for name, m in result["metrics"].items():
        expect(isinstance(m["value"], (int, float)) and math.isfinite(m["value"]),
               f"{what}: {name} = {m['value']!r}")


def check_clean(result: dict, what: str) -> None:
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
           f"{what}: {result['failed']} of {result['attempted']} ops failed")


def test_workload(name: str, wl: run.Workload, declared: dict) -> None:
    timed = run.run(name, wl, SEED, SECONDS, trace=False, pins={})
    check_clean(timed, f"{name} timed")
    check_names(timed, declared["end_to_end"], f"{name} timed")
    for metric, m in timed["metrics"].items():
        expect(m["value"] > 0, f"{name}: {metric} is not positive")

    traced = run.run(name, wl, SEED, SECONDS, trace=True, pins={})
    check_clean(traced, f"{name} traced")
    check_names(traced, declared["per_layer"], f"{name} traced")
    v = {metric: m["value"] for metric, m in traced["metrics"].items()}
    self_total = sum(x for metric, x in v.items()
                     if metric.endswith(".self_s") and not metric.startswith("trace."))
    expect(math.isclose(self_total, v["trace.command_wall_s"], rel_tol=1e-9),
           f"{name}: self times {self_total} != command wall {v['trace.command_wall_s']}")
    utts = wl.utterances
    expect(v["decoder.viterbi_decode.calls"] == (len(run.ORDERS) + 1) * utts,
           f"{name}: viterbi calls")
    expect(v["dataio.load_posteriors.calls"] == 2 * utts, f"{name}: load_posteriors calls")
    expect(v["dataio.load_hmm.calls"] == 1 + utts + wl.corpus_in_setup, f"{name}: load_hmm calls")
    expect(v["dataio.generate_corpus.us_per_frame"] > 0, f"{name}: generator frames")

    lines = (run.WORK / f"spans-{name}-s{SEED}.jsonl").read_text(encoding="utf-8").splitlines()
    for line in lines:
        span = json.loads(line)
        expect(set(span) == {"id", "name", "start", "end", "parent", "run"}
               and span["end"] >= span["start"], f"{name}: bad span {line}")


def test_tampered_transcript() -> None:
    _, dataio = run.import_program()
    original = dataio.save_transcript

    def tampering(tokens, path):
        if Path(path).parent.name == "hyp" and Path(path).stem == "utt0001":
            tokens = tuple(tokens) + ("tampered",)
        original(tokens, path)

    dataio.save_transcript = tampering
    try:
        result = run.run("demo_k3", TINY["demo_k3"], SEED, SECONDS, trace=False, pins={})
    finally:
        dataio.save_transcript = original
    expect(not result["correct"] and result["failed"] >= 1,
           f"tampered transcript not caught: {result['failed']} failed ops")


def test_wrong_pin() -> None:
    pins = {"long_k20": {str(SEED): {"report": "0" * 64, "transcripts": "0" * 64}}}
    result = run.run("long_k20", TINY["long_k20"], SEED, SECONDS, trace=False, pins=pins)
    expect(result["failed"] == result["attempted"],
           f"wrong pin: only {result['failed']} of {result['attempted']} ops failed")


def main() -> int:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expect([w["name"] for w in declared["workloads"]] == list(run.WORKLOADS),
           "BENCHMARK.json workloads differ from run.WORKLOADS")
    for name, wl in TINY.items():
        test_workload(name, wl, declared)
        print(f"ok {name}", flush=True)
    test_tampered_transcript()
    print("ok tampered transcript is a failed op")
    test_wrong_pin()
    print("ok output differing from its pin is a failed op")
    return 0


if __name__ == "__main__":
    sys.exit(main())
