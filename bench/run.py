#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the minkdecode pipeline.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program is imported from
``src/`` of that checkout and driven in-process through
``minkdecode.cli.main``. Inputs (HMM, experiment config, corpus) are made
here from the workload shape and ``--seed``; the program only sees the files.
Scratch files go under ``.bench_work/`` and are removed on exit, except the
span file a traced run writes there.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0`` gives
the end-to-end metrics (END_TO_END) as times steadied against the host's
speed (hostspeed.py), ``--trace 1`` the per-layer ones (PER_LAYER). See
bench/README.md for their definitions.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import hostspeed
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
PINNED = Path(__file__).resolve().parent / "pinned.json"

ORDERS = (2, 4, 6)
DECODE_ORDER = 4
CONFUSION_RATE = 0.3
# Utterance i of a corpus draws from SplitMix64(noise_seed + i); spacing the
# noise seeds of consecutive benchmark seeds this far apart keeps their
# corpora disjoint.
SEED_STRIDE = 1_000_000

END_TO_END = (
    ("experiment_s", "s"),
    ("decode_ms_p50", "ms"),
    ("decode_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("dataio.generate_corpus.self_s", "s"),
    ("dataio.generate_corpus.us_per_frame", "us"),
    ("dataio.save_posteriors.self_s", "s"),
    ("dataio.save_posteriors.bytes_written", "bytes"),
    ("dataio.load_posteriors.self_s", "s"),
    ("dataio.load_posteriors.us_per_frame", "us"),
    ("dataio.load_posteriors.bytes_read", "bytes"),
    ("dataio.load_posteriors.calls", "count"),
    ("dataio.load_hmm.self_s", "s"),
    ("dataio.load_hmm.calls", "count"),
    ("dataio.load_transcript.self_s", "s"),
    ("dataio.save_transcript.self_s", "s"),
    ("posteriors.transform_matrix.self_s", "s"),
    ("posteriors.transform_matrix.ns_per_entry", "ns"),
    ("posteriors.transform_matrix.entries", "count"),
    ("posteriors.to_log_scores.self_s", "s"),
    ("posteriors.to_log_scores.ns_per_entry", "ns"),
    ("decoder.viterbi_decode.self_s", "s"),
    ("decoder.viterbi_decode.us_per_frame", "us"),
    ("decoder.viterbi_decode.ns_per_frame_state2", "ns"),
    ("decoder.viterbi_decode.calls", "count"),
    ("decoder.viterbi_decode.frames", "count"),
    *((f"decoder.viterbi_decode.override_frames.order{n}", "count") for n in ORDERS),
    ("scoring.align_and_score.self_s", "s"),
    ("scoring.align_and_score.cells", "count"),
    ("scoring.align_and_score.ns_per_cell", "ns"),
    ("cli.experiment.self_s", "s"),
    ("cli.decode.self_s", "s"),
    ("trace.command_wall_s", "s"),
    ("trace.overhead_s", "s"),
)


class BenchError(Exception):
    """The benchmark cannot run here (no program, bad arguments)."""


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def sticky_hmm(states: int, stay: float) -> dict:
    """Uniform start; stay with probability `stay`, else move uniformly."""
    move = (1.0 - stay) / (states - 1)
    return {
        "num_states": states,
        "initial": [1.0 / states] * states,
        "transitions": [[stay if i == j else move for j in range(states)]
                        for i in range(states)],
        "labels": [f"s{i}" for i in range(states)],
        "state_to_class": list(range(states)),
    }


DEMO_HMM = {  # the README / scripts/run_experiment.py demo model
    "num_states": 3,
    "initial": [0.5, 0.3, 0.2],
    "transitions": [[0.90, 0.05, 0.05], [0.05, 0.90, 0.05], [0.05, 0.05, 0.90]],
    "labels": ["red", "green", "blue"],
    "state_to_class": [0, 1, 2],
}


@dataclass(frozen=True)
class Workload:
    hmm: dict
    utterances: int
    frames: tuple[int, int]
    concentration: float
    # True: the corpus is generated once in set-up and read through a
    # manifest. False: every experiment generates it again.
    corpus_in_setup: bool
    # Files decoded after each timed experiment; the chunks walk the corpus
    # in order, so every file is decoded once per pass.
    decode_chunk: int
    setup_reps: int


WORKLOADS = {
    "demo_k3": Workload(DEMO_HMM, 2000, (10, 25), 100.0, False, 200, 9),
    "long_k20": Workload(sticky_hmm(20, 0.8), 100, (200, 300), 30.0, True, 100, 3),
}


# ---------------------------------------------------------------------------
# output checks (independent of the program's own code)
# ---------------------------------------------------------------------------

def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def tokens(text: str) -> list[str]:
    return [ln.strip() for ln in text.splitlines() if ln.strip()]


def edit_distance(a: list[str], b: list[str]) -> int:
    """Levenshtein distance with unit costs (two-row DP)."""
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, 1):
        cur = [i]
        for j, y in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (x != y)))
        prev = cur
    return prev[-1]


def transcripts_digest(corpus: list[tuple[str, Path, Path]], hyps: dict[str, bytes]) -> str:
    h = hashlib.sha256()
    for uid, _, _ in corpus:
        h.update(uid.encode() + b"\n" + hyps[uid])
    return h.hexdigest()


def load_pins() -> dict:
    if PINNED.is_file():
        return json.loads(PINNED.read_text(encoding="utf-8"))
    return {}


# ---------------------------------------------------------------------------
# the benchmark
# ---------------------------------------------------------------------------

def import_program():
    """Import minkdecode from this checkout's src/, never from elsewhere."""
    if not (SRC / "minkdecode" / "cli.py").is_file():
        raise BenchError(f"no program source at {SRC / 'minkdecode'}")
    sys.path.insert(0, str(SRC))
    import minkdecode.cli  # noqa: F401
    from minkdecode import cli, dataio

    if SRC.resolve() not in Path(cli.__file__).resolve().parents:
        raise BenchError(f"minkdecode was imported from {cli.__file__}, not {SRC}")
    return cli, dataio


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


Op = tuple[float, float]  # (start, end) perf_counter seconds


def durations(ops: list[Op]) -> list[float]:
    return [end - start for start, end in ops]


@dataclass
class Unit:
    """One experiment and the decode ops after it; spans and calls if traced."""

    wall: float
    spans: list
    calls: list


class Bench:
    """Drives one workload's commands and checks every output they write."""

    def __init__(self, name: str, wl: Workload, seed: int, pins: dict, work: Path):
        self.cli, self.dataio = import_program()
        self.name, self.wl, self.seed = name, wl, seed
        self.pin = pins.get(name, {}).get(str(seed))
        self.work = work
        self.base = work / "setup"
        self.corpus: list[tuple[str, Path, Path]] = []
        self.recorder: spans.Recorder | None = None
        self.op_id = 0
        self.attempted = 0
        self.failed = 0
        # expected outputs, fixed by the pin or by the warm-up and first pass
        self.expected_report: str | None = None
        self.order4_errors = -1
        self.first_hyps: dict[str, bytes] = {}
        # the decode pass in progress
        self.pass_hyps: dict[str, bytes] = {}
        self.pass_ops = 0
        self.pass_bad = 0
        self.next_file = 0
        self.passes = 0
        self.pass_digests: list[str] = []  # of the passes with every transcript
        # timed ops
        self.exp_ops: list[Op] = []
        self.dec_ops: list[Op] = []

    # -- set-up ------------------------------------------------------------

    def config(self) -> dict:
        if self.wl.corpus_in_setup:
            corpus = {"manifest": "corpus/manifest.json"}
        else:
            corpus = {"dir": "corpus", "utterances": self.wl.utterances,
                      "frames": list(self.wl.frames),
                      "noise": {"concentration": self.wl.concentration,
                                "confusion_rate": CONFUSION_RATE,
                                "seed": self.seed * SEED_STRIDE}}
        return {"hmm": "hmm.json", "orders": list(ORDERS), "renormalize": True,
                "corpus": corpus, "report": "report.json"}

    def setup(self, time_import: bool) -> Op:
        """Make a fresh working directory ready for the first command; return its op."""
        shutil.rmtree(self.base, ignore_errors=True)
        start = time.perf_counter()
        if time_import:
            subprocess.run(
                [sys.executable, "-c",
                 "import sys; sys.path.insert(0, sys.argv[1]); import minkdecode.cli",
                 str(SRC)],
                check=True,
            )
        self.base.mkdir(parents=True)
        (self.base / "hmm.json").write_text(json.dumps(self.wl.hmm) + "\n", encoding="utf-8")
        (self.base / "experiment.json").write_text(json.dumps(self.config(), indent=2) + "\n",
                                                   encoding="utf-8")
        if self.wl.corpus_in_setup:
            hmm = self.dataio.load_hmm(self.base / "hmm.json")
            noise = self.dataio.NoiseSpec(self.wl.concentration, CONFUSION_RATE,
                                          self.seed * SEED_STRIDE)
            self.dataio.generate_corpus(hmm, self.wl.utterances, self.wl.frames, noise,
                                        self.base / "corpus")
        return start, time.perf_counter()

    def warm_up(self) -> None:
        """Run the untimed first experiment; its report fixes the expected outputs."""
        self.experiment()
        if self.expected_report is None:
            raise BenchError("the warm-up experiment failed")
        doc = json.loads((self.base / "report.json").read_text(encoding="utf-8"))
        row = next(r for r in doc["orders"] if r["order"] == DECODE_ORDER)
        self.order4_errors = row["substitutions"] + row["deletions"] + row["insertions"]
        corpus_dir = self.base / "corpus"
        manifest = json.loads((corpus_dir / "manifest.json").read_text(encoding="utf-8"))
        self.corpus = [(u["id"], corpus_dir / u["posteriors"], corpus_dir / u["reference"])
                       for u in manifest["utterances"]]
        (self.base / "hyp").mkdir(exist_ok=True)

    @contextlib.contextmanager
    def tracing(self, recorder: spans.Recorder):
        self.recorder = recorder
        try:
            with spans.rebound(recorder):
                yield
        finally:
            self.recorder = None

    # -- ops ---------------------------------------------------------------

    def command(self, argv: list[str]) -> tuple[int, Op]:
        """Run one CLI command in-process; return (exit code, its op)."""
        self.op_id += 1
        self.attempted += 1
        sink = io.StringIO()
        code = -1
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                if self.recorder is None:
                    code = self.cli.main(argv)
                else:
                    self.recorder.run = f"op{self.op_id}"
                    with self.recorder.span(f"cli.{argv[0]}"):
                        code = self.cli.main(argv)
        except Exception:  # a crash is a failed op; the run goes on
            traceback.print_exc(file=sys.stderr)
        end = time.perf_counter()
        if code != 0:
            print(f"{argv[0]} exited with {code}: {sink.getvalue().strip()[-500:]}",
                  file=sys.stderr)
        return code, (start, end)

    def experiment(self) -> Op:
        report = self.base / "report.json"
        report.unlink(missing_ok=True)
        code, op = self.command(["experiment", str(self.base / "experiment.json")])
        ok = code == 0 and report.is_file()
        if ok:
            digest = sha256(report.read_bytes())
            if self.expected_report is None:
                self.expected_report = self.pin["report"] if self.pin else digest
            ok = digest == self.expected_report
        self.failed += not ok
        return op

    def decode(self, uid: str, post: Path) -> Op:
        hyp = self.base / "hyp" / f"{uid}.txt"
        hyp.unlink(missing_ok=True)
        code, op = self.command(["decode", str(post), "--hmm", str(self.base / "hmm.json"),
                                   "--order", str(DECODE_ORDER), "--out", str(hyp)])
        self.pass_ops += 1
        ok = code == 0 and hyp.is_file()
        if ok:
            data = hyp.read_bytes()
            self.pass_hyps[uid] = data
            ok = self.first_hyps.get(uid, data) == data
        self.failed += not ok
        self.pass_bad += not ok
        self.next_file += 1
        if self.next_file == len(self.corpus):
            self.end_pass()
        return op

    def end_pass(self) -> None:
        """Check a whole pass of decodes against the pin and the report.

        The report pools errors over files, so a wrong transcript cannot be
        told apart from the right ones: on a mismatch the whole pass fails.
        """
        self.passes += 1
        ok = len(self.pass_hyps) == len(self.corpus)
        if ok:
            digest = transcripts_digest(self.corpus, self.pass_hyps)
            self.pass_digests.append(digest)
            errors = sum(
                edit_distance(tokens(ref.read_text(encoding="utf-8")),
                              tokens(self.pass_hyps[uid].decode("utf-8")))
                for uid, _, ref in self.corpus
            )
            ok = errors == self.order4_errors and (
                not self.pin or digest == self.pin["transcripts"])
        if not ok:
            self.failed += self.pass_ops - self.pass_bad
        if not self.first_hyps:
            self.first_hyps = self.pass_hyps
        self.pass_hyps, self.pass_ops, self.pass_bad, self.next_file = {}, 0, 0, 0

    def unit(self, decodes: int) -> Unit:
        """One experiment, then the next `decodes` files of the decode pass."""
        rec = self.recorder
        marks = (len(rec.spans), len(rec.calls)) if rec else (0, 0)
        exp = self.experiment()
        dec = [self.decode(*self.corpus[self.next_file][:2]) for _ in range(decodes)]
        wall = sum(durations([exp, *dec]))
        if rec:
            return Unit(wall, rec.spans[marks[0]:], rec.calls[marks[1]:])
        self.exp_ops.append(exp)
        self.dec_ops.extend(dec)
        return Unit(wall, [], [])


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

def timed_run(bench: Bench, seconds: float) -> dict[str, float]:
    """End-to-end metrics, tracing off; times steadied by host-speed sampling."""
    with hostspeed.Sampler() as sampler:
        setup_ops = [bench.setup(time_import=True) for _ in range(bench.wl.setup_reps)]
        bench.warm_up()
        chunk = min(bench.wl.decode_chunk, len(bench.corpus))
        began = time.perf_counter()
        walls: list[float] = []
        while True:
            walls.append(bench.unit(chunk).wall)
            elapsed = time.perf_counter() - began
            if bench.passes and elapsed + statistics.fmean(walls) > seconds:
                break
    exp = sampler.steadied(bench.exp_ops)
    dec = sorted(sampler.steadied(bench.dec_ops))
    setup = sampler.steadied(setup_ops)
    raw_dec = sorted(durations(bench.dec_ops))
    print(f"{bench.name} seed {bench.seed}: experiment_s median of {len(exp)}, "
          f"decode_ms of {len(dec)}, setup_s median of {len(setup)}; "
          f"{len(sampler.samples)} host-speed probes, fastest "
          f"{'/'.join(f'{1e3 * t:.3f}' for t in sampler.fastest())} ms; unsteadied: "
          f"experiment_s {statistics.median(durations(bench.exp_ops)):.4g}, "
          f"decode_ms_p50 {1e3 * statistics.median(raw_dec):.4g}, "
          f"decode_ms_p90 {1e3 * percentile(raw_dec, 0.9):.4g}, "
          f"setup_s {statistics.median(durations(setup_ops)):.4g}; "
          f"failed_ratio {bench.failed}/{bench.attempted}; outputs "
          f"{'checked against the pin' if bench.pin else 'not pinned for this seed'}")
    return {
        "experiment_s": statistics.median(exp),
        "decode_ms_p50": 1e3 * statistics.median(dec),
        "decode_ms_p90": 1e3 * percentile(dec, 0.9),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_run(bench: Bench, seconds: float, spans_path: Path) -> dict[str, float]:
    """Per-layer metrics: untraced and traced units alternate.

    A unit here is one experiment and a whole decode pass, so its work
    counts are the same in every unit. The layer values come from the set-up
    and the traced unit of median wall time.
    """
    rec = spans.Recorder()
    rec.run = "setup"
    with bench.tracing(rec):
        bench.setup(time_import=False)
    setup_spans, setup_calls = list(rec.spans), list(rec.calls)
    bench.warm_up()
    began = time.perf_counter()
    plain: list[float] = []
    traced: list[Unit] = []
    while True:
        plain.append(bench.unit(len(bench.corpus)).wall)
        with bench.tracing(rec):
            traced.append(bench.unit(len(bench.corpus)))
        elapsed = time.perf_counter() - began
        if elapsed * (1 + 1 / len(plain)) > seconds:
            break
    rec.write_jsonl(spans_path)
    chosen = sorted(traced, key=lambda u: u.wall)[(len(traced) - 1) // 2]
    values = layer_metrics(setup_spans + chosen.spans, setup_calls + chosen.calls)
    values["trace.overhead_s"] = (statistics.median(u.wall for u in traced)
                                  - statistics.median(plain))
    print(f"{bench.name} seed {bench.seed}: {len(traced)} traced and {len(plain)} untraced "
          f"units; failed_ratio {bench.failed}/{bench.attempted}; "
          f"spans in {spans_path.relative_to(ROOT)}")
    return values


# (metric, layer, work count, scale): self time per unit of work.
RATES = (
    ("dataio.generate_corpus.us_per_frame", "dataio.generate_corpus", "frames", 1e6),
    ("dataio.load_posteriors.us_per_frame", "dataio.load_posteriors", "frames", 1e6),
    ("posteriors.transform_matrix.ns_per_entry", "posteriors.transform_matrix", "entries", 1e9),
    ("posteriors.to_log_scores.ns_per_entry", "posteriors.to_log_scores", "entries", 1e9),
    ("decoder.viterbi_decode.us_per_frame", "decoder.viterbi_decode", "frames", 1e6),
    ("decoder.viterbi_decode.ns_per_frame_state2", "decoder.viterbi_decode", "frame_state2", 1e9),
    ("scoring.align_and_score.ns_per_cell", "scoring.align_and_score", "cells", 1e9),
)


def layer_metrics(span_list: list, calls: list) -> dict[str, float]:
    """Self times of the spans and exact work counts from the calls' inputs and outputs."""
    own = spans.self_times(span_list)
    roots = spans.root_of(span_list)
    by_id = {sp.id: sp for sp in span_list}
    v: dict[str, float] = defaultdict(int)
    for sp in span_list:
        v[f"{sp.name}.self_s"] += own[sp.id]
        if sp.parent is None:
            v["trace.command_wall_s"] += sp.seconds
    order = None
    for c in calls:  # in the order the calls returned
        name = c.span.name
        v[f"{name}.calls"] += 1
        if name == "dataio.save_posteriors":
            v[f"{name}.bytes_written"] += Path(c.args[1]).stat().st_size
            parent = by_id.get(c.span.parent)
            if parent is not None and parent.name == "dataio.generate_corpus":
                v["dataio.generate_corpus.frames"] += c.args[0].frames
        elif name == "dataio.load_posteriors":
            v[f"{name}.bytes_read"] += Path(c.args[0]).stat().st_size
            v[f"{name}.frames"] += c.result.frames
        elif name == "posteriors.transform_matrix":
            v[f"{name}.entries"] += c.args[0].values.size
            order = c.args[1] if len(c.args) > 1 else c.kwargs["order"]
        elif name == "posteriors.to_log_scores":
            v[f"{name}.entries"] += c.args[0].values.size
        elif name == "decoder.viterbi_decode":
            scores, hmm = c.args[0], c.args[1]
            v[f"{name}.frames"] += scores.frames
            v[f"{name}.frame_state2"] += scores.frames * hmm.num_states ** 2
            if roots[c.span.id].name == "cli.experiment":
                decoded_class = hmm.state_to_class[list(c.result.state_path)]
                frame_argmax = scores.values.argmax(axis=1)
                v[f"{name}.override_frames.order{order}"] += int(
                    (decoded_class != frame_argmax).sum())
        elif name == "scoring.align_and_score":
            v[f"{name}.cells"] += len(c.args[0]) * len(c.args[1])
    for metric, layer, work, scale in RATES:
        n = v[f"{layer}.{work}"]
        v[metric] = scale * v[f"{layer}.self_s"] / n if n else 0.0
    return v


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def run(name: str, wl: Workload, seed: int, seconds: float, trace: bool, pins: dict) -> dict:
    """Run one workload and return the result object printed as the last line."""
    if not 0 <= seed * SEED_STRIDE + wl.utterances < 2**64:
        raise BenchError(f"seed must be >= 0 and below 2**64 / {SEED_STRIDE}, got {seed}")
    work = WORK / f"{name}-s{seed}-p{os.getpid()}"
    try:
        bench = Bench(name, wl, seed, pins, work)
        if trace:
            values = traced_run(bench, seconds, WORK / f"spans-{name}-s{seed}.jsonl")
        else:
            values = timed_run(bench, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    names = PER_LAYER if trace else END_TO_END
    return {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {m: {"value": values[m], "unit": unit} for m, unit in names},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, WORKLOADS[args.workload], args.seed, args.seconds,
                     bool(args.trace), load_pins())
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
