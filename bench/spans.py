"""Spans around calls into minkdecode's public functions, recorded from outside.

`rebound(recorder)` rebinds each function named in LAYERS, in every loaded
``minkdecode`` module that holds it, to a wrapper that records one span per
call, and restores the originals on exit. The program itself is not edited:
only the traced run pays for the wrappers.

A span is ``{"id", "name", "start", "end", "parent", "run"}``. Start and end
are ``time.perf_counter()`` seconds, parent is the id of the enclosing span
(None for a root), and run is the id of the command the span belongs to, so
the spans of one command share it. Spans stay in memory until `write_jsonl`.

Work counts are taken after the traced commands finish, from the arguments
and results each wrapper kept (`Recorder.calls`), so counting adds no time
to any span.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

# module -> public functions timed as that module's layer.
LAYERS = {
    "dataio": (
        "generate_corpus",
        "save_posteriors",
        "load_posteriors",
        "load_hmm",
        "load_transcript",
        "save_transcript",
    ),
    "posteriors": ("transform_matrix", "to_log_scores"),
    "decoder": ("viterbi_decode",),
    "scoring": ("align_and_score",),
}


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Call:
    """One traced call: its span and what went in and came out."""

    span: Span
    args: tuple
    kwargs: dict
    result: object


class Recorder:
    def __init__(self):
        self.spans: list[Span] = []
        self.calls: list[Call] = []
        self.run = ""
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1].id if self._stack else None
        sp = Span(len(self.spans), name, 0.0, 0.0, parent, self.run)
        self.spans.append(sp)
        self._stack.append(sp)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for sp in self.spans:
                fh.write(json.dumps(asdict(sp)) + "\n")


def _wrap(recorder: Recorder, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with recorder.span(name) as sp:
            result = fn(*args, **kwargs)
        recorder.calls.append(Call(sp, args, kwargs, result))
        return result

    return traced


@contextmanager
def rebound(recorder: Recorder):
    """Route every call to a LAYERS function through a span-recording wrapper."""
    modules = [m for n, m in list(sys.modules.items())
               if n == "minkdecode" or n.startswith("minkdecode.")]
    patched = []
    try:
        for modname, names in LAYERS.items():
            home = sys.modules[f"minkdecode.{modname}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = _wrap(recorder, f"{modname}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            patched.append((mod, attr, original))
        yield recorder
    finally:
        for mod, attr, original in reversed(patched):
            setattr(mod, attr, original)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> its duration minus the durations of its direct children."""
    own = {sp.id: sp.seconds for sp in spans}
    for sp in spans:
        if sp.parent is not None and sp.parent in own:
            own[sp.parent] -= sp.seconds
    return own


def root_of(spans: list[Span]) -> dict[int, Span]:
    """Span id -> the root span of its tree (every parent must be in spans)."""
    roots: dict[int, Span] = {}
    for sp in spans:  # a parent is always created before its children
        roots[sp.id] = sp if sp.parent is None else roots[sp.parent]
    return roots
