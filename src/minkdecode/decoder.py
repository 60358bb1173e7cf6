"""Log-domain Viterbi decoding against a small HMM.

`viterbi_decode` is the standard max-product dynamic program; ties prefer
the lower state index at every decision. It has two exact forward passes
and picks one by state count. Up to SCALAR_MAX_STATES states it runs
`_scalar_forward`, a straight-line kernel over Python floats that makes no
numpy call per frame: `_scalar_kernel` generates its source from the state
count K alone, with every state's score and transition entry a local
variable, and compiles it once per process and K, so all models of K states
share it. Above that it runs a numpy frame loop (`_array_forward`): a
frame step copies the scores into each row of a K x K buffer, adds the
transposed transitions to it in place (two contiguous loops, which cost
less than broadcasting a vector over a K x K array), takes each row's
first maximum with `argmax` and gathers the winners by flat index. Up
to K of about 64 its cost is mostly numpy's per-call overhead; past that
it grows as K squared. Both add the same floats in the same order and
keep the lowest index among equal candidates, so they give identical
paths and scores; the final pick and the backtrace are shared.

Emission scores come from a LogScoreMatrix through the model's column
selector (`_emissions`), a basic slice and so a view when state s scores
column s. Score values are read-only, and so is such a view; only a
gathered copy is flagged so. Paths become results through `_result`,
whose tokens come from `path_tokens`: it collapses runs of one state
before runs of one label, and the corpus generator makes its references
with it too. The test suite's oracle, which scores every state path
outright (`tests/oracles.py`), uses `_emissions` and `_result` as well,
so it and the DP differ only in how they search.

`HmmModel` owns the model's invariants (labels a transcript can hold, one
label and class per state, distributions summing to 1 by
`posteriors.check_row_sums`) and computes once, not per decode, its largest
class index `max_class`, the column selector `_columns` and the scalar
tables `_scalar_tables`; `dataio.load_hmm` checks JSON types and `num_states`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property
from itertools import groupby
from typing import Iterable, Sequence

import numpy as np

from .errors import ValidationError
from .posteriors import LogScoreMatrix, check_row_sums, floored_log, numeric_array

__all__ = [
    "HmmModel",
    "DecodingResult",
    "viterbi_decode",
    "collapse_tokens",
    "path_tokens",
]


@dataclass(frozen=True, eq=False)
class HmmModel:
    """State set with log-domain initial/transition scores and label maps.

    `state_labels[s]` is the output token of state s; `state_to_class[s]`
    is the posterior-matrix column that scores it. Labels must be a
    sequence of strings (one string is refused, not split into characters),
    each one `str.splitlines()` line equal to its `strip()`, as a transcript
    file holds a token; nothing is converted to one. exp(log_initial) and
    each exp(transition row) must sum to 1 within 1e-6 (`check_row_sums`). A zero probability
    has one encoding, LOG_FLOOR: every entry must be finite, so -inf is
    refused like NaN and +inf. Models compare and hash by identity.
    """

    log_initial: np.ndarray
    log_transitions: np.ndarray
    state_labels: tuple[str, ...]
    state_to_class: np.ndarray
    max_class: int = field(init=False, repr=False)
    _columns: slice | np.ndarray = field(init=False, repr=False)  # `_emissions`' selector

    def __post_init__(self):
        init = numeric_array(self.log_initial, "log_initial")
        trans = numeric_array(self.log_transitions, "log_transitions")
        s2c = _class_indices(self.state_to_class)
        labels = tuple(self.state_labels)
        # One string is a sequence of strings too, but never the labels meant.
        # "" is no line at all, and `dataio.load_transcript` strips each line.
        if isinstance(self.state_labels, str) or not all(
                isinstance(lab, str) and len(lab.splitlines()) == 1 and lab == lab.strip()
                for lab in labels):
            raise ValidationError(
                "labels must be strings, one per state, each one line without surrounding "
                f"whitespace; got {self.state_labels!r}"
            )
        if init.ndim != 1:
            raise ValidationError("log_initial must be a vector")
        n = init.shape[0]
        if n < 1:
            raise ValidationError("HMM needs at least one state")
        if trans.shape != (n, n):
            raise ValidationError(
                f"log_transitions must be {n}x{n}, got {trans.shape}"
            )
        if len(labels) != n or s2c.shape != (n,):
            raise ValidationError("state_labels and state_to_class must have one entry per state")
        if (s2c < 0).any():
            raise ValidationError("state_to_class entries must be nonnegative column indices")
        # A max-plus step has no defined result for NaN, and +inf - inf is NaN;
        # -inf would be a second encoding of the zero that LOG_FLOOR stands for.
        for name, arr in (("log_initial", init), ("log_transitions", trans)):
            if not np.isfinite(arr).all():
                raise ValidationError(
                    f"{name} has a NaN or +inf entry, or a -inf one "
                    "(a zero probability is LOG_FLOOR)"
                )
        if check_row_sums(np.exp(init)[None, :]) is not None:
            raise ValidationError(
                f"exp(log_initial) sums to {float(np.exp(init).sum())!r}, expected 1"
            )
        row = check_row_sums(np.exp(trans))
        if row is not None:
            raise ValidationError(
                f"transition row {row} sums to {float(np.exp(trans[row]).sum())!r}, expected 1"
            )
        for arr in (init, trans, s2c):
            arr.setflags(write=False)
        object.__setattr__(self, "log_initial", init)
        object.__setattr__(self, "log_transitions", trans)
        object.__setattr__(self, "state_labels", labels)
        object.__setattr__(self, "state_to_class", s2c)
        object.__setattr__(self, "max_class", int(s2c.max()))
        object.__setattr__(self, "_columns", slice(0, n) if (s2c == np.arange(n)).all() else s2c)

    @property
    def num_states(self) -> int:
        return self.log_initial.shape[0]

    @cached_property
    def _scalar_tables(self) -> tuple[list, list]:
        """Initial scores and into[j][i] = log_transitions[i][j] as Python floats."""
        return self.log_initial.tolist(), list(zip(*self.log_transitions.tolist()))

    @classmethod
    def from_probs(cls, initial, transitions, labels, state_to_class) -> "HmmModel":
        """Build from linear probabilities; `floored_log` maps each zero to LOG_FLOOR."""
        init = numeric_array(initial, "initial")
        trans = numeric_array(transitions, "transitions")
        if (init < 0).any() or (trans < 0).any():
            raise ValidationError("probabilities must be nonnegative")
        return cls(floored_log(init), floored_log(trans), labels, state_to_class)


def _class_indices(values) -> np.ndarray:
    """state_to_class as int64 by `numeric_array`'s rules; integral floats (as JSON may give) pass.

    Below 2**53 in magnitude float64 holds integers exactly, so the cast is exact and safe.
    """
    arr = numeric_array(values, "state_to_class")
    if not ((arr == np.trunc(arr)) & (np.abs(arr) < 2.0**53)).all():
        raise ValidationError(
            f"state_to_class entries must be integers of magnitude below 2**53, got {values!r}")
    return arr.astype(np.int64)


@dataclass(frozen=True)
class DecodingResult:
    """Best state path, its collapsed token sequence, and its log score."""

    state_path: tuple[int, ...]
    token_sequence: tuple[str, ...]
    log_score: float


def collapse_tokens(labels: Iterable[str]) -> tuple[str, ...]:
    """Merge consecutive identical labels into one token."""
    return tuple([label for label, _ in groupby(labels)])


def path_tokens(path: Iterable[int], labels: Sequence[str]) -> tuple[str, ...]:
    """The token sequence of a state path: `collapse_tokens` of its states' labels.

    Runs of one state are collapsed first, as ints, so each run's label is
    looked up once; the labels are then collapsed again, since distinct
    states may share one.
    """
    return collapse_tokens([labels[state] for state, _ in groupby(path)])


def _emissions(scores: LogScoreMatrix, hmm: HmmModel) -> np.ndarray:
    """The scores of each state's column, read-only: a view of scores when `_columns` is a slice."""
    if hmm.max_class >= scores.classes:
        raise ValidationError(
            f"state_to_class refers to column {hmm.max_class} but the score "
            f"matrix has {scores.classes} classes"
        )
    emis = scores.values[:, hmm._columns]
    if not isinstance(hmm._columns, slice):  # a gathered copy; a view of scores is read-only
        emis.flags.writeable = False
    return emis


def _result(path: list[int], log_score: float, hmm: HmmModel) -> DecodingResult:
    """The result for a state path of Python ints, as `viterbi_decode` builds it."""
    return DecodingResult(tuple(path), path_tokens(path, hmm.state_labels), float(log_score))


# Largest state count that takes the scalar forward pass. scripts/forward_sweep.py
# at T 10-25 on a 2-vCPU host (one CPU, 40 alternating rounds of 100 calls,
# five runs over seeds 0-2) puts the crossover between K=10 and K=11: the
# median round ratio array/scalar read 1.17-1.44 at K=9, 0.98-1.22 at K=10
# (above 1 in four runs of five), 0.82-1.06 at K=11 (below 1 in four of
# five), 0.73-0.92 at K=12 and 0.30 at K=20. Compiling a kernel costs
# 0.3-0.4 ms at K=3 and 2-3 ms at K=10, once per process and state count.
SCALAR_MAX_STATES = 10


def viterbi_decode(scores: LogScoreMatrix, hmm: HmmModel) -> DecodingResult:
    """Maximum-log-probability state path by exact dynamic programming.

    Ties prefer the lower state index at every backpointer decision and at
    the final frame, making the result deterministic. An HMM of at most
    SCALAR_MAX_STATES states runs the scalar forward pass, a larger one the
    array pass; both make the same float additions in the same order and
    break ties alike, so either gives the same path and score bit for bit.
    """
    emis = _emissions(scores, hmm)
    if hmm.num_states <= SCALAR_MAX_STATES:
        delta, backptr = _scalar_forward(emis, hmm)
    else:
        delta, backptr = _array_forward(emis, hmm)
    # max keeps the first of equal scores, -0.0 and 0.0 too: the first maximal state, as argmax.
    log_score = max(delta)
    state = delta.index(log_score)
    path = [state]
    push = path.append
    for prev in reversed(backptr):
        state = prev[state]
        push(state)
    path.reverse()
    return _result(path, log_score, hmm)


def _scalar_forward(emis: np.ndarray, hmm: HmmModel) -> tuple[list, list]:
    """Forward pass in Python floats: no numpy call per frame.

    Returns the last frame's scores and, for each frame t after the first,
    a tuple of each state's best predecessor at frame t - 1. Candidate i for
    state j is delta[i] + trans[i][j], the strict `>` keeps the lowest index
    among equal ones, and the winner then adds the emission, as in
    `_array_forward`. The loop is `_scalar_kernel`'s, made for the state count.
    """
    initial, into = hmm._scalar_tables
    return _scalar_kernel(len(into))(emis.tolist(), initial, into)


@cache
def _scalar_kernel(k: int):
    """`forward(rows, initial, into)` for k states, compiled once per process and k.

    The source is built from k alone, as `dataclasses` builds `__init__`: no
    value of any model is in it, so every model of k states shares it.
    """
    namespace = {}
    exec(_scalar_source(k), namespace)
    return namespace["forward"]


def _scalar_source(k: int) -> str:
    """Straight-line source of the scalar forward pass for k states.

    Each state's score is a local `d{i}` and each transition entry a local
    `t{i}_{j}`; state j's candidates are tried in index order with a strict
    `>`, so the additions, their order and the tie rule are the loop's.
    """
    def names(fmt: str) -> str:
        return "".join(fmt.format(i) + ", " for i in range(k))

    lines = [
        "def forward(rows, initial, into):",
        "    " + "".join(f"({names('t{}_' + str(j))}), " for j in range(k)) + "= into",
        f"    {names('i{}')}= initial",
        "    rows = iter(rows)",
        f"    {names('e{}')}= next(rows)",
        *(f"    d{i} = i{i} + e{i}" for i in range(k)),
        "    backptr = []",
        "    push = backptr.append",
        f"    for {names('e{}')}in rows:",
    ]
    for j in range(k):
        lines += [f"        b = d0 + t0_{j}", f"        p{j} = 0"]
        for i in range(1, k):
            lines += [f"        c = d{i} + t{i}_{j}", "        if c > b:",
                      "            b = c", f"            p{j} = {i}"]
        lines.append(f"        n{j} = b + e{j}")
    lines.append(f"        push(({names('p{}')}))")
    lines += [f"        d{i} = n{i}" for i in range(k)]
    lines.append(f"    return [{names('d{}')}], backptr")
    return "\n".join(lines) + "\n"


def _array_forward(emis: np.ndarray, hmm: HmmModel) -> tuple[list, list]:
    """Forward pass in numpy, one frame per step; returns what `_scalar_forward` does.

    cand[j, i] = delta[i] + trans[i, j]: row j holds every way into state j,
    so the argmax runs along a contiguous axis, and each row's winner taken
    from the flat buffer is the very value that argmax chose. A frame step
    copies delta into each row of cand and adds trans_t to it in place:
    two contiguous loops that cost less than adding the vector delta to a
    (K, K) array, which sets up a broadcast.
    """
    num_frames, num_states = emis.shape
    trans_t = np.ascontiguousarray(hmm.log_transitions.T)
    flat = np.empty(num_states * num_states)
    cand = flat.reshape(num_states, num_states)
    row_start = np.arange(0, num_states * num_states, num_states)
    backptr = np.empty((num_frames - 1, num_states), dtype=np.intp)
    delta = hmm.log_initial + emis[0]
    for e, prev in zip(emis[1:], backptr):
        cand[...] = delta
        cand += trans_t
        cand.argmax(1, out=prev)  # first max = lowest index
        delta = flat[row_start + prev]
        delta += e
    return delta.tolist(), backptr.tolist()
