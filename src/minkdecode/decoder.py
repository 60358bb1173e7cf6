"""Log-domain Viterbi decoding against a small HMM.

`viterbi_decode` is the standard max-product dynamic program; ties prefer
the lower state index at every decision. Emission scores come from a
LogScoreMatrix through the model's state-to-class column map (`_emissions`)
and paths become results through `_result`. The test suite's oracle, which
scores every state path outright (`tests/oracles.py`), uses those two
helpers too, so it and the DP differ only in how they search.

`HmmModel` owns the model's invariants (string labels, one label and class
per state, distributions summing to 1 by `posteriors.check_row_sums`);
`dataio.load_hmm` checks only the file's JSON types and `num_states`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .posteriors import LogScoreMatrix, check_row_sums, floored_log

__all__ = [
    "HmmModel",
    "DecodingResult",
    "viterbi_decode",
    "collapse_tokens",
]


@dataclass(frozen=True)
class HmmModel:
    """State set with log-domain initial/transition scores and label maps.

    `state_labels[s]` is the output token of state s; `state_to_class[s]`
    is the posterior-matrix column that scores it. Labels must be a
    sequence of strings (one string is refused, not split into characters);
    nothing is converted to one. exp(log_initial) and each exp(transition
    row) must sum to 1 within 1e-6 (`check_row_sums`). A zero probability
    has one encoding, LOG_FLOOR: every entry must be finite, so -inf is
    refused like NaN and +inf.
    """

    log_initial: np.ndarray
    log_transitions: np.ndarray
    state_labels: tuple[str, ...]
    state_to_class: np.ndarray

    def __post_init__(self):
        init = np.asarray(self.log_initial, dtype=np.float64)
        trans = np.asarray(self.log_transitions, dtype=np.float64)
        s2c = _class_indices(self.state_to_class)
        labels = tuple(self.state_labels)
        # One string is a sequence of strings too, but never the labels meant.
        if isinstance(self.state_labels, str) or not all(isinstance(lab, str) for lab in labels):
            raise ValidationError(
                f"labels must be strings, one per state; got {self.state_labels!r}"
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

    @property
    def num_states(self) -> int:
        return self.log_initial.shape[0]

    @classmethod
    def from_probs(cls, initial, transitions, labels, state_to_class) -> "HmmModel":
        """Build from linear probabilities; `floored_log` maps each zero to LOG_FLOOR."""
        init = np.asarray(initial, dtype=np.float64)
        trans = np.asarray(transitions, dtype=np.float64)
        if (init < 0).any() or (trans < 0).any():
            raise ValidationError("probabilities must be nonnegative")
        return cls(floored_log(init), floored_log(trans), labels, state_to_class)


def _class_indices(values) -> np.ndarray:
    """state_to_class as int64; integral floats (as JSON may give) pass."""
    arr = np.asarray(values)
    integral = arr.dtype.kind in "iu" or (
        arr.dtype.kind == "f" and np.isfinite(arr).all() and (arr == np.trunc(arr)).all()
    )
    if not integral:
        raise ValidationError(f"state_to_class entries must be integers, got {values!r}")
    return arr.astype(np.int64)


@dataclass(frozen=True)
class DecodingResult:
    """Best state path, its collapsed token sequence, and its log score."""

    state_path: tuple[int, ...]
    token_sequence: tuple[str, ...]
    log_score: float


def collapse_tokens(labels: Sequence[str]) -> tuple[str, ...]:
    """Merge consecutive identical labels into one token."""
    out: list[str] = []
    for lab in labels:
        if not out or out[-1] != lab:
            out.append(lab)
    return tuple(out)


def _emissions(scores: LogScoreMatrix, hmm: HmmModel) -> np.ndarray:
    s2c = hmm.state_to_class
    if int(s2c.max()) >= scores.classes:
        raise ValidationError(
            f"state_to_class refers to column {int(s2c.max())} but the score "
            f"matrix has {scores.classes} classes"
        )
    return scores.values[:, s2c]


def _result(path, log_score: float, hmm: HmmModel) -> DecodingResult:
    path_t = tuple(int(s) for s in path)
    tokens = collapse_tokens([hmm.state_labels[s] for s in path_t])
    return DecodingResult(path_t, tokens, float(log_score))


def viterbi_decode(scores: LogScoreMatrix, hmm: HmmModel) -> DecodingResult:
    """Maximum-log-probability state path by exact dynamic programming.

    Ties prefer the lower state index at every backpointer decision and at
    the final frame, making the result deterministic.
    """
    emis = _emissions(scores, hmm)
    num_frames, num_states = emis.shape
    # cand[j, i] = delta[i] + trans[i, j]: row j holds every way into state j,
    # so the argmax runs along a contiguous axis, and taking each row's
    # winner from the flat buffer yields the very value that argmax chose.
    trans_t = np.ascontiguousarray(hmm.log_transitions.T)
    flat = np.empty(num_states * num_states)
    cand = flat.reshape(num_states, num_states)
    row_start = np.arange(0, num_states * num_states, num_states)
    best = np.empty(num_states, dtype=np.intp)
    backptr = np.zeros((num_frames, num_states), dtype=np.intp)
    delta = hmm.log_initial + emis[0]
    for t in range(1, num_frames):
        np.add(trans_t, delta, out=cand)
        prev = backptr[t]
        cand.argmax(1, out=prev)  # first max = lowest index
        np.add(row_start, prev, out=best)
        delta = flat.take(best) + emis[t]
    state = int(delta.argmax())
    log_score = float(delta[state])
    path = [state] * num_frames
    bp = backptr.tolist()
    for t in range(num_frames - 1, 0, -1):
        state = bp[t][state]
        path[t - 1] = state
    return _result(path, log_score, hmm)
