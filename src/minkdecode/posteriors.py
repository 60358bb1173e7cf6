"""Frame-by-class posterior matrices and their transform to decoder scores.

A posterior matrix holds one row per frame and one column per class, each
entry a probability and each row summing to 1 within ROW_SUM_TOLERANCE. The
order-n transform is applied entrywise (each class posterior is treated as
an independent binary target), then each row is rescaled to sum to 1 in
`transform_matrix`, the one place rows are rescaled. Because the scalar
transform is strictly increasing, neither step can change a row's argmax or
its full sort order; the rescaling only shifts that frame's log-scores by a
constant, which the Viterbi path is invariant to.

Both matrix types check their shape and entries in one shared base (in
[0, 1] by the least and greatest entry for posteriors, finite for log
scores), and `PosteriorMatrix` its row sums; both compare and hash by identity.
`transform_matrix` and `to_log_scores` wrap their outputs without it
(`_Matrix._unchecked`): computed from a checked matrix, they pass by construction.
So do `stack_rows`, which joins the rows of several posterior matrices of
one class count into one, and `split_rows`, which cuts a log-score matrix
back into read-only views of consecutive rows: together they let a
caller score many small matrices with one call of each kernel. The
kernels act on each entry, or each row, on its own, so a row's scores do
not depend on the rows stacked with it.
`numeric_array` is the one rule for what counts as an array of numbers,
`check_row_sums` the one row-sum check and `floored_log` the one log
with exact zeros at LOG_FLOOR, all also used by `HmmModel`; `_row_sum_error`
words every refusal of a posterior row by its sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .minkowski import transform_values

__all__ = [
    "LOG_FLOOR",
    "PosteriorMatrix",
    "LogScoreMatrix",
    "transform_matrix",
    "to_log_scores",
]

# Stand-in for ln(0): keeps DP arithmetic finite and total-order comparable.
LOG_FLOOR = -1e30

ROW_SUM_TOLERANCE = 1e-6


@dataclass(frozen=True, eq=False)
class _Matrix:
    """frames x classes float64 matrix with finite entries, stored as a read-only copy.

    Needs at least one frame and two classes. A subclass names itself in
    `_KIND` and sets which entries it accepts with `_RULE` and `_accepts`.
    """

    values: np.ndarray
    _KIND = "matrix"  # class attributes, not fields: they carry no annotation
    _RULE = "finite"

    def __post_init__(self):
        arr = np.array(numeric_array(self.values, self._KIND))
        if arr.ndim != 2:
            raise ValidationError(f"{self._KIND} must be 2-dimensional, got shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 2:
            raise ValidationError(
                f"{self._KIND} needs >= 1 frame and >= 2 classes, got shape {arr.shape}"
            )
        if not self._accepts(arr):
            raise ValidationError(f"{self._KIND} entries must be {self._RULE}")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @classmethod
    def _unchecked(cls, arr: np.ndarray):
        """arr, built from checked matrices of the type its caller requires, wrapped read-only.

        Its shape, entries and row sums pass by construction, so none is checked
        and arr is not copied.
        `transform_matrix` keeps its source's shape and divides each x of a row by
        the row's sum s, where 0 <= x <= s (`transform_values` keeps [0, 1], and a float
        sum of nonnegative terms is no less than any term), so x / s lies in [0, 1].
        s > 0: one of a checked row's K entries is at least about 1/K, and
        `transform_values` maps mu > 0 to r / (1 + r), r = (mu / (1 - mu))**(1 / (n - 1))
        >= min(1, mu / (1 - mu)), which does not underflow. The rows x / s sum to 1
        within about K ulp, far inside ROW_SUM_TOLERANCE.
        `to_log_scores` keeps its source's shape and logs entries in [0, 1]: zeros
        become LOG_FLOOR, the rest finite logs, less the finite logs of priors
        checked finite and > 0.
        `stack_rows` joins the rows of one or more posterior matrices of one class
        count: every row is a checked row, there is at least one, and each has the
        >= 2 classes of its matrix.
        `split_rows` cuts blocks of >= 1 consecutive rows out of a log-score matrix:
        each block's entries are entries of that matrix, with its class count.
        `dataio.generate_corpus` cuts each utterance's >= 1 rows out of a checked
        posterior matrix that holds its block of utterances.
        """
        arr.setflags(write=False)
        out = object.__new__(cls)
        object.__setattr__(out, "values", arr)
        return out

    @staticmethod
    def _accepts(arr: np.ndarray) -> bool:
        return bool(np.isfinite(arr).all())

    @property
    def frames(self) -> int:
        return self.values.shape[0]

    @property
    def classes(self) -> int:
        return self.values.shape[1]


class PosteriorMatrix(_Matrix):
    """frames x classes matrix of per-frame class posteriors, each in [0, 1].

    The first row whose sum is off 1 by more than ROW_SUM_TOLERANCE is refused.
    """

    _KIND = "posterior matrix"
    _RULE = "in [0, 1]"

    def __post_init__(self):
        super().__post_init__()
        bad = check_row_sums(self.values)
        if bad is not None:
            raise _row_sum_error(f"row {bad}", self.values[bad])

    @staticmethod
    def _accepts(arr: np.ndarray) -> bool:
        # min and max are NaN if any entry is, and NaN fails both comparisons,
        # so this also rejects non-finite entries.
        return bool(arr.min() >= 0 and arr.max() <= 1)


class LogScoreMatrix(_Matrix):
    """frames x classes natural-log scores for the decoder.

    Entries are ln of a probability (exact zeros floored at LOG_FLOOR);
    dividing by priors can push entries above 0.
    """

    _KIND = "log-score matrix"


def transform_matrix(p: PosteriorMatrix, order) -> PosteriorMatrix:
    """Apply the order-n transform to every entry of a posterior matrix, then rescale each row.

    Each row is divided by its sum so that it sums to 1; dividing by a
    positive constant cannot change the decoded path, only score
    magnitudes. Every sum is positive, as `_Matrix._unchecked` shows.
    `transform_values` is the unscaled kernel.
    """
    _require(p, PosteriorMatrix)
    out = transform_values(p.values, order)
    out /= out.sum(axis=1)[:, None]
    return PosteriorMatrix._unchecked(out)


def to_log_scores(p: PosteriorMatrix, priors=None) -> LogScoreMatrix:
    """Natural-log scores: ln(p), or ln(p) - ln(prior) when priors are given.

    Exact zeros map to LOG_FLOOR. Priors must be strictly positive and one
    per class.
    """
    _require(p, PosteriorMatrix)
    logs = floored_log(p.values)
    if priors is not None:
        pr = numeric_array(priors, "priors")
        if pr.shape != (p.classes,):
            raise ValidationError(
                f"priors must have one entry per class ({p.classes}), "
                f"got shape {pr.shape}"
            )
        if not np.isfinite(pr).all() or (pr <= 0.0).any():
            raise ValidationError("priors must be finite and > 0")
        logs -= np.log(pr)
    return LogScoreMatrix._unchecked(logs)


def stack_rows(matrices: Sequence[PosteriorMatrix]) -> PosteriorMatrix:
    """The rows of one or more posterior matrices of one class count, in order, as one matrix.

    One matrix is returned as it is; more are joined into a new array.
    """
    for m in matrices:
        _require(m, PosteriorMatrix)
    if len({m.classes for m in matrices}) != 1:
        raise ValidationError("stack_rows needs one or more matrices of one class count")
    if len(matrices) == 1:
        return matrices[0]
    return PosteriorMatrix._unchecked(np.concatenate([m.values for m in matrices]))


def split_rows(scores: LogScoreMatrix, frames: Sequence[int]) -> list[LogScoreMatrix]:
    """scores cut into consecutive blocks of frames[0], frames[1], ... rows, as read-only views.

    Every count must be >= 1 and the counts must add up to scores.frames.
    One block is scores itself.
    """
    _require(scores, LogScoreMatrix)
    if min(frames, default=0) < 1 or sum(frames) != scores.frames:
        raise ValidationError(
            f"split_rows needs counts >= 1 that add up to {scores.frames}, got {list(frames)}"
        )
    if len(frames) == 1:
        return [scores]
    return [LogScoreMatrix._unchecked(scores.values[end - n:end])
            for n, end in zip(frames, accumulate(frames))]


def _require(value, kind: type) -> None:
    """Refuse value unless it is a kind instance, whose checks an unchecked output relies on."""
    if not isinstance(value, kind):
        raise ValidationError(f"expected a {kind.__name__}, got {type(value).__name__}")


def numeric_array(values, name: str) -> np.ndarray:
    """values as float64 if numpy stores them as integers or floats, else a ValidationError.

    Strings, bools, objects and ragged nesting are refused; name starts the
    message. An ndarray gets one dtype test whatever its size. numpy stores a
    list that mixes bools with numbers as numbers, so a list or tuple is also
    walked for bools, nested ones included.
    """
    try:
        arr = np.asarray(values)
    except ValueError:  # ragged nested lists
        arr = None
    if arr is None or arr.dtype.kind not in "iuf" or (
            isinstance(values, (list, tuple)) and _holds_bool(values, arr.ndim)):
        raise ValidationError(f"{name} must hold only numbers, got {values!r}")
    return arr.astype(np.float64, copy=False)


def _holds_bool(values, ndim: int) -> bool:
    """Whether nested sequences that numpy read as an ndim-dimensional array hold a bool.

    Flattening ndim - 1 times reaches the entries, whose types are then
    collected without a Python-level loop.
    """
    for _ in range(ndim - 1):
        values = chain.from_iterable(values)
    types = set(map(type, values))
    return bool in types or np.bool_ in types


def check_row_sums(values: np.ndarray) -> int | None:
    """Index of the first row whose sum is off 1 by more than ROW_SUM_TOLERANCE, else None.

    A NaN sum is not off by more than the tolerance. One `fmax` reduction,
    which skips NaN as the comparison does, accepts the rows; only then is
    the first bad one looked for.
    """
    off = np.abs(np.asarray(values, dtype=np.float64).sum(axis=1) - 1.0)
    if not np.fmax.reduce(off, initial=0.0) > ROW_SUM_TOLERANCE:
        return None
    return int(np.flatnonzero(off > ROW_SUM_TOLERANCE)[0])


def _row_sum_error(row: str, values: np.ndarray) -> ValidationError:
    """The refusal of the posterior row called row, whose entries are values."""
    return ValidationError(f"{row} sums to {float(values.sum())!r}, "
                           f"expected 1 within {ROW_SUM_TOLERANCE}")


def floored_log(values) -> np.ndarray:
    """Natural log of nonnegative values, with exact zeros at LOG_FLOOR instead of -inf."""
    v = np.asarray(values, dtype=np.float64)
    with np.errstate(divide="ignore"):
        out = np.log(v, out=np.empty_like(v))
    out[v == 0.0] = LOG_FLOOR
    return out
