"""Higher-order Minkowski-loss posterior transforms and a toy decode pipeline.

The transform lives in `minkowski`; matrix application and log-score
conversion in `posteriors`; the Viterbi decoder in `decoder`; WER scoring
in `scoring`; file formats and the synthetic-corpus generator in `dataio`;
decoding, experiments, reports and curve charts in `pipeline`; argument
parsing and exit codes in `cli`. The cross-checks (Newton and grid search
for the transform, all-paths search for Viterbi, the scalar SplitMix64 for
the generator) live in the test suite, in `tests/oracles.py`, and run the
package's own kernels.
"""

from .decoder import DecodingResult, HmmModel, viterbi_decode
from .errors import DataFormatError, ValidationError
from .minkowski import LossOrder
from .posteriors import (
    LOG_FLOOR,
    LogScoreMatrix,
    PosteriorMatrix,
    to_log_scores,
    transform_matrix,
)
from .scoring import WerReport, align_and_score, corpus_wer

__all__ = [
    "DataFormatError",
    "DecodingResult",
    "HmmModel",
    "LOG_FLOOR",
    "LogScoreMatrix",
    "LossOrder",
    "PosteriorMatrix",
    "ValidationError",
    "WerReport",
    "align_and_score",
    "corpus_wer",
    "to_log_scores",
    "transform_matrix",
    "viterbi_decode",
]

__version__ = "0.1.0"
