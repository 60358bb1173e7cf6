"""Higher-order Minkowski-loss posterior transforms and a toy decode pipeline.

The transform and its oracles live in `minkowski`; matrix application and
log-score conversion in `posteriors`; the Viterbi decoder and its exact
oracle in `decoder`; WER scoring in `scoring`; file formats and the
synthetic-corpus generator in `dataio`; decoding, experiments, reports and
curve charts in `pipeline`; argument parsing and exit codes in `cli`.
"""

from .decoder import DecodingResult, HmmModel, exhaustive_decode, score_path, viterbi_decode
from .errors import DataFormatError, SolverError, ValidationError
from .minkowski import (
    GradientPolynomial,
    LossOrder,
    Posterior,
    RootAnalysis,
    analyze_odd_order,
    brute_force_transform,
    closed_form_transform,
    expected_loss,
    gradient_coefficients,
    newton_transform,
)
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
    "GradientPolynomial",
    "HmmModel",
    "LOG_FLOOR",
    "LogScoreMatrix",
    "LossOrder",
    "Posterior",
    "PosteriorMatrix",
    "RootAnalysis",
    "SolverError",
    "ValidationError",
    "WerReport",
    "align_and_score",
    "analyze_odd_order",
    "brute_force_transform",
    "closed_form_transform",
    "corpus_wer",
    "exhaustive_decode",
    "expected_loss",
    "gradient_coefficients",
    "newton_transform",
    "score_path",
    "to_log_scores",
    "transform_matrix",
    "viterbi_decode",
]

__version__ = "0.1.0"
