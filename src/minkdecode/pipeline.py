"""The decode pipeline behind the CLI: experiments, reports and curve charts.

`decode_tokens` is the single-file path: transform, log scores, Viterbi;
`check_priors` refuses priors of the wrong length and `load_reference` an
empty reference, each naming its file.
`read_config` checks an experiment config and `run_experiment` pools its
WER per order; `report_document` serializes the result byte-reproducibly
(decode timings stay out of it), and `report_table` renders it for a terminal.
`curve_table`, `curves_text` and `curves_svg` tabulate and chart the
transform over a uniform posterior grid.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import dataio
from .decoder import HmmModel, viterbi_decode
from .errors import DataFormatError, ValidationError
from .minkowski import LossOrder, transform_values
from .posteriors import PosteriorMatrix, to_log_scores, transform_matrix
from .scoring import WerReport, corpus_wer

DEFAULT_ORDERS = (2, 4, 6)


# ---------------------------------------------------------------------------
# decoding and WER
# ---------------------------------------------------------------------------

def decode_tokens(matrix: PosteriorMatrix, hmm: HmmModel, order: int,
                  renormalize: bool, priors) -> tuple[str, ...]:
    """Token sequence decoded from one posterior matrix at one order."""
    transformed = transform_matrix(matrix, order, renormalize=renormalize)
    logs = to_log_scores(transformed, priors)
    return viterbi_decode(logs, hmm).token_sequence


def check_priors(priors: np.ndarray, classes: int, path) -> None:
    """Refuse priors without one entry per class, naming the priors file `path`.

    `to_log_scores` refuses them too, but cannot name the file.
    """
    if priors.shape != (classes,):
        raise DataFormatError(
            path, None, f"priors must have one entry per class ({classes}), got {priors.size}"
        )


def load_reference(path) -> tuple[str, ...]:
    """The reference transcript in `path`; an empty one is refused, naming the file.

    `align_and_score` refuses an empty reference too, but cannot name the file.
    """
    tokens = dataio.load_transcript(path)
    if not tokens:
        raise DataFormatError(path, None, "reference must be non-empty")
    return tokens


def wer_line(rep: WerReport) -> str:
    return (
        f"WER {rep.wer:.3f} (S={rep.substitutions} D={rep.deletions} "
        f"I={rep.insertions} / ref={rep.ref_length})"
    )


def wer_json(rep: WerReport) -> dict:
    return {
        "wer": rep.wer,
        "substitutions": rep.substitutions,
        "deletions": rep.deletions,
        "insertions": rep.insertions,
        "ref_length": rep.ref_length,
    }


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def parse_frames(text: str) -> tuple[int, int]:
    """A frames-per-utterance range, 'N' or 'LO:HI', checked by `dataio.check_corpus_size`."""
    try:
        bounds = [int(part) for part in text.split(":")]
    except ValueError:
        bounds = []
    if len(bounds) not in (1, 2):
        raise ValidationError(f"frames must be 'N' or 'LO:HI', got {text!r}")
    return dataio.check_corpus_size(1, (bounds[0], bounds[-1]), frames_name="frames range")


@dataclass(frozen=True)
class OrderResult:
    order: int
    report: WerReport
    decode_seconds: float
    relative_reduction_vs_order2: float | None


@dataclass(frozen=True)
class ExperimentReport:
    """Per-order pooled WER over one corpus, plus the configuration echo.

    decode_seconds is wall-clock and intentionally excluded from the
    serialized document so reruns stay byte-identical.
    """

    results: tuple[OrderResult, ...]
    config_echo: dict


@dataclass(frozen=True)
class ExperimentConfig:
    """An experiment config `read_config` checked; paths are relative to the config's directory."""

    hmm: str
    orders: tuple[int, ...]
    renormalize: bool
    priors: str | None
    report: str | None
    corpus: dict  # as written, for the report's echo
    manifest: str | None  # read when generate is None
    # `dataio.generate_corpus`'s arguments after the HMM: utterances, frames, noise, directory
    generate: tuple[int, tuple[int, int], dataio.NoiseSpec, str] | None


def read_config(doc) -> ExperimentConfig:
    """The experiment config in the JSON document doc, every field checked; no file is touched.

    Orders must pass `LossOrder`, the one order validator, and the corpus
    sizes `dataio.check_corpus_size`. Messages start with 'config'.
    """
    field = dataio.json_field
    try:
        dataio.json_object(doc, ("hmm", "corpus"), ("orders", "renormalize", "priors", "report"))
        hmm = field(doc["hmm"], str, "hmm")
        # Optional, null means none.
        priors, report = (None if doc.get(k) is None else field(doc[k], str, k)
                          for k in ("priors", "report"))
        orders = field(doc.get("orders", list(DEFAULT_ORDERS)), list, "orders", "a list of integers")
        try:
            orders = tuple(LossOrder(n).value for n in orders)
        except ValidationError as exc:
            raise ValidationError(f"field 'orders': {exc}") from None
        if not orders or len(set(orders)) != len(orders):
            raise ValidationError(f"field 'orders' must be non-empty and distinct, got {list(orders)}")
        renormalize = field(doc.get("renormalize", True), bool, "renormalize")
        corpus = doc["corpus"]
        manifest = generate = None
        if isinstance(corpus, dict) and "manifest" in corpus:
            manifest = field(corpus["manifest"], str, "corpus.manifest")
            dataio.json_object(corpus, ("manifest",), field="corpus")
        else:
            dataio.json_object(corpus, ("dir", "utterances", "frames", "noise"), field="corpus")
            out_dir = field(corpus["dir"], str, "corpus.dir")
            frames = dataio.check_corpus_size(corpus["utterances"], corpus["frames"])
            noise = dataio.NoiseSpec.from_json(corpus["noise"])
            generate = (corpus["utterances"], frames, noise, out_dir)
        return ExperimentConfig(hmm, orders, renormalize, priors, report, corpus, manifest, generate)
    except ValidationError as exc:
        raise ValidationError(f"config {exc}") from None


def run_experiment(config: ExperimentConfig, base_dir: Path) -> ExperimentReport:
    """Decode one corpus at every configured order and pool WER per order.

    The same loaded posterior matrices are reused for every order, so the
    transform is the only varying factor. Relative reduction is computed
    against the order-2 result when present. Every reference and the priors
    are checked before anything is decoded.
    """
    hmm = dataio.load_hmm(base_dir / config.hmm)
    priors = None
    if config.priors is not None:
        priors = dataio.load_priors(base_dir / config.priors)
    if config.generate is None:
        manifest = dataio.load_manifest(base_dir / config.manifest)
    else:
        utterances, frames, noise, out_dir = config.generate
        manifest = dataio.generate_corpus(hmm, utterances, frames, noise, base_dir / out_dir)

    loaded = [
        (dataio.load_posteriors(u.posteriors_path), load_reference(u.reference_path))
        for u in manifest.utterances
    ]
    if priors is not None:
        for matrix, _ in loaded:
            check_priors(priors, matrix.classes, base_dir / config.priors)
    results = []
    order2_wer: float | None = None
    for order in config.orders:
        start = time.perf_counter()
        pairs = [
            (ref, decode_tokens(matrix, hmm, order, config.renormalize, priors))
            for matrix, ref in loaded
        ]
        elapsed = time.perf_counter() - start
        rep = corpus_wer(pairs)
        if order == 2:
            order2_wer = rep.wer
        results.append((order, rep, elapsed))

    out = []
    for order, rep, elapsed in results:
        reduction = None
        if order != 2 and order2_wer is not None:
            reduction = 0.0 if order2_wer == 0.0 else (order2_wer - rep.wer) / order2_wer
        out.append(OrderResult(order, rep, elapsed, reduction))
    echo = {k: getattr(config, k) for k in ("hmm", "orders", "renormalize", "priors", "corpus")}
    return ExperimentReport(tuple(out), echo)


def report_document(report: ExperimentReport) -> str:
    doc = {
        "config": report.config_echo,
        "orders": [
            {
                "order": r.order,
                **wer_json(r.report),
                "relative_reduction_vs_order2": r.relative_reduction_vs_order2,
            }
            for r in report.results
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def report_table(report: ExperimentReport) -> str:
    lines = [f"{'order':>5}  {'WER':>9}  {'S':>5} {'D':>5} {'I':>5}  {'ref':>6}  {'vs order 2':>11}"]
    for r in report.results:
        red = "-" if r.relative_reduction_vs_order2 is None else f"{100 * r.relative_reduction_vs_order2:+.3f}%"
        rep = r.report
        lines.append(
            f"{r.order:>5}  {rep.wer:>9.6f}  {rep.substitutions:>5} {rep.deletions:>5} "
            f"{rep.insertions:>5}  {rep.ref_length:>6}  {red:>11}"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# transform curves
# ---------------------------------------------------------------------------

def curve_table(orders, grid_points: int):
    """The grid of `grid_points` posteriors on [0, 1] and each order's transform of it."""
    if grid_points < 2:
        raise ValidationError(f"grid-points must be >= 2, got {grid_points}")
    mus = np.linspace(0.0, 1.0, grid_points)
    columns = {n: transform_values(mus, n) for n in orders}
    return mus, columns


def curves_text(mus, orders, columns) -> str:
    lines = ["mu " + " ".join(f"order{n}" for n in orders)]
    for i, mu in enumerate(mus):
        vals = " ".join(dataio.format_float(columns[n][i]) for n in orders)
        lines.append(f"{dataio.format_float(mu)} {vals}")
    return "\n".join(lines) + "\n"


_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def curves_svg(mus, orders, columns) -> str:
    width, height, margin = 640, 480, 56
    span_x, span_y = width - 2 * margin, height - 2 * margin

    def sx(x: float) -> float:
        return margin + x * span_x

    def sy(y: float) -> float:
        return height - margin - y * span_y

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for k in range(5):
        v = k / 4.0
        parts.append(
            f'<line x1="{sx(0):.1f}" y1="{sy(v):.1f}" x2="{sx(1):.1f}" y2="{sy(v):.1f}" '
            'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<line x1="{sx(v):.1f}" y1="{sy(0):.1f}" x2="{sx(v):.1f}" y2="{sy(1):.1f}" '
            'stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{sx(v):.1f}" y="{height - margin + 20}" font-size="12" '
            f'text-anchor="middle">{v:.2f}</text>'
        )
        parts.append(
            f'<text x="{margin - 8}" y="{sy(v) + 4:.1f}" font-size="12" '
            f'text-anchor="end">{v:.2f}</text>'
        )
    parts.append(
        f'<text x="{width / 2:.1f}" y="{height - 12}" font-size="13" '
        'text-anchor="middle">input posterior</text>'
    )
    for i, n in enumerate(orders):
        color = _SVG_COLORS[i % len(_SVG_COLORS)]
        pts = " ".join(
            f"{sx(mu):.2f},{sy(v):.2f}" for mu, v in zip(mus, columns[n])
        )
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{width - margin + 4}" y="{margin + 16 * i + 4}" font-size="12" '
            f'fill="{color}">order {n}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
