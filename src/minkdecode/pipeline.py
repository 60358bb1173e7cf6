"""The decode pipeline behind the CLI: experiments, reports and curve charts.

`decode_tokens` is the one decode route, for one file (`decode`) and for a
corpus (`experiment`): it scores consecutive matrices in chunks of at most
CHUNK_ENTRIES entries, one transform and one log-score call per chunk, and
runs Viterbi per file. `check_posterior_fit` refuses a posterior file that
does not fit its HMM or priors, naming the file at fault.
`read_config` checks an experiment config, and `run_experiment` decodes the
corpus at each order and returns the report document: the config echo and
each order's pooled WER and reduction against order 2. Each order's decode
seconds are returned beside it, never in it. `report_document` serializes
the document byte-reproducibly and `report_table` renders its rows for a
terminal. `curve_table`, `curves_text` and `curves_svg` tabulate and chart
the transform over a uniform posterior grid.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import dataio
from .decoder import HmmModel, viterbi_decode
from .errors import DataFormatError, ValidationError
from .minkowski import LossOrder, transform_values
from .posteriors import (PosteriorMatrix, split_rows, stack_rows, to_log_scores,
                         transform_matrix)
from .scoring import WerReport, corpus_wer

DEFAULT_ORDERS = (2, 4, 6)


# ---------------------------------------------------------------------------
# decoding and WER
# ---------------------------------------------------------------------------

# Entries scored by one transform call, 32 KiB per float64 array: stacking
# many short files saves per-call overhead, while a bounded chunk keeps
# memory flat. A file this large or larger is a chunk of its own.
CHUNK_ENTRIES = 4096


def decode_tokens(matrices: Sequence[PosteriorMatrix], hmm: HmmModel, order: int,
                  priors) -> list[tuple[str, ...]]:
    """The token sequence decoded from each posterior matrix at one order, in input order.

    Consecutive matrices of one class count are scored together in chunks
    of at most CHUNK_ENTRIES entries (a larger matrix alone, as it is):
    `stack_rows`, one `transform_matrix` and one `to_log_scores` call, then
    `split_rows` and one `viterbi_decode` per matrix. The transform acts on
    each entry and each row on its own, so every matrix gets the scores,
    bit for bit, that it would get alone.
    """
    decoded = []
    for chunk in _chunks(matrices):
        logs = to_log_scores(transform_matrix(stack_rows(chunk), order), priors)
        for scores in split_rows(logs, [m.frames for m in chunk]):
            decoded.append(viterbi_decode(scores, hmm).token_sequence)
    return decoded


def _chunks(matrices: Sequence[PosteriorMatrix]):
    """Runs of consecutive matrices of one class count, CHUNK_ENTRIES entries at most unless one."""
    chunk, entries = [], 0
    for m in matrices:
        if chunk and (m.classes != chunk[0].classes or entries + m.values.size > CHUNK_ENTRIES):
            yield chunk
            chunk, entries = [], 0
        chunk.append(m)
        entries += m.values.size
    if chunk:
        yield chunk


def check_posterior_fit(matrix: PosteriorMatrix, path, hmm: HmmModel,
                        priors, priors_path) -> None:
    """Refuse a posterior file that does not fit its HMM or its priors, naming the file at fault.

    Every `state_to_class` column must be one of the matrix's classes (the
    message names the posterior file `path`), and priors, when not None,
    must have one entry per class (the message names `priors_path`).
    `viterbi_decode` and `to_log_scores` refuse both too, but cannot name
    the files.
    """
    if hmm.max_class >= matrix.classes:
        raise DataFormatError(path, None, f"state_to_class refers to column {hmm.max_class} "
                              f"but the posterior matrix has {matrix.classes} classes")
    if priors is not None and priors.shape != (matrix.classes,):
        raise DataFormatError(
            priors_path, None,
            f"priors must have one entry per class ({matrix.classes}), got {priors.size}"
        )


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
class ExperimentConfig:
    """An experiment config `read_config` checked; paths are relative to the config's directory."""

    hmm: str
    orders: tuple[int, ...]
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
    'renormalize' may only be true: rows are always rescaled.
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
        if doc.get("renormalize", True) is not True:
            raise ValidationError(f"field 'renormalize' must be true, got {doc['renormalize']!r}")
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
        return ExperimentConfig(hmm, orders, priors, report, corpus, manifest, generate)
    except ValidationError as exc:
        raise ValidationError(f"config {exc}") from None


def run_experiment(config: ExperimentConfig, base_dir: Path) -> tuple[dict, list[float]]:
    """Decode one corpus at every configured order; the report document and each order's seconds.

    The document holds the config echo and, for each order in config order,
    its pooled WER (`wer_json`) and relative reduction against the order-2
    WER: None for order 2 itself, without order 2, or when only order 2 has
    WER 0 (no finite ratio). The echo's 'renormalize' is always true. The
    decode seconds stay out of it, so reruns write identical bytes. The same
    loaded posterior matrices are reused for every order, so the transform
    is the only varying factor. The references are the manifest's: a
    generated corpus's come from the generator and a read manifest's were
    read, and refused if empty, by `dataio.load_manifest`; no reference
    file is read here. Every posterior file's fit to the HMM and priors is
    checked before anything is decoded.
    """
    hmm = dataio.load_hmm(base_dir / config.hmm)
    priors = priors_path = None
    if config.priors is not None:
        priors_path = base_dir / config.priors
        priors = dataio.load_priors(priors_path)
    if config.generate is None:
        manifest = dataio.load_manifest(base_dir / config.manifest)
    else:
        utterances, frames, noise, out_dir = config.generate
        manifest = dataio.generate_corpus(hmm, utterances, frames, noise, base_dir / out_dir)

    matrices = [dataio.load_posteriors(u.posteriors_path) for u in manifest.utterances]
    refs = [u.reference for u in manifest.utterances]
    for u, matrix in zip(manifest.utterances, matrices):
        check_posterior_fit(matrix, u.posteriors_path, hmm, priors, priors_path)
    entries = []
    seconds = []
    for order in config.orders:
        start = time.perf_counter()
        hyps = decode_tokens(matrices, hmm, order, priors)
        seconds.append(time.perf_counter() - start)
        entries.append({"order": order, **wer_json(corpus_wer(zip(refs, hyps)))})

    order2_wer = next((e["wer"] for e in entries if e["order"] == 2), None)
    for e in entries:
        reduction = None
        if e["order"] != 2 and order2_wer is not None:
            if order2_wer != 0.0:
                reduction = (order2_wer - e["wer"]) / order2_wer
            elif e["wer"] == 0.0:
                reduction = 0.0
        e["relative_reduction_vs_order2"] = reduction
    echo = {k: getattr(config, k) for k in ("hmm", "orders", "priors", "corpus")}
    return {"config": {**echo, "renormalize": True}, "orders": entries}, seconds


def report_document(doc: dict) -> str:
    """The report document as JSON text with sorted keys, byte-reproducible."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def report_table(doc: dict) -> str:
    """The report document's per-order rows as a terminal table."""
    lines = [f"{'order':>5}  {'WER':>9}  {'S':>5} {'D':>5} {'I':>5}  {'ref':>6}  {'vs order 2':>11}"]
    for e in doc["orders"]:
        reduction = e["relative_reduction_vs_order2"]
        red = "-" if reduction is None else f"{100 * reduction:+.3f}%"
        lines.append(
            f"{e['order']:>5}  {e['wer']:>9.6f}  {e['substitutions']:>5} {e['deletions']:>5} "
            f"{e['insertions']:>5}  {e['ref_length']:>6}  {red:>11}"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# transform curves
# ---------------------------------------------------------------------------

# Most points one curve table may hold: charts use 101 or 201, a million takes
# 8 MB per column, and an unbounded count fails in np.linspace's allocation.
MAX_GRID_POINTS = 10**6


def curve_table(orders, grid_points: int):
    """The grid of `grid_points` posteriors on [0, 1] and each order's transform of it."""
    if grid_points < 2:
        raise ValidationError(f"grid-points must be >= 2, got {grid_points}")
    if grid_points > MAX_GRID_POINTS:
        raise ValidationError(f"grid-points must be at most {MAX_GRID_POINTS}, got {grid_points}")
    mus = np.linspace(0.0, 1.0, grid_points)
    columns = {n: transform_values(mus, n) for n in orders}
    return mus, columns


def curves_text(mus, orders, columns) -> str:
    """A header line, then one line per grid point: mu and each order's value, as `%.17g`."""
    header = "mu " + " ".join(f"order{n}" for n in orders)
    return f"{header}\n{dataio._rows_text(np.column_stack([mus, *(columns[n] for n in orders)]))}"


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
