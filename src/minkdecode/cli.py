"""Command-line interface.

Subcommands:

* ``transform``  - apply an order-n transform to a posterior file
* ``curves``     - tabulate (and optionally chart) transform curves
* ``decode``     - transform + Viterbi-decode one posterior file
* ``score``      - WER between a reference and a hypothesis transcript
* ``synth``      - generate a seeded synthetic corpus
* ``experiment`` - decode a corpus at several orders and compare WER

Exit codes: 0 success, 2 validation error, 3 I/O error, 4 solver failure.
All numeric file output uses 17-significant-digit decimals, so identical
inputs produce byte-identical outputs. Decode timings go to stderr only:
report files must not vary between reruns.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import dataio
from .decoder import HmmModel, viterbi_decode
from .errors import SolverError, ValidationError
from .posteriors import PosteriorMatrix, to_log_scores, transform_matrix, transform_values
from .scoring import WerReport, align_and_score, corpus_wer

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3
EXIT_SOLVER = 4

DEFAULT_ORDERS = (2, 4, 6)


# ---------------------------------------------------------------------------
# transform / curves
# ---------------------------------------------------------------------------

def cmd_transform(args) -> int:
    matrix = dataio.load_posteriors(args.input)
    out = transform_matrix(matrix, args.order, renormalize=args.renormalize)
    dataio.save_posteriors(out, args.out)
    return EXIT_OK


def _curve_table(orders, grid_points: int):
    if grid_points < 2:
        raise ValidationError(f"grid-points must be >= 2, got {grid_points}")
    mus = np.linspace(0.0, 1.0, grid_points)
    columns = {n: transform_values(mus, n) for n in orders}
    return mus, columns


def cmd_curves(args) -> int:
    orders = tuple(args.order) if args.order else DEFAULT_ORDERS
    mus, columns = _curve_table(orders, args.grid_points)
    lines = ["mu " + " ".join(f"order{n}" for n in orders)]
    for i, mu in enumerate(mus):
        vals = " ".join(dataio.format_float(columns[n][i]) for n in orders)
        lines.append(f"{dataio.format_float(mu)} {vals}")
    Path(args.out).write_text("\n".join(lines) + "\n", encoding="utf-8")
    if args.svg:
        Path(args.svg).write_text(_curves_svg(mus, orders, columns), encoding="utf-8")
    return EXIT_OK


_SVG_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _curves_svg(mus, orders, columns) -> str:
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


# ---------------------------------------------------------------------------
# decode / score
# ---------------------------------------------------------------------------

def _decode_tokens(matrix: PosteriorMatrix, hmm: HmmModel, order: int,
                   renormalize: bool, priors) -> tuple[str, ...]:
    transformed = transform_matrix(matrix, order, renormalize=renormalize)
    logs = to_log_scores(transformed, priors)
    return viterbi_decode(logs, hmm).token_sequence


def cmd_decode(args) -> int:
    matrix = dataio.load_posteriors(args.posteriors)
    hmm = dataio.load_hmm(args.hmm)
    priors = dataio.load_priors(args.priors) if args.priors else None
    tokens = _decode_tokens(matrix, hmm, args.order, args.renormalize, priors)
    dataio.save_transcript(tokens, args.out)
    return EXIT_OK


def _wer_line(rep: WerReport) -> str:
    return (
        f"WER {rep.wer:.3f} (S={rep.substitutions} D={rep.deletions} "
        f"I={rep.insertions} / ref={rep.ref_length})"
    )


def _wer_json(rep: WerReport) -> dict:
    return {
        "wer": rep.wer,
        "substitutions": rep.substitutions,
        "deletions": rep.deletions,
        "insertions": rep.insertions,
        "ref_length": rep.ref_length,
    }


def cmd_score(args) -> int:
    reference = dataio.load_transcript(args.reference)
    hypothesis = dataio.load_transcript(args.hypothesis)
    rep = align_and_score(reference, hypothesis)
    if args.format == "machine":
        print(json.dumps(_wer_json(rep), indent=2, sort_keys=True))
    else:
        print(_wer_line(rep))
    return EXIT_OK


# ---------------------------------------------------------------------------
# synth / experiment
# ---------------------------------------------------------------------------

def _parse_frames(text: str) -> tuple[int, int]:
    parts = text.split(":")
    if len(parts) == 1:
        lo = hi = int(parts[0])
    elif len(parts) == 2:
        lo, hi = int(parts[0]), int(parts[1])
    else:
        raise ValidationError(f"frames must be 'N' or 'LO:HI', got {text!r}")
    return lo, hi


def cmd_synth(args) -> int:
    hmm = dataio.load_hmm(args.hmm)
    noise = dataio.NoiseSpec(
        concentration=float(args.concentration),
        confusion_rate=float(args.confusion_rate),
        seed=args.seed,
    )
    dataio.generate_corpus(
        hmm, args.utterances, _parse_frames(args.frames), noise, args.out
    )
    print(Path(args.out) / dataio.MANIFEST_NAME)
    return EXIT_OK


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


def _config_int(value, field: str) -> int:
    """A JSON integer from the experiment config; anything else is refused."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"config field '{field}' must be an integer, got {value!r}")
    return value


def run_experiment(config: dict, base_dir: Path) -> ExperimentReport:
    """Decode one corpus at every configured order and pool WER per order.

    The same loaded posterior matrices are reused for every order, so the
    transform is the only varying factor. Relative reduction is computed
    against the order-2 result when present.
    """
    if not isinstance(config, dict):
        raise ValidationError("experiment config must be a JSON object")
    unknown = set(config) - {"hmm", "orders", "renormalize", "priors", "corpus", "report"}
    if unknown:
        raise ValidationError(f"unknown config fields {sorted(unknown)}")
    if "hmm" not in config or "corpus" not in config:
        raise ValidationError("config needs 'hmm' and 'corpus'")
    hmm_path = base_dir / config["hmm"]
    hmm = dataio.load_hmm(hmm_path)
    orders = config.get("orders", list(DEFAULT_ORDERS))
    if not isinstance(orders, list):
        raise ValidationError(f"config field 'orders' must be a list of integers, got {orders!r}")
    orders = tuple(_config_int(n, "orders") for n in orders)
    renormalize = config.get("renormalize", True)
    if not isinstance(renormalize, bool):
        raise ValidationError(
            f"config field 'renormalize' must be true or false, got {renormalize!r}"
        )
    priors = None
    if config.get("priors"):
        priors = dataio.load_priors(base_dir / config["priors"])

    corpus = config["corpus"]
    if not isinstance(corpus, dict):
        raise ValidationError("'corpus' must be an object")
    if "manifest" in corpus:
        manifest = dataio.load_manifest(base_dir / corpus["manifest"])
    else:
        for key in ("dir", "utterances", "frames", "noise"):
            if key not in corpus:
                raise ValidationError(f"corpus generation needs '{key}'")
        nz = corpus["noise"]
        noise = dataio.NoiseSpec(
            concentration=float(nz["concentration"]),
            confusion_rate=float(nz["confusion_rate"]),
            seed=_config_int(nz["seed"], "noise.seed"),
        )
        frames = corpus["frames"]
        if not (isinstance(frames, list) and len(frames) == 2):
            raise ValidationError(f"config field 'frames' must be [lo, hi], got {frames!r}")
        manifest = dataio.generate_corpus(
            hmm,
            _config_int(corpus["utterances"], "utterances"),
            (_config_int(frames[0], "frames"), _config_int(frames[1], "frames")),
            noise,
            base_dir / corpus["dir"],
        )

    loaded = [
        (dataio.load_posteriors(u.posteriors_path), dataio.load_transcript(u.reference_path))
        for u in manifest.utterances
    ]
    results = []
    order2_wer: float | None = None
    for order in orders:
        start = time.perf_counter()
        pairs = [
            (ref, _decode_tokens(matrix, hmm, order, renormalize, priors))
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
    echo = {
        "hmm": str(config["hmm"]),
        "orders": list(orders),
        "renormalize": renormalize,
        "priors": str(config["priors"]) if config.get("priors") else None,
        "corpus": corpus,
    }
    return ExperimentReport(tuple(out), echo)


def report_document(report: ExperimentReport) -> str:
    doc = {
        "config": report.config_echo,
        "orders": [
            {
                "order": r.order,
                **_wer_json(r.report),
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


def cmd_experiment(args) -> int:
    config_path = Path(args.config)
    try:
        config = json.loads(config_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{config_path}: invalid JSON: {exc.msg}") from None
    report = run_experiment(config, config_path.parent)
    for r in report.results:
        print(f"order {r.order}: decoded in {r.decode_seconds:.3f}s", file=sys.stderr)
    doc = report_document(report)
    out = args.out or (str(config_path.parent / config["report"]) if config.get("report") else None)
    if out:
        Path(out).write_text(doc, encoding="utf-8")
    if args.format == "machine":
        sys.stdout.write(doc)
    else:
        sys.stdout.write(report_table(report))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser plumbing
# ---------------------------------------------------------------------------

def _renorm(value: str) -> bool:
    return value == "on"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minkdecode",
        description="Higher-order Minkowski-loss posterior transforms and a toy decode pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transform", help="transform a posterior matrix file")
    p.add_argument("input", help="input posterior file")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--renormalize", choices=("on", "off"), default="on")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("curves", help="tabulate transform curves over a posterior grid")
    p.add_argument("--order", type=int, action="append", help="repeatable; default 2 4 6")
    p.add_argument("--grid-points", type=int, default=101)
    p.add_argument("--out", required=True)
    p.add_argument("--svg", help="also write an SVG chart here")
    p.set_defaults(func=cmd_curves)

    p = sub.add_parser("decode", help="transform posteriors and Viterbi-decode them")
    p.add_argument("posteriors")
    p.add_argument("--hmm", required=True)
    p.add_argument("--order", type=int, default=2)
    p.add_argument("--renormalize", choices=("on", "off"), default="on")
    p.add_argument("--priors", help="divide posteriors by these class priors")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("score", help="WER between reference and hypothesis transcripts")
    p.add_argument("reference")
    p.add_argument("hypothesis")
    p.add_argument("--format", choices=("table", "machine"), default="table")
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("synth", help="generate a seeded synthetic corpus")
    p.add_argument("--hmm", required=True)
    p.add_argument("--utterances", type=int, default=20)
    p.add_argument("--frames", default="10:30", help="frames per utterance, 'N' or 'LO:HI'")
    p.add_argument("--concentration", type=float, default=5.0)
    p.add_argument("--confusion-rate", type=float, default=0.3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="corpus output directory")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("experiment", help="order-comparison experiment from a JSON config")
    p.add_argument("config")
    p.add_argument("--format", choices=("table", "machine"), default="table")
    p.add_argument("--out", help="write the machine-readable report here")
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if hasattr(args, "renormalize"):
        args.renormalize = _renorm(args.renormalize)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
