"""Command-line interface.

Subcommands:

* ``transform``  - apply an order-n transform to a posterior file, rows renormalized
* ``curves``     - tabulate (and optionally chart) transform curves
* ``decode``     - transform + Viterbi-decode one posterior file
* ``score``      - WER between a reference and a hypothesis transcript
* ``synth``      - generate a seeded synthetic corpus
* ``experiment`` - decode a corpus at several orders and compare WER

Exit codes: 0 success, 2 validation error, 3 I/O error.
This module only parses arguments and maps errors to exit codes; the work
is done in `pipeline`. The argument parser is built once per process, on
the first `main` call, and reused by every later in-process call. All
numeric file output uses 17-significant-digit decimals, so identical inputs
produce byte-identical outputs. Every file is written by
`dataio.write_text`, which leaves a file that already holds those bytes
untouched. Decode timings go to stderr only: report files must not vary
between reruns.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import dataio, pipeline
from .errors import ValidationError
from .posteriors import transform_matrix
from .scoring import align_and_score

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_IO = 3


def cmd_transform(args) -> int:
    matrix = dataio.load_posteriors(args.input)
    out = transform_matrix(matrix, args.order)
    dataio.save_posteriors(out, args.out)
    return EXIT_OK


def cmd_curves(args) -> int:
    orders = tuple(args.order) if args.order else pipeline.DEFAULT_ORDERS
    mus, columns = pipeline.curve_table(orders, args.grid_points)
    dataio.write_text(args.out, pipeline.curves_text(mus, orders, columns))
    if args.svg:
        dataio.write_text(args.svg, pipeline.curves_svg(mus, orders, columns))
    return EXIT_OK


def cmd_decode(args) -> int:
    matrix = dataio.load_posteriors(args.posteriors)
    hmm = dataio.load_hmm(args.hmm)
    priors = None
    if args.priors:
        priors = dataio.load_priors(args.priors)
        pipeline.check_priors(priors, matrix.classes, args.priors)
    tokens = pipeline.decode_tokens(matrix, hmm, args.order, args.renormalize == "on", priors)
    dataio.save_transcript(tokens, args.out)
    return EXIT_OK


def cmd_score(args) -> int:
    reference = pipeline.load_reference(args.reference)
    hypothesis = dataio.load_transcript(args.hypothesis)
    rep = align_and_score(reference, hypothesis)
    if args.format == "machine":
        print(json.dumps(pipeline.wer_json(rep), indent=2, sort_keys=True))
    else:
        print(pipeline.wer_line(rep))
    return EXIT_OK


def cmd_synth(args) -> int:
    hmm = dataio.load_hmm(args.hmm)
    noise = dataio.NoiseSpec(args.concentration, args.confusion_rate, args.seed)
    dataio.generate_corpus(
        hmm, args.utterances, pipeline.parse_frames(args.frames), noise, args.out
    )
    print(Path(args.out) / dataio.MANIFEST_NAME)
    return EXIT_OK


def cmd_experiment(args) -> int:
    config_path = Path(args.config)
    config = pipeline.read_config(dataio.load_json(config_path))
    report = pipeline.run_experiment(config, config_path.parent)
    for r in report.results:
        print(f"order {r.order}: decoded in {r.decode_seconds:.3f}s", file=sys.stderr)
    doc = pipeline.report_document(report)
    if config.report is not None:
        dataio.write_text(config_path.parent / config.report, doc)
    if args.format == "machine":
        sys.stdout.write(doc)
    else:
        sys.stdout.write(pipeline.report_table(report))
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser for every subcommand, built on the first call only.

    Every call returns the same parser, shared by all `main` calls in the
    process: parsing keeps its results in a new namespace and leaves the
    parser as it was. Callers must not mutate it (add arguments, change
    defaults); build a separate parser with `build_parser.__wrapped__()`.
    """
    parser = argparse.ArgumentParser(
        prog="minkdecode",
        description="Higher-order Minkowski-loss posterior transforms and a toy decode pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transform", help="transform a posterior matrix file")
    p.add_argument("input", help="input posterior file")
    p.add_argument("--order", type=int, required=True)
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
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
