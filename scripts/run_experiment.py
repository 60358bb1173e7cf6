#!/usr/bin/env python3
"""Set up and run a self-contained order-comparison experiment.

Writes a small 3-state HMM and an experiment config into --workdir, then
generates a seeded synthetic corpus and decodes it with 2nd-, 4th- and
6th-order transforms, printing the per-order WER table and the report path.

The default noise regime (sharp posteriors, 30% isolated confusion events,
sticky transitions) is one where flattening the posteriors lets the
transition prior absorb single-frame confusions, so the higher orders win
by a wide margin. With diffuse noise (try --concentration 5) the effect
reverses and the higher orders lose tokens to deletions instead. Neither
outcome is a general claim; the point is that the transform changes decoded
paths only through its interaction with the sequence prior.
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from minkdecode import ValidationError, cli, dataio, pipeline  # noqa: E402

DEMO_HMM = {
    "num_states": 3,
    "initial": [0.5, 0.3, 0.2],
    "transitions": [
        [0.90, 0.05, 0.05],
        [0.05, 0.90, 0.05],
        [0.05, 0.05, 0.90],
    ],
    "labels": ["red", "green", "blue"],
    "state_to_class": [0, 1, 2],
}


def frames_arg(text: str) -> tuple[int, int]:
    """`pipeline.parse_frames` as an argparse type, keeping its reason on a refusal."""
    try:
        return pipeline.parse_frames(text)
    except ValidationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", default="demo_experiment")
    parser.add_argument("--utterances", type=int, default=40)
    parser.add_argument("--frames", type=frames_arg, default="10:25",
                        help="frames per utterance, 'N' or 'LO:HI'")
    parser.add_argument("--concentration", type=float, default=100.0)
    parser.add_argument("--confusion-rate", type=float, default=0.3)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    dataio.write_text(workdir / "hmm.json", json.dumps(DEMO_HMM, indent=2) + "\n")

    config = {
        "hmm": "hmm.json",
        "orders": [2, 4, 6],
        "corpus": {
            "dir": "corpus",
            "utterances": args.utterances,
            "frames": list(args.frames),
            "noise": {
                "concentration": args.concentration,
                "confusion_rate": args.confusion_rate,
                "seed": args.seed,
            },
        },
        "report": "report.json",
    }
    config_path = workdir / "experiment.json"
    dataio.write_text(config_path, json.dumps(config, indent=2) + "\n")

    code = cli.main(["experiment", str(config_path)])
    if code == 0:
        print(f"\nreport: {workdir / 'report.json'}")
        print(f"corpus: {workdir / 'corpus'}")
    return code


if __name__ == "__main__":
    sys.exit(main())
