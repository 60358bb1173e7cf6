"""Frozen sha256 digests of generated corpora.

Each digest covers every file `generate_corpus` writes for one case (file
names and bytes, manifest included), so any change to the draw order, the
arithmetic or the text format of the generator shows up here. The digests
were taken from the one-draw-at-a-time generator that the bulk generator
replaced; they must not be re-frozen to follow a change in output.
"""

import hashlib
import math

import pytest

from minkdecode import HmmModel
from minkdecode import dataio
from minkdecode.dataio import NoiseSpec, generate_corpus


def sticky(states, stay):
    move = (1.0 - stay) / (states - 1)
    return HmmModel.from_probs(
        [1.0 / states] * states,
        [[stay if i == j else move for j in range(states)] for i in range(states)],
        [f"s{i}" for i in range(states)],
        list(range(states)),
    )


DEMO = HmmModel.from_probs(
    [0.5, 0.3, 0.2],
    [[0.90, 0.05, 0.05], [0.05, 0.90, 0.05], [0.05, 0.05, 0.90]],
    ["red", "green", "blue"],
    [0, 1, 2],
)

# Four states over three classes, with zero-probability starts and transitions.
SPARSE = HmmModel.from_probs(
    [0.5, 0.0, 0.25, 0.25],
    [
        [0.75, 0.25, 0.0, 0.0],
        [0.0, 0.5, 0.5, 0.0],
        [0.125, 0.0, 0.625, 0.25],
        [0.0, 0.0, 0.5, 0.5],
    ],
    ["a", "b", "c", "d"],
    [0, 1, 2, 1],
)

# case -> (hmm, utterances, frames range, noise)
CASES = {
    "k3_conc100": (DEMO, 40, (10, 25), NoiseSpec(100.0, 0.3, 1)),
    "k20": (sticky(20, 0.8), 6, (20, 40), NoiseSpec(30.0, 0.3, 7)),
    "inf_concentration": (DEMO, 10, (5, 12), NoiseSpec(math.inf, 0.3, 3)),
    "confusion_0": (DEMO, 10, (5, 12), NoiseSpec(5.0, 0.0, 4)),
    "confusion_1": (DEMO, 10, (5, 12), NoiseSpec(5.0, 1.0, 5)),
    "frames_1_1": (DEMO, 12, (1, 1), NoiseSpec(2.0, 0.5, 6)),
    # seed + i passes 2**64 and wraps to 0, 1, ...
    "seed_wraps": (DEMO, 50, (3, 6), NoiseSpec(10.0, 0.3, 2**64 - 10)),
    "zero_probabilities": (SPARSE, 20, (5, 15), NoiseSpec(8.0, 0.3, 8)),
    # At 2**14 draws per block: 481 draws per utterance, 34 utterances a block.
    "several_blocks": (sticky(5, 0.7), 80, (50, 60), NoiseSpec(20.0, 0.3, 9)),
    # 18401 draws per utterance: each is larger than a 2**14-draw block.
    "utterance_over_a_block": (sticky(20, 0.8), 2, (800, 800), NoiseSpec(30.0, 0.3, 10)),
}

DIGESTS = {
    "confusion_0": "cf8e113a1567220120bfc2d27cd682fcdd236578da80d1e1bacd7fb926e4d885",
    "confusion_1": "60a66e1bc92fb4e70d3ecdf4a8b8655172e58d4187c94b784a1242d3be610c2b",
    "frames_1_1": "cc678473e1bec834151196370b2a7e77a0d38fc10627f4c40e3a0897824921db",
    "inf_concentration": "ce00acaafdc2c9b3c78eee178bc933416dcebd6451305ab08ba67de57e654666",
    "k20": "5c13c7d005d18a89cea72e9bfd35037cfa0c123ecc5680d1c12453e9907f686c",
    "k3_conc100": "d8cde89e6955bb8f411ec3f9da7aa5d30630ffb13998501c296728651525a82d",
    "seed_wraps": "c1aacf47d182d77742e16a87ca734380e86473a52223f3683b2894a4edd30e79",
    "several_blocks": "13353bec096a4d046f55f841fae974c2daff7c388b72552c60650778f4440555",
    "utterance_over_a_block": "24afb200d4b309ca4e4fb2ab9e875410d46cdc472c6691c240ef64d649a5b62f",
    "zero_probabilities": "d53dedf15d0c5d7d0bbee60b99fc6268ea4d6429dbf15704117a19780bbc0216",
}


def corpus_digest(directory) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_generated_corpus_digest(tmp_path, case):
    hmm, utterances, frames, noise = CASES[case]
    generate_corpus(hmm, utterances, frames, noise, tmp_path)
    assert corpus_digest(tmp_path) == DIGESTS[case]


def test_block_cases_cross_block_boundaries():
    # Draws per utterance, at most: frame count, state path, then per frame
    # a confusion flag, a wrong class and one exponential per class.
    def most_draws(case):
        hmm, _, (_, hi), _ = CASES[case]
        classes = int(hmm.state_to_class.max()) + 1
        return 1 + hi + hi * (2 + classes)

    hmm, utterances, _, _ = CASES["several_blocks"]
    per_block = dataio._BLOCK_DRAWS // most_draws("several_blocks")
    assert 1 < per_block and utterances > 2 * per_block
    assert most_draws("utterance_over_a_block") > dataio._BLOCK_DRAWS
