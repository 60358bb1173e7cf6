"""`pipeline.decode_tokens` scores files in chunks and must match the per-file route bit for bit.

The per-file route is `viterbi_decode(to_log_scores(transform_matrix(m, order), priors), hmm)`.
The tests record the transform and Viterbi calls `decode_tokens` makes, so
the chunking is checked too: one transform call per chunk of at most
CHUNK_ENTRIES entries (or one larger file, as it is), one Viterbi call per
file, in input order.
"""

import numpy as np
import pytest

from minkdecode import (
    LogScoreMatrix,
    PosteriorMatrix,
    ValidationError,
    pipeline,
    to_log_scores,
    transform_matrix,
    viterbi_decode,
)
from minkdecode.posteriors import split_rows, stack_rows

from conftest import make_edge_rows, make_random_hmm

ORDERS = [2, 4, 6, 8]


def posteriors(rng, frames, classes):
    """A seeded posterior matrix with the edge entries 0.0, 5e-324 and 1.0 (one-hot rows)."""
    return PosteriorMatrix(make_edge_rows(rng, frames, classes))


@pytest.fixture
def calls(monkeypatch):
    """The transform inputs and Viterbi score matrices decode_tokens passes on, in call order."""
    seen = {"transform": [], "viterbi": []}

    def transform(matrix, order):
        seen["transform"].append(matrix)
        return transform_matrix(matrix, order)

    def viterbi(scores, hmm):
        seen["viterbi"].append(scores)
        return viterbi_decode(scores, hmm)

    monkeypatch.setattr(pipeline, "transform_matrix", transform)
    monkeypatch.setattr(pipeline, "viterbi_decode", viterbi)
    return seen


def assert_per_file_route(matrices, hmm, order, priors, calls):
    """decode_tokens(matrices) gives, per file, the per-file route's scores and tokens."""
    got = pipeline.decode_tokens(matrices, hmm, order, priors)
    assert len(got) == len(calls["viterbi"]) == len(matrices)
    for matrix, tokens, scores in zip(matrices, got, calls["viterbi"]):
        want = to_log_scores(transform_matrix(matrix, order), priors)
        assert type(scores) is LogScoreMatrix and not scores.values.flags.writeable
        assert scores.values.shape == want.values.shape
        assert np.array_equal(scores.values, want.values)
        assert np.array_equal(np.signbit(scores.values), np.signbit(want.values))
        assert tokens == viterbi_decode(want, hmm).token_sequence
    stacked = list(calls["transform"])
    assert sum(m.frames for m in stacked) == sum(m.frames for m in matrices)
    for chunk in stacked:
        assert chunk.values.size <= pipeline.CHUNK_ENTRIES or any(chunk is m for m in matrices)
    calls["transform"].clear()
    calls["viterbi"].clear()
    return stacked


def test_ragged_files_match_per_file_route(calls):
    rng = np.random.default_rng(17)
    for k in range(2, 21):
        hmm = make_random_hmm(rng, k)
        priors = rng.dirichlet(np.ones(k))
        # Every length 1-40 once, in a seeded order, so every SIMD tail length occurs.
        matrices = [posteriors(rng, int(n), k) for n in rng.permutation(np.arange(1, 41))]
        for order in ORDERS:
            with_priors = (k + order // 2) % 2 == 0
            stacked = assert_per_file_route(matrices, hmm, order,
                                            priors if with_priors else None, calls)
            assert len(stacked) < len(matrices)  # files were stacked


def test_file_above_cap_is_used_as_it_is(calls):
    rng = np.random.default_rng(18)
    k = 20
    hmm = make_random_hmm(rng, k)
    big = posteriors(rng, 211, k)
    assert big.values.size > pipeline.CHUNK_ENTRIES
    matrices = [posteriors(rng, 5, k), posteriors(rng, 9, k), big, posteriors(rng, 3, k)]
    for order in (2, 6):
        stacked = assert_per_file_route(matrices, hmm, order, None, calls)
        assert [m.frames for m in stacked] == [14, big.frames, 3]
        assert stacked[1] is big


def test_chunks_split_where_class_count_changes(calls):
    rng = np.random.default_rng(19)
    hmm = make_random_hmm(rng, 2)  # reads classes 0 and 1, which every file has
    shapes = [(4, 3), (7, 3), (5, 5), (2, 5), (3, 5), (6, 3), (1, 2)]
    matrices = [posteriors(rng, frames, k) for frames, k in shapes]
    for order in (4, 8):
        stacked = assert_per_file_route(matrices, hmm, order, None, calls)
        assert [(m.frames, m.classes) for m in stacked] == [(11, 3), (10, 5), (6, 3), (1, 2)]


def test_one_file_is_one_chunk_as_it_is(calls):
    rng = np.random.default_rng(20)
    hmm = make_random_hmm(rng, 3)
    matrix = posteriors(rng, 12, 3)
    stacked = assert_per_file_route([matrix], hmm, 4, np.array([0.5, 0.25, 0.25]), calls)
    assert len(stacked) == 1 and stacked[0] is matrix


def test_zero_row_named_by_its_own_matrix():
    # Refused when its matrix is built, by its index there: no chunk can hold it.
    rng = np.random.default_rng(21)
    values = posteriors(rng, 6, 3).values.copy()
    values[2] = 0.0
    with pytest.raises(ValidationError, match=r"^row 2 sums to 0\.0, expected 1 within 1e-06$"):
        PosteriorMatrix(values)


class TestHelpers:
    def test_stack_rows(self):
        rng = np.random.default_rng(22)
        a, b = posteriors(rng, 3, 4), posteriors(rng, 2, 4)
        stacked = stack_rows([a, b])
        assert type(stacked) is PosteriorMatrix and not stacked.values.flags.writeable
        assert np.array_equal(stacked.values, np.concatenate([a.values, b.values]))
        assert stack_rows([a]) is a

    @pytest.mark.parametrize("case, message", [
        ("empty", "stack_rows needs one or more matrices of one class count"),
        ("mixed", "stack_rows needs one or more matrices of one class count"),
        ("scores", "expected a PosteriorMatrix, got LogScoreMatrix"),
    ])
    def test_stack_rows_refuses(self, case, message):
        rng = np.random.default_rng(23)
        matrices = {"empty": [],
                    "mixed": [posteriors(rng, 2, 3), posteriors(rng, 2, 4)],
                    "scores": [posteriors(rng, 2, 2), LogScoreMatrix([[0.5, 0.5]])]}[case]
        with pytest.raises(ValidationError, match=f"^{message}$"):
            stack_rows(matrices)

    def test_split_rows(self):
        scores = LogScoreMatrix(np.arange(12.0).reshape(6, 2))
        parts = split_rows(scores, [1, 3, 2])
        assert [p.values.tolist() for p in parts] == [
            [[0.0, 1.0]], [[2.0, 3.0], [4.0, 5.0], [6.0, 7.0]], [[8.0, 9.0], [10.0, 11.0]]]
        assert all(type(p) is LogScoreMatrix and not p.values.flags.writeable for p in parts)
        assert all(np.shares_memory(p.values, scores.values) for p in parts)
        assert split_rows(scores, [6])[0] is scores

    @pytest.mark.parametrize("frames", [[], [2, 3], [6, 0], [7, -1]])
    def test_split_rows_refuses_counts(self, frames):
        with pytest.raises(ValidationError, match="split_rows needs counts >= 1 that add up to 6"):
            split_rows(LogScoreMatrix(np.zeros((6, 2))), frames)

    def test_split_rows_refuses_posteriors(self):
        with pytest.raises(ValidationError, match="expected a LogScoreMatrix, got PosteriorMatrix"):
            split_rows(PosteriorMatrix([[0.5, 0.5]]), [1])
