import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minkdecode import (
    LOG_FLOOR,
    HmmModel,
    LogScoreMatrix,
    ValidationError,
    viterbi_decode,
)
from minkdecode.decoder import collapse_tokens

from conftest import make_random_hmm, make_random_scores, make_uniform_hmm
from oracles import exhaustive_decode, score_path


class TestHmmModel:
    def test_from_probs_uniform(self):
        hmm = make_uniform_hmm(2)
        assert np.allclose(hmm.log_transitions, np.log(0.5))

    def test_rejects_nonstochastic_transitions(self):
        with pytest.raises(ValidationError, match="row 1"):
            HmmModel.from_probs(
                [0.5, 0.5], [[0.5, 0.5], [0.3, 0.5]], ["a", "b"], [0, 1]
            )

    def test_rejects_nonstochastic_initial(self):
        with pytest.raises(ValidationError, match="log_initial"):
            HmmModel.from_probs([0.5, 0.4], np.full((2, 2), 0.5), ["a", "b"], [0, 1])

    # The sums are numpy scalars; the messages print them as plain floats.
    @pytest.mark.parametrize("initial, transitions, message", [
        ([0.5, 0.4], np.full((2, 2), 0.5), r"exp\(log_initial\) sums to 0\.9\d*, expected 1$"),
        ([0.5, 0.5], [[0.5, 0.5], [0.3, 0.5]], r"transition row 1 sums to 0\.8\d*, expected 1$"),
    ])
    def test_sum_messages_print_plain_floats(self, initial, transitions, message):
        with pytest.raises(ValidationError, match=message):
            HmmModel.from_probs(initial, transitions, ["a", "b"], [0, 1])

    def test_zero_probability_floored(self):
        hmm = HmmModel.from_probs([1.0, 0.0], np.full((2, 2), 0.5), ["a", "b"], [0, 1])
        assert hmm.log_initial[1] == LOG_FLOOR

    @pytest.mark.parametrize("initial, transitions, name", [
        ([np.nan, 1.0], np.full((2, 2), 0.5), "log_initial"),
        ([0.5, 0.5], [[0.5, 0.5], [np.nan, 1.0]], "log_transitions"),
        ([0.5, 0.5], [[np.inf, 0.5], [0.5, 0.5]], "log_transitions"),
    ], ids=["nan-initial", "nan-transition", "inf-transition"])
    def test_rejects_nan_and_inf_probabilities(self, initial, transitions, name):
        with pytest.raises(ValidationError, match=f"{name} has a NaN or \\+inf entry"):
            HmmModel.from_probs(initial, transitions, ["a", "b"], [0, 1])

    @pytest.mark.parametrize("log_initial, log_transitions, name", [
        ([0.0, -np.inf], np.full((2, 2), np.log(0.5)), "log_initial"),
        ([np.log(0.5)] * 2, [[0.0, -np.inf], [np.log(0.5)] * 2], "log_transitions"),
    ], ids=["initial", "transition"])
    def test_rejects_minus_inf_log_score(self, log_initial, log_transitions, name):
        # LOG_FLOOR is the one encoding of a zero probability.
        with pytest.raises(ValidationError, match=f"{name} has a NaN or \\+inf entry.*LOG_FLOOR"):
            HmmModel(log_initial, log_transitions, ["a", "b"], [0, 1])

    @pytest.mark.parametrize("initial, transitions, labels, state_to_class, message", [
        ([[1.0]], [[1.0]], ["a"], [0], "log_initial must be a vector"),
        ([], np.empty((0, 0)), [], [], "at least one state"),
        ([1.0], [[0.5, 0.5]], ["a"], [0], r"log_transitions must be 1x1, got \(1, 2\)"),
        ([1.0], [[1.0]], ["a", "b"], [0], "one entry per state"),
        ([1.0], [[1.0]], ["a"], [-1], "nonnegative column indices"),
        ([1.5, -0.5], np.full((2, 2), 0.5), ["a", "b"], [0, 1], "must be nonnegative"),
    ], ids=["matrix-initial", "no-states", "transitions-shape", "label-count",
            "negative-class", "negative-probability"])
    def test_rejects_malformed_model(self, initial, transitions, labels, state_to_class,
                                     message):
        with pytest.raises(ValidationError, match=message):
            HmmModel.from_probs(initial, transitions, labels, state_to_class)

    def test_rejects_fractional_state_to_class(self):
        with pytest.raises(ValidationError, match="state_to_class entries must be integers"):
            HmmModel.from_probs([0.5, 0.5], np.full((2, 2), 0.5), ["a", "b"], [0.0, 1.7])

    @pytest.mark.parametrize("labels", [[["x"]], [1], "a"], ids=["list", "int", "str"])
    def test_rejects_non_string_labels(self, labels):
        with pytest.raises(ValidationError, match="labels must be strings"):
            HmmModel.from_probs([1.0], [[1.0]], labels, [0])

    def test_accepts_integral_float_state_to_class(self):
        hmm = HmmModel.from_probs([0.5, 0.5], np.full((2, 2), 0.5), ["a", "b"], [0.0, 1.0])
        assert hmm.state_to_class.tolist() == [0, 1]
        assert hmm.state_to_class.dtype == np.int64


class TestCollapseTokens:
    def test_merges_consecutive(self):
        assert collapse_tokens(["a", "a", "b", "b", "a"]) == ("a", "b", "a")

    def test_empty(self):
        assert collapse_tokens([]) == ()


class TestViterbi:
    def test_single_frame_argmax(self):
        hmm = make_uniform_hmm(2)
        scores = LogScoreMatrix([[0.0, LOG_FLOOR]])
        result = viterbi_decode(scores, hmm)
        assert result.state_path == (0,)
        assert result.token_sequence == ("w0",)

    def test_uniform_hmm_reduces_to_framewise_argmax(self, rng):
        hmm = make_uniform_hmm(4)
        scores = make_random_scores(rng, 12, 4)
        result = viterbi_decode(scores, hmm)
        assert result.state_path == tuple(np.argmax(scores.values, axis=1))

    def test_seeded_instance_matches_exhaustive(self):
        rng = np.random.default_rng(1234)
        hmm = make_random_hmm(rng, 3)
        scores = make_random_scores(rng, 6, 3)  # 3^6 = 729 paths
        v = viterbi_decode(scores, hmm)
        e = exhaustive_decode(scores, hmm)
        assert v.state_path == e.state_path
        assert v.log_score == pytest.approx(e.log_score, abs=1e-9)
        assert v.token_sequence == e.token_sequence

    def test_oracle_equivalence_randomized(self, rng):
        for _ in range(50):
            num_states = int(rng.integers(2, 6))
            frames = int(rng.integers(1, 9))
            hmm = make_random_hmm(rng, num_states)
            scores = make_random_scores(rng, frames, num_states)
            v = viterbi_decode(scores, hmm)
            e = exhaustive_decode(scores, hmm)
            assert v.state_path == e.state_path
            assert v.log_score == pytest.approx(e.log_score, abs=1e-9)

    def test_score_matches_rescoring(self, rng):
        hmm = make_random_hmm(rng, 4)
        scores = make_random_scores(rng, 10, 4)
        result = viterbi_decode(scores, hmm)
        assert score_path(result.state_path, scores, hmm) == pytest.approx(
            result.log_score, abs=1e-9
        )

    def test_per_frame_shift_invariance(self, rng):
        hmm = make_random_hmm(rng, 3)
        scores = make_random_scores(rng, 8, 3)
        shifted = scores.values.copy()
        shifted[4] += 37.5  # constant shift of one frame's row
        assert (
            viterbi_decode(scores, hmm).state_path
            == viterbi_decode(LogScoreMatrix(shifted), hmm).state_path
        )

    def test_floored_path_avoided(self):
        # state 1 has a FLOOR emission at frame 1; a finite path exists
        hmm = make_uniform_hmm(2)
        scores = LogScoreMatrix([[0.0, 1.0], [0.0, LOG_FLOOR]])
        result = viterbi_decode(scores, hmm)
        assert result.state_path[1] == 0
        assert result.log_score > LOG_FLOOR / 2

    def test_tie_break_prefers_lower_state(self):
        # fully tied instance: every path scores the same
        hmm = make_uniform_hmm(3)
        scores = LogScoreMatrix(np.zeros((4, 3)))
        v = viterbi_decode(scores, hmm)
        e = exhaustive_decode(scores, hmm)
        assert v.state_path == (0, 0, 0, 0)
        assert e.state_path == (0, 0, 0, 0)

    def test_shape_mismatch_rejected(self):
        hmm = HmmModel.from_probs(
            [0.5, 0.5], np.full((2, 2), 0.5), ["a", "b"], [0, 5]
        )
        with pytest.raises(ValidationError, match="column"):
            viterbi_decode(LogScoreMatrix([[0.0, 0.0]]), hmm)


# Multiples of 2**-20 of magnitude below 2**8 add exactly in float64, so the
# DP and the oracle compare exact path sums. With inexact values (say scores
# rounded to 0.1) rounding can merge two prefix sums 1 ulp apart: the oracle
# then sees a tie that the DP already broke, and the two pick different paths.
_LOG_GRID = 2.0**-20


def _grid_logs(probs) -> np.ndarray:
    return np.round(np.log(probs) / _LOG_GRID) * _LOG_GRID


@st.composite
def exact_instances(draw):
    """Small instances with exact arithmetic and many ties, no floor entries."""
    k = draw(st.integers(2, 4))
    frames = draw(st.integers(1, 6))
    weights = st.lists(st.integers(1, 3), min_size=k, max_size=k)
    init = np.array(draw(weights), dtype=float)
    trans = np.array([draw(weights) for _ in range(k)], dtype=float)
    eighths = st.lists(st.integers(-16, 16), min_size=k, max_size=k)
    scores = np.array(draw(st.lists(eighths, min_size=frames, max_size=frames))) / 8.0
    hmm = HmmModel(
        _grid_logs(init / init.sum()),
        _grid_logs(trans / trans.sum(axis=1, keepdims=True)),
        tuple(f"w{i}" for i in range(k)),
        list(range(k)),
    )
    return LogScoreMatrix(scores), hmm


def floor_instances(count=12):
    """Seeded small instances whose scores and transitions contain LOG_FLOOR."""
    rng = np.random.default_rng(2112)
    out = []
    for _ in range(count):
        k = int(rng.integers(2, 5))
        frames = int(rng.integers(2, 7))
        trans = rng.dirichlet(np.ones(k), size=k)
        trans[rng.random((k, k)) < 0.25] = 0.0
        trans[:, 0] += 0.05
        trans /= trans.sum(axis=1, keepdims=True)
        hmm = HmmModel.from_probs(np.full(k, 1.0 / k), trans,
                                  [f"w{i}" for i in range(k)], list(range(k)))
        scores = np.round(rng.normal(size=(frames, k)), 1)
        scores[rng.random((frames, k)) < 0.3] = LOG_FLOOR
        out.append((LogScoreMatrix(scores), hmm))
    return out


# (state_path, log_score) of floor_instances(), frozen from the reference
# frame loop (fancy-index gather over a [from, to] candidate matrix).
FLOOR_DECODES = [
    ((0, 1), -1e+30),
    ((0, 3, 3, 3, 3, 3), 0.9222343724820081),
    ((0, 2), -0.2942472788550554),
    ((1, 0, 0, 2), 0.8146904575743434),
    ((0, 0), 0.18756389792685435),
    ((0, 0), 0.20685281944005474),
    ((2, 0, 3, 1, 3, 1), -0.3140135845953106),
    ((1, 1, 2, 1, 2, 1), -8.049995421636527),
    ((1, 0, 0), -3.8891562030909244),
    ((2, 2), -0.8492620858902615),
    ((0, 1, 1, 0, 1, 0), -1.5275411524899818),
    ((0, 0, 0, 0, 0, 0), -3.0000000000000003e+30),
]


class TestViterbiExact:
    @settings(max_examples=200, deadline=None)
    @given(exact_instances())
    def test_matches_exhaustive_bit_for_bit(self, instance):
        scores, hmm = instance
        v = viterbi_decode(scores, hmm)
        e = exhaustive_decode(scores, hmm)
        assert v.state_path == e.state_path
        assert v.log_score == e.log_score

    def test_frozen_decodes_with_floor_entries(self):
        got = [
            (r.state_path, r.log_score)
            for r in (viterbi_decode(s, h) for s, h in floor_instances())
        ]
        assert got == FLOOR_DECODES

    @pytest.mark.xfail(
        strict=True,
        reason="LOG_FLOOR absorbs finite evidence: every path takes one floor "
        "entry, and -5.0 vs -0.1 is lost below the ulp of 1e30",
    )
    def test_floor_does_not_absorb_finite_evidence(self):
        hmm = make_uniform_hmm(2)
        scores = LogScoreMatrix([[LOG_FLOOR, LOG_FLOOR], [-5.0, -0.1]])
        assert viterbi_decode(scores, hmm).state_path[-1] == 1


class TestExhaustive:
    def test_instance_too_large(self):
        hmm = make_uniform_hmm(5)
        scores = LogScoreMatrix(np.zeros((12, 5)))  # 5^12 > 1e7
        with pytest.raises(ValidationError, match="exceeds"):
            exhaustive_decode(scores, hmm)


class TestScorePath:
    def test_single_frame_decomposition(self):
        hmm = make_uniform_hmm(2)
        scores = LogScoreMatrix([[-1.0, -2.0]])
        expected = hmm.log_initial[1] + scores.values[0, 1]
        assert score_path([1], scores, hmm) == pytest.approx(expected, abs=1e-12)

    def test_floor_dominates(self):
        hmm = make_uniform_hmm(2)
        scores = LogScoreMatrix([[0.0, LOG_FLOOR]])
        assert score_path([1], scores, hmm) < LOG_FLOOR / 2
        assert score_path([1], scores, hmm) < score_path([0], scores, hmm)

    def test_wrong_length_rejected(self):
        hmm = make_uniform_hmm(2)
        scores = LogScoreMatrix([[0.0, 0.0]])
        with pytest.raises(ValidationError, match="length"):
            score_path([0, 1], scores, hmm)

    def test_bad_state_rejected(self):
        hmm = make_uniform_hmm(2)
        scores = LogScoreMatrix([[0.0, 0.0]])
        with pytest.raises(ValidationError, match="out of range"):
            score_path([2], scores, hmm)
