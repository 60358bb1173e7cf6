import ast
import os
import subprocess
import sys
from pathlib import Path

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
from minkdecode import decoder
from minkdecode.dataio import load_transcript, save_transcript
from minkdecode.decoder import collapse_tokens, path_tokens

from conftest import make_random_hmm, make_random_scores, make_uniform_hmm
from oracles import exhaustive_decode, frozen_scalar_forward, score_path


# viterbi_decode picks its forward pass by state count; these limits force
# one pass whatever the K: the scalar pass takes every K up to the limit.
PASSES = {"scalar": 10**9, "array": 0}


def decode_by(forward, scores, hmm):
    """viterbi_decode with the named forward pass, whatever hmm.num_states is."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(decoder, "SCALAR_MAX_STATES", PASSES[forward])
        return viterbi_decode(scores, hmm)


class TestHmmModel:
    def test_compares_and_hashes_by_identity(self):
        a, b = make_uniform_hmm(2), make_uniform_hmm(2)
        assert a == a and a != b and not (a == b)
        assert hash(a) == hash(a) and len({a, b, a}) == 2

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
        ([1.0], [[1.0]], ["a"], [2**53], r"integers of magnitude below 2\*\*53"),
        ([1.5, -0.5], np.full((2, 2), 0.5), ["a", "b"], [0, 1], "must be nonnegative"),
        (["0.5", "0.5"], np.full((2, 2), 0.5), ["a", "b"], [0, 1], "^initial must hold only"),
        ([True, False], np.full((2, 2), 0.5), ["a", "b"], [0, 1], "^initial must hold only"),
        ([0.5, 0.5], [[0.5, 0.5], [1.0]], ["a", "b"], [0, 1], "^transitions must hold only"),
        ([True, 0.0], np.full((2, 2), 0.5), ["a", "b"], [0, 1], "^initial must hold only"),
        ([0.5, 0.5], ([0.5, 0.5], (np.True_, 0.0)), ["a", "b"], [0, 1],
         "^transitions must hold only"),
    ], ids=["matrix-initial", "no-states", "transitions-shape", "label-count",
            "negative-class", "class-beyond-float64-integers", "negative-probability",
            "string-initial", "bool-initial", "ragged-transitions", "bool-among-numbers-initial",
            "nested-bool-among-numbers-transitions"])
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

    @pytest.mark.parametrize("label", ["", " a", "a\nb", "a\u2028b"],
                             ids=["empty", "leading-space", "newline", "line-separator"])
    def test_rejects_labels_a_transcript_cannot_hold(self, label):
        with pytest.raises(ValidationError, match="^labels must"):
            HmmModel.from_probs([0.5, 0.5], np.full((2, 2), 0.5), ["x", label], [0, 1])

    def test_inner_space_label_survives_a_transcript(self, tmp_path):
        hmm = HmmModel.from_probs([0.5, 0.5], np.full((2, 2), 0.5), ["a b", "c"], [0, 1])
        path = tmp_path / "t.ref"
        save_transcript(hmm.state_labels, path)
        assert load_transcript(path) == ("a b", "c")

    def test_refuses_non_number_log_scores(self):
        with pytest.raises(ValidationError, match="^log_initial must hold only numbers"):
            HmmModel(["0", "-1e30"], np.full((2, 2), np.log(0.5)), ["a", "b"], [0, 1])

    def test_accepts_integral_float_state_to_class(self):
        hmm = HmmModel.from_probs([0.5, 0.5], np.full((2, 2), 0.5), ["a", "b"], [0.0, 1.0])
        assert hmm.state_to_class.tolist() == [0, 1]
        assert hmm.state_to_class.dtype == np.int64


class TestCollapseTokens:
    def test_merges_consecutive(self):
        assert collapse_tokens(["a", "a", "b", "b", "a"]) == ("a", "b", "a")

    def test_empty(self):
        assert collapse_tokens([]) == ()


class TestPathTokens:
    # Few labels for many states, so distinct neighbouring states often share one.
    @pytest.mark.parametrize("labels", [("a", "b", "c"), ("a", "a", "b", "a", "c", "c"),
                                        ("x",) * 4], ids=["distinct", "shared", "one-label"])
    def test_equals_collapsing_every_frames_label(self, rng, labels):
        for _ in range(200):
            path = rng.integers(0, len(labels), size=rng.integers(0, 40)).tolist()
            if rng.random() < 0.5:  # long runs of one state, as a sticky HMM gives
                path = np.repeat(path, rng.integers(1, 6, size=len(path))).tolist()
            assert path_tokens(path, labels) == collapse_tokens(map(labels.__getitem__, path))

    def test_is_the_decoded_token_sequence(self, rng):
        hmm = HmmModel.from_probs([0.5, 0.25, 0.25], np.full((3, 3), 1 / 3),
                                  ["a", "a", "b"], [0, 1, 2])
        result = viterbi_decode(make_random_scores(rng, 30, 3), hmm)
        assert result.token_sequence == path_tokens(result.state_path, hmm.state_labels)


class TestEmissions:
    @pytest.mark.parametrize("state_to_class, classes", [
        ([0, 1, 2], 3),
        ([2, 0, 1], 3),
        ([1, 1, 0], 3),
        ([0, 1, 2], 5),
    ], ids=["identity", "permuted", "repeated-class", "more-classes"])
    def test_equals_the_gather_bit_for_bit(self, rng, state_to_class, classes):
        hmm = HmmModel.from_probs([0.5, 0.25, 0.25], np.full((3, 3), 1 / 3),
                                  ["a", "b", "c"], state_to_class)
        values = rng.normal(size=(6, classes))
        values[0, :2] = [-0.0, 0.0]  # the sign of a zero must survive too
        values[1, :] = LOG_FLOOR
        scores = LogScoreMatrix(values)
        emis = decoder._emissions(scores, hmm)
        gather = scores.values[:, np.array(state_to_class)]
        assert (emis == gather).all()
        assert (np.signbit(emis) == np.signbit(gather)).all()
        assert not emis.flags.writeable

    def test_identity_map_is_a_view(self):
        hmm = make_uniform_hmm(3)
        scores = LogScoreMatrix(np.zeros((2, 3)))
        assert hmm._columns == slice(0, 3)
        assert np.shares_memory(decoder._emissions(scores, hmm), scores.values)


class TestFinalPick:
    # The forward pass is replaced by one that returns delta for a single
    # frame, so the final pick alone chooses the state and the score.
    @pytest.mark.parametrize("delta, state", [
        ([-0.0, 0.0], 0),
        ([0.0, -0.0], 0),
        ([-2.5, -2.5, -2.5], 0),
        ([-3.0, -2.0, -1.0], 2),
        ([LOG_FLOOR, -7.0, -1.0, -1.0], 2),
    ], ids=["minus-zero-first", "zero-first", "all-equal", "late-max", "late-tie"])
    def test_takes_the_first_maximal_state(self, monkeypatch, delta, state):
        monkeypatch.setattr(decoder, "_scalar_forward", lambda emis, hmm: (list(delta), []))
        hmm = make_uniform_hmm(len(delta))
        result = viterbi_decode(LogScoreMatrix(np.zeros((1, len(delta)))), hmm)
        assert result.state_path == (state,)
        assert result.log_score == delta[state]
        assert np.signbit(result.log_score) == np.signbit(delta[state])


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

    @pytest.mark.parametrize("forward", PASSES)
    def test_tie_break_prefers_lower_state(self, forward):
        # fully tied instance: every path scores the same
        hmm = make_uniform_hmm(3)
        scores = LogScoreMatrix(np.zeros((4, 3)))
        v = decode_by(forward, scores, hmm)
        e = exhaustive_decode(scores, hmm)
        assert v.state_path == (0, 0, 0, 0)
        assert e.state_path == (0, 0, 0, 0)

    def test_shape_mismatch_rejected(self):
        hmm = HmmModel.from_probs(
            [0.5, 0.5], np.full((2, 2), 0.5), ["a", "b"], [0, 5]
        )
        assert hmm.max_class == 5
        with pytest.raises(ValidationError,
                           match="^state_to_class refers to column 5 but the score matrix "
                                 "has 2 classes$"):
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


def cross_pass_instances(count=300):
    """Seeded instances of 1-12 states and 1-300 frames for comparing the passes.

    Every fourth one is fully tied (uniform model, equal scores); the others
    hold LOG_FLOOR in the scores and, in about a quarter of the entries, in
    the transitions.
    """
    rng = np.random.default_rng(6007)
    out = []
    for n in range(count):
        k = int(rng.integers(1, 13))
        frames = int(rng.integers(1, 301))
        if n % 4 == 0:
            hmm = make_uniform_hmm(k)
            scores = np.full((frames, max(k, 2)), -0.5)
        else:
            trans = rng.dirichlet(np.ones(k), size=k)
            trans[rng.random((k, k)) < 0.25] = 0.0
            trans[:, 0] += 0.05
            trans /= trans.sum(axis=1, keepdims=True)
            hmm = HmmModel.from_probs(rng.dirichlet(np.ones(k)), trans,
                                      [f"w{i}" for i in range(k)], list(range(k)))
            scores = np.round(rng.normal(size=(frames, max(k, 2))), 1)
            scores[rng.random(scores.shape) < 0.3] = LOG_FLOOR
        out.append((LogScoreMatrix(scores), hmm))
    return out


class TestViterbiExact:
    @pytest.mark.parametrize("forward", PASSES)
    @settings(max_examples=200, deadline=None)
    @given(exact_instances())
    def test_matches_exhaustive_bit_for_bit(self, forward, instance):
        scores, hmm = instance
        v = decode_by(forward, scores, hmm)
        e = exhaustive_decode(scores, hmm)
        assert v.state_path == e.state_path
        assert v.log_score == e.log_score

    @pytest.mark.parametrize("forward", PASSES)
    def test_frozen_decodes_with_floor_entries(self, forward):
        got = [
            (r.state_path, r.log_score)
            for r in (decode_by(forward, s, h) for s, h in floor_instances())
        ]
        assert got == FLOOR_DECODES

    def test_passes_agree_bit_for_bit(self):
        instances = cross_pass_instances()
        assert {h.num_states for _, h in instances} == set(range(1, 13))
        for scores, hmm in instances:
            s = decode_by("scalar", scores, hmm)
            a = decode_by("array", scores, hmm)
            assert s.state_path == a.state_path
            assert s.log_score == a.log_score

    @pytest.mark.parametrize("num_states, forward", [
        (decoder.SCALAR_MAX_STATES, "_scalar_forward"),
        (decoder.SCALAR_MAX_STATES + 1, "_array_forward"),
    ], ids=["at-limit", "above-limit"])
    def test_state_count_picks_the_pass(self, monkeypatch, num_states, forward):
        class Taken(Exception):
            pass

        def taken(emis, hmm):
            raise Taken

        monkeypatch.setattr(decoder, forward, taken)
        hmm = make_uniform_hmm(num_states)
        with pytest.raises(Taken):
            viterbi_decode(LogScoreMatrix(np.zeros((3, num_states))), hmm)

    @pytest.mark.xfail(
        strict=True,
        reason="LOG_FLOOR absorbs finite evidence: every path takes one floor "
        "entry, and -5.0 vs -0.1 is lost below the ulp of 1e30",
    )
    def test_floor_does_not_absorb_finite_evidence(self):
        hmm = make_uniform_hmm(2)
        scores = LogScoreMatrix([[LOG_FLOOR, LOG_FLOOR], [-5.0, -0.1]])
        assert viterbi_decode(scores, hmm).state_path[-1] == 1


def kernel_instances(states=range(1, 13), frame_counts=None):
    """Seeded (emissions, model) pairs for the forward passes, at each of `states`.

    Each state count gets each of `frame_counts` frames (by default 1, 2,
    40 and two counts drawn between), in three kinds: rows rounded to 0.5
    (ties) with LOG_FLOOR in about a quarter of the scores and transitions;
    a uniform model over all-equal rows; and a model built from log scores
    whose one certain entry per row is 0.0 or (mostly) -0.0, over scores
    mostly of -0.0, so that some last-frame scores are -0.0 and a kernel
    that loses the sign shows.
    """
    rng = np.random.default_rng(1919)
    out = []
    for k in states:
        for frames in frame_counts or (1, 2, 40, *rng.integers(3, 40, size=2)):
            trans = rng.dirichlet(np.ones(k), size=k)
            trans[rng.random((k, k)) < 0.25] = 0.0
            trans[:, 0] += 0.05
            trans /= trans.sum(axis=1, keepdims=True)
            hmm = HmmModel.from_probs(rng.dirichlet(np.ones(k)), trans,
                                      [f"w{i}" for i in range(k)], list(range(k)))
            emis = np.round(2 * rng.normal(size=(frames, k))) / 2
            emis[rng.random(emis.shape) < 0.25] = LOG_FLOOR
            out.append((emis, hmm))

            out.append((np.full((frames, k), -0.5), make_uniform_hmm(k)))

            def certain():
                row = np.full(k, LOG_FLOOR)
                row[rng.integers(k)] = rng.choice([0.0, -0.0], p=[0.2, 0.8])
                return row
            signed = HmmModel(certain(), np.array([certain() for _ in range(k)]),
                              [f"w{i}" for i in range(k)], list(range(k)))
            emis = rng.choice([0.0, -0.0, LOG_FLOOR], p=[0.02, 0.9, 0.08], size=(frames, k))
            out.append((emis, signed))
    return out


def assert_matches_frozen_loop(forward, instances):
    """forward gives `frozen_scalar_forward`'s scores, sign bits and backpointers on each."""
    negative_zeros = 0
    for emis, hmm in instances:
        delta, backptr = forward(emis, hmm)
        want_delta, want_backptr = frozen_scalar_forward(emis, hmm)
        assert delta == want_delta
        assert (np.signbit(delta) == np.signbit(want_delta)).all()
        assert [list(prev) for prev in backptr] == want_backptr
        negative_zeros += sum(d == 0.0 and np.signbit(d) for d in want_delta)
    assert negative_zeros > 0  # so the sign check can fail


class TestScalarKernel:
    def test_matches_frozen_loop_bit_for_bit(self):
        instances = kernel_instances()
        assert {h.num_states for _, h in instances} == set(range(1, 13))
        assert {len(e) for e, _ in instances} >= {1, 2, 40}
        assert_matches_frozen_loop(decoder._scalar_forward, instances)

    def test_built_lazily_once_per_state_count(self, monkeypatch):
        env = dict(os.environ, PYTHONPATH=str(Path(decoder.__file__).resolve().parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", "import minkdecode.cli; from minkdecode import decoder; "
             "print(decoder._scalar_kernel.cache_info().currsize)"],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "0\n"

        built = []
        kernel = decoder._scalar_kernel
        monkeypatch.setattr(decoder, "_scalar_kernel", lambda k: built.append(kernel(k)) or built[-1])
        first = make_random_hmm(np.random.default_rng(4), 4)
        second = make_uniform_hmm(4)
        for hmm in (first, second):
            decoder._scalar_forward(np.zeros((3, 4)), hmm)
        assert first._scalar_tables != second._scalar_tables
        assert len(built) == 2 and built[0] is built[1]

    @pytest.mark.parametrize("num_states", range(1, 13))
    def test_source_holds_no_model_value(self, num_states):
        # The only constants are the backpointers' state indices.
        tree = ast.parse(decoder._scalar_source(num_states))
        constants = [node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)]
        assert all(type(c) is int and 0 <= c < num_states for c in constants)


class TestArrayPass:
    # The frozen loop is valid at any K; a scalar kernel would not be built
    # at these K, as its source grows as K squared.
    def test_matches_frozen_loop_bit_for_bit(self):
        instances = kernel_instances((11, 20, 63, 64, 65, 129, 130), (1, 2, 30))
        assert_matches_frozen_loop(decoder._array_forward, instances)


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
