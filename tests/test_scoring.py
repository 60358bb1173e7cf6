import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minkdecode import ValidationError, WerReport, align_and_score, corpus_wer

tokens = st.lists(st.sampled_from("abcdefg"), max_size=12)
nonempty_tokens = st.lists(st.sampled_from("abcdefg"), min_size=1, max_size=12)
# Few reference symbols, so tokens repeat; "x" and "y" never occur in a reference.
repeating_refs = st.lists(st.sampled_from("abc"), min_size=1, max_size=80)
hyps_with_absent = st.lists(st.sampled_from("abcxy"), max_size=90)


def reference_levenshtein(a, b):
    """Independent two-row Levenshtein DP."""
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, start=1):
        cur = [i]
        for j, y in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[-1] + 1, prev[j - 1] + (x != y)))
        prev = cur
    return prev[-1]


def reference_alignment(reference, hypothesis):
    """Full-matrix Levenshtein DP and backtrace; oracle for `align_and_score`.

    Ties prefer substitution, then insertion, then deletion.
    """
    ref, hyp = list(reference), list(hypothesis)
    R, H = len(ref), len(hyp)
    dist = [[0] * (H + 1) for _ in range(R + 1)]
    for i in range(1, R + 1):
        dist[i][0] = i
    for j in range(1, H + 1):
        dist[0][j] = j
    for i in range(1, R + 1):
        for j in range(1, H + 1):
            dist[i][j] = min(dist[i - 1][j - 1] + (ref[i - 1] != hyp[j - 1]),
                             dist[i][j - 1] + 1, dist[i - 1][j] + 1)
    subs = dels = ins = 0
    i, j = R, H
    while i > 0 or j > 0:
        cur = dist[i][j]
        if i > 0 and j > 0 and cur == dist[i - 1][j - 1] + (ref[i - 1] != hyp[j - 1]):
            if ref[i - 1] != hyp[j - 1]:
                subs += 1
            i, j = i - 1, j - 1
        elif j > 0 and cur == dist[i][j - 1] + 1:
            ins += 1
            j -= 1
        else:
            dels += 1
            i -= 1
    return WerReport(subs, dels, ins, R)


class TestAlignAndScore:
    def test_identity(self):
        rep = align_and_score(["a", "b", "c"], ["a", "b", "c"])
        assert (rep.substitutions, rep.deletions, rep.insertions) == (0, 0, 0)
        assert rep.wer == 0.0

    def test_single_deletion(self):
        rep = align_and_score(["a", "b", "c"], ["a", "c"])
        assert rep.deletions == 1
        assert rep.num_errors == 1
        assert rep.wer == pytest.approx(1 / 3)

    def test_single_insertion(self):
        rep = align_and_score(["a", "b"], ["x", "a", "b"])
        assert rep.insertions == 1
        assert rep.wer == 0.5

    def test_substitution_preferred_on_tie(self):
        rep = align_and_score(["a"], ["b"])
        assert (rep.substitutions, rep.deletions, rep.insertions) == (1, 0, 0)

    def test_wer_can_exceed_one(self):
        rep = align_and_score(["a"], ["x", "y", "z"])
        assert rep.num_errors == 3
        assert rep.wer == 3.0

    def test_empty_reference_rejected(self):
        with pytest.raises(ValidationError, match="non-empty"):
            align_and_score([], ["a"])

    def test_empty_hypothesis_all_deletions(self):
        rep = align_and_score(["a", "b", "c"], [])
        assert rep.deletions == 3
        assert rep.wer == 1.0

    @given(nonempty_tokens, tokens)
    @settings(max_examples=300)
    def test_counts_sum_to_levenshtein(self, ref, hyp):
        rep = align_and_score(ref, hyp)
        assert rep.num_errors == reference_levenshtein(ref, hyp)

    @given(nonempty_tokens, tokens)
    @settings(max_examples=300)
    def test_count_invariants(self, ref, hyp):
        rep = align_and_score(ref, hyp)
        assert rep.substitutions + rep.deletions <= rep.ref_length
        # alignment bookkeeping: hyp length = matches + subs + insertions
        matches = rep.ref_length - rep.substitutions - rep.deletions
        assert matches + rep.substitutions + rep.insertions == len(hyp)

    @given(repeating_refs, hyps_with_absent)
    @settings(max_examples=300)
    def test_decomposition_matches_full_matrix(self, ref, hyp):
        assert align_and_score(ref, hyp) == reference_alignment(ref, hyp)
        # A hypothesis equal to the reference, as a list or a tuple, and one
        # token short of it or one token off.
        for same in (ref, list(ref), tuple(ref), ref[:-1], ref[:-1] + ["x"]):
            assert align_and_score(ref, same) == reference_alignment(ref, same)
            assert align_and_score(tuple(ref), same) == reference_alignment(ref, same)

    # R = 63, 64 and 65 straddle a 64-bit word; 200 spans several.
    @pytest.mark.parametrize("length", [1, 63, 64, 65, 200])
    def test_decomposition_at_word_boundaries(self, rng, length):
        ref = list(rng.choice(list("abcd"), size=length))
        for hyp in ([], ["x"] * (length // 2 + 1), list(rng.choice(list("xyz"), size=length)),
                    list(rng.choice(list("abcdx"), size=length + 7)), ref[1:], ref[::-1]):
            assert align_and_score(ref, hyp) == reference_alignment(ref, hyp)
        assert align_and_score(ref, list(ref)) == reference_alignment(ref, ref)

    def test_random_pairs_against_oracle(self, rng):
        vocab = [f"tok{i}" for i in range(8)]
        for _ in range(200):
            ref = list(rng.choice(vocab, size=rng.integers(1, 51)))
            hyp = list(rng.choice(vocab, size=rng.integers(0, 51)))
            assert align_and_score(ref, hyp).num_errors == reference_levenshtein(ref, hyp)


class TestCorpusWer:
    def test_identical_pairs(self):
        pairs = [(["a", "b"], ["a", "b"])] * 2
        assert corpus_wer(pairs).wer == 0.0

    def test_pooling_is_not_mean_of_rates(self):
        pairs = [(["a", "b"], ["a", "x"]), (["c", "d"], ["c", "d"])]
        rep = corpus_wer(pairs)
        assert rep.wer == pytest.approx(0.25)  # (1+0)/(2+2)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValidationError):
            corpus_wer([])

    def test_additivity_against_per_pair_counts(self, rng):
        vocab = list("abcde")
        pairs = []
        for _ in range(100):
            ref = list(rng.choice(vocab, size=rng.integers(1, 20)))
            hyp = list(rng.choice(vocab, size=rng.integers(0, 20)))
            pairs.append((ref, hyp))
        pooled = corpus_wer(pairs)
        per = [align_and_score(r, h) for r, h in pairs]
        assert pooled.substitutions == sum(p.substitutions for p in per)
        assert pooled.deletions == sum(p.deletions for p in per)
        assert pooled.insertions == sum(p.insertions for p in per)
        assert pooled.ref_length == sum(p.ref_length for p in per)


class TestWerReport:
    def test_validation(self):
        with pytest.raises(ValidationError):
            WerReport(0, 0, 0, 0)
        with pytest.raises(ValidationError):
            WerReport(2, 2, 0, 3)  # S + D > ref
        with pytest.raises(ValidationError):
            WerReport(-1, 0, 0, 3)
