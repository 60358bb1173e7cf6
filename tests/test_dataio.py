import builtins
import itertools
import json
import math
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from minkdecode import (
    DataFormatError,
    PosteriorMatrix,
    ValidationError,
    cli,
    dataio,
    transform_matrix,
)
from minkdecode.dataio import (
    MANIFEST_NAME,
    CorpusManifest,
    CorpusUtterance,
    NoiseSpec,
    format_float,
    generate_corpus,
    load_hmm,
    load_manifest,
    load_posteriors,
    load_priors,
    load_transcript,
    save_hmm,
    save_manifest,
    save_posteriors,
    save_transcript,
    splitmix64_doubles,
    write_text,
)

from conftest import make_random_hmm, make_random_posteriors
from oracles import SplitMix64


class TestPosteriorFormat:
    def test_minimal_file(self, tmp_path):
        p = tmp_path / "m.post"
        p.write_text("1 2\n0.5 0.5\n")
        m = load_posteriors(p)
        assert (m.frames, m.classes) == (1, 2)
        assert np.array_equal(m.values, [[0.5, 0.5]])

    def test_round_trip_exact(self, tmp_path, rng):
        m = make_random_posteriors(rng, 50, 10)
        p = tmp_path / "m.post"
        save_posteriors(m, p)
        again = load_posteriors(p)
        assert np.all(np.abs(again.values - m.values) <= 1e-15)
        assert np.array_equal(again.values, m.values)  # 17 digits round-trip exactly

    def test_row_sum_violation_names_line(self, tmp_path):
        p = tmp_path / "m.post"
        p.write_text("1 2\n0.7 0.2\n")
        with pytest.raises(DataFormatError, match="2: row sums"):
            load_posteriors(p)

    def test_save_refuses_rows_the_loader_refuses(self, tmp_path):
        m = transform_matrix(PosteriorMatrix([[0.8, 0.1, 0.1]]), 4, renormalize=False)
        p = tmp_path / "lib.post"
        with pytest.raises(ValidationError,
                           match=r"^row 0 sums to 1\.26\d*, expected 1 within 1e-06$"):
            save_posteriors(m, p)
        assert not p.exists()

    def test_malformed_header(self, tmp_path):
        p = tmp_path / "m.post"
        p.write_text("1 2 3\n")
        with pytest.raises(DataFormatError, match="1: malformed header"):
            load_posteriors(p)

    def test_row_length_mismatch(self, tmp_path):
        p = tmp_path / "m.post"
        p.write_text("2 3\n0.2 0.3 0.5\n0.5 0.5\n")
        with pytest.raises(DataFormatError, match="3: expected 3 values"):
            load_posteriors(p)

    def test_non_numeric_token(self, tmp_path):
        p = tmp_path / "m.post"
        p.write_text("1 2\n0.5 spam\n")
        with pytest.raises(DataFormatError, match="non-numeric token 'spam'"):
            load_posteriors(p)

    def test_wrong_row_count(self, tmp_path):
        p = tmp_path / "m.post"
        p.write_text("3 2\n0.5 0.5\n")
        with pytest.raises(DataFormatError, match="expected 3 data rows"):
            load_posteriors(p)

    def test_out_of_range_value(self, tmp_path):
        p = tmp_path / "m.post"
        p.write_text("1 2\n1.5 -0.5\n")
        with pytest.raises(DataFormatError, match=r"\[0, 1\]"):
            load_posteriors(p)

    # Each bad row follows good rows and a blank line, so the error must name
    # the file's line, not the row's index. Messages are those of the
    # line-by-line walk. A bad header, or one with too few frames or
    # classes, names line 1.
    @pytest.mark.parametrize("text, line, message", [
        ("3 2\n0.5 0.5\n\n0.25 0.75\n0.5 0.25 0.25\n", 5, "expected 2 values, found 3"),
        ("3 2\n0.5 0.5\n\n0.5 0.5\n0.5 1e\n", 5, "non-numeric token '1e'"),
        ("2 2\n0.5 0.5\n\nnan 0.5\n", 4, "probabilities must be in [0, 1]"),
        ("2 2\n0.5 0.5\n\n0.5 inf\n", 4, "probabilities must be in [0, 1]"),
        ("2 2\n0.5 0.5\n\n1.25 -0.25\n", 4, "probabilities must be in [0, 1]"),
        ("2 3\n0.2 0.3 0.5\n\n0.2 0.3 0.4\n", 4,
         "row sums to 0.9, expected 1 within 1e-06"),
        ("3 2\n0.5 0.5\n\n0.5 0.5\n\n", 5, "expected 3 data rows, found 2"),
        ("-1 2\n", 1, "expected -1 data rows, found 0"),
        ("1 -1\n0.5 0.5\n", 1, "malformed header '1 -1'; class count must be >= 0"),
        ("", 1, "empty file; expected a 'frames classes' header"),
        ("1 x\n0.5 0.5\n", 1, "malformed header '1 x'; expected two integers"),
        ("0 3\n", 1, "malformed header '0 3'; needs >= 1 frame and >= 2 classes"),
        ("2 1\n1\n\n1\n", 1, "malformed header '2 1'; needs >= 1 frame and >= 2 classes"),
        ("2 2\n\n0.5 0.25 0.25\n0.5 0.25 0.25\n", 3, "expected 2 values, found 3"),
    ], ids=["token-count", "non-numeric", "nan", "inf", "out-of-range", "row-sum", "row-count",
            "negative-frames", "negative-classes", "empty", "non-integer-header", "zero-frames",
            "one-class", "every-row-too-long"])
    def test_malformed_row_names_file_line(self, tmp_path, text, line, message):
        p = tmp_path / "m.post"
        p.write_text(text)
        with pytest.raises(DataFormatError) as err:
            load_posteriors(p)
        assert err.value.line == line
        assert str(err.value) == f"{p}:{line}: {message}"

    def test_failed_bulk_check_always_raises(self, tmp_path, monkeypatch):
        # Should the whole-array checks refuse rows that pass line by line,
        # the loader still raises instead of returning.
        def refuse(values):
            raise ValidationError("refused")

        monkeypatch.setattr(dataio, "PosteriorMatrix", refuse)
        p = tmp_path / "m.post"
        p.write_text("1 2\n0.5 0.5\n")
        with pytest.raises(DataFormatError, match="no single line"):
            load_posteriors(p)

    @settings(max_examples=100, deadline=None)
    @given(npst.arrays(
        np.float64,
        st.tuples(st.integers(1, 12), st.integers(2, 6)),
        elements=st.floats(0.0, 1.0),
    ))
    def test_save_load_round_trip_is_bit_identical(self, tmp_path_factory, raw):
        raw[raw.sum(axis=1) == 0, 0] = 1.0  # an all-zero row becomes one-hot
        m = PosteriorMatrix(raw / raw.sum(axis=1, keepdims=True))
        p = tmp_path_factory.mktemp("rt") / "m.post"
        save_posteriors(m, p)
        again = load_posteriors(p)
        assert again.values.shape == m.values.shape
        assert again.values.tobytes() == m.values.tobytes()


class TestHmmFormat:
    def test_uniform_document(self, tmp_path):
        p = tmp_path / "h.json"
        p.write_text(json.dumps({
            "num_states": 2,
            "initial": [0.5, 0.5],
            "transitions": [[0.5, 0.5], [0.5, 0.5]],
            "labels": ["a", "b"],
            "state_to_class": [0, 1],
        }))
        hmm = load_hmm(p)
        assert np.allclose(hmm.log_transitions, math.log(0.5), atol=1e-12)

    def test_nonstochastic_row_named(self, tmp_path):
        p = tmp_path / "h.json"
        p.write_text(json.dumps({
            "num_states": 2,
            "initial": [0.5, 0.5],
            "transitions": [[0.5, 0.5], [0.4, 0.4]],
            "labels": ["a", "b"],
            "state_to_class": [0, 1],
        }))
        with pytest.raises(DataFormatError, match="row 1"):
            load_hmm(p)

    def test_unknown_field_rejected(self, tmp_path):
        p = tmp_path / "h.json"
        p.write_text(json.dumps({
            "num_states": 1, "initial": [1.0], "transitions": [[1.0]],
            "labels": ["a"], "state_to_class": [0], "extra": 1,
        }))
        with pytest.raises(DataFormatError, match="unknown fields"):
            load_hmm(p)

    def test_missing_field_rejected(self, tmp_path):
        p = tmp_path / "h.json"
        p.write_text(json.dumps({"num_states": 1}))
        with pytest.raises(DataFormatError, match=f"^{re.escape(str(p))}: field 'initial' is missing"):
            load_hmm(p)

    def test_non_object_rejected(self, tmp_path):
        p = tmp_path / "h.json"
        p.write_text("[1, 2]")
        with pytest.raises(DataFormatError, match=f"^{re.escape(str(p))}: must be a JSON object"):
            load_hmm(p)

    @pytest.mark.parametrize("field, value", [
        ("num_states", True),
        ("labels", 5),
        ("labels", "ab"),
        ("state_to_class", {"a": 0}),
        ("initial", "ab"),
        ("initial", ["0.5", "0.5"]),
        ("transitions", [[0.5, 0.5], [1.0]]),
        ("labels", [1, ["x"]]),
        ("initial", [0.5, 0.25, 0.25]),
    ])
    def test_mistyped_field_names_file(self, tmp_path, field, value):
        doc = {"num_states": 2, "initial": [0.5, 0.5],
               "transitions": [[0.5, 0.5], [0.5, 0.5]],
               "labels": ["a", "b"], "state_to_class": [0, 1]}
        doc[field] = value
        p = tmp_path / "h.json"
        p.write_text(json.dumps(doc))
        with pytest.raises(DataFormatError, match=f"^{re.escape(str(p))}: {field} must"):
            load_hmm(p)

    def test_round_trip(self, tmp_path, rng):
        hmm = make_random_hmm(rng, 4)
        p = tmp_path / "h.json"
        save_hmm(hmm, p)
        again = load_hmm(p)
        assert np.all(np.abs(again.log_initial - hmm.log_initial) <= 1e-12)
        assert np.all(np.abs(again.log_transitions - hmm.log_transitions) <= 1e-12)
        assert again.state_labels == hmm.state_labels
        assert np.array_equal(again.state_to_class, hmm.state_to_class)


class TestTranscripts:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "t.ref"
        save_transcript(("hello", "world"), p)
        assert load_transcript(p) == ("hello", "world")
        assert p.read_text() == "hello\nworld\n"


class TestPriors:
    def test_load(self, tmp_path):
        p = tmp_path / "pri.txt"
        p.write_text("0.9 0.1\n")
        assert np.array_equal(load_priors(p), [0.9, 0.1])

    def test_nonpositive_rejected(self, tmp_path):
        p = tmp_path / "pri.txt"
        p.write_text("0.9 0.0\n")
        with pytest.raises(DataFormatError):
            load_priors(p)

    @pytest.mark.parametrize("text, line, message", [
        ("", 1, "empty priors file"),
        ("0.5 x 0.5\n", None, "non-numeric token 'x'"),
    ], ids=["empty", "non-numeric"])
    def test_malformed_names_file(self, tmp_path, text, line, message):
        p = tmp_path / "pri.txt"
        p.write_text(text)
        with pytest.raises(DataFormatError) as err:
            load_priors(p)
        assert (err.value.path, err.value.line) == (str(p), line)
        assert str(err.value).endswith(f": {message}")

    @pytest.mark.parametrize("text", ["nan nan\n", "0.5 inf\n", "-inf 1\n"])
    def test_nonfinite_rejected_naming_file(self, tmp_path, text):
        p = tmp_path / "pri.txt"
        p.write_text(text)
        with pytest.raises(DataFormatError, match=f"^{re.escape(str(p))}: priors must be finite and > 0"):
            load_priors(p)


class TestSplitMix64:
    def test_reference_vectors_seed_zero(self):
        g = SplitMix64(0)
        assert [g.next_u64() for _ in range(3)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]

    def test_doubles_in_unit_interval(self):
        g = SplitMix64(99)
        xs = [g.next_double() for _ in range(1000)]
        assert all(0.0 <= x < 1.0 for x in xs)

    def test_below_bounds(self):
        g = SplitMix64(7)
        assert all(0 <= g.below(5) < 5 for _ in range(1000))

    def test_categorical_deterministic(self):
        a = SplitMix64(3).categorical([0.2, 0.3, 0.5])
        b = SplitMix64(3).categorical([0.2, 0.3, 0.5])
        assert a == b

    @given(
        seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=5),
        n=st.integers(0, 40),
    )
    def test_bulk_doubles_match_scalar_stream(self, seeds, n):
        bulk = splitmix64_doubles(seeds, n)
        assert bulk.shape == (len(seeds), n)
        for seed, row in zip(seeds, bulk.tolist()):
            g = SplitMix64(seed)
            assert row == [g.next_double() for _ in range(n)]

    @given(
        probs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8),
        n=st.integers(1, 50),
        data=st.data(),
    )
    def test_draw_rules_match_scalar_methods(self, probs, n, data):
        # probs need not sum to 1, so a draw past the last running sum takes
        # the last index; a draw equal to a running sum must pass over it.
        cumulative = list(itertools.accumulate(probs))
        u = data.draw(st.floats(0.0, 1.0, exclude_max=True)
                      | st.sampled_from([c for c in cumulative if c < 1.0] or [0.0]))
        g = SplitMix64(0)
        g.next_double = lambda: u
        assert dataio._pick(cumulative, u) == g.categorical(probs)
        assert dataio._below(u, n) == g.below(n)


class TestNoiseSpec:
    def test_validation(self):
        NoiseSpec(concentration=5.0, confusion_rate=0.3, seed=1)
        with pytest.raises(ValidationError):
            NoiseSpec(concentration=0.0, confusion_rate=0.3, seed=1)
        with pytest.raises(ValidationError):
            NoiseSpec(concentration=1.0, confusion_rate=1.0001, seed=1)

    @pytest.mark.parametrize("concentration, confusion_rate, seed, field", [
        ("5", 0.3, 1, "concentration"),
        (True, 0.3, 1, "concentration"),
        (5.0, [0.3], 1, "confusion_rate"),
        (5.0, 0.3, 4.7, "seed"),
        (5.0, 0.3, True, "seed"),
        (5.0, 0.3, np.int64(1), "seed"),
        (5.0, 0.3, 2**64, "seed"),
    ])
    def test_values_are_not_coerced(self, concentration, confusion_rate, seed, field):
        with pytest.raises(ValidationError, match=f"field 'noise.{field}'"):
            NoiseSpec(concentration, confusion_rate, seed)

    def test_stores_floats(self, tmp_path):
        # An integer JSON concentration must write the same manifest as a float one.
        for name, noise in (("int", NoiseSpec(100, 0, 1)), ("float", NoiseSpec(100.0, 0.0, 1))):
            save_manifest(CorpusManifest((), noise), tmp_path / name)
        assert (tmp_path / "int").read_bytes() == (tmp_path / "float").read_bytes()
        assert '"concentration": 100.0' in (tmp_path / "int").read_text()


class TestManifest:
    def test_round_trip(self, tmp_path, rng):
        m = make_random_posteriors(rng, 3, 2)
        save_posteriors(m, tmp_path / "u0.post")
        save_transcript(("a",), tmp_path / "u0.ref")
        manifest = CorpusManifest(
            (CorpusUtterance("u0", tmp_path / "u0.post", tmp_path / "u0.ref"),),
            NoiseSpec(2.0, 0.1, 42),
        )
        save_manifest(manifest, tmp_path / MANIFEST_NAME)
        again = load_manifest(tmp_path / MANIFEST_NAME)
        assert again.utterances[0].utterance_id == "u0"
        assert again.noise == NoiseSpec(2.0, 0.1, 42)

    def test_non_object_rejected(self, tmp_path):
        p = tmp_path / MANIFEST_NAME
        p.write_text("[]")
        with pytest.raises(DataFormatError, match=f"^{re.escape(str(p))}: must be a JSON object"):
            load_manifest(p)

    def test_unknown_top_level_key_rejected(self, tmp_path):
        p = tmp_path / MANIFEST_NAME
        p.write_text(json.dumps({"utterances": [], "speakers": []}))
        with pytest.raises(DataFormatError,
                           match=re.escape(f"{p}: has unknown fields ['speakers']")):
            load_manifest(p)

    def test_paths_in_a_subdirectory_and_outside(self, tmp_path, rng):
        # A file below the manifest's directory is stored relative to it,
        # one outside it by its full path; both load back to the same path.
        (tmp_path / "m" / "sub").mkdir(parents=True)
        post, ref = tmp_path / "m" / "sub" / "u0.post", tmp_path / "u0.ref"
        save_posteriors(make_random_posteriors(rng, 2, 2), post)
        save_transcript(("a",), ref)
        p = tmp_path / "m" / MANIFEST_NAME
        save_manifest(CorpusManifest((CorpusUtterance("u0", post, ref),)), p)
        entry = json.loads(p.read_text())["utterances"][0]
        assert (entry["posteriors"], entry["reference"]) == ("sub/u0.post", ref.as_posix())
        utt = load_manifest(p).utterances[0]
        assert (utt.posteriors_path, utt.reference_path) == (post, ref)

    def test_missing_file_rejected(self, tmp_path):
        doc = {"utterances": [{"id": "u0", "posteriors": "nope.post", "reference": "nope.ref"}]}
        p = tmp_path / MANIFEST_NAME
        p.write_text(json.dumps(doc))
        with pytest.raises(DataFormatError, match="does not exist"):
            load_manifest(p)

    def test_duplicate_ids_rejected(self, tmp_path, rng):
        m = make_random_posteriors(rng, 1, 2)
        save_posteriors(m, tmp_path / "u.post")
        save_transcript(("a",), tmp_path / "u.ref")
        doc = {"utterances": [
            {"id": "u0", "posteriors": "u.post", "reference": "u.ref"},
            {"id": "u0", "posteriors": "u.post", "reference": "u.ref"},
        ]}
        p = tmp_path / MANIFEST_NAME
        p.write_text(json.dumps(doc))
        with pytest.raises(DataFormatError, match="unique"):
            load_manifest(p)

    @pytest.mark.parametrize("utterances, field", [
        (5, "utterances"),
        ({"u0": "u.post"}, "utterances"),
        (["u0"], "utterances[0]"),
        ([{"id": 5, "posteriors": "u.post", "reference": "u.ref"}], "utterances[0].id"),
        ([{"id": ["x"], "posteriors": "u.post", "reference": "u.ref"}], "utterances[0].id"),
        ([{"id": "u0", "posteriors": 5, "reference": "u.ref"}], "utterances[0].posteriors"),
        ([{"id": "u0", "posteriors": "u.post", "reference": None}], "utterances[0].reference"),
        ([{"id": "u0", "posteriors": "u.post", "reference": "u.ref"},
          {"id": "u1", "reference": "u.ref"}], "utterances[1].posteriors"),
        ([{"id": "u0", "posteriors": "u.post", "reference": "u.ref", "speaker": "x"}],
         "utterances[0]"),
        ([{"id": "", "posteriors": "u.post", "reference": "u.ref"}], "utterances[0].id"),
    ], ids=["count", "object", "entry-string", "id-int", "id-list", "posteriors-int",
            "reference-null", "posteriors-missing", "entry-unknown-key", "id-empty"])
    def test_mistyped_entry_names_field(self, tmp_path, rng, utterances, field):
        save_posteriors(make_random_posteriors(rng, 1, 2), tmp_path / "u.post")
        save_transcript(("a",), tmp_path / "u.ref")
        p = tmp_path / MANIFEST_NAME
        p.write_text(json.dumps({"utterances": utterances}))
        prefix = re.escape(f"{p}: field '{field}' ")
        with pytest.raises(DataFormatError, match=f"^{prefix}"):
            load_manifest(p)


class TestGenerateCorpus:
    def test_deterministic_bytes(self, tmp_path, rng):
        hmm = make_random_hmm(rng, 3)
        noise = NoiseSpec(concentration=5.0, confusion_rate=0.3, seed=11)
        generate_corpus(hmm, 4, (5, 9), noise, tmp_path / "a")
        generate_corpus(hmm, 4, (5, 9), noise, tmp_path / "b")
        files_a = sorted(p.name for p in (tmp_path / "a").iterdir())
        files_b = sorted(p.name for p in (tmp_path / "b").iterdir())
        assert files_a == files_b
        for name in files_a:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_noiseless_limit_is_one_hot(self, tmp_path, rng):
        hmm = make_random_hmm(rng, 3)
        noise = NoiseSpec(concentration=math.inf, confusion_rate=0.0, seed=5)
        manifest = generate_corpus(hmm, 3, (4, 6), noise, tmp_path / "c")
        for utt in manifest.utterances:
            m = load_posteriors(utt.posteriors_path)
            assert set(np.unique(m.values)) <= {0.0, 1.0}
            assert np.array_equal(m.values.sum(axis=1), np.ones(m.frames))

    def test_generated_corpus_is_valid(self, tmp_path, rng):
        hmm = make_random_hmm(rng, 4)
        noise = NoiseSpec(concentration=2.0, confusion_rate=0.5, seed=9)
        manifest = generate_corpus(hmm, 6, (3, 8), noise, tmp_path / "d")
        assert len(manifest.utterances) == 6
        for utt in manifest.utterances:
            m = load_posteriors(utt.posteriors_path)  # validates rows
            assert 3 <= m.frames <= 8
            ref = load_transcript(utt.reference_path)
            assert len(ref) >= 1
            assert all(tok in hmm.state_labels for tok in ref)

    def test_utterance_streams_independent_of_corpus_size(self, tmp_path, rng):
        # utterance i depends only on seed + i, not on how many come after
        hmm = make_random_hmm(rng, 3)
        noise = NoiseSpec(concentration=4.0, confusion_rate=0.2, seed=21)
        generate_corpus(hmm, 2, (4, 4), noise, tmp_path / "small")
        generate_corpus(hmm, 5, (4, 4), noise, tmp_path / "large")
        a = (tmp_path / "small" / "utt0001.post").read_bytes()
        b = (tmp_path / "large" / "utt0001.post").read_bytes()
        assert a == b

    def test_bad_frames_range(self, tmp_path, rng):
        hmm = make_random_hmm(rng, 2)
        noise = NoiseSpec(concentration=1.0, confusion_rate=0.0, seed=0)
        with pytest.raises(ValidationError):
            generate_corpus(hmm, 1, (0, 4), noise, tmp_path / "e")
        with pytest.raises(ValidationError):
            generate_corpus(hmm, 0, (1, 4), noise, tmp_path / "e")

    @pytest.mark.parametrize("num_utterances, frames_range, field", [
        (2, (2.7, 3.2), "frames"),
        (2, (3, True), "frames"),
        (2.0, (3, 4), "utterances"),
        (True, (3, 4), "utterances"),
    ], ids=["fractional-frames", "bool-frames", "float-count", "bool-count"])
    def test_sizes_are_not_coerced(self, tmp_path, rng, num_utterances, frames_range, field):
        noise = NoiseSpec(concentration=1.0, confusion_rate=0.0, seed=0)
        with pytest.raises(ValidationError, match=f"field '{field}' must be an integer"):
            generate_corpus(make_random_hmm(rng, 2), num_utterances, frames_range, noise,
                            tmp_path / "e")
        assert not (tmp_path / "e").exists()

    def test_needs_two_classes(self, tmp_path, rng):
        noise = NoiseSpec(concentration=1.0, confusion_rate=0.0, seed=0)
        with pytest.raises(ValidationError, match="at least 2 classes"):
            generate_corpus(make_random_hmm(rng, 2, classes=1), 1, (2, 3), noise, tmp_path / "e")
        assert not (tmp_path / "e").exists()


class TestFormatFloat:
    def test_round_trips_float64(self, rng):
        for _ in range(200):
            x = float(rng.uniform(-1e6, 1e6))
            assert float(format_float(x)) == x
        assert float(format_float(0.1)) == 0.1


OLD_NS = 1_000_000_000  # an mtime no write made during a test can have


@pytest.fixture
def opens(monkeypatch):
    """(path, mode) of every call of the builtin open made during the test."""
    calls = []
    real_open = builtins.open

    def spy(file, mode="r", *args, **kwargs):
        calls.append((str(file), mode))
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", spy)
    return calls


def backdated(path, data: bytes):
    """path holding data, with its mtime set to OLD_NS; returns the path."""
    path.write_bytes(data)
    os.utime(path, ns=(OLD_NS, OLD_NS))
    return path


class TestWriteText:
    def test_identical_bytes_are_left_untouched(self, tmp_path, opens):
        text = "h\u00e9llo\n"  # 6 characters, 7 bytes
        p = backdated(tmp_path / "f.txt", text.encode("utf-8"))
        before = os.stat(p)
        write_text(p, text)
        after = os.stat(p)
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, OLD_NS)
        assert opens == [(str(p), "rb")]

    def test_same_length_other_bytes_are_rewritten(self, tmp_path):
        p = backdated(tmp_path / "f.txt", b"abc\n")
        write_text(p, "abd\n")
        assert p.read_bytes() == b"abd\n"
        assert os.stat(p).st_mtime_ns != OLD_NS

    def test_other_size_is_rewritten_without_a_read(self, tmp_path, opens):
        p = backdated(tmp_path / "f.txt", b"a longer old text\n")
        write_text(p, "new\n")
        assert p.read_bytes() == b"new\n"
        assert opens == [(str(p), "wb")]

    def test_missing_file_is_created(self, tmp_path):
        p = tmp_path / "f.txt"
        write_text(p, "x\n")
        assert p.read_bytes() == b"x\n"

    def test_device_is_written_without_a_read(self, opens):
        # /dev/null reports size 0, the size of "", but is not a regular file.
        write_text("/dev/null", "")
        assert opens == [("/dev/null", "wb")]

    def test_directory_is_an_io_error(self, tmp_path, capsys):
        target = tmp_path / "out"
        target.mkdir()
        with pytest.raises(OSError):
            write_text(target, "")
        assert cli.main(["curves", "--grid-points", "3", "--out", str(target)]) == cli.EXIT_IO
        assert "i/o error" in capsys.readouterr().err

    def test_identical_read_only_file_is_not_an_error(self, tmp_path):
        p = backdated(tmp_path / "f.txt", b"same\n")
        p.chmod(0o444)
        write_text(p, "same\n")
        assert os.stat(p).st_mtime_ns == OLD_NS
