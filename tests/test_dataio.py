import bisect
import errno
import itertools
import json
import math
import os
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from minkdecode import (
    DataFormatError,
    HmmModel,
    PosteriorMatrix,
    ValidationError,
    cli,
    dataio,
)
from minkdecode.dataio import (
    MANIFEST_NAME,
    NoiseSpec,
    generate_corpus,
    load_hmm,
    load_manifest,
    load_posteriors,
    load_priors,
    load_transcript,
    save_posteriors,
    save_transcript,
    splitmix64_doubles,
    write_text,
)

from minkdecode.minkowski import transform_values

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

    def test_save_refuses_rows_the_loader_refuses(self):
        # Refused when the matrix is built, so save_posteriors never sees such rows.
        with pytest.raises(ValidationError,
                           match=r"^row 0 sums to 1\.26\d*, expected 1 within 1e-06$"):
            PosteriorMatrix(transform_values([[0.8, 0.1, 0.1]], 4))

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
        ("1_0 2\n" + "0.5 0.5\n" * 10, 1, "malformed header '1_0 2'; expected two integers"),
        ("2 2\n0.5 0.5\n0.4_5 0.5_5\n", 3, "non-numeric token '0.4_5'"),
        # float() and int() read non-ASCII digits, and split() splits at NBSP.
        ("2 2\n0.5 0.5\n\uff10.5 0.5\n", 3, "non-ASCII character '\uff10' (U+FF10)"),
        ("\u0661 2\n0.5 0.5\n", 1, "non-ASCII character '\u0661' (U+0661)"),
        ("1 2\n0.5\xa00.5\n", 2, "non-ASCII character '\\xa0' (U+00A0)"),
    ], ids=["token-count", "non-numeric", "nan", "inf", "out-of-range", "row-sum", "row-count",
            "negative-frames", "negative-classes", "empty", "non-integer-header", "zero-frames",
            "one-class", "every-row-too-long", "underscore-header", "underscore-value",
            "full-width-digit", "arabic-indic-header", "nbsp-separator"])
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
        ("labels", ["a", " b"]),
        ("initial", [True, 0.0]),
        ("labels", ["a", "\ud800"]),  # valid JSON, but not UTF-8 text
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


class TestTranscripts:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "t.ref"
        save_transcript(("hello", "world"), p)
        assert load_transcript(p) == ("hello", "world")
        assert p.read_text() == "hello\nworld\n"


class TestReadText:
    @pytest.mark.parametrize("data, line", [
        (b"\xff", 1),
        (b"1 2\n0.5 0.5\n\xff\n", 3),
        (b"a\r\nb\n\xc3", 3),  # a sequence cut short at the end
    ], ids=["first-byte", "third-line", "truncated"])
    def test_non_utf8_names_file_and_line(self, tmp_path, data, line):
        p = tmp_path / "bad.txt"
        p.write_bytes(data)
        with pytest.raises(DataFormatError) as err:
            dataio.read_text(p)
        assert (err.value.path, err.value.line) == (str(p), line)
        assert str(err.value) == f"{p}:{line}: not UTF-8 text"

    def test_keeps_text_as_written(self, tmp_path):
        p = tmp_path / "t.txt"
        p.write_bytes("a\r\nb\u00e9\n".encode())
        assert dataio.read_text(p) == "a\r\nb\u00e9\n"


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
        ("0.75 0.2_5\n", None, "non-numeric token '0.2_5'"),
        ("0.5\n\uff10.5\n", 2, "non-ASCII character '\uff10' (U+FF10)"),
    ], ids=["empty", "non-numeric", "underscore", "full-width-digit"])
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
        assert bisect.bisect_right(dataio._capped_sums(probs), u) == g.categorical(probs)
        assert dataio._below(u, n) == g.below(n)

    @pytest.mark.parametrize("probs, u", [
        ([0.5, 0.5, 0.0], 0.5),  # a draw equal to a running sum passes over it
        ([0.0, 1.0], 0.0),
        ([0.3, 0.0, 0.7], 0.3),  # past the zero probability too
        ([0.2, 0.3, 0.5], 1 - 2**-53),  # the largest draw
        ([0.1, 0.2], 0.9),  # past every sum: the last index
        ([1.0], 0.7),
    ])
    def test_capped_sums_edge_draws(self, probs, u):
        g = SplitMix64(0)
        g.next_double = lambda: u
        assert bisect.bisect_right(dataio._capped_sums(probs), u) == g.categorical(probs)


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

    def test_concentration_bound(self):
        # Weights are below 37, so the largest accepted concentration cannot overflow them.
        assert -math.log1p(-(1.0 - 2.0**-53)) < 37.0
        assert 37.0 * dataio.MAX_CONCENTRATION < 4e301
        assert NoiseSpec(dataio.MAX_CONCENTRATION, 0.3, 1).concentration == 1e300
        assert NoiseSpec(math.inf, 0.3, 1).concentration == math.inf
        for value in (math.nextafter(1e300, math.inf), 1e308, np.finfo(np.float64).max):
            with pytest.raises(ValidationError, match=r"^field 'noise.concentration' must be "
                               r"at most 1e\+300 or inf, got "):
                NoiseSpec(value, 0.3, 1)

    def test_stores_floats(self, tmp_path, rng):
        # An integer JSON concentration must write the same manifest as a float one.
        hmm = make_random_hmm(rng, 2)
        for name, noise in (("int", NoiseSpec(100, 0, 1)), ("float", NoiseSpec(100.0, 0.0, 1))):
            generate_corpus(hmm, 1, (2, 2), noise, tmp_path / name)
        int_doc, float_doc = ((tmp_path / name / MANIFEST_NAME).read_bytes()
                              for name in ("int", "float"))
        assert int_doc == float_doc
        assert '"concentration": 100.0' in int_doc.decode()


class TestManifest:
    def test_round_trip(self, tmp_path, rng):
        manifest = generate_corpus(make_random_hmm(rng, 2), 2, (3, 3), NoiseSpec(2.0, 0.1, 42),
                                   tmp_path)
        again = load_manifest(tmp_path / MANIFEST_NAME)
        assert again == manifest
        assert again.utterances[0].utterance_id == "utt0000"
        assert again.noise == NoiseSpec(2.0, 0.1, 42)

    @pytest.mark.parametrize("utterances, noise", [
        (1, NoiseSpec(100.0, 0.3, 0)),
        (2, NoiseSpec(math.inf, 0.0, 2**64 - 1)),
        (2000, NoiseSpec(30.0, 0.25, 2**64 - 3)),
    ], ids=["one", "two-inf-seed-max", "2000"])
    def test_text_is_json_dumps_with_indent_2(self, tmp_path, rng, utterances, noise):
        manifest = generate_corpus(make_random_hmm(rng, 2), utterances, (1, 2), noise, tmp_path)
        doc = {"noise": {"concentration": noise.concentration,
                         "confusion_rate": noise.confusion_rate, "seed": noise.seed},
               "utterances": [{"id": u.utterance_id,
                               "posteriors": os.path.basename(u.posteriors_path),
                               "reference": os.path.basename(u.reference_path)}
                              for u in manifest.utterances]}
        assert (tmp_path / MANIFEST_NAME).read_text() == json.dumps(doc, indent=2) + "\n"

    def test_text_escapes_strings_as_json_does(self):
        noise = {"concentration": math.inf, "confusion_rate": 1e-300, "seed": 2**64 - 1}
        entries = [("é\"\\\n\t x", "a b.post", "\U0001f600\x7f.ref"), ("u1", "/abs/u1.post", "")]
        doc = {"noise": noise, "utterances": [
            {"id": i, "posteriors": p, "reference": r} for i, p, r in entries]}
        assert dataio._manifest_text(noise, entries) == json.dumps(doc, indent=2) + "\n"

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
        # A path is relative to the manifest's directory unless it is absolute.
        (tmp_path / "m" / "sub").mkdir(parents=True)
        post, ref = tmp_path / "m" / "sub" / "u0.post", tmp_path / "u0.ref"
        save_posteriors(make_random_posteriors(rng, 2, 2), post)
        save_transcript(("a",), ref)
        p = tmp_path / "m" / MANIFEST_NAME
        entry = {"id": "u0", "posteriors": "sub/u0.post", "reference": ref.as_posix()}
        p.write_text(json.dumps({"utterances": [entry]}))
        utt = load_manifest(p).utterances[0]
        assert (utt.posteriors_path, utt.reference_path) == (str(post), str(ref))

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

    def test_entry_holds_its_reference_file_tokens(self, tmp_path, rng):
        save_posteriors(make_random_posteriors(rng, 1, 2), tmp_path / "u.post")
        (tmp_path / "u.ref").write_text(" b \n\na\r\nb\n")
        p = tmp_path / MANIFEST_NAME
        p.write_text(json.dumps({"utterances": [
            {"id": "u0", "posteriors": "u.post", "reference": "u.ref"}]}))
        assert load_manifest(p).utterances[0].reference == ("b", "a", "b")

    # The reference file's own error passes through, naming that file and
    # not the manifest.
    @pytest.mark.parametrize("data, line, message", [
        (b"", None, "reference must be non-empty"),
        (b" \n\n", None, "reference must be non-empty"),
        (b"a\n\xff\n", 2, "not UTF-8 text"),
    ], ids=["empty", "blank-lines", "not-utf8"])
    def test_bad_reference_names_the_reference_file(self, tmp_path, rng, data, line, message):
        save_posteriors(make_random_posteriors(rng, 1, 2), tmp_path / "u.post")
        ref = tmp_path / "u.ref"
        ref.write_bytes(data)
        p = tmp_path / MANIFEST_NAME
        p.write_text(json.dumps({"utterances": [
            {"id": "u0", "posteriors": "u.post", "reference": "u.ref"}]}))
        with pytest.raises(DataFormatError) as err:
            load_manifest(p)
        assert (err.value.path, err.value.line) == (str(ref), line)
        assert str(err.value).endswith(f": {message}")


class TestGenerateCorpus:
    @pytest.mark.parametrize("out_dir", [".", "", "c", "c/", "./c", "c//d/./e", "ABS"])
    def test_paths_are_the_strings_pathlib_joins(self, tmp_path, rng, monkeypatch, out_dir):
        monkeypatch.chdir(tmp_path)
        out_dir = str(tmp_path / "abs") if out_dir == "ABS" else out_dir
        hmm = make_random_hmm(rng, 3)
        noise = NoiseSpec(concentration=5.0, confusion_rate=0.3, seed=3)
        for given in (out_dir, Path(out_dir)):
            manifest = generate_corpus(hmm, 3, (2, 4), noise, given)
            for u in manifest.utterances:
                assert type(u.posteriors_path) is str and type(u.reference_path) is str
                assert u.posteriors_path == os.fspath(Path(out_dir) / f"{u.utterance_id}.post")
                assert u.reference_path == os.fspath(Path(out_dir) / f"{u.utterance_id}.ref")
            loaded = load_manifest(Path(out_dir) / MANIFEST_NAME)
            assert loaded.utterances == manifest.utterances

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

    # The regression corpus of test_pipeline_regression.py, and one whose
    # states 0 and 1 share a label and switch often, so that a run of one
    # label spans several runs of states.
    @pytest.mark.parametrize("initial, transitions, labels, utterances, frames", [
        ([0.7, 0.3], [[0.8, 0.2], [0.3, 0.7]], ["a", "b"], 20, (10, 20)),
        ([0.4, 0.3, 0.3], [[0.3, 0.6, 0.1], [0.6, 0.3, 0.1], [0.2, 0.2, 0.6]],
         ["x", "x", "y"], 30, (5, 15)),
    ], ids=["regression", "shared-label"])
    def test_references_are_the_files_written(self, tmp_path, initial, transitions, labels,
                                              utterances, frames):
        hmm = HmmModel.from_probs(initial, transitions, labels, list(range(len(labels))))
        noise = NoiseSpec(concentration=5.0, confusion_rate=0.3, seed=1)
        manifest = generate_corpus(hmm, utterances, frames, noise, tmp_path)
        loaded = load_manifest(tmp_path / MANIFEST_NAME)
        for u, again in zip(manifest.utterances, loaded.utterances, strict=True):
            assert type(u.reference) is tuple
            assert u.reference == load_transcript(u.reference_path) == again.reference
            assert all(a != b for a, b in zip(u.reference, u.reference[1:]))

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

    def test_largest_accepted_concentration_gives_valid_rows(self, tmp_path, rng):
        noise = NoiseSpec(concentration=dataio.MAX_CONCENTRATION, confusion_rate=0.3, seed=2)
        manifest = generate_corpus(make_random_hmm(rng, 3), 4, (5, 9), noise, tmp_path / "c")
        for utt in manifest.utterances:
            m = load_posteriors(utt.posteriors_path)  # validates entries and row sums
            assert (m.values.max(axis=1) == 1.0).all()

    def test_draws_per_utterance_capped(self, tmp_path, rng, monkeypatch):
        # At 3 classes a range maximum hi needs 1 + hi + hi * (2 + 3) draws, 3 * hi + 1 one-hot.
        hmm = make_random_hmm(rng, 3)
        monkeypatch.setattr(dataio, "MAX_UTTERANCE_DRAWS", 61)
        noise = NoiseSpec(concentration=1.0, confusion_rate=0.0, seed=0)
        generate_corpus(hmm, 2, (5, 10), noise, tmp_path / "ok")
        with pytest.raises(ValidationError, match=r"^field 'frames' allows at most 61 draws "
                           r"per utterance; 11 frames of 3 classes need 67$"):
            generate_corpus(hmm, 2, (5, 11), noise, tmp_path / "e")
        assert not (tmp_path / "e").exists()
        generate_corpus(hmm, 2, (5, 20), NoiseSpec(math.inf, 0.0, 0), tmp_path / "one-hot")

    def test_utterance_count_capped(self, tmp_path, rng, monkeypatch):
        monkeypatch.setattr(dataio, "MAX_UTTERANCES", 3)
        hmm = make_random_hmm(rng, 2)
        noise = NoiseSpec(concentration=1.0, confusion_rate=0.0, seed=0)
        assert len(generate_corpus(hmm, 3, (2, 3), noise, tmp_path / "ok").utterances) == 3
        with pytest.raises(ValidationError, match=r"^field 'utterances' must be at most 3, got 4$"):
            generate_corpus(hmm, 4, (2, 3), noise, tmp_path / "e")
        assert not (tmp_path / "e").exists()

    def test_bad_row_refuses_its_block_before_any_file_of_it(self, tmp_path, rng, monkeypatch):
        # At 3 classes an utterance of 4 frames needs 1 + 4 + 4 * (2 + 3) = 25 draws,
        # so blocks of 50 draws hold utterances 0-1, 2-3 and 4-5.
        monkeypatch.setattr(dataio, "_BLOCK_DRAWS", 50)
        real_rows = dataio._posterior_rows
        blocks = []

        def skewed(*args):
            rows = real_rows(*args)
            blocks.append(len(rows))
            if len(blocks) == 2:
                rows[-1] *= 1.0 - 1e-3  # utterance 3's last row, entries still in [0, 1]
            return rows

        monkeypatch.setattr(dataio, "_posterior_rows", skewed)
        out = tmp_path / "c"
        with pytest.raises(ValidationError, match=r"^utterance utt0003 row 3 sums to 0\.99"
                           r"\d*, expected 1 within 1e-06$"):
            generate_corpus(make_random_hmm(rng, 3), 6, (4, 4), NoiseSpec(5.0, 0.3, 1), out)
        assert blocks == [8, 8]
        assert sorted(p.name for p in out.iterdir()) == [
            "utt0000.post", "utt0000.ref", "utt0001.post", "utt0001.ref"]

    def test_one_save_posteriors_call_per_file(self, tmp_path, rng, monkeypatch):
        # The benchmark takes the generator's frame count from these calls: one
        # per file, with the matrix and the file's path as its first two arguments.
        # At 3 classes an utterance of at most 9 frames needs 1 + 9 + 9 * (2 + 3) = 55
        # draws, so blocks of 120 draws hold 2 utterances and 7 utterances take 4 blocks.
        monkeypatch.setattr(dataio, "_BLOCK_DRAWS", 120)
        real = dataio.save_posteriors
        calls = []

        def recorder(*args, **kwargs):
            calls.append(args)
            real(*args, **kwargs)

        monkeypatch.setattr(dataio, "save_posteriors", recorder)
        manifest = generate_corpus(make_random_hmm(rng, 3), 7, (3, 9), NoiseSpec(20.0, 0.3, 4),
                                   tmp_path)
        assert [args[1] for args in calls] == [u.posteriors_path for u in manifest.utterances]
        for matrix, path in calls:
            loaded = load_posteriors(path)
            assert matrix.frames == loaded.frames
            assert np.array_equal(matrix.values, loaded.values)

    def test_needs_two_classes(self, tmp_path, rng):
        noise = NoiseSpec(concentration=1.0, confusion_rate=0.0, seed=0)
        with pytest.raises(ValidationError, match="at least 2 classes"):
            generate_corpus(make_random_hmm(rng, 2, classes=1), 1, (2, 3), noise, tmp_path / "e")
        assert not (tmp_path / "e").exists()


class TestFormatFloat:
    def test_round_trips_float64(self, rng):
        n = dataio.FORMAT_MIN_ENTRIES
        values = np.concatenate([[0.1], rng.uniform(-1e6, 1e6, n), rng.uniform(0.0, 1.0, n - 1)])
        for size in (10, values.size):  # below and above FORMAT_MIN_ENTRIES
            text = dataio._rows_text(values[:size].reshape(-1, 2))
            assert np.array(text.split(), dtype=float).tobytes() == values[:size].tobytes()


def template_text(values) -> str:
    """Each row's entries as '%.17g', one space apart, each row ending in a newline."""
    return "".join(" ".join("%.17g" % x for x in row) + "\n" for row in values.tolist())


def ulps_around(x: float, n: int) -> np.ndarray:
    """The 2n + 1 doubles from n below positive normal x to n above it."""
    return (np.array([x]).view(np.int64) + np.arange(-n, n + 1)).view(np.float64)


def edge_values(rng) -> np.ndarray:
    subnormals = rng.integers(1, 2**52, 20, dtype=np.uint64).view(np.float64)
    bits = np.repeat(np.arange(1, 54), 10)  # dyadic rationals of 1-53 significant bits
    odd = (rng.integers(0, 2**62, bits.size) >> (63 - bits)) | 1 | (1 << (bits - 1))
    dyadic = np.ldexp(odd.astype(np.float64), -(bits + rng.integers(0, 20, bits.size)))
    return np.concatenate([
        *(ulps_around(10.0**-p, 8) for p in range(1, 10)),
        [np.nextafter(1e-4, 1), np.nextafter(1e-4, -1), 0.0, -0.0, 1.0, np.nextafter(1.0, 0),
         5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308],
        subnormals, dyadic,
    ])


class TestRowsText:
    """Both routes of `_rows_text`, each forced, against the template-% text."""

    @pytest.fixture
    def matrices(self, rng):
        edges = edge_values(rng)
        log_uniform = np.exp(rng.uniform(math.log(1e-12), 0.0, 10**5))
        return {
            "edges": edges[:edges.size // 4 * 4].reshape(-1, 4),
            "one-hot": np.eye(20)[rng.integers(0, 20, 50)],
            "log-uniform": log_uniform.reshape(-1, 20),
        }

    @pytest.mark.parametrize("route", ["template", "digits"])
    def test_routes_write_the_template_text(self, monkeypatch, matrices, route):
        monkeypatch.setattr(dataio, "FORMAT_MIN_ENTRIES", 10**9 if route == "template" else 1)
        for name, m in matrices.items():
            assert m.size >= 300
            for part in (m[:3], m):  # below and above the real threshold
                assert dataio._rows_text(part) == template_text(part), name

    @pytest.mark.parametrize("off", [-2, -1, 1, 2])
    def test_digit_route_corrects_a_wrong_decade_guess(self, monkeypatch, matrices, off):
        # log10 only guesses each entry's decade; the exact check moves a wrong guess.
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda a: log10(a) + off)
        m = matrices["edges"]
        assert dataio._digits_text(m) == template_text(m)


OLD_NS = 1_000_000_000  # an mtime no write made during a test can have


WRITE_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC


@pytest.fixture
def opens(monkeypatch):
    """(path, mode) of every os.open call made during the test.

    The mode is "rb" for a read-only open, "wb" for a truncating write that
    creates a missing file, and the flags themselves for anything else.
    """
    calls = []
    real_open = os.open

    def spy(path, flags, *args, **kwargs):
        if not flags & (os.O_WRONLY | os.O_RDWR):
            mode = "rb"
        else:
            mode = "wb" if flags & WRITE_FLAGS == WRITE_FLAGS else flags
        calls.append((str(path), mode))
        return real_open(path, flags, *args, **kwargs)

    monkeypatch.setattr(os, "open", spy)
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

    def test_compare_is_one_read_of_one_byte_more(self, tmp_path, monkeypatch):
        p = backdated(tmp_path / "f.txt", b"same\n")
        reads = []
        real_read = os.read

        def spy(fd, n):
            reads.append(n)
            return real_read(fd, n)

        monkeypatch.setattr(os, "read", spy)
        write_text(p, "same\n")
        assert reads == [6]
        assert os.stat(p).st_mtime_ns == OLD_NS

    @pytest.mark.parametrize("old", [b"abc\nX", b"ab"], ids=["grew", "shrank"])
    def test_file_that_changed_size_after_the_stat_is_rewritten(self, tmp_path, monkeypatch,
                                                                 old):
        # The stat reports the text's size, as it would just before the file changed.
        p = backdated(tmp_path / "f.txt", old)
        real_stat = os.stat

        def stale(path, *args, **kwargs):
            st = real_stat(path, *args, **kwargs)
            return os.stat_result((*st[:6], 4, *st[7:]))

        monkeypatch.setattr(os, "stat", stale)
        write_text(p, "abc\n")
        assert p.read_bytes() == b"abc\n"

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

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_failed_write_names_the_file(self):
        # /dev/full opens for writing, then every write fails with ENOSPC.
        with pytest.raises(OSError) as err:
            write_text("/dev/full", "x\n")
        assert (err.value.errno, err.value.filename) == (errno.ENOSPC, "/dev/full")

    def test_identical_read_only_file_is_not_an_error(self, tmp_path):
        p = backdated(tmp_path / "f.txt", b"same\n")
        p.chmod(0o444)
        write_text(p, "same\n")
        assert os.stat(p).st_mtime_ns == OLD_NS
