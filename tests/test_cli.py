import argparse
import errno
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from minkdecode import align_and_score, cli, dataio, pipeline
from minkdecode.dataio import load_posteriors, load_transcript

T4_01 = 0.324666488787  # grid-oracle transform(0.1, order=4)


@pytest.fixture
def demo_hmm(tmp_path):
    path = tmp_path / "hmm.json"
    path.write_text(json.dumps({
        "num_states": 3,
        "initial": [0.6, 0.3, 0.1],
        "transitions": [[0.8, 0.15, 0.05], [0.1, 0.8, 0.1], [0.05, 0.25, 0.7]],
        "labels": ["red", "green", "blue"],
        "state_to_class": [0, 1, 2],
    }))
    return path


@pytest.fixture
def uniform_hmm(tmp_path):
    path = tmp_path / "uniform.json"
    third = 1.0 / 3.0
    path.write_text(json.dumps({
        "num_states": 3,
        "initial": [third, third, third],
        "transitions": [[third] * 3] * 3,
        "labels": ["red", "green", "blue"],
        "state_to_class": [0, 1, 2],
    }))
    return path


def write_posteriors(path, rows):
    lines = [f"{len(rows)} {len(rows[0])}"]
    lines += [" ".join(f"{v:.17g}" for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


class TestTransformCommand:
    def test_order2_identical_output(self, tmp_path):
        src = tmp_path / "in.post"
        dst = tmp_path / "out.post"
        write_posteriors(src, [[0.5, 0.5], [0.25, 0.75]])
        assert cli.main(["transform", str(src), "--order", "2", "--out", str(dst)]) == 0
        assert dst.read_bytes() == src.read_bytes()

    def test_order4_two_class(self, tmp_path):
        src = tmp_path / "in.post"
        dst = tmp_path / "out.post"
        write_posteriors(src, [[0.9, 0.1]])
        assert cli.main(["transform", str(src), "--order", "4", "--out", str(dst)]) == 0
        out = load_posteriors(dst)
        assert out.values[0, 0] == pytest.approx(1 - T4_01, abs=1e-6)
        assert out.values[0, 1] == pytest.approx(T4_01, abs=1e-6)

    @pytest.mark.parametrize("order", [4, 6, 8])
    def test_output_loads_back(self, tmp_path, order):
        src = tmp_path / "in.post"
        dst = tmp_path / "out.post"
        write_posteriors(src, [[0.8, 0.1, 0.1], [0.2, 0.3, 0.5], [1.0, 0.0, 0.0]])
        assert cli.main(["transform", str(src), "--order", str(order), "--out", str(dst)]) == 0
        out = load_posteriors(dst)
        assert np.allclose(out.values.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        again = tmp_path / "again.post"
        assert cli.main(["transform", str(dst), "--order", str(order), "--out", str(again)]) == 0

    def test_renormalize_option_is_gone(self, tmp_path, demo_hmm, capsys):
        src = tmp_path / "in.post"
        write_posteriors(src, [[0.8, 0.1, 0.1]])
        for argv in (["transform", str(src), "--order", "4", "--renormalize", "off"],
                     ["decode", str(src), "--hmm", str(demo_hmm), "--renormalize", "on"]):
            with pytest.raises(SystemExit) as exc:
                cli.main([*argv, "--out", str(tmp_path / "o")])
            assert exc.value.code == cli.EXIT_VALIDATION
            assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err
            assert not (tmp_path / "o").exists()

    def test_odd_order_rejected(self, tmp_path, capsys):
        src = tmp_path / "in.post"
        write_posteriors(src, [[0.5, 0.5]])
        code = cli.main(["transform", str(src), "--order", "3", "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "complex" in err
        assert "can't be used as a probability" in err

    def test_missing_input_is_io_error(self, tmp_path, capsys):
        code = cli.main(["transform", str(tmp_path / "nope.post"), "--order", "4",
                         "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_IO

    def test_malformed_input_is_validation_error(self, tmp_path, capsys):
        src = tmp_path / "in.post"
        src.write_text("1 2\n0.7 0.2\n")
        code = cli.main(["transform", str(src), "--order", "4", "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_VALIDATION
        assert "in.post" in capsys.readouterr().err

    def test_negative_class_count_is_validation_error(self, tmp_path, capsys):
        src = tmp_path / "in.post"
        src.write_text("0 -1\n")
        code = cli.main(["transform", str(src), "--order", "4", "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_VALIDATION
        assert f"{src}:1: malformed header" in capsys.readouterr().err


class TestCurvesCommand:
    def test_three_point_grid_fixed_points(self, tmp_path):
        out = tmp_path / "curves.txt"
        assert cli.main(["curves", "--order", "4", "--grid-points", "3", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "mu order4"
        rows = [tuple(map(float, ln.split())) for ln in lines[1:]]
        assert rows == [(0.0, 0.0), (0.5, 0.5), (1.0, 1.0)]

    def test_weak_posterior_row(self, tmp_path):
        out = tmp_path / "curves.txt"
        assert cli.main(["curves", "--order", "4", "--grid-points", "11", "--out", str(out)]) == 0
        rows = [tuple(map(float, ln.split())) for ln in out.read_text().splitlines()[1:]]
        mu01 = rows[1]
        assert mu01[0] == pytest.approx(0.1)
        assert mu01[1] == pytest.approx(T4_01, abs=1e-6)

    def test_higher_order_contracts_harder(self, tmp_path):
        out = tmp_path / "curves.txt"
        assert cli.main(["curves", "--order", "4", "--order", "6", "--grid-points", "11",
                         "--out", str(out)]) == 0
        rows = [tuple(map(float, ln.split())) for ln in out.read_text().splitlines()[1:]]
        assert rows[1][2] > rows[1][1]  # order-6 above order-4 at mu=0.1

    def test_odd_order_rejected(self, tmp_path):
        code = cli.main(["curves", "--order", "5", "--out", str(tmp_path / "c.txt")])
        assert code == cli.EXIT_VALIDATION

    def test_one_point_grid_rejected(self, tmp_path, capsys):
        out = tmp_path / "c.txt"
        assert cli.main(["curves", "--grid-points", "1", "--out", str(out)]) == cli.EXIT_VALIDATION
        assert "grid-points must be >= 2, got 1" in capsys.readouterr().err
        assert not out.exists()

    def test_svg_written_deterministically(self, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        for svg in (a, b):
            assert cli.main(["curves", "--grid-points", "21", "--out", str(tmp_path / "t.txt"),
                             "--svg", str(svg)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text().startswith("<svg")


class TestDecodeCommand:
    def test_uniform_hmm_orders_agree(self, tmp_path, uniform_hmm, rng):
        src = tmp_path / "in.post"
        write_posteriors(src, rng.dirichlet(np.ones(3), size=20))
        outs = {}
        for order in (2, 4, 6):
            dst = tmp_path / f"hyp{order}.txt"
            assert cli.main(["decode", str(src), "--hmm", str(uniform_hmm),
                             "--order", str(order), "--out", str(dst)]) == 0
            outs[order] = dst.read_text()
        assert outs[2] == outs[4] == outs[6]

    def test_one_hot_recovers_truth(self, tmp_path, demo_hmm):
        src = tmp_path / "in.post"
        rows = [[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
        write_posteriors(src, rows)
        dst = tmp_path / "hyp.txt"
        assert cli.main(["decode", str(src), "--hmm", str(demo_hmm), "--order", "4",
                         "--out", str(dst)]) == 0
        assert load_transcript(dst) == ("red", "green", "blue")

    def test_priors_flag(self, tmp_path, demo_hmm, rng):
        src = tmp_path / "in.post"
        write_posteriors(src, rng.dirichlet(np.ones(3), size=5))
        priors = tmp_path / "priors.txt"
        priors.write_text("0.5 0.3 0.2\n")
        dst = tmp_path / "hyp.txt"
        assert cli.main(["decode", str(src), "--hmm", str(demo_hmm), "--order", "2",
                         "--priors", str(priors), "--out", str(dst)]) == 0
        assert dst.exists()


    def test_nan_in_hmm_is_validation_error(self, tmp_path, capsys):
        src = tmp_path / "in.post"
        write_posteriors(src, [[0.5, 0.5]])
        hmm = tmp_path / "nan.json"
        hmm.write_text(json.dumps({
            "num_states": 2, "initial": [float("nan"), 1.0],
            "transitions": [[0.5, 0.5], [0.5, 0.5]],
            "labels": ["a", "b"], "state_to_class": [0, 1],
        }))
        code = cli.main(["decode", str(src), "--hmm", str(hmm), "--out", str(tmp_path / "h")])
        assert code == cli.EXIT_VALIDATION
        assert f"{hmm}: log_initial has a NaN or +inf entry" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [("labels", 5), ("num_states", True),
                                              ("labels", [1, ["x"]])])
    def test_mistyped_hmm_field_is_validation_error(self, tmp_path, capsys, field, value):
        src = tmp_path / "in.post"
        write_posteriors(src, [[0.5, 0.5]])
        doc = {"num_states": 1, "initial": [1.0], "transitions": [[1.0]],
               "labels": ["a"], "state_to_class": [0]}
        doc[field] = value
        hmm = tmp_path / "typed.json"
        hmm.write_text(json.dumps(doc))
        code = cli.main(["decode", str(src), "--hmm", str(hmm), "--out", str(tmp_path / "h")])
        assert code == cli.EXIT_VALIDATION
        assert f"{hmm}: {field} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("state_to_class, reason", [
        ([0, 1, [2]], "must hold only numbers"),
        ([0, 1, True], "must hold only numbers"),
        ([0, 1, 1e300], "entries must be integers of magnitude below 2**53"),
    ], ids=["ragged", "bool", "huge"])
    def test_malformed_state_to_class_is_validation_error(self, tmp_path, capsys,
                                                           state_to_class, reason):
        # numpy alone would raise on the ragged list, read true as class 1 and
        # warn on casting 1e300 to int64.
        src = tmp_path / "in.post"
        write_posteriors(src, [[0.2, 0.3, 0.5]])
        hmm = tmp_path / "classes.json"
        hmm.write_text(json.dumps({
            "num_states": 3, "initial": [0.5, 0.25, 0.25],
            "transitions": [[0.5, 0.25, 0.25]] * 3,
            "labels": ["a", "b", "c"], "state_to_class": state_to_class,
        }))
        code = cli.main(["decode", str(src), "--hmm", str(hmm), "--out", str(tmp_path / "h")])
        err = capsys.readouterr().err
        assert code == cli.EXIT_VALIDATION
        assert f"{hmm}: state_to_class {reason}" in err
        assert "Traceback" not in err

    def test_bool_among_numbers_in_hmm_is_validation_error(self, tmp_path, capsys):
        # numpy alone would read [true, 0.0] as [1.0, 0.0], a valid distribution.
        src = tmp_path / "in.post"
        write_posteriors(src, [[0.5, 0.5]])
        hmm = tmp_path / "bool.json"
        hmm.write_text(json.dumps({
            "num_states": 2, "initial": [True, 0.0],
            "transitions": [[0.5, 0.5], [0.5, 0.5]],
            "labels": ["a", "b"], "state_to_class": [0, 1],
        }))
        code = cli.main(["decode", str(src), "--hmm", str(hmm), "--out", str(tmp_path / "h")])
        assert code == cli.EXIT_VALIDATION
        assert f"{hmm}: initial must hold only numbers" in capsys.readouterr().err

    def test_wrong_length_priors_name_file(self, tmp_path, demo_hmm, capsys):
        src = tmp_path / "in.post"
        write_posteriors(src, [[0.5, 0.3, 0.2]])
        priors = tmp_path / "priors.txt"
        priors.write_text("0.5 0.5\n")
        code = cli.main(["decode", str(src), "--hmm", str(demo_hmm), "--priors", str(priors),
                         "--out", str(tmp_path / "h")])
        assert code == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"{priors}: priors must have one entry per class (3), got 2" in err


def decode_argv(src, hmm, out, *extra):
    return ["decode", str(src), "--hmm", str(hmm), "--order", "4", *extra, "--out", str(out)]


class TestSharedParser:
    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_parse_leaves_no_state(self, tmp_path, demo_hmm, monkeypatch):
        src = tmp_path / "in.post"
        write_posteriors(src, [[0.5, 0.3, 0.2]] * 6)
        priors = tmp_path / "priors.txt"
        priors.write_text("0.9 0.05 0.05\n")
        namespaces = []
        parse_args = argparse.ArgumentParser.parse_args

        def spy(parser, *args, **kwargs):
            namespaces.append(parse_args(parser, *args, **kwargs))
            return namespaces[-1]

        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy)
        with_priors = tmp_path / "with_priors.txt"
        assert cli.main(decode_argv(src, demo_hmm, with_priors, "--priors", str(priors))) == 0
        with pytest.raises(SystemExit) as exc:
            cli.main(["decode", str(src), "--order", "x"])
        assert exc.value.code == 2
        plain = tmp_path / "plain.txt"
        assert cli.main(decode_argv(src, demo_hmm, plain)) == 0
        assert namespaces[-1].priors is None

        fresh = tmp_path / "fresh.txt"
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-m", "minkdecode.cli",
                               *decode_argv(src, demo_hmm, fresh)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert plain.read_bytes() == fresh.read_bytes()
        # The priors change this decode, so a leaked --priors would show.
        assert with_priors.read_bytes() != plain.read_bytes()

    def test_help_matches_a_fresh_parser(self, tmp_path, demo_hmm, capsys):
        src = tmp_path / "in.post"
        write_posteriors(src, [[0.5, 0.3, 0.2]])
        assert cli.main(decode_argv(src, demo_hmm, tmp_path / "h")) == 0
        with pytest.raises(SystemExit):
            cli.main(["experiment"])
        fresh = cli.build_parser.__wrapped__()
        assert fresh is not cli.build_parser()
        names = ("transform", "curves", "decode", "score", "synth", "experiment")
        cases = [(["--help"], 0), *(([name, "--help"], 0) for name in names),
                 (["decode", str(src), "--order", "x"], 2), (["nope"], 2), ([], 2)]
        for argv, code in cases:
            texts = []
            for parse in (cli.build_parser().parse_args, fresh.parse_args):
                capsys.readouterr()
                with pytest.raises(SystemExit) as exc:
                    parse(argv)
                assert exc.value.code == code
                texts.append(capsys.readouterr())
            assert texts[0] == texts[1]
            assert (texts[0].out + texts[0].err).startswith("usage: minkdecode")


class TestScoreCommand:
    def test_identical(self, tmp_path, capsys):
        ref = tmp_path / "r.txt"
        ref.write_text("a\nb\nc\n")
        assert cli.main(["score", str(ref), str(ref)]) == 0
        assert "WER 0.000" in capsys.readouterr().out

    def test_machine_format(self, tmp_path, capsys):
        ref = tmp_path / "r.txt"
        hyp = tmp_path / "h.txt"
        ref.write_text("a\nb\n")
        hyp.write_text("a\nx\n")
        assert cli.main(["score", str(ref), str(hyp), "--format", "machine"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["substitutions"] == 1
        assert doc["wer"] == 0.5

    def test_empty_reference_names_file(self, tmp_path, capsys):
        ref = tmp_path / "empty.ref"
        ref.write_text("")
        hyp = tmp_path / "h.txt"
        hyp.write_text("a\n")
        assert cli.main(["score", str(ref), str(hyp)]) == cli.EXIT_VALIDATION
        assert f"error: {ref}: reference must be non-empty" in capsys.readouterr().err


class TestSynthCommand:
    def test_writes_manifest(self, tmp_path, demo_hmm, capsys):
        out = tmp_path / "corpus"
        assert cli.main(["synth", "--hmm", str(demo_hmm), "--utterances", "3",
                         "--frames", "4:6", "--seed", "5", "--out", str(out)]) == 0
        assert (out / "manifest.json").exists()
        assert len(list(out.glob("*.post"))) == 3

    def test_bad_frames_is_validation_error(self, tmp_path, demo_hmm, capsys):
        code = cli.main(["synth", "--hmm", str(demo_hmm), "--frames", "abc",
                         "--out", str(tmp_path / "corpus")])
        assert code == cli.EXIT_VALIDATION
        assert "'abc'" in capsys.readouterr().err


MISSING = object()  # a config value that deletes its key


def experiment_config(tmp_path, hmm_path, concentration, confusion, seed, orders=(2, 4, 6),
                      utterances=8, frames=(6, 12)):
    cfg = {
        "hmm": hmm_path.name,
        "orders": list(orders),
        "renormalize": True,
        "corpus": {
            "dir": "corpus",
            "utterances": utterances,
            "frames": list(frames),
            "noise": {"concentration": concentration, "confusion_rate": confusion, "seed": seed},
        },
        "report": "report.json",
    }
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(cfg))
    return path


class TestExperimentCommand:
    def test_noiseless_all_orders_zero(self, tmp_path, demo_hmm, capsys):
        cfg = experiment_config(tmp_path, demo_hmm, math.inf, 0.0, 3)
        assert cli.main(["experiment", str(cfg)]) == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        assert [entry["wer"] for entry in doc["orders"]] == [0.0, 0.0, 0.0]
        reductions = [entry["relative_reduction_vs_order2"] for entry in doc["orders"]]
        assert reductions == [None, 0.0, 0.0]

    def test_empty_reference_refused_before_decoding(self, tmp_path, demo_hmm, capsys,
                                                     monkeypatch):
        corpus = tmp_path / "corpus"
        assert cli.main(["synth", "--hmm", str(demo_hmm), "--utterances", "3",
                         "--frames", "4:6", "--out", str(corpus)]) == 0
        empty = corpus / "utt0001.ref"
        empty.write_text("")
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({"hmm": demo_hmm.name,
                                   "corpus": {"manifest": "corpus/manifest.json"},
                                   "report": "report.json"}))
        decoded = []
        monkeypatch.setattr(pipeline, "decode_tokens", lambda *args: decoded.append(args))
        capsys.readouterr()
        assert cli.main(["experiment", str(cfg)]) == cli.EXIT_VALIDATION
        assert f"error: {empty}: reference must be non-empty" in capsys.readouterr().err
        assert decoded == []
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("data, where", [(b"", ""), (b"red\n\xffgreen\n", ":2")],
                             ids=["empty", "not-utf8"])
    def test_bad_reference_file_exits_2_naming_it(self, tmp_path, demo_hmm, capsys,
                                                  data, where):
        corpus = tmp_path / "corpus"
        assert cli.main(["synth", "--hmm", str(demo_hmm), "--utterances", "3",
                         "--frames", "4:6", "--out", str(corpus)]) == 0
        bad = corpus / "utt0002.ref"
        bad.write_bytes(data)
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({"hmm": demo_hmm.name,
                                   "corpus": {"manifest": "corpus/manifest.json"}}))
        capsys.readouterr()
        assert cli.main(["experiment", str(cfg)]) == cli.EXIT_VALIDATION
        assert capsys.readouterr().err.startswith(f"error: {bad}{where}: ")

    # References come from the manifest: the generator's own tokens, or each
    # reference file read once when the manifest is loaded.
    @pytest.mark.parametrize("generated", [True, False], ids=["generated", "manifest"])
    def test_reads_each_reference_file_at_most_once(self, tmp_path, demo_hmm, monkeypatch,
                                                    generated):
        cfg = experiment_config(tmp_path, demo_hmm, 5.0, 0.3, 17)
        assert cli.main(["experiment", str(cfg)]) == 0
        orders = json.loads((tmp_path / "report.json").read_text())["orders"]
        if not generated:
            doc = json.loads(cfg.read_text())
            doc["corpus"] = {"manifest": "corpus/manifest.json"}
            cfg.write_text(json.dumps(doc))
        read = []
        load = dataio.load_transcript
        monkeypatch.setattr(dataio, "load_transcript", lambda path: read.append(path) or load(path))
        assert cli.main(["experiment", str(cfg)]) == 0
        refs = sorted(str(p) for p in (tmp_path / "corpus").glob("*.ref"))
        assert sorted(map(str, read)) == ([] if generated else refs)
        assert json.loads((tmp_path / "report.json").read_text())["orders"] == orders

    def test_matches_stepwise_decode_and_score(self, tmp_path, demo_hmm):
        cfg = experiment_config(tmp_path, demo_hmm, 5.0, 0.3, 17, orders=(4,))
        assert cli.main(["experiment", str(cfg)]) == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        manifest = json.loads((tmp_path / "corpus" / "manifest.json").read_text())
        subs = dels = ins = ref_len = 0
        for utt in manifest["utterances"]:
            hyp = tmp_path / f"hyp_{utt['id']}.txt"
            assert cli.main(["decode", str(tmp_path / "corpus" / utt["posteriors"]),
                             "--hmm", str(demo_hmm), "--order", "4",
                             "--out", str(hyp)]) == 0
            rep = align_and_score(
                load_transcript(tmp_path / "corpus" / utt["reference"]),
                load_transcript(hyp),
            )
            subs += rep.substitutions
            dels += rep.deletions
            ins += rep.insertions
            ref_len += rep.ref_length
        entry = doc["orders"][0]
        assert entry["substitutions"] == subs
        assert entry["deletions"] == dels
        assert entry["insertions"] == ins
        assert entry["ref_length"] == ref_len
        assert entry["wer"] == pytest.approx((subs + dels + ins) / ref_len, abs=1e-12)

    @pytest.mark.parametrize("section, key, value, field", [
        (None, "renormalize", "false", "renormalize"),
        (None, "renormalize", False, "renormalize"),
        (None, "orders", [2, 4.7], "orders"),
        ("corpus", "utterances", 8.5, "utterances"),
        ("corpus", "frames", [6, 12.5], "frames"),
        ("noise", "seed", 1.5, "noise.seed"),
        ("noise", "concentration", "5", "noise.concentration"),
        ("corpus", "noise", {"concentration": 5.0, "confusion_rate": 0.3}, "noise.seed"),
        ("corpus", "noise", [1, 2], "noise"),
        ("corpus", "noise", "x", "noise"),
        (None, "hmm", 5, "hmm"),
        (None, "priors", 7, "priors"),
        (None, "report", 6, "report"),
        ("corpus", "dir", 3, "corpus.dir"),
        ("corpus", "manifest", 4, "corpus.manifest"),
        (None, "orders", [2, 3], "orders"),
        (None, "hmm", MISSING, "hmm"),
        ("corpus", "dir", MISSING, "corpus.dir"),
        ("corpus", "frames", [6, 9, 12], "frames"),
        ("corpus", "utterances", 0, "utterances"),
        ("corpus", "frames", [5, 2], "frames"),
        ("corpus", "speaker", "x", "corpus"),
        ("noise", "scale", 2.0, "noise"),
        ("corpus", "manifest", "corpus/manifest.json", "corpus"),
        (None, "orders", [], "orders"),
        (None, "orders", [4, 4], "orders"),
        (None, "hmm", "", "hmm"),
        (None, "priors", "", "priors"),
        (None, "report", "", "report"),
        ("corpus", "dir", "", "corpus.dir"),
        (None, "corpus", {"manifest": ""}, "corpus.manifest"),
        ("noise", "concentration", 1e308, "noise.concentration"),
        (None, "orders", [2, 10**400], "orders"),
    ], ids=["renormalize", "renormalize-false", "orders", "utterances", "frames", "noise-seed",
            "noise-concentration", "noise-missing-key", "noise-list", "noise-string",
            "hmm-path", "priors-path", "report-path", "dir-path", "manifest-path",
            "odd-order", "hmm-missing", "dir-missing", "frames-length", "utterances-zero",
            "frames-reversed", "corpus-unknown-key", "noise-unknown-key",
            "manifest-with-generation", "orders-empty", "orders-repeated", "hmm-empty",
            "priors-empty", "report-empty", "dir-empty", "manifest-empty",
            "noise-concentration-overflow", "orders-huge"])
    def test_config_values_are_not_coerced(self, tmp_path, demo_hmm, capsys,
                                           section, key, value, field):
        path = experiment_config(tmp_path, demo_hmm, 5.0, 0.3, 3)
        cfg = json.loads(path.read_text())
        target = {None: cfg, "corpus": cfg["corpus"], "noise": cfg["corpus"]["noise"]}[section]
        if value is MISSING:
            del target[key]
        else:
            target[key] = value
        path.write_text(json.dumps(cfg))
        if key == "utterances":
            # The config is checked before the HMM is read: no HMM file, still exit 2.
            demo_hmm.unlink()
        assert cli.main(["experiment", str(path)]) == cli.EXIT_VALIDATION
        assert f"config field '{field}'" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()
        assert not (tmp_path / "corpus").exists()

    @pytest.mark.parametrize("value", [True, MISSING], ids=["true", "missing"])
    def test_renormalize_is_echoed_as_true(self, tmp_path, demo_hmm, capsys, value):
        path = experiment_config(tmp_path, demo_hmm, 5.0, 0.3, 3, orders=(2,))
        cfg = json.loads(path.read_text())
        if value is MISSING:
            del cfg["renormalize"]
        path.write_text(json.dumps(cfg))
        assert cli.main(["experiment", str(path)]) == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["config"]["renormalize"] is True

    @pytest.mark.parametrize("config, message", [
        ([1, 2], "config must be a JSON object"),
        ({"hmm": "hmm.json", "corpus": {}, "out": "r.json"}, "config has unknown fields ['out']"),
    ], ids=["non-object", "unknown-field"])
    def test_malformed_config(self, tmp_path, capsys, config, message):
        path = tmp_path / "exp.json"
        path.write_text(json.dumps(config))
        assert cli.main(["experiment", str(path)]) == cli.EXIT_VALIDATION
        assert f"error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, field", [
        ("seed", 4.7, "noise.seed"),
        ("concentration", "5", "noise.concentration"),
        ("scale", 2.0, "noise"),
    ], ids=["seed-4.7", "concentration-5", "unknown-key"])
    def test_manifest_noise_is_not_coerced(self, tmp_path, demo_hmm, capsys, key, value, field):
        corpus = tmp_path / "corpus"
        assert cli.main(["synth", "--hmm", str(demo_hmm), "--utterances", "2",
                         "--out", str(corpus)]) == 0
        manifest = json.loads((corpus / "manifest.json").read_text())
        manifest["noise"][key] = value
        (corpus / "manifest.json").write_text(json.dumps(manifest))
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({"hmm": demo_hmm.name, "report": "report.json",
                                   "corpus": {"manifest": "corpus/manifest.json"}}))
        assert cli.main(["experiment", str(cfg)]) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"manifest.json: field '{field}'" in err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("utterances, message", [
        (5, "field 'utterances' must be"),
        ([{"id": 5, "posteriors": "u.post", "reference": "u.ref"}],
         "field 'utterances[0].id' must be"),
        ([{"id": ["x"], "posteriors": "u.post", "reference": "u.ref"}],
         "field 'utterances[0].id' must be"),
        ([{"id": "u", "posteriors": "u.post", "reference": "u.ref", "speaker": "x"}],
         "field 'utterances[0]' has unknown fields ['speaker']"),
    ], ids=["count", "id-int", "id-list", "unknown-key"])
    def test_mistyped_manifest_entry(self, tmp_path, demo_hmm, capsys, utterances, message):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        write_posteriors(corpus / "u.post", [[0.5, 0.3, 0.2]])
        (corpus / "u.ref").write_text("red\n")
        manifest = corpus / "manifest.json"
        manifest.write_text(json.dumps({"utterances": utterances}))
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({"hmm": demo_hmm.name, "report": "report.json",
                                   "corpus": {"manifest": "corpus/manifest.json"}}))
        assert cli.main(["experiment", str(cfg)]) == cli.EXIT_VALIDATION
        assert f"{manifest}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_wrong_length_priors_name_file(self, tmp_path, demo_hmm, capsys):
        path = experiment_config(tmp_path, demo_hmm, 5.0, 0.3, 3)
        cfg = json.loads(path.read_text())
        cfg["priors"] = "priors.txt"
        path.write_text(json.dumps(cfg))
        (tmp_path / "priors.txt").write_text("0.2 0.2 0.2 0.4\n")
        assert cli.main(["experiment", str(path)]) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"{tmp_path / 'priors.txt'}: priors must have one entry per class (3), got 4" in err
        assert not (tmp_path / "report.json").exists()

    def test_machine_format_stdout(self, tmp_path, demo_hmm, capsys):
        cfg = experiment_config(tmp_path, demo_hmm, 5.0, 0.2, 7, orders=(2, 4))
        assert cli.main(["experiment", str(cfg), "--format", "machine"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [entry["order"] for entry in doc["orders"]] == [2, 4]

    @pytest.mark.parametrize("orders, concentration, confusion, seed, size, baseline", [
        ((6, 2), 5.0, 0.3, 11, {}, "nonzero"),
        ((4,), 5.0, 0.3, 11, {}, "absent"),
        ((4, 2), math.inf, 0.0, 11, {}, "zero"),
        ((2, 6), 1000.0, 0.0, 1, {"utterances": 10, "frames": (1, 3)}, "zero-order-6-worse"),
    ], ids=["orders-6-2", "order-4", "wer0-baseline", "wer0-baseline-worse-order"])
    def test_table_rows_match_document(self, tmp_path, demo_hmm, capsys,
                                       orders, concentration, confusion, seed, size, baseline):
        cfg = experiment_config(tmp_path, demo_hmm, concentration, confusion, seed,
                                orders=orders, **size)
        assert cli.main(["experiment", str(cfg), "--format", "machine"]) == 0
        entries = json.loads(capsys.readouterr().out)["orders"]
        assert cli.main(["experiment", str(cfg)]) == 0
        header, *rows = capsys.readouterr().out.splitlines()
        assert header.split() == ["order", "WER", "S", "D", "I", "ref", "vs", "order", "2"]
        assert [entry["order"] for entry in entries] == list(orders)
        assert len(rows) == len(entries)
        wer2 = {entry["order"]: entry["wer"] for entry in entries}.get(2)
        assert {"nonzero": wer2 is not None and wer2 > 0.0, "absent": wer2 is None,
                "zero": wer2 == 0.0,
                "zero-order-6-worse": wer2 == 0.0 and entries[1]["wer"] > 0.0}[baseline]
        for row, entry in zip(rows, entries):
            order, wer, subs, dels, ins, ref, vs = row.split()
            assert (int(order), wer, int(subs), int(dels), int(ins), int(ref)) == (
                entry["order"], f"{entry['wer']:.6f}", entry["substitutions"],
                entry["deletions"], entry["insertions"], entry["ref_length"])
            reduction = entry["relative_reduction_vs_order2"]
            if entry["order"] == 2 or wer2 is None:
                assert (vs, reduction) == ("-", None)
            elif wer2 == 0.0 and entry["wer"] == 0.0:
                assert (vs, reduction) == ("+0.000%", 0.0)
            elif wer2 == 0.0:  # no finite ratio against a WER of 0
                assert (vs, reduction) == ("-", None)
            else:
                assert vs == f"{100 * reduction:+.3f}%"
                assert reduction == (wer2 - entry["wer"]) / wer2

    def test_rerun_leaves_identical_outputs_untouched(self, tmp_path, demo_hmm):
        old_ns = 1_000_000_000  # an mtime no write made during the test can have
        cfg = experiment_config(tmp_path, demo_hmm, 5.0, 0.3, 3)
        assert cli.main(["experiment", str(cfg)]) == 0
        outputs = sorted((tmp_path / "corpus").iterdir()) + [tmp_path / "report.json"]
        for path in outputs:
            os.utime(path, ns=(old_ns, old_ns))
        before = {path: (os.stat(path).st_ino, os.stat(path).st_mtime_ns) for path in outputs}
        report = (tmp_path / "report.json").read_bytes()

        assert cli.main(["experiment", str(cfg)]) == 0
        assert sorted((tmp_path / "corpus").iterdir()) + [tmp_path / "report.json"] == outputs
        assert {path: (os.stat(path).st_ino, os.stat(path).st_mtime_ns)
                for path in outputs} == before
        assert (tmp_path / "report.json").read_bytes() == report

        # Another seed rewrites the corpus and report to what a fresh run writes.
        doc = json.loads(cfg.read_text())
        doc["corpus"]["noise"]["seed"] = 4
        cfg.write_text(json.dumps(doc))
        assert cli.main(["experiment", str(cfg)]) == 0
        fresh = tmp_path / "fresh"
        fresh.mkdir()
        (fresh / demo_hmm.name).write_bytes(demo_hmm.read_bytes())
        assert cli.main(["experiment", str(experiment_config(fresh, demo_hmm, 5.0, 0.3, 4))]) == 0

        def written(root):
            paths = sorted((root / "corpus").iterdir()) + [root / "report.json"]
            return {path.relative_to(root): path.read_bytes() for path in paths}

        assert written(tmp_path) == written(fresh)
        assert (tmp_path / "report.json").read_bytes() != report


ODD_ORDER = "order 3 is odd: its expected-loss gradient has complex roots"
# 1 / (n - 1) of an order this large would overflow converting the int to a float.
HUGE_ORDER = "1" + "0" * 400
TOO_LARGE = f"order must be below 2**53, got {HUGE_ORDER}"


@pytest.mark.parametrize("argv, reason", [
    (["transform", "in.post", "--order", "3", "--out", "o.post"], ODD_ORDER),
    (["decode", "in.post", "--hmm", "hmm.json", "--order", "3", "--out", "h"], ODD_ORDER),
    (["synth", "--frames", "5:2"], "frames range must satisfy 1 <= lo <= hi, got (5, 2)"),
    (["synth", "--utterances", "0"], "field 'utterances' must be >= 1, got 0"),
    (["synth", "--concentration", "-1"], "field 'noise.concentration' must be > 0, got -1.0"),
    (["synth", "--concentration", "1e308"],
     "field 'noise.concentration' must be at most 1e+300 or inf, got 1e+308"),
    (["synth", "--confusion-rate", "2"], "field 'noise.confusion_rate' must be in [0, 1], got 2.0"),
    (["synth", "--seed", "-1"], "field 'noise.seed' must fit in 64 bits"),
    (["transform", "in.post", "--order", HUGE_ORDER, "--out", "o.post"], TOO_LARGE),
    (["decode", "in.post", "--hmm", "hmm.json", "--order", HUGE_ORDER, "--out", "h"], TOO_LARGE),
    (["curves", "--order", "4", "--order", HUGE_ORDER, "--out", "c.txt"], TOO_LARGE),
    (["curves", "--grid-points", "1000000001", "--out", "c.txt"],
     "grid-points must be at most 1000000, got 1000000001"),
], ids=["transform-order", "decode-order", "synth-frames", "synth-utterances",
        "synth-concentration", "synth-concentration-overflow", "synth-confusion-rate",
        "synth-seed", "transform-huge-order", "decode-huge-order", "curves-huge-order",
        "curves-grid-points"])
def test_argument_values_checked_before_files_are_read(tmp_path, capsys, monkeypatch,
                                                       argv, reason):
    # None of the named input files exists: reading one first would exit 3.
    monkeypatch.chdir(tmp_path)
    if argv[0] == "synth":
        argv = argv + ["--hmm", "hmm.json", "--out", "corpus"]
    assert cli.main(argv) == cli.EXIT_VALIDATION
    assert f"error: {reason}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["synth", "experiment"])
def test_unallocatable_frames_range_refused_before_files_are_written(tmp_path, demo_hmm, capsys,
                                                                    command):
    # The generator sizes each utterance's draws by the range maximum: 48 TiB here.
    if command == "synth":
        argv = ["synth", "--hmm", str(demo_hmm), "--frames", f"2:{2**40}",
                "--out", str(tmp_path / "corpus")]
    else:
        argv = ["experiment", str(experiment_config(tmp_path, demo_hmm, 5.0, 0.3, 3,
                                                    frames=(2, 2**40)))]
    assert cli.main(argv) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err == (
        "error: field 'frames' allows at most 1048576 draws per utterance; "
        "1099511627776 frames of 3 classes need 6597069766657\n")
    assert not (tmp_path / "corpus").exists()
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("command", ["synth", "experiment"])
def test_utterance_count_above_bound_refused_before_files_are_written(tmp_path, demo_hmm, capsys,
                                                                      command):
    # Unbounded, such a count writes corpus files until the disk is full.
    count = 2**63
    if command == "synth":
        argv = ["synth", "--hmm", str(demo_hmm), "--utterances", str(count),
                "--out", str(tmp_path / "corpus")]
        where = ""
    else:
        argv = ["experiment", str(experiment_config(tmp_path, demo_hmm, 5.0, 0.3, 3,
                                                    utterances=count))]
        where = "config "
    assert cli.main(argv) == cli.EXIT_VALIDATION
    assert capsys.readouterr().err == (
        f"error: {where}field 'utterances' must be at most 1000000, got {count}\n")
    assert not (tmp_path / "corpus").exists()
    assert not (tmp_path / "report.json").exists()


# Root reads and writes files whatever their permission bits say.
AS_USER = pytest.mark.skipif(getattr(os, "geteuid", lambda: 1)() == 0,
                             reason="permission bits do not bind root")


def io_error(code: int, path) -> str:
    """What `cli.main` prints for an OSError with errno code that names path."""
    return f"i/o error: [Errno {code}] {os.strerror(code)}: '{path}'\n"


@pytest.mark.parametrize("case, code", [
    ("missing", errno.ENOENT),
    ("directory", errno.EISDIR),
    pytest.param("unreadable", errno.EACCES, marks=AS_USER),
])
def test_unreadable_input_is_an_io_error_naming_it(tmp_path, demo_hmm, capsys, case, code):
    post = tmp_path / "in.post"
    if case == "directory":
        post.mkdir()
    elif case == "unreadable":
        write_posteriors(post, [[0.5, 0.3, 0.2]])
        post.chmod(0)
    out = tmp_path / "hyp.txt"
    assert cli.main(["decode", str(post), "--hmm", str(demo_hmm), "--out", str(out)]) == cli.EXIT_IO
    assert capsys.readouterr().err == io_error(code, post)
    assert not out.exists()


@pytest.mark.parametrize("case, code", [
    ("missing-directory", errno.ENOENT),
    ("directory", errno.EISDIR),
    pytest.param("read-only", errno.EACCES, marks=AS_USER),
])
def test_unwritable_output_is_an_io_error_naming_it(tmp_path, demo_hmm, capsys, case, code):
    post = tmp_path / "in.post"
    write_posteriors(post, [[0.5, 0.3, 0.2]])
    out = tmp_path / "hyp.txt"
    if case == "missing-directory":
        out = tmp_path / "missing" / "hyp.txt"
    elif case == "directory":
        out.mkdir()
    else:
        out.write_text("another size\n")
        out.chmod(0o444)
    assert cli.main(["decode", str(post), "--hmm", str(demo_hmm), "--out", str(out)]) == cli.EXIT_IO
    assert capsys.readouterr().err == io_error(code, out)


@pytest.mark.parametrize("command", ["decode", "experiment"])
def test_hmm_column_beyond_posteriors_names_file(tmp_path, demo_hmm, capsys, monkeypatch,
                                                 command):
    corpus = tmp_path / "corpus"
    assert cli.main(["synth", "--hmm", str(demo_hmm), "--utterances", "2",
                     "--out", str(corpus)]) == 0
    hmm = tmp_path / "wide.json"
    doc = json.loads(demo_hmm.read_text())
    doc["state_to_class"] = [0, 1, 3]
    hmm.write_text(json.dumps(doc))
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"hmm": hmm.name, "report": "report.json",
                               "corpus": {"manifest": "corpus/manifest.json"}}))
    post = corpus / "utt0000.post"
    argv = {
        "decode": ["decode", str(post), "--hmm", str(hmm), "--out", str(tmp_path / "hyp.txt")],
        "experiment": ["experiment", str(cfg)],
    }[command]
    decoded = []
    monkeypatch.setattr(pipeline, "decode_tokens", lambda *args: decoded.append(args))
    capsys.readouterr()
    assert cli.main(argv) == cli.EXIT_VALIDATION
    assert (f"error: {post}: state_to_class refers to column 3 but the posterior matrix "
            "has 3 classes") in capsys.readouterr().err
    assert decoded == []
    assert not (tmp_path / "hyp.txt").exists()
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("kind", ["hmm", "manifest", "config"])
def test_invalid_json_names_file_and_line(tmp_path, demo_hmm, capsys, kind):
    bad = tmp_path / f"{kind}.json"
    bad.write_text('{\n  "num_states": 1,\n  oops\n}\n')
    write_posteriors(tmp_path / "in.post", [[0.5, 0.3, 0.2]])
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"hmm": demo_hmm.name, "corpus": {"manifest": bad.name}}))
    argv = {
        "hmm": ["decode", str(tmp_path / "in.post"), "--hmm", str(bad),
                "--out", str(tmp_path / "hyp.txt")],
        "manifest": ["experiment", str(cfg)],
        "config": ["experiment", str(bad)],
    }[kind]
    assert cli.main(argv) == cli.EXIT_VALIDATION
    assert f"{bad}:3: invalid JSON: " in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["hmm", "manifest", "config"])
@pytest.mark.parametrize("text", ['{"orders": [2, ' + "9" * 5000 + "]}", "[" * 200_000],
                         ids=["5000-digit-integer", "200000-deep-nesting"])
def test_json_python_cannot_parse_names_file(tmp_path, demo_hmm, capsys, kind, text):
    # json.loads raises a plain ValueError past the integer digit limit and
    # a RecursionError past the nesting limit, neither a JSONDecodeError.
    bad = tmp_path / f"{kind}.json"
    bad.write_text(text)
    write_posteriors(tmp_path / "in.post", [[0.5, 0.3, 0.2]])
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"hmm": demo_hmm.name, "corpus": {"manifest": bad.name}}))
    argv = {
        "hmm": ["decode", str(tmp_path / "in.post"), "--hmm", str(bad),
                "--out", str(tmp_path / "hyp.txt")],
        "manifest": ["experiment", str(cfg)],
        "config": ["experiment", str(bad)],
    }[kind]
    assert cli.main(argv) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    # Pythons before 3.10.7 have no digit limit: the document then parses and its
    # content is refused, still naming the file.
    limited = text.startswith("[") or hasattr(sys, "get_int_max_str_digits")
    assert f"error: {bad}: {'invalid JSON: ' if limited else ''}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "hyp.txt").exists()


@pytest.mark.parametrize("kind", ["decode-posteriors", "transform", "decode-hmm", "decode-priors",
                                  "score-reference", "score-hypothesis", "experiment-config",
                                  "experiment-hmm", "experiment-manifest"])
def test_non_utf8_input_names_file_and_line(tmp_path, demo_hmm, capsys, kind):
    post = tmp_path / "in.post"
    write_posteriors(post, [[0.5, 0.3, 0.2]])
    priors = tmp_path / "priors.txt"
    priors.write_text("0.5 0.3 0.2\n")
    ref = tmp_path / "r.txt"
    ref.write_text("red\n")
    bad = tmp_path / "bad"
    bad.write_bytes(b"{\n\xff\n")  # the bad byte is on line 2
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"hmm": bad.name if kind == "experiment-hmm" else demo_hmm.name,
                               "corpus": {"manifest": bad.name}}))
    out = str(tmp_path / "o")
    argv = {
        "decode-posteriors": ["decode", str(bad), "--hmm", str(demo_hmm), "--out", out],
        "transform": ["transform", str(bad), "--order", "4", "--out", out],
        "decode-hmm": ["decode", str(post), "--hmm", str(bad), "--out", out],
        "decode-priors": ["decode", str(post), "--hmm", str(demo_hmm), "--priors", str(bad),
                          "--out", out],
        "score-reference": ["score", str(bad), str(ref)],
        "score-hypothesis": ["score", str(ref), str(bad)],
        "experiment-config": ["experiment", str(bad)],
        "experiment-hmm": ["experiment", str(cfg)],
        "experiment-manifest": ["experiment", str(cfg)],
    }[kind]
    assert cli.main(argv) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"error: {bad}:2: not UTF-8 text" in err
    assert "Traceback" not in err
    assert not Path(out).exists()


@pytest.mark.parametrize("label", [" green", "\ud800"], ids=["leading-space", "lone-surrogate"])
@pytest.mark.parametrize("command", ["synth", "decode"])
def test_synth_and_decode_refuse_a_label_transcripts_cannot_hold(tmp_path, demo_hmm, capsys,
                                                                  command, label):
    doc = json.loads(demo_hmm.read_text())
    doc["labels"] = ["red", label, "blue"]
    demo_hmm.write_text(json.dumps(doc))
    src = tmp_path / "in.post"
    write_posteriors(src, [[0.5, 0.25, 0.25]])
    out = tmp_path / "out"
    argv = {"synth": ["synth", "--hmm", str(demo_hmm), "--utterances", "2", "--frames", "3:4"],
            "decode": ["decode", str(src), "--hmm", str(demo_hmm)]}[command]
    assert cli.main(argv + ["--out", str(out)]) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"error: {demo_hmm}: labels must" in err and repr(label) in err
    assert "Traceback" not in err
    assert not out.exists()


def test_experiment_refuses_a_label_transcripts_cannot_hold(tmp_path, demo_hmm, capsys):
    doc = json.loads(demo_hmm.read_text())
    doc["labels"] = ["red", " green", "blue"]
    demo_hmm.write_text(json.dumps(doc))
    cfg = experiment_config(tmp_path, demo_hmm, 1000.0, 0.0, 1)
    assert cli.main(["experiment", str(cfg)]) == cli.EXIT_VALIDATION
    assert f"error: {demo_hmm}: labels must" in capsys.readouterr().err
    assert not (tmp_path / "corpus").exists()
    assert not (tmp_path / "report.json").exists()
