"""Acceptance suite.

Each test implements one numbered acceptance criterion at its stated
tolerance and prints one PASS/FAIL line; run

    pytest tests/test_acceptance.py -v -s

to see the lines as they go by.
"""

import cmath
import json
import math
import time

import numpy as np
import pytest

from minkdecode import (
    LogScoreMatrix,
    align_and_score,
    cli,
    corpus_wer,
    to_log_scores,
    transform_matrix,
    viterbi_decode,
)

from conftest import (
    make_random_hmm,
    make_random_posteriors,
    make_random_scores,
    make_uniform_hmm,
)
from oracles import (
    analyze_odd_order,
    brute_force_transform,
    closed_form_transform,
    exhaustive_decode,
    gradient_coefficients,
    newton_transform,
)
from test_scoring import reference_levenshtein

MU_GRID = np.linspace(0.0, 1.0, 1001)
EVEN_ORDERS = (4, 6)


def _report(name: str, ok: bool, detail: str = ""):
    line = f"{'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_c01_triple_oracle_agreement():
    start = time.perf_counter()
    worst_cn = worst_cb = worst_nb = 0.0
    for order in EVEN_ORDERS:
        for mu in MU_GRID:
            c = closed_form_transform(float(mu), order)
            n = newton_transform(float(mu), order)
            b = brute_force_transform(float(mu), order)
            worst_cn = max(worst_cn, abs(c - n))
            worst_cb = max(worst_cb, abs(c - b))
            worst_nb = max(worst_nb, abs(n - b))
    elapsed = time.perf_counter() - start
    ok = worst_cn <= 1e-9 and worst_cb <= 1e-5 and worst_nb <= 1e-5 and elapsed < 60.0
    _report(
        "criterion-01 triple-oracle agreement",
        ok,
        f"|cf-newton|={worst_cn:.2e} |cf-grid|={worst_cb:.2e} "
        f"|newton-grid|={worst_nb:.2e} in {elapsed:.1f}s",
    )


def test_c02_stationarity_of_returned_roots():
    worst = 0.0
    for order in EVEN_ORDERS:
        for mu in MU_GRID:
            poly = gradient_coefficients(float(mu), order)
            worst = max(worst, abs(poly(closed_form_transform(float(mu), order))))
            worst = max(worst, abs(poly(newton_transform(float(mu), order))))
    _report("criterion-02 stationarity", worst < 1e-10, f"max |g(root)|={worst:.2e}")


def test_c03_gradient_coefficient_patterns():
    ok = True
    for mu in (0.2, 0.5, 0.9):
        ok &= gradient_coefficients(mu, 4).coefficients == (1.0, -3 * mu, 3 * mu, -mu)
        ok &= gradient_coefficients(mu, 6).coefficients == (
            1.0, -5 * mu, 10 * mu, -10 * mu, 5 * mu, -mu,
        )
    _report("criterion-03 gradient coefficient patterns", ok)


def test_c04_odd_order_rejection():
    ok = True
    worst_quad = 0.0
    for i in range(1, 100):
        mu = i / 100
        a3 = analyze_odd_order(mu, 3)
        a5 = analyze_odd_order(mu, 5)
        ok &= not a3.has_valid_probability_root
        ok &= not a5.has_valid_probability_root
        s = cmath.sqrt(complex(mu * mu - mu))
        expected = sorted([mu - s, mu + s], key=lambda z: (z.real, z.imag))
        worst_quad = max(
            worst_quad, max(abs(g - w) for g, w in zip(a3.roots, expected))
        )
    ok &= worst_quad <= 1e-12
    _report(
        "criterion-04 odd-order rejection",
        ok,
        f"orders 3 and 5 over mu=0.01..0.99, quadratic-formula gap {worst_quad:.2e}",
    )


def test_c05_figure_shape(tmp_path):
    out = tmp_path / "curves.txt"
    assert cli.main([
        "curves", "--order", "4", "--order", "6",
        "--grid-points", "1001", "--out", str(out),
    ]) == 0
    rows = np.array(
        [[float(v) for v in ln.split()] for ln in out.read_text().splitlines()[1:]]
    )
    mus = rows[:, 0]
    ok = True
    detail = []
    for col in (1, 2):
        y = rows[:, col]
        ok &= bool(np.all(np.diff(y) > 0))  # strictly monotone
        ok &= y[0] == 0.0 and y[-1] == 1.0 and y[500] == 0.5  # fixes {0, 0.5, 1}
        sym_gap = float(np.max(np.abs(y[::-1] + y - 1.0)))  # y(1-mu) = 1 - y(mu)
        ok &= sym_gap <= 1e-12
        diffs = np.diff(y)
        ok &= bool(diffs[0] >= diffs.max() - 1e-12)  # steepest near mu=0
        detail.append(f"order{EVEN_ORDERS[col - 1]} sym={sym_gap:.1e}")
    assert mus[500] == 0.5
    _report("criterion-05 figure-shape reproduction", ok, ", ".join(detail))


def test_c06_decoder_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(606)
    ok = True
    for _ in range(200):
        num_states = int(rng.integers(2, 6))
        frames = int(rng.integers(1, 9))
        hmm = make_random_hmm(rng, num_states)
        scores = make_random_scores(rng, frames, num_states)
        v = viterbi_decode(scores, hmm)
        e = exhaustive_decode(scores, hmm)
        ok &= v.state_path == e.state_path
        ok &= abs(v.log_score - e.log_score) <= 1e-9
    elapsed = time.perf_counter() - start
    ok &= elapsed < 30.0
    _report("criterion-06 decoder oracle", ok, f"200 instances in {elapsed:.1f}s")


def test_c07_argmax_and_rank_invariance():
    rng = np.random.default_rng(707)
    ok = True
    for _ in range(100):
        m = make_random_posteriors(rng, int(rng.integers(1, 15)), int(rng.integers(2, 8)))
        base_argmax = np.argmax(m.values, axis=1)
        base_rank = np.argsort(m.values, axis=1, kind="stable")
        for order in EVEN_ORDERS:
            t = transform_matrix(m, order, renormalize=True)
            ok &= bool(np.array_equal(base_argmax, np.argmax(t.values, axis=1)))
            ok &= bool(np.array_equal(base_rank, np.argsort(t.values, axis=1, kind="stable")))
    # uniform transitions: decoded paths identical across orders 2/4/6
    for _ in range(25):
        classes = int(rng.integers(2, 6))
        hmm = make_uniform_hmm(classes)
        m = make_random_posteriors(rng, int(rng.integers(1, 12)), classes)
        paths = {
            order: viterbi_decode(to_log_scores(transform_matrix(m, order)), hmm).state_path
            for order in (2, 4, 6)
        }
        ok &= paths[2] == paths[4] == paths[6]
    _report("criterion-07 argmax/rank invariance", ok)


def test_c08_renormalization_neutrality():
    rng = np.random.default_rng(808)
    ok = True
    for _ in range(100):
        num_states = int(rng.integers(2, 6))
        hmm = make_random_hmm(rng, num_states)
        m = make_random_posteriors(rng, int(rng.integers(1, 12)), num_states)
        for order in (2, 4, 6):
            with_renorm = viterbi_decode(
                to_log_scores(transform_matrix(m, order, renormalize=True)), hmm
            ).state_path
            without = viterbi_decode(
                to_log_scores(transform_matrix(m, order, renormalize=False)), hmm
            ).state_path
            ok &= with_renorm == without
    _report("criterion-08 renormalization neutrality", ok)


def test_c09_wer_oracle():
    rng = np.random.default_rng(909)
    vocab = [f"tok{i}" for i in range(10)]
    ok = True
    pairs = []
    for _ in range(500):
        ref = list(rng.choice(vocab, size=rng.integers(1, 51)))
        hyp = list(rng.choice(vocab, size=rng.integers(0, 51)))
        pairs.append((ref, hyp))
        ok &= align_and_score(ref, hyp).num_errors == reference_levenshtein(ref, hyp)
    pooled = corpus_wer(pairs)
    per = [align_and_score(r, h) for r, h in pairs]
    ok &= pooled.substitutions == sum(p.substitutions for p in per)
    ok &= pooled.deletions == sum(p.deletions for p in per)
    ok &= pooled.insertions == sum(p.insertions for p in per)
    ok &= pooled.ref_length == sum(p.ref_length for p in per)
    _report("criterion-09 WER oracle", ok, "500 pairs, pooled counts additive")


def _write_experiment(run_dir, concentration, confusion_rate):
    run_dir.mkdir()
    (run_dir / "hmm.json").write_text(json.dumps({
        "num_states": 3,
        "initial": [0.6, 0.3, 0.1],
        "transitions": [[0.8, 0.15, 0.05], [0.1, 0.8, 0.1], [0.05, 0.25, 0.7]],
        "labels": ["red", "green", "blue"],
        "state_to_class": [0, 1, 2],
    }))
    config = {
        "hmm": "hmm.json",
        "orders": [2, 4, 6],
        "renormalize": True,
        "corpus": {
            "dir": "corpus",
            "utterances": 12,
            "frames": [8, 16],
            "noise": {
                "concentration": concentration,
                "confusion_rate": confusion_rate,
                "seed": 424242,
            },
        },
        "report": "report.json",
    }
    path = run_dir / "exp.json"
    path.write_text(json.dumps(config))
    return path


def test_c10_end_to_end_determinism(tmp_path):
    cfg1 = _write_experiment(tmp_path / "run1", 5.0, 0.3)
    cfg2 = _write_experiment(tmp_path / "run2", 5.0, 0.3)
    assert cli.main(["experiment", str(cfg1)]) == 0
    assert cli.main(["experiment", str(cfg2)]) == 0
    report1 = (tmp_path / "run1" / "report.json").read_bytes()
    report2 = (tmp_path / "run2" / "report.json").read_bytes()
    ok = report1 == report2
    # corpora themselves must match byte for byte as well
    for name in sorted(p.name for p in (tmp_path / "run1" / "corpus").iterdir()):
        ok &= (tmp_path / "run1" / "corpus" / name).read_bytes() == (
            tmp_path / "run2" / "corpus" / name
        ).read_bytes()

    noiseless = _write_experiment(tmp_path / "run0", math.inf, 0.0)
    assert cli.main(["experiment", str(noiseless)]) == 0
    doc = json.loads((tmp_path / "run0" / "report.json").read_text())
    wers = [entry["wer"] for entry in doc["orders"]]
    reductions = [entry["relative_reduction_vs_order2"] for entry in doc["orders"]]
    ok &= wers == [0.0, 0.0, 0.0]
    ok &= reductions == [None, 0.0, 0.0]
    _report(
        "criterion-10 end-to-end determinism",
        ok,
        "pinned-seed reports byte-identical; noiseless WER 0 at orders 2/4/6",
    )
