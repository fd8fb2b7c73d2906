"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they pass.
"""

import itertools
import math
import time

import numpy as np
import pytest

from modhate import audio_features as af
from modhate import feature_selection as fs
from modhate import fusion_eval as fe
from modhate import model_io, text_features
from modhate.classifiers import ALGORITHM_TAGS, Hyperparams, predict, train
from modhate.cli import main
from modhate.fusion_eval import parse_report_csv
from modhate.ingest import AudioClip
from tests.test_audio_features import naive_dft_mags
from tests.test_classifiers import blobs, knn_oracle

SR = 22050
WL = 512


def test_voting_rule_truth_table():
    start = time.perf_counter()
    for a, b, c in itertools.product((0, 1), repeat=3):
        got = fe.hard_vote(fe.ModalityPredictions(
            image=np.array([a]), audio=np.array([b]), text=np.array([c])))[0]
        assert got == (1 if a + b + c >= 2 else 0)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"PASS: hard_vote matches the >=2-of-3 truth table on all 8 combinations ({elapsed:.3f}s)")


def test_dsp_oracles():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)

    # magnitude spectrum vs naive O(n^2) DFT on 50 random frames
    for _ in range(50):
        frame = rng.uniform(-1, 1, WL)
        impl = af.magnitude_spectrum(frame, SR).mags
        oracle = naive_dft_mags(frame)
        rel = np.abs(impl - oracle) / (np.abs(oracle) + 1e-12 * oracle.max())
        assert rel.max() < 1e-6

    # energy and ZCR against direct formula evaluation
    for _ in range(20):
        frame = rng.uniform(-1, 1, WL)
        assert abs(af.energy(frame) - sum(v * v for v in frame) / WL) < 1e-12
        signs = [1 if v >= 0 else -1 for v in frame]
        flips = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
        assert abs(af.zero_crossing_rate(frame) - flips / WL) < 1e-12

    # 1 kHz sine: mean centroid within one bin of 1000 Hz
    t = np.arange(SR) / SR
    vec = af.extract_audio_features(AudioClip(samples=np.sin(2 * np.pi * 1000.0 * t)))
    centroid = vec[af.AUDIO_FEATURE_NAMES.index("centroid_hz")]
    assert abs(centroid - 1000.0) <= 43.07

    # rolloff monotonicity on 100 random spectra
    for _ in range(100):
        spec = af.magnitude_spectrum(rng.normal(size=WL), SR)
        assert af.spectral_rolloff(spec, 0.5) <= af.spectral_rolloff(spec, 0.9)

    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"PASS: DSP oracles (naive DFT, energy/ZCR formulas, 1 kHz centroid "
          f"{centroid:.1f} Hz, rolloff monotonicity) ({elapsed:.2f}s)")


def test_chroma_octave_invariance():
    start = time.perf_counter()
    t = np.arange(SR) / SR
    argmaxes = []
    for f0 in (220.0, 440.0, 880.0):
        vec = af.extract_audio_features(AudioClip(samples=np.sin(2 * np.pi * f0 * t)))
        chroma = vec[-12:]
        argmaxes.append(int(np.argmax(chroma)))
    assert argmaxes == [9, 9, 9]   # pitch class A with C=0
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"PASS: chroma argmax is pitch class A for 220/440/880 Hz tones ({elapsed:.2f}s)")


def test_tfidf_hand_example():
    vocab = text_features.build_vocabulary([["a", "b"], ["a", "c"]])
    vec = text_features.tfidf_vectorize(["a", "c"], vocab)
    assert abs(vec[vocab.index["a"]] - 0.0) < 1e-12
    assert abs(vec[vocab.index["c"]] - math.log(2.0) / 2.0) < 1e-12
    print("PASS: TF-IDF two-document example reproduces 0 and ln(2)/2 exactly")


def test_classifier_oracles():
    start = time.perf_counter()
    rng = np.random.default_rng(99)

    # kNN vs exhaustive scan, 100 random 5-D points
    X = rng.normal(size=(100, 5))
    y = rng.integers(0, 2, size=100).astype(np.int64)
    Q = rng.normal(size=(50, 5))
    for k in (1, 3, 5):
        model = train("knn", X, y, Hyperparams(algorithm="knn", k_neighbors=k))
        assert np.array_equal(predict(model, Q), knn_oracle(X, y, Q, k))

    # Gaussian NB log-posteriors within 1e-9 of closed form on a 4-point set
    Xnb = np.array([[-1.0, 2.0], [-1.2, 1.0], [1.0, 0.0], [1.4, 1.0]])
    ynb = np.array([0, 0, 1, 1])
    nb = train("nb", Xnb, ynb)
    smoothing = 1e-9 * Xnb.var(axis=0).max()
    for q in rng.normal(size=(5, 2)):
        expected = []
        for c in (0, 1):
            rows = Xnb[ynb == c]
            mu, var = rows.mean(axis=0), rows.var(axis=0) + smoothing
            expected.append(np.log(0.5) + np.sum(
                -0.5 * np.log(2 * np.pi * var) - (q - mu) ** 2 / (2 * var)))
        got = nb.payload.log_posteriors(q.reshape(1, -1))[0]
        assert np.allclose(got, expected, atol=1e-9)

    # AdaBoost round-1 alpha with a forced 0.25 weighted error
    Xab = np.array([[0.0], [1.0], [2.0], [3.0]])
    yab = np.array([0, 0, 1, 0])
    ab = train("adaboost", Xab, yab, Hyperparams(algorithm="adaboost", ensemble_size=1))
    assert abs(ab.payload.alphas[0] - 0.5 * np.log(3.0)) < 1e-12

    # all seven classifiers >= 95% test accuracy on seeded separable blobs
    Xb, yb = blobs(200, 5, seed=7)
    Xtr, ytr, Xte, yte = Xb[:150], yb[:150], Xb[150:], yb[150:]
    accs = {}
    for algo in ALGORITHM_TAGS:
        model = train(algo, Xtr, ytr)
        accs[algo] = float((predict(model, Xte) == yte).mean())
        assert accs[algo] >= 0.95, (algo, accs[algo])

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"PASS: classifier oracles (kNN scan, NB closed form, alpha=ln(3)/2, "
          f"7x blob accuracy {min(accs.values()):.2f}+) ({elapsed:.2f}s)")


def test_feature_selection_criteria():
    start = time.perf_counter()
    rng = np.random.default_rng(5)
    X = rng.normal(size=(60, 10))
    y = rng.integers(0, 2, size=60).astype(np.int64)
    y[0] = 1 - y[0] if len(np.unique(y)) < 2 else y[0]
    Z = fs.standardize_apply(fs.standardize_fit(X), X)
    for k in range(1, 10):
        assert len(fs.rfe_select(Z, y, k).kept) == k
        assert len(fs.mrmr_select(Z, y, k).kept) == k

    for seed in (1, 2, 3):
        rng = np.random.default_rng(seed)
        Xp = rng.normal(size=(120, 5))
        yp = (Xp[:, 0] > 0).astype(np.int64)
        Zp = fs.standardize_apply(fs.standardize_fit(Xp), Xp)
        assert fs.rfe_select(Zp, yp, 1).kept == (0,)
        assert fs.mrmr_select(Zp, yp, 1).kept == (0,)

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"PASS: selection returns exactly k for k=1..9 and recovers the planted "
          f"feature at seeds 1-3 ({elapsed:.2f}s)")


def _report_accuracies(work):
    report = parse_report_csv((work / "reports" / "report_logreg.csv").read_text())
    return {row.source: row.accuracy for row in report.rows}


def test_end_to_end_demo_thresholds(demo_pipeline):
    from modhate.ingest import parse_manifest
    records = parse_manifest(demo_pipeline["corpus"] / "manifest.csv")
    assert len(records) == 300
    assert sum(r.label for r in records) == 180   # 60/40 class ratio

    acc = _report_accuracies(demo_pipeline["work"])
    singles = {s: acc[s] for s in ("image", "audio", "text")}
    fused = acc["multi-modal"]
    for source, value in singles.items():
        assert value >= 0.80, (source, value)
    assert fused >= 0.90, fused
    assert fused >= max(singles.values()) - 0.02
    assert demo_pipeline["pipeline_seconds"] < 120.0
    print(f"PASS: end-to-end demo at seed 42: singles {singles}, fused {fused:.4f}, "
          f"pipeline {demo_pipeline['pipeline_seconds']:.1f}s")


def test_end_to_end_determinism(demo_pipeline, tmp_path):
    corpus = demo_pipeline["corpus"]
    work1 = demo_pipeline["work"]
    work2 = tmp_path / "rerun"
    assert main(["extract", "--manifest", str(corpus / "manifest.csv"),
                 "--out", str(work2), "--seed", "42"]) == 0
    assert main(["train", "--out", str(work2), "--manifest", str(corpus / "manifest.csv"),
                 "--algo", "logreg"]) == 0
    assert main(["evaluate", "--out", str(work2), "--manifest", str(corpus / "manifest.csv"),
                 "--algo", "logreg"]) == 0
    for rel in ("features/audio.csv", "features/image.csv", "features/text.csv",
                "features/vocabulary.csv", "features/splits.csv", "features/frontend.json",
                "models/logreg_image.json", "models/logreg_audio.json",
                "models/logreg_text.json", "reports/report_logreg.csv",
                "reports/report_logreg.txt"):
        assert (work1 / rel).read_bytes() == (work2 / rel).read_bytes(), rel
    print("PASS: two identical runs produce byte-identical feature CSVs, models, reports")


def test_persistence_roundtrip_all_algorithms(tmp_path):
    X, y = blobs(60, 4, seed=11)
    Q = np.random.default_rng(12).normal(size=(40, 4))
    for algo in ALGORITHM_TAGS:
        hp = Hyperparams(algorithm=algo, ensemble_size=9) \
            if algo in ("rforest", "adaboost") else Hyperparams(algorithm=algo)
        model = train(algo, X, y, hp)
        path = tmp_path / f"{algo}.json"
        model_io.save_model(model, path)
        loaded = model_io.load_model(path)
        assert np.array_equal(predict(loaded, Q), predict(model, Q)), algo
        assert np.array_equal(predict(loaded, X), predict(model, X)), algo
    print("PASS: serialize -> deserialize -> predict equality for all seven model types")
