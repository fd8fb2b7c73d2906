"""The benchmark's traced view of the CLI.

perfbench/launch.py wraps modhate functions by name, so a refactor that
moves or renames a hooked function silently zeroes a per-layer metric.
These tests run the launcher with --trace, as the benchmark does, and check
that each hooked layer still records its spans and counts.
"""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from modhate.audio_features import frame_signal
from modhate.cli import main
from modhate.ingest import read_wav

REPO = Path(__file__).resolve().parents[1]
LAUNCHER = REPO / "perfbench" / "launch.py"


def _traced(tmp, name, args):
    """Run one CLI command through the launcher; return {span name: [(sample, count)]}."""
    trace = tmp / f"{name}.trace.json"
    env = {**os.environ, "PYTHONPATH": str(REPO / "src"), "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, str(LAUNCHER), "--trace", str(trace), "--", *args],
                          cwd=REPO, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(trace.read_text(encoding="utf-8"))
    assert doc["exit_code"] == 0
    spans = {}
    for _, span, _, _, _, _, sample, count in doc["spans"]:
        spans.setdefault(span, []).append((sample, count))
    return spans


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("trace")
    corpus, work = tmp / "corpus", tmp / "work"
    assert main(["gen-demo", "--out", str(corpus), "--count", "12"]) == 0
    manifest = str(corpus / "manifest.csv")
    return corpus, work, {
        "extract": _traced(tmp, "extract", ["extract", "--manifest", manifest, "--out", str(work)]),
        "train": _traced(tmp, "train", ["train", "--out", str(work), "--manifest", manifest,
                                        "--algo", "logreg", "--iterations", "20"]),
        "evaluate": _traced(tmp, "evaluate", ["evaluate", "--out", str(work), "--manifest", manifest,
                                              "--algo", "logreg"]),
        "predict": _traced(tmp, "predict", [
            "predict", "--models", str(work / "models"), "--algo", "logreg",
            "--audio", str(corpus / "audio" / "s0000.wav"), "--frames", str(corpus / "frames" / "s0000"),
            "--text", str(corpus / "text" / "s0000.txt")]),
    }


def _sizes(paths):
    return sorted(p.stat().st_size for p in paths)


def _counts(spans, name):
    return sorted(count for _, count in spans[name])


def _tables(work):
    return [work / "features" / f"{m}.csv" for m in ("audio", "image", "text")]


def _vocab_size(work):
    # vocabulary.csv: an n_docs comment, a header, then one line per token
    return len((work / "features" / "vocabulary.csv").read_text(encoding="utf-8").splitlines()) - 2


def test_extract_spans(traced):
    corpus, work, traces = traced
    spans = traces["extract"]
    frames = [(p.stem, frame_signal(read_wav(p)).shape[0]) for p in (corpus / "audio").glob("*.wav")]
    assert sorted(spans["audio_features.extract_audio_features"]) == sorted(frames)
    pgms = Counter(p.parent.name for p in (corpus / "frames").glob("*/*.pgm"))
    assert Counter(sample for sample, _ in spans["ingest.read_image_frame"]) == pgms
    assert _counts(spans, "tables.write_feature_csv") == _sizes(_tables(work))
    assert _counts(spans, "text_features.build_vocabulary") == [_vocab_size(work)]
    assert _counts(spans, "text_features.vectorize") == [_vocab_size(work)] * 12


def test_train_and_evaluate_spans(traced):
    _, work, traces = traced
    tables = _tables(work)
    models = list((work / "models").glob("logreg_*.json"))
    assert len(models) == 3
    for cmd in ("train", "evaluate"):
        assert _counts(traces[cmd], "tables.read_feature_csv") == _sizes(tables)
    assert _counts(traces["train"], "model_io.save_model") == _sizes(models)
    assert len(traces["train"]["classifiers.train_logreg"]) == 3
    assert _counts(traces["evaluate"], "model_io.load_model") == _sizes(models)


def test_predict_spans(traced):
    corpus, work, traces = traced
    spans = traces["predict"]
    n_frames = frame_signal(read_wav(corpus / "audio" / "s0000.wav")).shape[0]
    assert spans["audio_features.extract_audio_features"] == [("s0000", n_frames)]
    assert _counts(spans, "model_io.load_model") == _sizes((work / "models").glob("logreg_*.json"))
    assert _counts(spans, "text_features.vectorize") == [_vocab_size(work)]
