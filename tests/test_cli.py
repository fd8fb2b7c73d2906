import json
import os
import shutil
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from modhate.classifiers import predict as model_predict
from modhate.cli import main
from modhate.fusion_eval import ModalityPredictions, hard_vote
from modhate.model_io import load_model
from modhate.tables import read_feature_csv, read_split_csv


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Small corpus, extracted and nb-trained once for the read-only tests."""
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus"
    work = root / "work"
    assert main(["gen-demo", "--out", str(corpus), "--seed", "5", "--count", "24"]) == 0
    assert main(["extract", "--manifest", str(corpus / "manifest.csv"),
                 "--out", str(work), "--seed", "5"]) == 0
    assert main(["train", "--out", str(work), "--manifest", str(corpus / "manifest.csv"),
                 "--algo", "nb"]) == 0
    return root


def test_extract_outputs(workspace):
    work = workspace / "work"
    for name in ("audio.csv", "image.csv", "text.csv", "vocabulary.csv", "splits.csv",
                 "frontend.json"):
        assert (work / "features" / name).exists()
    ids, names, X = read_feature_csv(work / "features" / "audio.csv")
    assert len(ids) == 24 and len(names) == 33 and X.shape == (24, 33)
    splits = read_split_csv(work / "features" / "splits.csv")
    assert sum(1 for v in splits.values() if v == "train") == 19   # round(0.8 * 24)
    assert (work / "run_config.extract.json").exists()


def test_train_and_evaluate(workspace):
    corpus, work = workspace / "corpus", workspace / "work"
    for mod in ("image", "audio", "text"):
        assert (work / "models" / f"nb_{mod}.json").exists()
    assert main(["evaluate", "--out", str(work), "--manifest", str(corpus / "manifest.csv"),
                 "--algo", "nb"]) == 0
    report = (work / "reports" / "report_nb.csv").read_text()
    assert report.splitlines()[0] == "algorithm,source,precision,recall,f1,accuracy"
    assert len(report.strip().splitlines()) == 5
    assert "multi-modal" in report


def test_report_merges(workspace):
    work = workspace / "work"
    assert main(["report", "--out", str(work)]) == 0
    assert (work / "reports" / "summary.csv").exists()
    assert "nb" in (work / "reports" / "summary.txt").read_text()


def test_predict_single_sample(workspace, capsys):
    corpus, work = workspace / "corpus", workspace / "work"
    rc = main(["predict", "--models", str(work / "models"), "--algo", "nb",
               "--audio", str(corpus / "audio" / "s0001.wav"),
               "--frames", str(corpus / "frames" / "s0001"),
               "--text", str(corpus / "text" / "s0001.txt")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "fused:" in out and "votes" in out
    for mod in ("image:", "audio:", "text:"):
        assert mod in out


def test_unreadable_wav_skips_with_warning(workspace, tmp_path):
    corpus2 = tmp_path / "corpus2"
    shutil.copytree(workspace / "corpus", corpus2)
    (corpus2 / "audio" / "s0002.wav").write_bytes(b"garbage not audio")
    work2 = tmp_path / "work2"
    assert main(["extract", "--manifest", str(corpus2 / "manifest.csv"),
                 "--out", str(work2), "--seed", "5"]) == 0
    ids, _, _ = read_feature_csv(work2 / "features" / "audio.csv")
    assert len(ids) == 23 and "s0002" not in ids
    ids_img, _, _ = read_feature_csv(work2 / "features" / "image.csv")
    assert len(ids_img) == 24
    warnings = (work2 / "warnings.txt").read_text().strip().splitlines()
    assert len(warnings) == 1 and warnings[0].startswith("s0002,audio,")


def test_zero_rate_wav_skips_with_warning(workspace, tmp_path):
    corpus2 = tmp_path / "corpus_r0"
    shutil.copytree(workspace / "corpus", corpus2)
    wav = corpus2 / "audio" / "s0004.wav"
    raw = bytearray(wav.read_bytes())
    raw[24:28] = struct.pack("<I", 0)            # fmt sample-rate field
    wav.write_bytes(bytes(raw))
    work2 = tmp_path / "work_r0"
    assert main(["extract", "--manifest", str(corpus2 / "manifest.csv"),
                 "--out", str(work2), "--seed", "5"]) == 0
    warnings = (work2 / "warnings.txt").read_text().strip().splitlines()
    assert len(warnings) == 1 and warnings[0].startswith("s0004,audio,")


def test_non_utf8_transcript_skips_with_warning(workspace, tmp_path):
    corpus2 = tmp_path / "corpus_enc"
    shutil.copytree(workspace / "corpus", corpus2)
    (corpus2 / "text" / "s0003.txt").write_bytes("caf\u00e9 hate\n".encode("latin-1"))
    work2 = tmp_path / "work_enc"
    assert main(["extract", "--manifest", str(corpus2 / "manifest.csv"),
                 "--out", str(work2), "--seed", "5"]) == 0
    ids, _, _ = read_feature_csv(work2 / "features" / "text.csv")
    assert len(ids) == 23 and "s0003" not in ids
    warnings = (work2 / "warnings.txt").read_text().strip().splitlines()
    assert len(warnings) == 1 and warnings[0].startswith("s0003,text,")


def _predict(corpus, models, sid, text_path=None, algo="nb"):
    return main(["predict", "--models", str(models), "--algo", algo,
                 "--audio", str(corpus / "audio" / f"{sid}.wav"),
                 "--frames", str(corpus / "frames" / sid),
                 "--text", str(text_path or corpus / "text" / f"{sid}.txt")])


def _predict_with_text(workspace, text_path):
    return _predict(workspace / "corpus", workspace / "work" / "models", "s0001", text_path)


def test_predict_missing_transcript_is_data_error(workspace, tmp_path):
    assert _predict_with_text(workspace, tmp_path / "absent.txt") == 2


def test_predict_non_utf8_transcript_is_data_error(workspace, tmp_path):
    text = tmp_path / "latin1.txt"
    text.write_bytes("caf\u00e9 hate\n".encode("latin-1"))
    assert _predict_with_text(workspace, text) == 2


def test_structural_manifest_error_aborts(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("id,audio_path,image_dir,text_path,label,split\nx,a.wav,d,t.txt,maybe,auto\n")
    assert main(["extract", "--manifest", str(bad), "--out", str(tmp_path / "w")]) == 2


def test_usage_error_exit_code():
    assert main(["extract", "--manifest"]) == 1
    assert main(["train", "--out", "x", "--manifest", "y", "--algo", "cnn"]) == 1


def test_missing_model_is_data_error(workspace, tmp_path):
    corpus, work = workspace / "corpus", workspace / "work"
    assert main(["evaluate", "--out", str(work), "--manifest", str(corpus / "manifest.csv"),
                 "--algo", "svm"]) == 2


def test_mixed_algorithms_guard(workspace, tmp_path):
    corpus = workspace / "corpus"
    work = tmp_path / "workmix"
    shutil.copytree(workspace / "work", work)
    assert main(["train", "--out", str(work), "--manifest", str(corpus / "manifest.csv"),
                 "--algo", "dtree", "--modality", "audio"]) == 0
    args = ["evaluate", "--out", str(work), "--manifest", str(corpus / "manifest.csv"),
            "--algo", "nb", "--audio-model", str(work / "models" / "dtree_audio.json")]
    assert main(args) == 1             # refused without --mixed
    assert main(args + ["--mixed"]) == 0


def test_hyperparam_override_recorded(workspace, tmp_path):
    corpus = workspace / "corpus"
    work = tmp_path / "workhp"
    shutil.copytree(workspace / "work", work)
    assert main(["train", "--out", str(work), "--manifest", str(corpus / "manifest.csv"),
                 "--algo", "knn", "--modality", "audio", "--k-neighbors", "3"]) == 0
    doc = json.loads((work / "models" / "knn_audio.json").read_text())
    assert doc["hyperparams"]["k_neighbors"] == 3
    run_cfg = json.loads((work / "run_config.train.json").read_text())
    assert run_cfg["params"]["hyperparams"]["k_neighbors"] == 3


def test_vocabulary_ignores_test_split_documents(workspace, tmp_path):
    # leakage guard: editing a test-split transcript must not change the vocabulary
    corpus2 = tmp_path / "corpus3"
    shutil.copytree(workspace / "corpus", corpus2)
    splits = read_split_csv(workspace / "work" / "features" / "splits.csv")
    test_id = sorted(sid for sid, s in splits.items() if s == "test")[0]
    (corpus2 / "text" / f"{test_id}.txt").write_text("zzzunseen wordzz only here\n")
    work3 = tmp_path / "work3"
    assert main(["extract", "--manifest", str(corpus2 / "manifest.csv"),
                 "--out", str(work3), "--seed", "5"]) == 0
    v_old = (workspace / "work" / "features" / "vocabulary.csv").read_bytes()
    v_new = (work3 / "features" / "vocabulary.csv").read_bytes()
    assert v_old == v_new


def test_empty_test_split_is_data_error(workspace, tmp_path):
    corpus = workspace / "corpus"
    manifest = tmp_path / "all_train.csv"
    lines = (corpus / "manifest.csv").read_text().splitlines()
    fixed = [lines[0]] + [ln.rsplit(",", 1)[0] + ",train" for ln in lines[1:]]
    manifest.write_text("\n".join(
        ln.replace(",audio/", f",{corpus}/audio/")
          .replace(",frames/", f",{corpus}/frames/")
          .replace(",text/", f",{corpus}/text/")
        for ln in fixed) + "\n")
    work = tmp_path / "worktrain"
    assert main(["extract", "--manifest", str(manifest), "--out", str(work), "--seed", "5"]) == 0
    shutil.copytree(workspace / "work" / "models", work / "models")
    assert main(["evaluate", "--out", str(work), "--manifest", str(manifest),
                 "--algo", "nb"]) == 2


def test_selection_report(workspace, tmp_path):
    corpus = workspace / "corpus"
    work = tmp_path / "worksel"
    shutil.copytree(workspace / "work", work)
    assert main(["select", "--out", str(work), "--manifest", str(corpus / "manifest.csv"),
                 "--modality", "audio", "--select", "mrmr", "--k", "5"]) == 0
    lines = (work / "reports" / "selection_audio_mrmr.csv").read_text().splitlines()
    assert lines[0] == "# modality=audio method=mrmr k=5"
    assert sum(1 for ln in lines if ln.endswith(",selected")) == 5
    assert sum(1 for ln in lines if ln.endswith(",dropped")) == 28


def test_rfe_selection_report_layout(workspace, tmp_path):
    # ranked eliminations first, then the kept columns ascending and unranked
    corpus = workspace / "corpus"
    work = tmp_path / "workrfe"
    shutil.copytree(workspace / "work", work)
    assert main(["select", "--out", str(work), "--manifest", str(corpus / "manifest.csv"),
                 "--modality", "audio", "--select", "rfe", "--k", "30"]) == 0
    _, names, _ = read_feature_csv(work / "features" / "audio.csv")
    lines = (work / "reports" / "selection_audio_rfe.csv").read_text().splitlines()
    assert lines[:2] == ["# modality=audio method=rfe k=30", "rank,feature_index,feature_name,action"]
    rows = [ln.split(",") for ln in lines[2:]]
    assert len(rows) == 33
    assert [r[0] for r in rows] == ["1", "2", "3"] + [""] * 30
    assert [r[3] for r in rows] == ["eliminated"] * 3 + ["kept"] * 30
    assert all(names[int(r[1])] == r[2] for r in rows)
    eliminated = [int(r[1]) for r in rows[:3]]
    kept = [int(r[1]) for r in rows[3:]]
    assert kept == sorted(set(range(33)) - set(eliminated))


@pytest.fixture(scope="module")
def count_workspace(workspace):
    """extract --text-mode count with a relative stop-word file that is then
    deleted; train runs from another directory. Returns (work, train exit code)."""
    root = workspace / "counted"
    (root / "elsewhere").mkdir(parents=True)
    corpus = workspace / "corpus"
    cwd = os.getcwd()
    try:
        os.chdir(root)
        (root / "stop.txt").write_text("video\nday\npeople\nworld\nthe\n", encoding="utf-8")
        assert main(["extract", "--manifest", str(corpus / "manifest.csv"), "--out", "work",
                     "--seed", "5", "--text-mode", "count", "--stopwords", "stop.txt"]) == 0
        (root / "stop.txt").unlink()
        os.chdir(root / "elsewhere")
        rc = main(["train", "--out", str(root / "work"), "--manifest", str(corpus / "manifest.csv"),
                   "--algo", "nb"])
    finally:
        os.chdir(cwd)
    return root / "work", rc


def test_train_copies_recorded_frontend(count_workspace):
    work, rc = count_workspace
    assert rc == 0
    fronts = json.loads((work / "features" / "frontend.json").read_text(encoding="utf-8"))
    assert set(fronts) == {"audio", "image", "text"}
    assert fronts["text"]["mode"] == "count"
    assert fronts["text"]["stopwords"] == ["day", "people", "the", "video", "world"]
    for mod in ("audio", "image", "text"):
        doc = json.loads((work / "models" / f"nb_{mod}.json").read_text(encoding="utf-8"))
        assert doc["frontend"] == fronts[mod]


def test_predict_matches_extracted_rows(count_workspace, workspace, capsys):
    # predict featurizes raw inputs; its votes must equal the model's votes on
    # the rows extract wrote for the same samples
    work, _ = count_workspace
    corpus = workspace / "corpus"
    splits = read_split_csv(work / "features" / "splits.csv")
    rows, votes = {}, {}
    for mod in ("image", "audio", "text"):
        ids, _, X = read_feature_csv(work / "features" / f"{mod}.csv")
        rows[mod] = dict(zip(ids, X))
    test_ids = sorted(sid for sid, s in splits.items() if s == "test")
    assert test_ids
    for mod in ("image", "audio", "text"):
        model = load_model(work / "models" / f"nb_{mod}.json")
        votes[mod] = model_predict(model, np.array([rows[mod][sid] for sid in test_ids]))
    fused = hard_vote(ModalityPredictions(**votes))
    capsys.readouterr()
    for i, sid in enumerate(test_ids):
        assert _predict(corpus, work / "models", sid) == 0
        want = [f"{mod}: {'hate' if votes[mod][i] else 'nonhate'}" for mod in ("image", "audio", "text")]
        n = sum(int(votes[mod][i]) for mod in votes)
        want.append(f"fused: {'hate' if fused[i] else 'nonhate'} (votes {n}/3)")
        assert capsys.readouterr().out.splitlines() == want, sid


def _edit_model(workspace, tmp_path, name, edit):
    models = tmp_path / "models"
    shutil.copytree(workspace / "work" / "models", models)
    path = models / name
    path.write_bytes(edit(path.read_bytes()))
    return models


def _edit_frontend(edit):
    def apply(raw):
        doc = json.loads(raw)
        edit(doc["frontend"])
        return json.dumps(doc).encode()
    return apply


def test_predict_text_model_without_vocabulary_is_data_error(workspace, tmp_path):
    models = _edit_model(workspace, tmp_path, "nb_text.json",
                         _edit_frontend(lambda fe: fe.pop("vocabulary")))
    assert _predict(workspace / "corpus", models, "s0001") == 2


def test_predict_audio_model_with_image_frontend_is_data_error(workspace, tmp_path):
    models = _edit_model(workspace, tmp_path, "nb_audio.json",
                         _edit_frontend(lambda fe: fe.update(kind="image")))
    assert _predict(workspace / "corpus", models, "s0001") == 2


def test_predict_non_utf8_model_is_data_error(workspace, tmp_path):
    models = _edit_model(workspace, tmp_path, "nb_audio.json", lambda raw: raw + b"\xff")
    assert _predict(workspace / "corpus", models, "s0001") == 2


def test_predict_model_missing_payload_key_is_data_error(workspace, tmp_path):
    def drop_means(raw):
        doc = json.loads(raw)
        del doc["payload"]["means"]
        return json.dumps(doc).encode()
    models = _edit_model(workspace, tmp_path, "nb_audio.json", drop_means)
    assert _predict(workspace / "corpus", models, "s0001") == 2


def test_train_without_frontend_file_is_data_error(workspace, tmp_path):
    work = tmp_path / "nofront"
    shutil.copytree(workspace / "work", work)
    (work / "features" / "frontend.json").unlink()
    assert main(["train", "--out", str(work), "--manifest", str(workspace / "corpus" / "manifest.csv"),
                 "--algo", "nb", "--modality", "audio"]) == 2


def test_non_utf8_manifest_aborts(workspace, tmp_path):
    corpus = workspace / "corpus"
    lines = (corpus / "manifest.csv").read_text(encoding="utf-8").splitlines()
    lines[1] = lines[1].replace(",audio/", f",{corpus}/audio/caf\u00e9")
    bad = tmp_path / "latin1.csv"
    bad.write_bytes(("\n".join(lines) + "\n").encode("latin-1"))
    assert main(["extract", "--manifest", str(bad), "--out", str(tmp_path / "w")]) == 2


def test_predict_frame_length_not_multiple_of_subframes_is_data_error(workspace, tmp_path):
    models = _edit_model(workspace, tmp_path, "nb_audio.json",
                         _edit_frontend(lambda fe: fe.update(frame_length=500)))
    assert _predict(workspace / "corpus", models, "s0001") == 2


def test_predict_knn_model_with_k_above_training_rows_is_data_error(workspace, tmp_path):
    work = tmp_path / "workknn"
    shutil.copytree(workspace / "work", work)
    assert main(["train", "--out", str(work), "--manifest", str(workspace / "corpus" / "manifest.csv"),
                 "--algo", "knn"]) == 0

    def set_k(raw):
        doc = json.loads(raw)
        doc["payload"]["k"] = 999
        return json.dumps(doc).encode()
    path = work / "models" / "knn_audio.json"
    path.write_bytes(set_k(path.read_bytes()))
    assert _predict(workspace / "corpus", work / "models", "s0001", algo="knn") == 2


def test_extract_non_utf8_stopwords_is_data_error(workspace, tmp_path):
    stop = tmp_path / "stop.txt"
    stop.write_bytes("caf\u00e9\nthe\n".encode("latin-1"))
    assert main(["extract", "--manifest", str(workspace / "corpus" / "manifest.csv"),
                 "--out", str(tmp_path / "w"), "--stopwords", str(stop)]) == 2


@pytest.mark.parametrize("command", [
    ["evaluate", "--algo", "nb"],
    ["train", "--algo", "nb", "--modality", "audio"],
    ["select", "--modality", "audio", "--select", "mrmr", "--k", "3"],
], ids=lambda c: c[0])
def test_manifest_lacking_feature_ids_is_data_error(workspace, tmp_path, capsys, command):
    # the manifest drops one train-split and one test-split sample that the
    # features hold; the error names the one the command needs
    splits = read_split_csv(workspace / "work" / "features" / "splits.csv")
    dropped = {min(sid for sid, s in splits.items() if s == side) for side in ("train", "test")}
    lines = (workspace / "corpus" / "manifest.csv").read_text(encoding="utf-8").splitlines()
    manifest = tmp_path / "lacking.csv"
    manifest.write_text("\n".join(ln for ln in lines if ln.split(",")[0] not in dropped) + "\n",
                        encoding="utf-8")
    work = tmp_path / "work"
    shutil.copytree(workspace / "work", work)
    capsys.readouterr()
    assert main(command + ["--out", str(work), "--manifest", str(manifest)]) == 2
    err = capsys.readouterr().err
    assert "data error" in err and any(sid in err for sid in dropped)


# ---- each artifact a stage reads has one loader: a malformed one is exit 2 ----

def _edit_file(workspace, tmp_path, rel, edit):
    """A copy of the nb work directory (with report_nb.csv) whose file `rel` is edited."""
    work = tmp_path / "edited"
    shutil.copytree(workspace / "work", work)
    if rel.startswith("reports/"):
        assert main(["evaluate", "--out", str(work), "--manifest", str(workspace / "corpus" / "manifest.csv"),
                     "--algo", "nb"]) == 0
    path = work / rel
    path.write_bytes(edit(path.read_bytes()))
    return work


def _non_utf8(raw):
    return raw[:-2] + b"\xff\n"


def _edit_line(i, edit):
    """Edit the i-th line of a text file."""
    def apply(raw):
        lines = raw.decode("utf-8").split("\n")
        lines[i] = edit(lines[i])
        return "\n".join(lines).encode("utf-8")
    return apply


def _train_audio(workspace, work):
    return main(["train", "--out", str(work), "--manifest", str(workspace / "corpus" / "manifest.csv"),
                 "--algo", "nb", "--modality", "audio"])


@pytest.mark.parametrize("edit", [
    _edit_line(1, lambda ln: ln.split(",")[0]),
    _non_utf8,
    _edit_line(1, lambda ln: ln.split(",")[0] + ",validation"),
    lambda raw: raw + raw.split(b"\n")[1] + b"\n",
], ids=["one_field_row", "non_utf8_byte", "split_not_train_or_test", "repeated_id"])
def test_malformed_split_table_is_data_error(workspace, tmp_path, edit):
    assert _train_audio(workspace, _edit_file(workspace, tmp_path, "features/splits.csv", edit)) == 2


@pytest.mark.parametrize("edit", [
    _edit_line(1, lambda ln: ln.rsplit(",", 1)[0] + ",abc"),
    _edit_line(1, lambda ln: ln.rsplit(",", 1)[0]),
    _non_utf8,
    lambda raw: raw + raw.split(b"\n")[1] + b"\n",
    _edit_line(1, lambda ln: ln.rsplit(",", 1)[0] + ",1e999"),
], ids=["non_float_cell", "ragged_row", "non_utf8_byte", "duplicated_row", "non_finite_cell"])
def test_malformed_feature_table_is_data_error(workspace, tmp_path, edit):
    assert _train_audio(workspace, _edit_file(workspace, tmp_path, "features/audio.csv", edit)) == 2


@pytest.mark.parametrize("edit", [
    _edit_line(1, lambda ln: ln.rsplit(",", 1)[0]),
    _edit_line(1, lambda ln: ln.rsplit(",", 1)[0] + ",abc"),
    _non_utf8,
], ids=["short_row", "non_float_cell", "non_utf8_byte"])
def test_malformed_report_is_data_error(workspace, tmp_path, edit):
    work = _edit_file(workspace, tmp_path, "reports/report_nb.csv", edit)
    assert main(["report", "--out", str(work)]) == 2


@pytest.fixture(scope="module")
def audio_models(workspace):
    """A work directory that adds audio models of the algorithms the nb workspace lacks."""
    work = workspace / "audio_models"
    shutil.copytree(workspace / "work", work)
    for algo, extra in (("logreg", ["--iterations", "50"]), ("dtree", []),
                        ("adaboost", ["--ensemble-size", "3"]), ("knn", ["--k-neighbors", "3"])):
        assert main(["train", "--out", str(work), "--manifest", str(workspace / "corpus" / "manifest.csv"),
                     "--algo", algo, "--modality", "audio", *extra]) == 0
    return work


def _set(*path_and_value):
    """Set one JSON leaf of a model document."""
    *path, key, value = path_and_value

    def apply(raw):
        doc = json.loads(raw)
        node = doc
        for step in path:
            node = node[step]
        node[key] = value(node[key]) if callable(value) else value
        return json.dumps(doc).encode()
    return apply


@pytest.mark.parametrize("name,edit", [
    ("logreg_audio.json", _set("payload", "weights", lambda w: w[:3])),
    ("nb_audio.json", _set("payload", "log_priors", lambda p: p[:1])),
    ("dtree_audio.json", _set("payload", "root", "feature", 9999)),
    ("dtree_audio.json", _set("payload", "root", "feature", "a")),
    ("adaboost_audio.json", _set("payload", "stumps", 0, "feature", 9999)),
    ("adaboost_audio.json", _set("payload", "alphas", lambda a: a[:2])),
    ("nb_audio.json", _set("selected", [0, 9999])),
    ("nb_audio.json", _set("standardization", "mean", lambda m: m[:3])),
    ("knn_audio.json", _set("payload", "train_x", lambda x: [row[:3] for row in x])),
    ("nb_audio.json", _set("hyperparams", "l2", float("nan"))),
    ("nb_audio.json", _set("payload", "variances", 1, lambda v: [-1.0] * len(v))),
    ("logreg_audio.json", _set("payload", "weights", 0, float("nan"))),
    ("dtree_audio.json", _set("payload", "root", "threshold", float("nan"))),
    ("adaboost_audio.json", _set("payload", "alphas", 0, float("inf"))),
], ids=["logreg_weights_of_3", "nb_one_log_prior", "dtree_feature_9999", "dtree_feature_str",
        "adaboost_stump_feature_9999", "adaboost_fewer_alphas_than_stumps", "selected_9999",
        "standardization_of_3", "knn_train_x_width_3", "nan_hyperparameter",
        "nb_negative_variances", "logreg_nan_weight", "dtree_nan_threshold", "adaboost_infinite_alpha"])
def test_inconsistent_model_is_data_error(workspace, audio_models, tmp_path, name, edit):
    models = tmp_path / "models"
    shutil.copytree(audio_models / "models", models)
    (models / name).write_bytes(edit((models / name).read_bytes()))
    assert main(["evaluate", "--out", str(audio_models), "--manifest",
                 str(workspace / "corpus" / "manifest.csv"), "--algo", "nb",
                 "--audio-model", str(models / name), "--mixed"]) == 2


@pytest.mark.parametrize("key,value", [("frame_length", 2**50), ("sample_rate", 8000)],
                         ids=["frame_length_2e50", "sample_rate_8000"])
def test_predict_audio_frontend_other_than_extracts_is_data_error(workspace, tmp_path, key, value):
    models = _edit_model(workspace, tmp_path, "nb_audio.json",
                         _edit_frontend(lambda fe: fe.update({key: value})))
    assert _predict(workspace / "corpus", models, "s0001") == 2


def test_train_rejects_audio_frontend_predict_cannot_use(workspace, tmp_path):
    def edit(raw):
        fronts = json.loads(raw)
        fronts["audio"]["frame_length"] = 2**40
        return json.dumps(fronts).encode()
    assert _train_audio(workspace, _edit_file(workspace, tmp_path, "features/frontend.json", edit)) == 2


def test_non_finite_learning_rate_is_usage_error(workspace, tmp_path):
    work = tmp_path / "worknan"
    shutil.copytree(workspace / "work", work)
    assert main(["train", "--out", str(work), "--manifest", str(workspace / "corpus" / "manifest.csv"),
                 "--algo", "logreg", "--modality", "audio", "--learning-rate", "nan"]) == 1
    assert not (work / "models" / "logreg_audio.json").exists()


def test_failed_write_is_data_error(workspace, tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory\n")
    capsys.readouterr()
    assert main(["extract", "--manifest", str(workspace / "corpus" / "manifest.csv"),
                 "--out", str(blocker / "work")]) == 2
    assert main(["gen-demo", "--out", str(blocker / "corpus"), "--count", "5"]) == 2
    assert capsys.readouterr().err.count("data error") == 2


# ---- CLI mutation property: one byte, line or JSON leaf of any artifact ----

# the stages that read each artifact, in pipeline order
_READERS = {"features": ("train", "evaluate"), "frontend": ("train", "predict"),
            "models": ("evaluate", "predict"), "reports": ("report",)}
_LEAF_VALUES = (None, True, 0, -1, 1, 2, 3, 9999, 2**40, 0.5, -1.5, float("nan"), float("inf"),
                "", "a", "train", [], [0], {})


def _readers_of(rel: str):
    return _READERS["frontend" if rel.endswith("frontend.json") else rel.split("/")[0]]


def _leaf_paths(node, prefix=()):
    if isinstance(node, dict):
        for k, child in node.items():
            yield from _leaf_paths(child, prefix + (k,))
    elif isinstance(node, list) and node:
        for i, child in enumerate(node):
            yield from _leaf_paths(child, prefix + (i,))
    else:
        yield prefix


@pytest.fixture(scope="module")
def mutation_base(workspace):
    """(pristine, work, artifacts): the nb work directory plus report_nb.csv, a copy
    of it to mutate, and the files in it that a stage reads."""
    pristine, work = workspace / "pristine", workspace / "mutated"
    shutil.copytree(workspace / "work", pristine)
    assert main(["evaluate", "--out", str(pristine), "--manifest", str(workspace / "corpus" / "manifest.csv"),
                 "--algo", "nb"]) == 0
    shutil.copytree(pristine, work)
    # vocabulary.csv is written for people; no stage reads it
    arts = [p for p in sorted(pristine.glob("features/*.csv")) if p.name != "vocabulary.csv"]
    arts += [pristine / "features" / "frontend.json", *sorted(pristine.glob("models/*.json")),
             *sorted(pristine.glob("reports/report_*.csv"))]
    return pristine, work, tuple(p.relative_to(pristine).as_posix() for p in arts)


def _mutate(data, rel, raw):
    kinds = ["byte", "line"] + (["leaf"] if rel.endswith(".json") else [])
    kind = data.draw(st.sampled_from(kinds), label="kind")
    if kind == "byte":
        at = data.draw(st.integers(0, len(raw) - 1), label="offset")
        byte = data.draw(st.sampled_from(b"\xff,\n.-e9a0 ") | st.integers(0, 255), label="byte")
        return raw[:at] + bytes([byte]) + raw[at + 1:]
    if kind == "line":
        lines = raw.split(b"\n")
        i = data.draw(st.integers(0, len(lines) - 1), label="line")
        how = data.draw(st.sampled_from(["delete", "duplicate", "truncate"]), label="how")
        if how == "truncate":
            lines[i] = lines[i][:data.draw(st.integers(0, max(len(lines[i]) - 1, 0)), label="keep")]
        else:
            lines[i:i + 1] = [] if how == "delete" else [lines[i]] * 2
        return b"\n".join(lines)
    doc = json.loads(raw)
    *path, last = data.draw(st.sampled_from(list(_leaf_paths(doc))), label="leaf")
    node = doc
    for step in path:
        node = node[step]
    node[last] = data.draw(st.sampled_from(_LEAF_VALUES), label="value")
    return json.dumps(doc).encode()


@given(data=st.data())
@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
def test_mutated_artifact_is_exit_0_or_2(workspace, mutation_base, data):
    pristine, work, artifacts = mutation_base
    for rel in artifacts:   # undo the previous example, retrained models included
        shutil.copyfile(pristine / rel, work / rel)
    rel = data.draw(st.sampled_from(artifacts), label="artifact")
    (work / rel).write_bytes(_mutate(data, rel, (pristine / rel).read_bytes()))
    corpus = workspace / "corpus"
    for stage in _readers_of(rel):
        if stage == "predict":
            rc = _predict(corpus, work / "models", "s0001")
        else:
            rc = main([stage, "--out", str(work)] + (
                [] if stage == "report" else ["--manifest", str(corpus / "manifest.csv"), "--algo", "nb"]))
        assert rc in (0, 2), (rel, stage)
