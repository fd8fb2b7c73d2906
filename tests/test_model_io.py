import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modhate import model_io
from modhate.classifiers import ALGORITHM_TAGS, Hyperparams, TrainedModel, fit_pipeline, predict, train
from modhate.errors import DataError


def small_set(seed=0):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, size=40).astype(np.int64)
    X = rng.normal(size=(40, 5))
    X[:, 0] += 2.0 * y
    return X, y


def hp_for(algo):
    if algo in ("rforest", "adaboost"):
        return Hyperparams(algorithm=algo, ensemble_size=7)
    if algo in ("logreg", "svm"):
        return Hyperparams(algorithm=algo, iterations=100, epochs=50)
    return Hyperparams(algorithm=algo)


@pytest.mark.parametrize("algo", ALGORITHM_TAGS)
def test_roundtrip_predictions_exact(algo, tmp_path):
    X, y = small_set()
    Q = np.random.default_rng(1).normal(size=(30, 5))
    model = train(algo, X, y, hp_for(algo))
    path = tmp_path / f"{algo}.json"
    model_io.save_model(model, path)
    loaded = model_io.load_model(path)
    assert loaded.algorithm == algo
    assert loaded.hyperparams == model.hyperparams
    assert np.array_equal(predict(loaded, Q), predict(model, Q))
    assert np.array_equal(predict(loaded, X), predict(model, X))


def test_roundtrip_with_transform_and_frontend(tmp_path):
    import dataclasses
    X, y = small_set(2)
    model = fit_pipeline("logreg", X, y, select="mrmr", k=3)
    model = dataclasses.replace(model, frontend={"kind": "audio", "frame_length": 512})
    path = tmp_path / "m.json"
    model_io.save_model(model, path)
    loaded = model_io.load_model(path)
    assert loaded.selected == model.selected
    assert loaded.frontend == model.frontend
    assert np.array_equal(loaded.standardization.mean, model.standardization.mean)
    Q = np.random.default_rng(3).normal(size=(20, 5))
    assert np.array_equal(predict(loaded, Q), predict(model, Q))


def test_serialization_is_stable_bytes(tmp_path):
    X, y = small_set(4)
    model = train("rforest", X, y, hp_for("rforest"))
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    model_io.save_model(model, p1)
    model_io.save_model(model_io.load_model(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_wrong_format_rejected(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"format": "something/9"}', encoding="utf-8")
    with pytest.raises(DataError):
        model_io.load_model(p)


def test_corrupt_file_rejected(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{ not json", encoding="utf-8")
    with pytest.raises(DataError):
        model_io.load_model(p)


def test_non_utf8_file_rejected(tmp_path):
    p = tmp_path / "bad.json"
    p.write_bytes(b'{"format": "modhate.model/1"}\xff')
    with pytest.raises(DataError):
        model_io.load_model(p)


@pytest.mark.parametrize("edit", [
    lambda p: p.update(k=2),
    lambda p: p.update(k=0),
    lambda p: p.update(k=41),
    lambda p: p.update(train_y=p["train_y"][:-1]),
    lambda p: p.update(train_x=p["train_x"][0]),
], ids=["even_k", "zero_k", "k_above_rows", "fewer_labels_than_rows", "one_dimensional_x"])
def test_inconsistent_knn_payload_rejected(edit):
    X, y = small_set()
    doc = model_io.model_to_dict(train("knn", X, y, hp_for("knn")))
    edit(doc["payload"])
    with pytest.raises(DataError):
        model_io.model_from_dict(doc)


def test_tree_past_recursion_limit_rejected():
    X, y = small_set()
    doc = model_io.model_to_dict(train("dtree", X, y, hp_for("dtree")))
    root = {"label": 0, "counts": [1.0, 1.0]}
    for _ in range(3000):
        root = {"label": 0, "counts": [1.0, 1.0], "feature": 0, "threshold": 0.0,
                "left": root, "right": {"label": 1, "counts": [1.0, 1.0]}}
    doc["payload"]["root"] = root
    with pytest.raises(DataError):
        model_io.model_from_dict(doc)


def _key_paths(node, prefix=()):
    """Every (path, key) whose deletion removes one dict key, at any depth."""
    if isinstance(node, dict):
        for k, child in node.items():
            yield prefix, k
            yield from _key_paths(child, prefix + (k,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _key_paths(child, prefix + (i,))


def _valid_docs():
    X, y = small_set(5)
    nb = fit_pipeline("nb", X, y, select="mrmr", k=3)
    tree = train("dtree", X, y, Hyperparams(algorithm="dtree", max_depth=3))
    return [model_io.model_to_dict(m) for m in (nb, tree)]


_DOCS = _valid_docs()
_DELETIONS = [(i, path, key) for i, doc in enumerate(_DOCS) for path, key in _key_paths(doc)]


@given(st.sampled_from(_DELETIONS))
@settings(max_examples=150, deadline=None)
def test_model_from_dict_missing_key_is_model_or_data_error(deletion):
    i, path, key = deletion
    doc = copy.deepcopy(_DOCS[i])
    node = doc
    for step in path:
        node = node[step]
    del node[key]
    try:
        model = model_io.model_from_dict(doc)
    except DataError:
        return
    assert isinstance(model, TrainedModel)
