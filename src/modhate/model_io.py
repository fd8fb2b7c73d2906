"""Versioned JSON persistence for trained models.

The document carries the algorithm tag, hyperparameters, the stored input
transform (standardization + selected columns), an optional frontend block
(how to featurize raw inputs), and the algorithm-specific payload. Loading
reproduces bit-identical predictions: floats survive the JSON round trip
exactly via repr-based encoding.
"""

from __future__ import annotations

import dataclasses
import json
import operator
from pathlib import Path

import numpy as np

from modhate.classifiers.base import Hyperparams, TrainedModel
from modhate.classifiers.bayes import NbParams
from modhate.classifiers.ensemble import AdaboostParams, ForestParams, Stump
from modhate.classifiers.linear import LogregParams, SvmParams
from modhate.classifiers.neighbors import KnnParams
from modhate.classifiers.tree import TreeNode, TreeParams
from modhate.errors import DataError, UsageError
from modhate.feature_selection import StandardizationParams
from modhate.ingest import read_json

FORMAT_TAG = "modhate.model/1"


def _tree_to_dict(node: TreeNode) -> dict:
    d = {"label": node.label, "counts": list(node.counts)}
    if not node.is_leaf:
        d.update(feature=node.feature, threshold=node.threshold,
                 left=_tree_to_dict(node.left), right=_tree_to_dict(node.right))
    return d


def _floats(v, *shape) -> np.ndarray:
    """v as a finite float64 array of the given shape; None matches any length."""
    a = np.array(v, dtype=np.float64)
    if a.ndim != len(shape) or any(want not in (None, got) for want, got in zip(shape, a.shape)):
        raise DataError(f"an array of shape {a.shape} where {shape} is expected")
    if not np.isfinite(a).all():
        raise DataError("a stored value is not finite")
    return a


def _float(v) -> float:
    """v as a finite float."""
    return float(_floats(v))


def _index(v, n: int, low: int = 0) -> int:
    """v as an int in [low, n)."""
    i = operator.index(v)
    if not low <= i < n:
        raise DataError(f"index {i} is not in [{low}, {n})")
    return i


def _tree_from_dict(d: dict, width: int) -> TreeNode:
    label, counts = _index(d["label"], 2), (d["counts"][0], d["counts"][1])
    if "feature" not in d:
        return TreeNode(label, counts)
    return TreeNode(label, counts, _index(d["feature"], width), _float(d["threshold"]),
                    _tree_from_dict(d["left"], width), _tree_from_dict(d["right"], width))


def _payload_to_dict(algorithm: str, payload) -> dict:
    if algorithm == "logreg":
        return {"weights": payload.weights.tolist(), "bias": payload.bias,
                "loss_trace": list(payload.loss_trace)}
    if algorithm == "svm":
        return {"weights": payload.weights.tolist(), "bias": payload.bias}
    if algorithm == "knn":
        return {"train_x": payload.train_x.tolist(), "train_y": payload.train_y.tolist(),
                "k": payload.k}
    if algorithm == "nb":
        return {"log_priors": payload.log_priors.tolist(), "means": payload.means.tolist(),
                "variances": payload.variances.tolist()}
    if algorithm == "dtree":
        return {"root": _tree_to_dict(payload.root)}
    if algorithm == "rforest":
        return {"trees": [_tree_to_dict(t) for t in payload.trees]}
    if algorithm == "adaboost":
        return {"stumps": [dataclasses.asdict(s) for s in payload.stumps],
                "alphas": list(payload.alphas)}
    raise DataError(f"cannot serialize algorithm {algorithm!r}")


def _payload_from_dict(algorithm: str, d: dict, width: int):
    """The payload of a model whose decision reads `width` columns."""
    if algorithm == "logreg":
        return LogregParams(weights=_floats(d["weights"], width), bias=_float(d["bias"]),
                            loss_trace=tuple(_floats(d["loss_trace"], None).tolist()))
    if algorithm == "svm":
        return SvmParams(weights=_floats(d["weights"], width), bias=_float(d["bias"]))
    if algorithm == "knn":
        x = _floats(d["train_x"], None, width)
        y = _floats(d["train_y"], x.shape[0])
        k = _index(d["k"], y.shape[0] + 1, 1)
        if k % 2 == 0 or not np.isin(y, (0, 1)).all():
            raise DataError(f"knn k={k} is even, or train_y holds a label other than 0 and 1")
        return KnnParams(train_x=x, train_y=y.astype(np.int64), k=k)
    if algorithm == "nb":
        variances = _floats(d["variances"], 2, width)
        if not (variances > 0.0).all():
            raise DataError("nb variances must be positive")
        return NbParams(_floats(d["log_priors"], 2), _floats(d["means"], 2, width), variances)
    if algorithm == "dtree":
        return TreeParams(root=_tree_from_dict(d["root"], width))
    if algorithm == "rforest":
        return ForestParams(trees=tuple(_tree_from_dict(t, width) for t in d["trees"]))
    if algorithm == "adaboost":
        stumps = tuple(Stump(_index(s["feature"], width, -1), _float(s["threshold"]),
                             _index(s["left_label"], 2), _index(s["right_label"], 2)) for s in d["stumps"])
        alphas = tuple(_float(a) for a in d["alphas"])
        if len(alphas) != len(stumps):
            raise DataError(f"{len(stumps)} stumps but {len(alphas)} alphas")
        return AdaboostParams(stumps=stumps, alphas=alphas)
    raise DataError(f"cannot deserialize algorithm {algorithm!r}")


def model_to_dict(model: TrainedModel) -> dict:
    std = None
    if model.standardization is not None:
        std = {"mean": model.standardization.mean.tolist(),
               "std": model.standardization.std.tolist()}
    return {
        "format": FORMAT_TAG,
        "algorithm": model.algorithm,
        "hyperparams": dataclasses.asdict(model.hyperparams),
        "n_features": model.n_features,
        "standardization": std,
        "selected": list(model.selected) if model.selected is not None else None,
        "frontend": model.frontend,
        "payload": _payload_to_dict(model.algorithm, model.payload),
    }


def model_from_dict(doc: dict) -> TrainedModel:
    """Rebuild a model document, its shapes checked; one that does not fit the
    schema, or a tree nested past the recursion limit, is a DataError."""
    try:
        if doc.get("format") != FORMAT_TAG:
            raise DataError(f"unsupported model format {doc.get('format')!r}")
        n_features = operator.index(doc["n_features"])
        std, selected = doc["standardization"], doc["selected"]
        if std is not None:
            std = StandardizationParams(_floats(std["mean"], n_features), _floats(std["std"], n_features))
        if selected is not None:
            selected = tuple(_index(i, n_features) for i in selected)
        width = n_features if selected is None else len(selected)
        return TrainedModel(
            algorithm=doc["algorithm"],
            hyperparams=Hyperparams(**doc["hyperparams"]),
            n_features=n_features,
            payload=_payload_from_dict(doc["algorithm"], doc["payload"], width),
            standardization=std,
            selected=selected,
            frontend=doc["frontend"],
        )
    except (KeyError, TypeError, ValueError, AttributeError, UsageError, RecursionError) as e:
        raise DataError(f"malformed model document: {type(e).__name__}: {e}") from e


def save_model(model: TrainedModel, path: str | Path) -> None:
    text = json.dumps(model_to_dict(model), sort_keys=True, separators=(",", ":"))
    Path(path).write_text(text + "\n", encoding="utf-8")


def load_model(path: str | Path) -> TrainedModel:
    return model_from_dict(read_json(path, "model"))
