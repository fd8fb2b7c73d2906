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

FORMAT_TAG = "modhate.model/1"


def _tree_to_dict(node: TreeNode) -> dict:
    d = {"label": node.label, "counts": list(node.counts)}
    if not node.is_leaf:
        d.update(feature=node.feature, threshold=node.threshold,
                 left=_tree_to_dict(node.left), right=_tree_to_dict(node.right))
    return d


def _tree_from_dict(d: dict) -> TreeNode:
    counts = (d["counts"][0], d["counts"][1])
    if "feature" not in d:
        return TreeNode(label=d["label"], counts=counts)
    return TreeNode(
        label=d["label"], counts=counts, feature=d["feature"], threshold=d["threshold"],
        left=_tree_from_dict(d["left"]), right=_tree_from_dict(d["right"]),
    )


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


def _payload_from_dict(algorithm: str, d: dict):
    if algorithm == "logreg":
        return LogregParams(weights=np.array(d["weights"], dtype=np.float64),
                            bias=float(d["bias"]), loss_trace=tuple(d["loss_trace"]))
    if algorithm == "svm":
        return SvmParams(weights=np.array(d["weights"], dtype=np.float64), bias=float(d["bias"]))
    if algorithm == "knn":
        knn = KnnParams(train_x=np.array(d["train_x"], dtype=np.float64),
                        train_y=np.array(d["train_y"], dtype=np.int64), k=int(d["k"]))
        x, y = knn.train_x, knn.train_y
        if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.shape[0]:
            raise DataError(f"knn train_x of shape {x.shape} does not match train_y of shape {y.shape}")
        if not (1 <= knn.k <= y.shape[0] and knn.k % 2 == 1):
            raise DataError(f"knn k={knn.k} is not an odd number in 1..{y.shape[0]}")
        return knn
    if algorithm == "nb":
        return NbParams(log_priors=np.array(d["log_priors"], dtype=np.float64),
                        means=np.array(d["means"], dtype=np.float64),
                        variances=np.array(d["variances"], dtype=np.float64))
    if algorithm == "dtree":
        return TreeParams(root=_tree_from_dict(d["root"]))
    if algorithm == "rforest":
        return ForestParams(trees=tuple(_tree_from_dict(t) for t in d["trees"]))
    if algorithm == "adaboost":
        return AdaboostParams(
            stumps=tuple(Stump(**s) for s in d["stumps"]),
            alphas=tuple(float(a) for a in d["alphas"]),
        )
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
    """Rebuild a model document; a document that does not fit the schema is a DataError."""
    try:
        if doc.get("format") != FORMAT_TAG:
            raise DataError(f"unsupported model format {doc.get('format')!r}")
        algorithm = doc["algorithm"]
        std = None
        if doc["standardization"] is not None:
            std = StandardizationParams(
                mean=np.array(doc["standardization"]["mean"], dtype=np.float64),
                std=np.array(doc["standardization"]["std"], dtype=np.float64),
            )
        return TrainedModel(
            algorithm=algorithm,
            hyperparams=Hyperparams(**doc["hyperparams"]),
            n_features=int(doc["n_features"]),
            payload=_payload_from_dict(algorithm, doc["payload"]),
            standardization=std,
            selected=tuple(doc["selected"]) if doc["selected"] is not None else None,
            frontend=doc["frontend"],
        )
    except (KeyError, TypeError, ValueError, AttributeError, UsageError) as e:
        raise DataError(f"malformed model document: {type(e).__name__}: {e}") from e


def save_model(model: TrainedModel, path: str | Path) -> None:
    text = json.dumps(model_to_dict(model), sort_keys=True, separators=(",", ":"))
    Path(path).write_text(text + "\n", encoding="utf-8")


def load_model(path: str | Path) -> TrainedModel:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as e:
        raise DataError(f"cannot load model {path}: {e}") from e
    return model_from_dict(doc)
