"""Seven from-scratch binary classifiers under one fit/predict contract.

Every tie anywhere (posterior, vote, zero score, leaf majority) resolves to
label 0, the non-hate class.
"""

from dataclasses import replace

import numpy as np

from modhate.classifiers.base import (
    ALGORITHM_TAGS,
    Hyperparams,
    TrainedModel,
    predict,
)
from modhate.classifiers.bayes import train_nb
from modhate.classifiers.ensemble import train_adaboost, train_rforest
from modhate.classifiers.linear import train_logreg, train_svm
from modhate.classifiers.neighbors import train_knn
from modhate.classifiers.tree import train_dtree
from modhate.feature_selection import (
    mrmr_select,
    rfe_select,
    standardize_fit,
    standardize_apply,
)

TRAINERS = {
    "svm": train_svm,
    "rforest": train_rforest,
    "logreg": train_logreg,
    "adaboost": train_adaboost,
    "knn": train_knn,
    "nb": train_nb,
    "dtree": train_dtree,
}


def train(algorithm: str, X, y, hp: Hyperparams | None = None) -> TrainedModel:
    """Fit one algorithm on an already-transformed matrix."""
    hp = hp or Hyperparams(algorithm=algorithm)
    return TRAINERS[algorithm](X, y, hp)


def fit_pipeline(algorithm: str, X_raw, y, hp: Hyperparams | None = None, *,
                 select: str = "none", k: int | None = None) -> TrainedModel:
    """Standardize on the raw matrix, optionally select columns, then fit.

    The returned model carries the whole transform, so predict() accepts
    raw-space rows.
    """
    X_raw = np.asarray(X_raw, dtype=np.float64)
    params = standardize_fit(X_raw)
    Z = standardize_apply(params, X_raw)
    selected = None
    if select == "rfe":
        selected = rfe_select(Z, y, k).kept
    elif select == "mrmr":
        selected = mrmr_select(Z, y, k).kept
    elif select != "none":
        raise ValueError(f"unknown selection method {select!r}")
    if selected is not None:
        Z = Z[:, list(selected)]
    model = train(algorithm, Z, y, hp)
    return replace(model, n_features=X_raw.shape[1], standardization=params, selected=selected)


__all__ = [
    "ALGORITHM_TAGS", "Hyperparams", "TrainedModel", "TRAINERS",
    "train", "fit_pipeline", "predict",
    "train_svm", "train_rforest", "train_logreg", "train_adaboost",
    "train_knn", "train_nb", "train_dtree",
]
