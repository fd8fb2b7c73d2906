"""Shared classifier contracts: hyperparameters, the fitted-model record, predict."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from modhate.errors import (
    DimensionMismatchError,
    EmptyMatrixError,
    EvenKError,
    SingleClassTrainingSetError,
    UsageError,
)
from modhate.feature_selection import StandardizationParams, standardize_apply

ALGORITHM_TAGS = ("svm", "rforest", "logreg", "adaboost", "knn", "nb", "dtree")

_ENSEMBLE_DEFAULTS = {"rforest": 100, "adaboost": 50}


@dataclass(frozen=True)
class Hyperparams:
    algorithm: str
    learning_rate: float = 0.1
    iterations: int = 1000      # logreg gradient steps
    l2: float = 1e-4
    epochs: int = 1000          # svm passes over the data
    k_neighbors: int = 5
    max_depth: int = 10
    min_samples_split: int = 2
    ensemble_size: int | None = None   # None -> 100 (rforest) / 50 (adaboost)
    seed: int = 0

    def __post_init__(self):
        if self.algorithm not in ALGORITHM_TAGS:
            raise UsageError(f"unknown algorithm {self.algorithm!r}; choose from {ALGORITHM_TAGS}")
        if self.ensemble_size is None:
            object.__setattr__(self, "ensemble_size", _ENSEMBLE_DEFAULTS.get(self.algorithm, 1))
        for name in ("learning_rate", "iterations", "l2", "epochs", "k_neighbors",
                     "max_depth", "min_samples_split", "ensemble_size"):
            if not 0 < getattr(self, name) < math.inf:
                raise UsageError(f"hyperparameter {name} must be positive and finite")
        if self.algorithm == "knn" and self.k_neighbors % 2 == 0:
            raise EvenKError(f"k must be odd, got {self.k_neighbors}")


@dataclass(frozen=True)
class TrainedModel:
    """Immutable fitted classifier plus the input-space transform it expects.

    predict() takes raw-space rows of width n_features, applies the stored
    standardization and column selection, then the algorithm decision.
    """
    algorithm: str
    hyperparams: Hyperparams
    n_features: int
    payload: Any
    standardization: StandardizationParams | None = None
    selected: tuple[int, ...] | None = None
    frontend: dict | None = None


def check_training_matrix(X: np.ndarray, y: np.ndarray, *, require_both_classes: bool) -> None:
    if X.ndim != 2 or X.size == 0 or X.shape[0] == 0:
        raise EmptyMatrixError("training matrix is empty")
    if y.shape[0] != X.shape[0]:
        raise DimensionMismatchError(f"{X.shape[0]} rows but {y.shape[0]} labels")
    if not np.isin(y, (0, 1)).all():
        raise DimensionMismatchError("labels must be binary 0/1")
    if require_both_classes and np.unique(y).shape[0] < 2:
        raise SingleClassTrainingSetError("training set contains a single class")


def predict(model: TrainedModel, X: np.ndarray) -> np.ndarray:
    """Labels for raw-space rows; deterministic."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X.reshape(1, -1) if X.size else X.reshape(0, model.n_features)
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise DimensionMismatchError(
            f"expected {model.n_features} features, got {X.shape[1] if X.ndim == 2 else X.shape}"
        )
    if X.shape[0] == 0:
        return np.zeros(0, dtype=np.int64)
    Z = standardize_apply(model.standardization, X) if model.standardization else X
    if model.selected is not None:
        Z = Z[:, list(model.selected)]
    labels = model.payload.decide(Z)
    return np.asarray(labels, dtype=np.int64)
