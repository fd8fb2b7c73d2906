"""k-nearest neighbors (lazy: stores the training set)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from modhate.classifiers.base import Hyperparams, TrainedModel, check_training_matrix
from modhate.errors import EvenKError, KTooLargeError


def pairwise_sq_dists(queries: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances, shape (n_queries, n_points)."""
    nq = queries.shape[0]
    out = np.empty((nq, points.shape[0]), dtype=np.float64)
    for i in range(nq):
        d = points - queries[i]
        out[i] = np.einsum("ij,ij->i", d, d)
    return out


@dataclass(frozen=True)
class KnnParams:
    train_x: np.ndarray
    train_y: np.ndarray
    k: int

    def decide(self, Z: np.ndarray) -> np.ndarray:
        dists = pairwise_sq_dists(Z, self.train_x)
        # stable sort: distance ties go to the lower training index
        nearest = np.argsort(dists, axis=1, kind="stable")[:, : self.k]
        return (self.train_y[nearest].sum(axis=1) * 2 > self.k).astype(np.int64)


def train_knn(X: np.ndarray, y: np.ndarray, hp: Hyperparams) -> TrainedModel:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    check_training_matrix(X, y, require_both_classes=False)
    k = hp.k_neighbors
    if k % 2 == 0:
        raise EvenKError(f"k must be odd, got {k}")
    if k > X.shape[0]:
        raise KTooLargeError(f"k={k} exceeds {X.shape[0]} training points")
    return TrainedModel(
        algorithm="knn", hyperparams=hp, n_features=X.shape[1],
        payload=KnnParams(train_x=X.copy(), train_y=y.copy(), k=k),
    )
