"""Random forest and AdaBoost over the CART machinery."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from modhate.classifiers.base import Hyperparams, TrainedModel, check_training_matrix
from modhate.classifiers.tree import TreeNode, _node_of, best_split, grow_tree, presort, tree_decide

EPS_CLAMP = 1e-10


@dataclass(frozen=True)
class ForestParams:
    trees: tuple[TreeNode, ...]

    def decide(self, Z: np.ndarray) -> np.ndarray:
        votes = np.zeros(Z.shape[0], dtype=np.int64)
        for root in self.trees:
            votes += tree_decide(root, Z)
        # strict majority; an even-ensemble tie goes to label 0
        return (votes * 2 > len(self.trees)).astype(np.int64)


def train_rforest(X: np.ndarray, y: np.ndarray, hp: Hyperparams) -> TrainedModel:
    """Bagged CART trees with per-node random feature subsets.

    Tree t uses the stream default_rng([seed, t]); it draws the bootstrap
    indices first, then node feature subsets in depth-first order, so a
    seed fixes the forest.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    check_training_matrix(X, y, require_both_classes=False)
    n, d = X.shape
    n_candidates = int(np.ceil(np.sqrt(d)))
    w = np.ones(n)

    trees = []
    for t in range(hp.ensemble_size):
        rng = np.random.default_rng([hp.seed, t])
        boot = rng.integers(0, n, size=n)
        trees.append(grow_tree(X, y, w, boot, 0, hp, rng, n_candidates))

    return TrainedModel(
        algorithm="rforest", hyperparams=hp, n_features=d,
        payload=ForestParams(trees=tuple(trees)),
    )


@dataclass(frozen=True)
class Stump:
    feature: int        # -1 for a constant stump
    threshold: float
    left_label: int
    right_label: int

    def decide(self, Z: np.ndarray) -> np.ndarray:
        if self.feature < 0:
            return np.full(Z.shape[0], self.left_label, dtype=np.int64)
        go_left = Z[:, self.feature] <= self.threshold
        return np.where(go_left, self.left_label, self.right_label).astype(np.int64)


@dataclass(frozen=True)
class AdaboostParams:
    stumps: tuple[Stump, ...]
    alphas: tuple[float, ...]

    def decide(self, Z: np.ndarray) -> np.ndarray:
        score = np.zeros(Z.shape[0])
        for stump, alpha in zip(self.stumps, self.alphas):
            score += alpha * (2.0 * stump.decide(Z) - 1.0)
        # zero score goes to label 0
        return (score > 0.0).astype(np.int64)


def _fit_stump(X, order, y, w) -> Stump:
    idx = np.arange(X.shape[0])
    split = best_split(X, order, y, w)
    if split is None:
        label, _ = _node_of(y, w, idx)
        return Stump(feature=-1, threshold=0.0, left_label=label, right_label=label)
    f, thr = split
    left = X[:, f] <= thr
    left_label, _ = _node_of(y, w, idx[left])
    right_label, _ = _node_of(y, w, idx[~left])
    return Stump(feature=f, threshold=thr, left_label=left_label, right_label=right_label)


def train_adaboost(X: np.ndarray, y: np.ndarray, hp: Hyperparams) -> TrainedModel:
    """Weighted-Gini decision stumps combined with the standard exponential reweighting.

    Round error is clamped to [1e-10, 1 - 1e-10]; alpha_t = 0.5*ln((1-e)/e);
    weights are renormalized to sum 1 after every round.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    check_training_matrix(X, y, require_both_classes=False)
    n = X.shape[0]
    yy = 2.0 * y.astype(np.float64) - 1.0
    w = np.full(n, 1.0 / n)
    order = presort(X)   # the rounds change only w, so one sort serves all

    stumps = []
    alphas = []
    for _ in range(hp.ensemble_size):
        stump = _fit_stump(X, order, y, w)
        h = 2.0 * stump.decide(X).astype(np.float64) - 1.0
        eps = float(w[h != yy].sum())
        eps = min(max(eps, EPS_CLAMP), 1.0 - EPS_CLAMP)
        alpha = 0.5 * np.log((1.0 - eps) / eps)
        stumps.append(stump)
        alphas.append(float(alpha))
        w = w * np.exp(-alpha * yy * h)
        w = w / w.sum()

    return TrainedModel(
        algorithm="adaboost", hyperparams=hp, n_features=X.shape[1],
        payload=AdaboostParams(stumps=tuple(stumps), alphas=tuple(alphas)),
    )
