"""CART decision tree on Gini impurity, shared by the ensemble trainers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from modhate.classifiers.base import Hyperparams, TrainedModel, check_training_matrix


@dataclass(frozen=True)
class TreeNode:
    label: int                      # majority label at the node (tie -> 0)
    counts: tuple[float, float]     # weighted class mass (w0, w1)
    feature: int = -1               # -1 for leaves
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


def gini_best_split(x: np.ndarray, y: np.ndarray, w: np.ndarray):
    """Best threshold for one feature column under weighted Gini impurity.

    Candidate thresholds are midpoints between consecutive distinct sorted
    values. Returns (impurity, threshold, ok); the lowest threshold wins
    impurity ties, and ok is False when the column has no distinct pair.
    """
    n = x.shape[0]
    if n < 2:
        return np.inf, 0.0, False
    order = np.argsort(x, kind="stable")
    xs = x[order]
    ws = w[order]
    ys = y[order]
    w0 = np.where(ys == 0, ws, 0.0)
    w1 = np.where(ys == 1, ws, 0.0)
    c0 = np.cumsum(w0)
    c1 = np.cumsum(w1)
    tot0 = c0[n - 1]
    tot1 = c1[n - 1]
    total = tot0 + tot1

    # split i puts items [0, i) left; left sums are the cumsums at i-1
    l0 = c0[:-1]
    l1 = c1[:-1]
    wl = l0 + l1
    r0 = tot0 - l0
    r1 = tot1 - l1
    wr = r0 + r1
    valid = (xs[1:] > xs[:-1]) & (wl > 0.0) & (wr > 0.0)
    if not valid.any():
        return np.inf, 0.0, False
    with np.errstate(divide="ignore", invalid="ignore"):
        a = l0 / wl
        b = l1 / wl
        gl = 1.0 - a * a - b * b
        a = r0 / wr
        b = r1 / wr
        gr = 1.0 - a * a - b * b
        imp = (wl * gl + wr * gr) / total
    imp = np.where(valid, imp, np.inf)
    best = int(np.argmin(imp))
    thr = (xs[best] + xs[best + 1]) * 0.5
    return float(imp[best]), float(thr), True


def find_best_split(X, y, w, idx, feature_ids):
    """Lowest weighted child Gini over candidate features.

    Ties resolve to the lowest feature index (scan order) and lowest
    threshold (inside the column scan). Returns (feature, threshold) or None.
    """
    best_imp = np.inf
    best = None
    for f in feature_ids:
        imp, thr, ok = gini_best_split(X[idx, f], y[idx], w[idx])
        if ok and imp < best_imp:
            best_imp = imp
            best = (int(f), float(thr))
    return best


def _node_of(y, w, idx) -> tuple[int, tuple[float, float]]:
    labels = y[idx]
    weights = w[idx]
    w0 = float(weights[labels == 0].sum())
    w1 = float(weights[labels == 1].sum())
    return (1 if w1 > w0 else 0), (w0, w1)


def grow_tree(X, y, w, idx, depth, hp: Hyperparams, rng: np.random.Generator | None = None,
              n_candidates: int | None = None) -> TreeNode:
    """Depth-first CART growth.

    Stops at purity, max depth, or fewer than min_samples_split samples.
    When rng is given, each node considers a fresh random feature subset of
    size n_candidates (drawn in depth-first order, sorted ascending).
    """
    label, counts = _node_of(y, w, idx)
    pure = counts[0] == 0.0 or counts[1] == 0.0
    if pure or depth >= hp.max_depth or idx.shape[0] < hp.min_samples_split:
        return TreeNode(label=label, counts=counts)

    d = X.shape[1]
    if rng is not None and n_candidates is not None and n_candidates < d:
        feature_ids = np.sort(rng.choice(d, size=n_candidates, replace=False))
    else:
        feature_ids = np.arange(d)
    split = find_best_split(X, y, w, idx, feature_ids)
    if split is None:
        return TreeNode(label=label, counts=counts)
    f, thr = split
    go_left = X[idx, f] <= thr
    left_idx = idx[go_left]
    right_idx = idx[~go_left]
    if left_idx.shape[0] == 0 or right_idx.shape[0] == 0:
        # midpoint rounded onto a boundary value; nothing to gain here
        return TreeNode(label=label, counts=counts)
    return TreeNode(
        label=label, counts=counts, feature=f, threshold=thr,
        left=grow_tree(X, y, w, left_idx, depth + 1, hp, rng, n_candidates),
        right=grow_tree(X, y, w, right_idx, depth + 1, hp, rng, n_candidates),
    )


def tree_decide(root: TreeNode, Z: np.ndarray) -> np.ndarray:
    labels = np.empty(Z.shape[0], dtype=np.int64)
    for i in range(Z.shape[0]):
        node = root
        while not node.is_leaf:
            node = node.left if Z[i, node.feature] <= node.threshold else node.right
        labels[i] = node.label
    return labels


@dataclass(frozen=True)
class TreeParams:
    root: TreeNode

    def decide(self, Z: np.ndarray) -> np.ndarray:
        return tree_decide(self.root, Z)


def train_dtree(X: np.ndarray, y: np.ndarray, hp: Hyperparams) -> TrainedModel:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    check_training_matrix(X, y, require_both_classes=False)
    w = np.ones(X.shape[0])
    root = grow_tree(X, y, w, np.arange(X.shape[0]), 0, hp)
    return TrainedModel(
        algorithm="dtree", hyperparams=hp, n_features=X.shape[1],
        payload=TreeParams(root=root),
    )
