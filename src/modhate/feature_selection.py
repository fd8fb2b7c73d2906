"""Standardization and dimensionality reduction (RFE, mRMR).

Both selectors operate on standardized train-split matrices and return the
kept column indices plus the order in which columns were eliminated (RFE)
or picked (mRMR). Selection is deterministic for fixed inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from modhate.errors import BadTargetCountError, EmptyMatrixError, TooFewSamplesError

MI_BINS = 8


@dataclass(frozen=True)
class StandardizationParams:
    mean: np.ndarray
    std: np.ndarray    # population std; zero-variance columns pass through centered


@dataclass(frozen=True)
class SelectionResult:
    method: str
    k: int
    kept: tuple[int, ...]    # ascending original column indices
    order: tuple[int, ...]   # RFE: elimination order; mRMR: selection order


def standardize_fit(train_X: np.ndarray) -> StandardizationParams:
    train_X = np.asarray(train_X, dtype=np.float64)
    if train_X.ndim != 2 or train_X.shape[0] == 0 or train_X.size == 0:
        raise EmptyMatrixError("cannot fit standardization on an empty matrix")
    return StandardizationParams(mean=train_X.mean(axis=0), std=train_X.std(axis=0))


def standardize_apply(params: StandardizationParams, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    denom = np.where(params.std > 0.0, params.std, 1.0)
    return (X - params.mean) / denom


def standardize_fit_apply(train_X: np.ndarray, other_X: np.ndarray | None = None):
    """Fit on train only, transform train and (optionally) another matrix."""
    params = standardize_fit(train_X)
    train_Z = standardize_apply(params, train_X)
    other_Z = standardize_apply(params, other_X) if other_X is not None else None
    return params, train_Z, other_Z


def rfe_select(X: np.ndarray, y: np.ndarray, k: int) -> SelectionResult:
    """Recursive feature elimination wrapped around L2 logistic regression.

    Each round refits the ranking model on the remaining columns and drops
    the single one with the smallest |weight| (ties drop the highest index)
    until k columns remain. X is assumed standardized.
    """
    from modhate.classifiers.linear import train_logreg
    from modhate.classifiers.base import Hyperparams

    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    d = X.shape[1]
    if not 1 <= k < d:
        raise BadTargetCountError(f"need 1 <= k < {d}, got {k}")

    hp = Hyperparams(algorithm="logreg")
    remaining = list(range(d))
    eliminated: list[int] = []
    while len(remaining) > k:
        model = train_logreg(X[:, remaining], y, hp)
        weights = np.abs(model.payload.weights)
        # smallest |weight|; on ties prefer the highest position
        pos = weights.shape[0] - 1 - int(np.argmin(weights[::-1]))
        eliminated.append(remaining.pop(pos))
    return SelectionResult(method="rfe", k=k, kept=tuple(remaining), order=tuple(eliminated))


def _bin_codes(col: np.ndarray, n_bins: int) -> np.ndarray:
    """Equal-width binning over the column's range; constant -> single bin."""
    lo = col.min()
    hi = col.max()
    if hi == lo:
        return np.zeros(col.shape[0], dtype=np.int64)
    codes = np.floor((col - lo) / (hi - lo) * n_bins).astype(np.int64)
    return np.clip(codes, 0, n_bins - 1)


def _mi_from_codes(a: np.ndarray, na: int, b: np.ndarray, nb: int) -> float:
    counts = np.bincount(a * nb + b, minlength=na * nb).reshape(na, nb)
    n = a.shape[0]
    p = counts / n
    pa = p.sum(axis=1, keepdims=True)
    pb = p.sum(axis=0, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = p * np.log2(p / (pa * pb))
    return float(np.nansum(terms))


def mutual_information(feature_col: np.ndarray, y: np.ndarray, n_bins: int = MI_BINS) -> float:
    """MI in bits between an equal-width-binned feature and binary labels."""
    feature_col = np.asarray(feature_col, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if feature_col.shape[0] < 2:
        raise TooFewSamplesError("mutual information needs at least 2 samples")
    return _mi_from_codes(_bin_codes(feature_col, n_bins), n_bins, y, 2)


def mrmr_select(X: np.ndarray, y: np.ndarray, k: int, n_bins: int = MI_BINS) -> SelectionResult:
    """Greedy minimum-redundancy-maximum-relevance (difference form).

    First picks argmax MI(f; y), then repeatedly argmax of
    MI(f; y) - mean_{s in selected} MI(f; s); ties resolve to the lowest
    column index.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n, d = X.shape
    if not 1 <= k <= d:
        raise BadTargetCountError(f"need 1 <= k <= {d}, got {k}")
    if n < 2:
        raise TooFewSamplesError("mRMR needs at least 2 samples")

    codes = np.empty((d, n), dtype=np.int64)
    for f in range(d):
        codes[f] = _bin_codes(X[:, f], n_bins)
    relevance = np.array([_mi_from_codes(codes[f], n_bins, y, 2) for f in range(d)])

    selected: list[int] = []
    red_sum = np.zeros(d)
    available = np.ones(d, dtype=bool)
    for _ in range(k):
        if selected:
            score = relevance - red_sum / len(selected)
        else:
            score = relevance.copy()
        score[~available] = -np.inf
        pick = int(np.argmax(score))   # first max -> lowest index on ties
        selected.append(pick)
        available[pick] = False
        if len(selected) < k:
            for f in np.nonzero(available)[0]:
                red_sum[f] += _mi_from_codes(codes[f], n_bins, codes[pick], n_bins)
    return SelectionResult(method="mrmr", k=k, kept=tuple(sorted(selected)), order=tuple(selected))
