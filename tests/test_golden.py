"""Golden outputs on seeded random matrices.

These pin the exact bytes of fitted tree-model files, kNN predictions and
the mRMR pick order. Any rewrite of the split scan, the distance block or
the joint histogram must keep every floating-point step in the same order,
or one of these digests moves. The inputs are synthetic numpy matrices, not
the audio corpus, so libm differences across machines cannot move them.
"""

import hashlib

import numpy as np
import pytest

from modhate.classifiers import Hyperparams, fit_pipeline, predict
from modhate.feature_selection import mrmr_select
from modhate.model_io import save_model


def tree_data():
    rng = np.random.default_rng(20230721)
    X = np.round(rng.normal(size=(90, 7)), 1)    # rounding forces tied values
    y = (X[:, 0] + 0.5 * X[:, 3] - 0.3 * X[:, 5] + rng.normal(0.0, 0.6, size=90) > 0).astype(np.int64)
    return X, y


MODEL_SHA256 = {
    "dtree": "651c8aa3e151f2876d816f9140eabcb947fbbeeb46256f0fa21b489c8c7b862a",
    "rforest": "54e3082814a7751faaf7ae58a61a1da95faf299861425d700cf6543a40fa808b",
    "adaboost": "54f0fdfdf3edabd64e29fe31e693d287d4ab7bb63b2526887b1984999d116f63",
}


@pytest.mark.parametrize("algo", sorted(MODEL_SHA256))
def test_tree_model_bytes(algo, tmp_path):
    X, y = tree_data()
    hp = Hyperparams(algorithm=algo, max_depth=6, seed=3,
                     ensemble_size=None if algo == "dtree" else 12)
    path = tmp_path / f"{algo}.json"
    save_model(fit_pipeline(algo, X, y, hp), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == MODEL_SHA256[algo]


KNN_PREDICTIONS = {
    1: [1, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 1, 0, 0, 1, 1, 1, 1,
        1, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 1, 0, 1, 0, 0, 0],
    3: [1, 1, 0, 1, 0, 0, 1, 1, 0, 0, 0, 1, 0, 1, 0, 0, 1, 0, 1, 0,
        0, 0, 1, 1, 0, 0, 0, 0, 0, 1, 0, 1, 0, 1, 1, 0, 1, 0, 1, 0],
    7: [1, 1, 0, 1, 0, 0, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0, 0, 0, 1, 0,
        1, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1, 1, 0, 1, 0, 0, 0],
}


@pytest.mark.parametrize("k", sorted(KNN_PREDICTIONS))
def test_knn_predictions(k):
    rng = np.random.default_rng(11)
    X = np.round(rng.normal(size=(70, 5)), 1)
    X[40:50] = X[0:10]                           # duplicate rows: exact distance ties
    y = rng.integers(0, 2, size=70).astype(np.int64)
    Q = np.vstack([np.round(rng.normal(size=(30, 5)), 1), X[0:10]])
    model = fit_pipeline("knn", X, y, Hyperparams(algorithm="knn", k_neighbors=k))
    assert predict(model, Q).tolist() == KNN_PREDICTIONS[k]


MRMR_ORDER = [9, 4, 12, 14, 6, 10, 11, 2, 8, 5]


def test_mrmr_order():
    rng = np.random.default_rng(5)
    n = 150
    y = rng.integers(0, 2, size=n).astype(np.int64)
    X = rng.normal(size=(n, 16))
    X[:, 2] += 1.5 * y
    X[:, 9] = X[:, 2] + rng.normal(0.0, 0.1, size=n)     # near copy of a relevant column
    X[:, 12] -= 0.8 * y
    X[:, 14] = np.round(X[:, 14])                          # few distinct values
    assert list(mrmr_select(X, y, 10).order) == MRMR_ORDER
