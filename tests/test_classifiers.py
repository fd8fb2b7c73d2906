import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modhate import classifiers as clf
from modhate.classifiers import Hyperparams, fit_pipeline, predict, train
from modhate.classifiers.linear import hinge_violations
from modhate.classifiers.neighbors import pairwise_sq_dists
from modhate.classifiers.tree import SCAN_CELLS, best_split, presort
from modhate.model_io import save_model
from modhate.errors import (
    DimensionMismatchError,
    EvenKError,
    KTooLargeError,
    SingleClassTrainingSetError,
    UsageError,
)


def blobs(n=200, d=5, seed=0):
    """Linearly separable set with margin 1 along feature 0."""
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, size=n).astype(np.int64)
    X = rng.uniform(-1.0, 1.0, size=(n, d))
    gap = rng.uniform(0.0, 1.0, size=n)
    X[:, 0] = np.where(y == 1, 0.5 + gap, -0.5 - gap)
    return X, y


def hp(algo, **kw):
    return Hyperparams(algorithm=algo, **kw)


def gini_best_split(x, y, w):
    """Oracle: best threshold for one column under weighted Gini impurity.

    The per-column scan that best_split replaced. Returns (impurity,
    threshold, ok); the lowest threshold wins impurity ties, and ok is False
    when the column has no distinct pair.
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


def find_best_split(X, y, w):
    """Oracle: lowest Gini over the columns of X, one column at a time.

    Ties resolve to the lowest column (scan order) and lowest threshold
    (inside the column scan). Returns (column, threshold) or None.
    """
    best_imp = np.inf
    best = None
    for f in range(X.shape[1]):
        imp, thr, ok = gini_best_split(X[:, f], y, w)
        if ok and imp < best_imp:
            best_imp = imp
            best = (f, thr)
    return best


def block_split(X, y, w):
    return best_split(X, presort(X), y, w)


class TestHyperparams:
    def test_unknown_algorithm(self):
        with pytest.raises(UsageError):
            Hyperparams(algorithm="mlp")

    def test_nonpositive_setting(self):
        with pytest.raises(UsageError):
            Hyperparams(algorithm="logreg", learning_rate=0.0)

    def test_even_k_rejected_early(self):
        with pytest.raises(EvenKError):
            Hyperparams(algorithm="knn", k_neighbors=4)

    def test_ensemble_defaults(self):
        assert Hyperparams(algorithm="rforest").ensemble_size == 100
        assert Hyperparams(algorithm="adaboost").ensemble_size == 50


class TestLogreg:
    def test_zero_weights_give_half_probability(self):
        # sigmoid(0) = 0.5 exactly: an untrained decision is the 0-label tie
        from modhate.classifiers.linear import _sigmoid
        assert _sigmoid(np.zeros(3)).tolist() == [0.5, 0.5, 0.5]

    def test_separable_blobs_train_accuracy(self):
        X, y = blobs(120, 2, seed=1)
        m = train("logreg", X, y)
        assert np.array_equal(predict(m, X), y)

    def test_loss_trace_non_increasing_for_small_rate(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(60, 4))
        y = (X[:, 0] + 0.3 * rng.normal(size=60) > 0).astype(np.int64)
        m = train("logreg", X, y, hp("logreg", learning_rate=0.01, iterations=400))
        diffs = np.diff(m.payload.loss_trace)
        assert np.all(diffs <= 1e-12)

    def test_single_class_rejected(self):
        X = np.zeros((5, 2))
        with pytest.raises(SingleClassTrainingSetError):
            train("logreg", X, np.ones(5, dtype=np.int64))


class TestSvm:
    def test_symmetric_two_point_boundary(self):
        X = np.array([[-1.0], [1.0]])
        y = np.array([0, 1])
        m = train("svm", X, y, hp("svm", epochs=200))
        assert predict(m, np.array([[-0.5]]))[0] == 0
        assert predict(m, np.array([[0.5]]))[0] == 1

    def test_violations_vanish_on_separable_data(self):
        X, y = blobs(100, 3, seed=3)
        m = train("svm", X, y)
        assert hinge_violations(m, X, y) == 0

    def test_post_standardization_scaling_is_noop(self):
        X, y = blobs(80, 4, seed=4)
        m1 = fit_pipeline("svm", X, y)
        m2 = fit_pipeline("svm", 2.0 * X, y)
        Xq = blobs(40, 4, seed=5)[0]
        assert np.array_equal(predict(m1, Xq), predict(m2, 2.0 * Xq))


def knn_oracle(train_x, train_y, queries, k):
    """Exhaustive scan; distance ties resolve to the lower training index."""
    out = []
    for q in queries:
        d = [(float(np.sum((x - q) ** 2)), i) for i, x in enumerate(train_x)]
        d.sort()
        votes = [train_y[i] for _, i in d[:k]]
        out.append(1 if sum(votes) * 2 > k else 0)
    return np.array(out, dtype=np.int64)


class TestKnn:
    def test_nearest_point(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0]])
        y = np.array([0, 1])
        m = train("knn", X, y, hp("knn", k_neighbors=1))
        assert predict(m, np.array([[0.1, 0.0]]))[0] == 0

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_matches_bruteforce_oracle(self, k):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(100, 5))
        y = rng.integers(0, 2, size=100).astype(np.int64)
        Q = rng.normal(size=(40, 5))
        m = train("knn", X, y, hp("knn", k_neighbors=k))
        assert np.array_equal(predict(m, Q), knn_oracle(X, y, Q, k))

    def test_memorizes_training_set(self):
        X, y = blobs(60, 3, seed=7)
        m = train("knn", X, y, hp("knn", k_neighbors=1))
        assert np.array_equal(predict(m, X), y)

    def test_exact_tie_goes_to_lower_training_index(self):
        # duplicate rows with different labels: k=1 must pick the lower index
        X = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 1.0], [5.0, 5.0]])
        q = np.array([[1.0, 1.0], [0.9, 1.1]])
        for labels in ([0, 0, 1, 1], [0, 1, 0, 1]):
            y = np.array(labels)
            m = train("knn", X, y, hp("knn", k_neighbors=1))
            assert predict(m, q).tolist() == [labels[1], labels[1]]

    def test_distance_hand_values(self):
        d = pairwise_sq_dists(np.array([[0.0, 0.0], [1.0, 1.0]]), np.array([[3.0, 4.0]]))
        assert d.shape == (2, 1)
        assert d[0, 0] == 25.0
        assert d[1, 0] == 13.0

    def test_even_k(self):
        X, y = blobs(20, 2)
        with pytest.raises(EvenKError):
            clf.train_knn(X, y, hp("logreg", k_neighbors=2))  # bypass Hyperparams algo gate

    def test_k_too_large(self):
        X, y = blobs(9, 2)
        with pytest.raises(KTooLargeError):
            train("knn", X, y, hp("knn", k_neighbors=11))


class TestNaiveBayes:
    def test_two_gaussians_query(self):
        X = np.array([[-1.5], [-0.5], [0.5], [1.5]])
        y = np.array([0, 0, 1, 1])
        m = train("nb", X, y)
        assert predict(m, np.array([[0.9]]))[0] == 1

    def test_midpoint_tie_goes_nonhate(self):
        X = np.array([[-1.5], [-0.5], [0.5], [1.5]])
        y = np.array([0, 0, 1, 1])
        m = train("nb", X, y)
        assert predict(m, np.array([[0.0]]))[0] == 0

    def test_log_posteriors_match_closed_form(self):
        X = np.array([[-1.0, 2.0], [-1.2, 1.0], [1.0, 0.0], [1.4, 1.0]])
        y = np.array([0, 0, 1, 1])
        m = train("nb", X, y)
        smoothing = 1e-9 * X.var(axis=0).max()

        def oracle(q):
            lls = []
            for c in (0, 1):
                rows = X[y == c]
                mu = rows.mean(axis=0)
                var = rows.var(axis=0) + smoothing
                ll = np.log(0.5) + np.sum(-0.5 * np.log(2 * np.pi * var) - (q - mu) ** 2 / (2 * var))
                lls.append(ll)
            return np.array(lls)

        rng = np.random.default_rng(8)
        for q in rng.normal(size=(6, 2)):
            got = m.payload.log_posteriors(q.reshape(1, -1))[0]
            assert np.allclose(got, oracle(q), atol=1e-9)


class TestDecisionTree:
    def test_split_clean_separation(self):
        x = np.array([0.0, 1.0, 2.0, 3.0])
        y = np.array([0, 0, 1, 1])
        assert block_split(x.reshape(-1, 1), y, np.ones(4)) == (0, 1.5)
        assert gini_best_split(x, y, np.ones(4)) == (0.0, 1.5, True)

    def test_split_constant_column_invalid(self):
        assert block_split(np.ones((5, 1)), np.array([0, 1, 0, 1, 0]), np.ones(5)) is None

    def test_split_tie_resolves_to_lowest_threshold(self):
        # two equally good cuts; the scan must return the lower midpoint
        assert block_split(np.array([[0.0], [1.0], [2.0], [3.0]]),
                           np.array([0, 1, 0, 1]), np.ones(4)) == (0, 0.5)

    def test_split_weighted(self):
        assert block_split(np.array([[0.0], [1.0], [2.0], [3.0]]), np.array([0, 1, 1, 1]),
                           np.array([10.0, 1.0, 1.0, 1.0])) == (0, 0.5)

    def test_1d_threshold_recovery(self):
        rng = np.random.default_rng(9)
        x = np.sort(rng.uniform(-2, 2, 80))
        y = (x >= 0).astype(np.int64)
        m = train("dtree", x.reshape(-1, 1), y)
        assert np.array_equal(predict(m, x.reshape(-1, 1)), y)
        root = m.payload.root
        assert root.feature == 0
        assert x[y == 0].max() <= root.threshold <= x[y == 1].min()

    def test_separable_blobs(self):
        X, y = blobs(150, 4, seed=10)
        m = train("dtree", X, y)
        assert np.array_equal(predict(m, X), y)

    def test_leaves_carry_counts(self):
        X, y = blobs(40, 2, seed=11)
        m = train("dtree", X, y)

        def walk(node):
            if node.is_leaf:
                assert node.counts[0] + node.counts[1] > 0
            else:
                walk(node.left)
                walk(node.right)
        walk(m.payload.root)


@st.composite
def split_blocks(draw):
    """Blocks that cross at least two scan-chunk boundaries, full of ties.

    Column a has an equal twin b in a later chunk; with labels that follow
    a, the two tie for the best cut and the lower column must win.
    """
    n = draw(st.integers(1, 60))
    step = max(1, SCAN_CELLS // n)
    d = 2 * step + draw(st.integers(1, step))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = np.round(rng.normal(size=(n, d)), draw(st.sampled_from([0, 1])))
    const = rng.choice(d, size=draw(st.integers(0, 5)), replace=False)
    X[:, const] = np.round(rng.normal(size=const.shape[0]), 1)
    a = int(rng.integers(0, step))
    X[:, rng.integers(step, d)] = X[:, a]
    labels = draw(st.sampled_from(["from_a", "random", "one_class"]))
    if labels == "from_a":
        y = (X[:, a] + rng.normal(0.0, 0.3, size=n) > 0)
    elif labels == "random":
        y = rng.integers(0, 2, size=n)
    else:
        y = np.full(n, int(rng.integers(0, 2)))
    weights = draw(st.sampled_from(["uneven", "tenths", "some_zero", "ones"]))
    if weights == "ones":
        w = np.ones(n)
    elif weights == "uneven":
        w = rng.exponential(size=n)
    else:
        w = rng.integers(1, 4, size=n) / 10.0   # their sums depend on the order
        if weights == "some_zero":
            w[rng.random(n) < 0.4] = 0.0
    return X, y.astype(np.int64), w


class TestBlockSplit:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(split_blocks())
    def test_matches_per_column_oracle(self, block):
        X, y, w = block
        # the scan sums each column in the oracle's order only if the
        # presort keeps tied rows in row order, as a per-column stable sort
        oracle_order = np.stack([np.argsort(x, kind="stable") for x in X.T], axis=1)
        assert np.array_equal(presort(X), oracle_order)
        assert block_split(X, y, w) == find_best_split(X, y, w)


WIDE_SHA256 = {
    ("dtree", 1): "d047596da963fd1154570dcd9798639cb90d4dcfb1dc549294911b5944067066",
    ("rforest", 1): "63cd947d95f67fc390520d58b25537fc1a890987d2cb98825fabe7464da702e8",
    ("rforest", 15): "b9b652e14fa04c796e343b21104b327e3a3e206d4824163989c3be3d8f82e1ce",
    ("adaboost", 1): "84bb834111ba5382c811e800bedc36c80ea635f9eaf7f3750bd46c9046fe10ba",
    ("adaboost", 15): "93f3ba1b687826252b9698c3e44d6bdadcafc13d87a8de83b33ce695aa1d0d17",
}


def wide_data():
    """(60, 700) with ties; column 650 repeats column 3, several scan chunks later."""
    rng = np.random.default_rng(20231018)
    X = np.round(rng.normal(size=(60, 700)), 1)
    X[:, 650] = X[:, 3]
    y = (X[:, 3] - 0.4 * X[:, 420] + rng.normal(0.0, 0.5, size=60) > 0).astype(np.int64)
    return X, y


@pytest.mark.parametrize("algo,size", sorted(WIDE_SHA256))
def test_wide_tree_model_bytes(algo, size, tmp_path):
    X, y = wide_data()
    path = tmp_path / f"{algo}.json"
    save_model(fit_pipeline(algo, X, y, hp(algo, max_depth=5, seed=7, ensemble_size=size)), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == WIDE_SHA256[algo, size]


class TestDegenerateTreeInputs:
    CASES = {
        "single_row": (np.array([[0.3, -1.0, 2.0]]), np.array([1])),
        "single_class": (np.array([[0.0, 5.0], [1.0, 5.0], [2.0, 4.0]]), np.array([0, 0, 0])),
        "constant_columns": (np.tile([0.5, -2.0, 7.0], (6, 1)), np.array([0, 1, 0, 1, 1, 0])),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_dtree_and_rforest_stop_at_a_leaf_root(self, case):
        X, y = self.CASES[case]
        root = train("dtree", X, y).payload.root
        assert root.is_leaf and root.feature == -1
        assert root.counts == (float((y == 0).sum()), float((y == 1).sum()))
        for tree in train("rforest", X, y, hp("rforest", ensemble_size=4)).payload.trees:
            assert tree.is_leaf and tree.feature == -1

    def test_adaboost_single_row_constant_stumps(self):
        m = train("adaboost", *self.CASES["single_row"], hp("adaboost", ensemble_size=3))
        assert m.payload.stumps == (clf.ensemble.Stump(-1, 0.0, 1, 1),) * 3
        assert m.payload.alphas == (0.5 * np.log((1.0 - 1e-10) / 1e-10),) * 3

    def test_adaboost_single_class_splits_with_one_label(self):
        # every cut is pure, so the lowest threshold of column 0 wins
        m = train("adaboost", *self.CASES["single_class"], hp("adaboost", ensemble_size=3))
        assert m.payload.stumps == (clf.ensemble.Stump(0, 0.5, 0, 0),) * 3

    def test_adaboost_constant_columns_zero_alpha(self):
        m = train("adaboost", *self.CASES["constant_columns"], hp("adaboost", ensemble_size=3))
        assert m.payload.stumps == (clf.ensemble.Stump(-1, 0.0, 0, 0),) * 3
        assert m.payload.alphas == (0.0,) * 3


class TestRandomForest:
    def test_single_tree_ensemble(self):
        X, y = blobs(50, 3, seed=12)
        m = train("rforest", X, y, hp("rforest", ensemble_size=1))
        assert len(m.payload.trees) == 1

    def test_same_seed_identical_predictions(self):
        X, y = blobs(80, 4, seed=13)
        Q = blobs(30, 4, seed=14)[0]
        m1 = train("rforest", X, y, hp("rforest", ensemble_size=15, seed=5))
        m2 = train("rforest", X, y, hp("rforest", ensemble_size=15, seed=5))
        assert np.array_equal(predict(m1, Q), predict(m2, Q))

    def test_forest_at_least_as_good_as_stump(self):
        X, y = blobs(120, 4, seed=15)
        forest = train("rforest", X, y, hp("rforest", ensemble_size=25, seed=1))
        stump = train("dtree", X, y, hp("dtree", max_depth=1))
        acc_f = (predict(forest, X) == y).mean()
        acc_s = (predict(stump, X) == y).mean()
        assert acc_f >= acc_s


class TestAdaboost:
    def test_round1_alpha_for_quarter_error(self):
        # best stump on this set errs on exactly one of four samples
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 1, 0])
        m = train("adaboost", X, y, hp("adaboost", ensemble_size=1))
        assert m.payload.alphas[0] == pytest.approx(0.5 * np.log(3.0), abs=1e-12)

    def test_separable_first_stump_dominates(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 1, 1])
        m = train("adaboost", X, y, hp("adaboost", ensemble_size=3))
        assert m.payload.alphas[0] > 11.0   # 0.5*ln((1-1e-10)/1e-10) ~ 11.5
        assert np.array_equal(predict(m, X), y)

    def test_weights_sum_to_one_every_round(self):
        X, y = blobs(60, 3, seed=16)
        m = train("adaboost", X, y, hp("adaboost", ensemble_size=10))
        # replay the update from the fitted rounds
        yy = 2.0 * y - 1.0
        w = np.full(60, 1.0 / 60)
        for stump, alpha in zip(m.payload.stumps, m.payload.alphas):
            h = 2.0 * stump.decide(X) - 1.0
            w = w * np.exp(-alpha * yy * h)
            w = w / w.sum()
            assert w.sum() == pytest.approx(1.0, abs=1e-12)


class TestPredictContract:
    def test_empty_input(self):
        X, y = blobs(30, 2, seed=17)
        m = train("logreg", X, y)
        assert predict(m, np.empty((0, 2))).shape == (0,)

    def test_wrong_width(self):
        X, y = blobs(30, 2, seed=18)
        m = train("logreg", X, y)
        with pytest.raises(DimensionMismatchError):
            predict(m, np.zeros((4, 3)))

    def test_labels_binary_and_length(self):
        X, y = blobs(50, 3, seed=19)
        Q = np.random.default_rng(20).normal(size=(23, 3))
        for algo in clf.ALGORITHM_TAGS:
            h = hp(algo, ensemble_size=5) if algo in ("rforest", "adaboost") else hp(algo)
            labels = predict(train(algo, X, y, h), Q)
            assert labels.shape == (23,)
            assert set(np.unique(labels)) <= {0, 1}

    def test_every_trainer_deterministic(self):
        X, y = blobs(60, 4, seed=21)
        Q = np.random.default_rng(22).normal(size=(25, 4))
        for algo in clf.ALGORITHM_TAGS:
            h = hp(algo, ensemble_size=8) if algo in ("rforest", "adaboost") else hp(algo)
            a = predict(train(algo, X, y, h), Q)
            b = predict(train(algo, X, y, h), Q)
            assert np.array_equal(a, b), algo


class TestFitPipeline:
    def test_pipeline_closure(self):
        # raw-space predict must reproduce the train-time transform exactly
        from modhate.feature_selection import standardize_apply
        rng = np.random.default_rng(23)
        X = rng.normal(size=(70, 6)) * np.array([1, 100, 0.01, 5, 2, 50])
        y = (X[:, 1] > 0).astype(np.int64)
        m = fit_pipeline("logreg", X, y, select="mrmr", k=3)
        Z = standardize_apply(m.standardization, X)[:, list(m.selected)]
        assert np.array_equal(predict(m, X), m.payload.decide(Z))

    def test_selection_stored_in_model(self):
        X, y = blobs(60, 5, seed=24)
        m = fit_pipeline("dtree", X, y, select="rfe", k=2)
        assert m.selected is not None and len(m.selected) == 2
        assert m.n_features == 5
