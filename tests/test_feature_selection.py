import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modhate import feature_selection as fs
from modhate.errors import BadTargetCountError, EmptyMatrixError


class TestStandardize:
    def test_constant_column_centered_only(self):
        X = np.array([[3.0, 1.0], [3.0, 2.0], [3.0, 3.0]])
        params, Z, _ = fs.standardize_fit_apply(X)
        assert np.all(Z[:, 0] == 0.0)
        assert params.std[0] == 0.0

    def test_two_value_column(self):
        X = np.array([[0.0], [2.0]])
        _, Z, _ = fs.standardize_fit_apply(X)
        assert Z[:, 0].tolist() == [-1.0, 1.0]

    def test_train_params_applied_to_test_verbatim(self):
        rng = np.random.default_rng(0)
        train = rng.normal(size=(50, 3))
        test = rng.normal(loc=100.0, size=(20, 3))   # wildly different stats
        params, _, test_Z = fs.standardize_fit_apply(train, test)
        assert np.array_equal(test_Z, fs.standardize_apply(params, test))
        assert abs(test_Z.mean()) > 10.0   # test stats were NOT recomputed

    def test_empty_matrix(self):
        with pytest.raises(EmptyMatrixError):
            fs.standardize_fit(np.empty((0, 4)))


def planted(seed, n=120, d=5):
    """Feature 0 is the label signal; the rest is pure noise."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d))
    y = (X[:, 0] > 0).astype(np.int64)
    Z = fs.standardize_apply(fs.standardize_fit(X), X)
    return Z, y


def best_single_feature_by_accuracy(X, y):
    """Brute-force oracle: best threshold accuracy per feature."""
    best_acc, best_f = -1.0, -1
    for f in range(X.shape[1]):
        xs = np.sort(np.unique(X[:, f]))
        cuts = np.concatenate([[-np.inf], (xs[:-1] + xs[1:]) / 2, [np.inf]])
        for c in cuts:
            pred = (X[:, f] > c).astype(np.int64)
            acc = max((pred == y).mean(), (1 - pred == y).mean())
            if acc > best_acc:
                best_acc, best_f = acc, f
    return best_f


class TestRfe:
    def test_single_step_removes_one(self):
        Z, y = planted(1)
        res = fs.rfe_select(Z, y, k=4)
        assert len(res.kept) == 4
        assert len(res.order) == 1

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_planted_relevance_recovery(self, seed):
        Z, y = planted(seed)
        res = fs.rfe_select(Z, y, k=1)
        assert res.kept == (0,)
        assert best_single_feature_by_accuracy(Z, y) == 0

    def test_k_equal_d_rejected(self):
        Z, y = planted(4)
        with pytest.raises(BadTargetCountError):
            fs.rfe_select(Z, y, k=5)

    def test_incrementality(self):
        # k = d - r equals r successive single-step eliminations
        Z, y = planted(5, d=6)
        res3 = fs.rfe_select(Z, y, k=3)
        cols = list(range(6))
        for _ in range(3):
            res = fs.rfe_select(Z[:, cols], y, k=len(cols) - 1)
            gone = set(cols) - {cols[i] for i in res.kept}
            cols = [c for c in cols if c not in gone]
        assert tuple(cols) == res3.kept


def bin_codes_oracle(col, n_bins):
    """The per-column binning that the block `_bin_codes` replaced."""
    lo = col.min()
    hi = col.max()
    if hi == lo:
        return np.zeros(col.shape[0], dtype=np.int64)
    codes = np.floor((col - lo) / (hi - lo) * n_bins).astype(np.int64)
    return np.clip(codes, 0, n_bins - 1)


def mi_from_codes_oracle(a, na, b, nb):
    """The one-table MI that the block `_mi_rows` replaced."""
    counts = np.bincount(a * nb + b, minlength=na * nb).reshape(na, nb)
    n = a.shape[0]
    p = counts / n
    pa = p.sum(axis=1, keepdims=True)
    pb = p.sum(axis=0, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = p * np.log2(p / (pa * pb))
    return float(np.nansum(terms))


@st.composite
def code_matrices(draw):
    """A (n, d) matrix mixing normal, constant, rounded, tied and duplicate columns."""
    n = draw(st.integers(min_value=2, max_value=60))
    kinds = draw(st.lists(st.sampled_from(["normal", "constant", "rounded", "tied", "duplicate"]),
                          min_size=1, max_size=12))
    scale = 10.0 ** draw(st.integers(min_value=-5, max_value=5))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    cols = []
    for kind in kinds:
        if kind == "constant":
            col = np.full(n, rng.normal())
        elif kind == "rounded":
            col = np.round(rng.normal(size=n), 1)
        elif kind == "tied":
            col = rng.integers(0, 3, size=n).astype(np.float64)
        elif kind == "duplicate" and cols:
            col = cols[-1]
        else:
            col = rng.normal(size=n)
        cols.append(col)
    return np.column_stack(cols) * scale, rng.integers(0, 2, size=n)


class TestBlockRoutinesMatchOracle:
    @given(data=code_matrices(), nb=st.sampled_from([2, 8]))
    @settings(max_examples=60, deadline=None)
    def test_bin_codes_and_mi_rows_bitwise(self, data, nb):
        X, y = data
        codes = fs._bin_codes(X, fs.MI_BINS)
        want = np.column_stack([bin_codes_oracle(X[:, f], fs.MI_BINS) for f in range(X.shape[1])])
        assert codes.dtype == np.int64 and np.array_equal(codes, want)

        rows = np.ascontiguousarray(codes.T)
        b = y if nb == 2 else rows[-1]
        got = fs._mi_rows(rows, fs.MI_BINS, b, nb)
        want = np.array([mi_from_codes_oracle(r, fs.MI_BINS, b, nb) for r in rows])
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestMutualInformation:
    def test_constant_feature_zero(self):
        y = np.array([0, 1] * 10)
        assert fs.mutual_information(np.ones(20), y) == 0.0

    def test_feature_equals_label_one_bit(self):
        y = np.array([0, 1] * 10)
        assert fs.mutual_information(y.astype(float), y) == pytest.approx(1.0, abs=1e-12)

    def test_joint_counts_hand_example(self):
        # joint counts [[1, 1], [0, 1], [2, 1]] over n = 6, marginals (2, 1, 3) and (3, 3)
        a = np.array([0, 0, 1, 2, 2, 2])
        b = np.array([0, 1, 1, 0, 0, 1])
        want = (1 / 6) * np.log2(2) + (2 / 6) * np.log2(4 / 3) + (1 / 6) * np.log2(2 / 3)
        assert fs._mi_rows(a[None], 3, b, 2)[0] == pytest.approx(want, abs=1e-12)

    def test_nonnegative_on_random_inputs(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            col = rng.normal(size=40)
            y = rng.integers(0, 2, size=40).astype(np.int64)
            assert fs.mutual_information(col, y) >= 0.0


class TestMrmr:
    def test_k1_max_relevance(self):
        Z, y = planted(7)
        res = fs.mrmr_select(Z, y, k=1)
        rels = [fs.mutual_information(Z[:, f], y) for f in range(5)]
        assert res.kept == (int(np.argmax(rels)),)

    def test_redundant_copy_skipped(self):
        rng = np.random.default_rng(8)
        n = 200
        y = rng.integers(0, 2, size=n).astype(np.int64)
        a = y + 0.05 * rng.normal(size=n)          # strong signal
        b = a.copy()                                # exact copy: fully redundant
        c = y + 0.8 * rng.normal(size=n)            # weak signal
        X = np.column_stack([a, b, c])
        res = fs.mrmr_select(X, y, k=2)
        assert set(res.kept) == {0, 2}
        assert res.order[0] == 0                    # ties go to the lowest index

        # oracle: exhaustive evaluation of the greedy criterion at step 2,
        # with an independent histogram2d-based MI
        def mi_binned(u, v, nv):
            def codes(col, nb):
                lo, hi = col.min(), col.max()
                if hi == lo:
                    return np.zeros(len(col), dtype=int)
                return np.clip(np.floor((col - lo) / (hi - lo) * nb).astype(int), 0, nb - 1)
            joint, _, _ = np.histogram2d(codes(u, 8), codes(v, nv), bins=(range(9), range(nv + 1)))
            p = joint / joint.sum()
            pu = p.sum(axis=1, keepdims=True)
            pv = p.sum(axis=0, keepdims=True)
            nz = p > 0
            return float((p[nz] * np.log2(p[nz] / (pu @ pv)[nz])).sum())

        rel = {f: mi_binned(X[:, f], y.astype(float), 2) for f in (1, 2)}
        red = {f: mi_binned(X[:, f], X[:, 0], 8) for f in (1, 2)}
        scores = {f: rel[f] - red[f] for f in (1, 2)}
        assert max(scores, key=scores.get) == 2

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_planted_relevance_recovery(self, seed):
        Z, y = planted(seed)
        assert fs.mrmr_select(Z, y, k=1).kept == (0,)

    def test_k_equals_d_full_ordering(self):
        Z, y = planted(9)
        res = fs.mrmr_select(Z, y, k=5)
        assert sorted(res.order) == [0, 1, 2, 3, 4]
        assert res.kept == (0, 1, 2, 3, 4)

    def test_bad_k(self):
        Z, y = planted(10)
        with pytest.raises(BadTargetCountError):
            fs.mrmr_select(Z, y, k=0)

    def test_pinned_order_with_constant_duplicate_and_few_valued_columns(self):
        rng = np.random.default_rng(20240)
        X = rng.normal(size=(40, 600))
        y = (X[:, 0] + 0.7 * X[:, 1] + 0.5 * rng.normal(size=40) > 0).astype(np.int64)
        X[:, 2] = X[:, 0]                                   # duplicates of the two signal columns
        X[:, 3] = X[:, 1]
        X[:, 50:60] = 1.5                                   # constant
        X[:, 60:160] = rng.integers(0, 3, size=(40, 100))   # few-valued: many tied scores
        X[:, 160:260] = np.round(X[:, 160:260], 1)
        X[:, 260:300] = X[:, 300:340] * 1e-5
        assert list(fs.mrmr_select(X, y, 32).order) == [
            1, 50, 0, 51, 52, 568, 53, 565, 54, 3, 55, 56, 154, 450, 57, 58,
            59, 517, 83, 157, 344, 137, 548, 156, 80, 466, 142, 87, 98, 2, 70, 133]


def test_mrmr_drops_entropy_family_on_demo_audio(demo_pipeline):
    # seeded regression on the frozen demo corpus: with 29 of 33 audio
    # features kept, at least two of the entropy/spread/flux family are
    # ranked expendable
    from modhate.ingest import parse_manifest
    from modhate.tables import read_feature_csv, read_split_csv

    work = demo_pipeline["work"]
    ids, names, X = read_feature_csv(work / "features" / "audio.csv")
    split = read_split_csv(work / "features" / "splits.csv")
    labels = {r.id: r.label for r in parse_manifest(demo_pipeline["corpus"] / "manifest.csv")}
    train_ids = [i for i in ids if split[i] == "train"]
    index = {sid: k for k, sid in enumerate(ids)}
    Xtr = X[[index[i] for i in train_ids]]
    ytr = np.array([labels[i] for i in train_ids], dtype=np.int64)

    Ztr = fs.standardize_apply(fs.standardize_fit(Xtr), Xtr)
    result = fs.mrmr_select(Ztr, ytr, k=29)
    eliminated = {names[f] for f in set(range(33)) - set(result.kept)}
    family = {"energy_entropy", "spread_hz", "spectral_entropy", "flux"}
    assert len(eliminated & family) >= 2, eliminated


class TestSelectorProperties:
    @given(
        k=st.integers(min_value=1, max_value=9),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=12, deadline=None)
    def test_both_return_exactly_k_valid_indices(self, k, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(40, 10))
        y = rng.integers(0, 2, size=40).astype(np.int64)
        if len(np.unique(y)) < 2:
            y[0] = 1 - y[0]
        Z = fs.standardize_apply(fs.standardize_fit(X), X)
        for res in (fs.rfe_select(Z, y, k), fs.mrmr_select(Z, y, k)):
            assert len(res.kept) == k
            assert len(set(res.kept)) == k
            assert all(0 <= f < 10 for f in res.kept)

    def test_deterministic(self):
        Z, y = planted(11, d=8)
        assert fs.rfe_select(Z, y, 3) == fs.rfe_select(Z, y, 3)
        assert fs.mrmr_select(Z, y, 3) == fs.mrmr_select(Z, y, 3)
