import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modhate import text_features as tf
from modhate.errors import EmptyCorpusError


class TestNormalizeAndTokenize:
    def test_contraction_and_stopwords(self):
        toks = tf.normalize_and_tokenize("You're SO stupid!!", stopwords={"you", "re", "so"})
        assert toks == ["stupid"]

    def test_empty_input(self):
        assert tf.normalize_and_tokenize("") == []

    def test_nonalpha_separators(self):
        assert tf.normalize_and_tokenize("a-b_c", stopwords=frozenset()) == ["a", "b", "c"]

    def test_digits_and_unicode_are_separators(self):
        assert tf.normalize_and_tokenize("word1word café 3x", stopwords=frozenset()) == \
            ["word", "word", "caf", "x"]

    def test_default_stopwords_applied(self):
        assert tf.normalize_and_tokenize("the cat and the hat") == ["cat", "hat"]


class TestBuildVocabulary:
    def test_two_doc_counts(self):
        v = tf.build_vocabulary([["a", "b"], ["a", "c"]])
        assert v.tokens == ["a", "b", "c"]
        assert v.index == {"a": 0, "b": 1, "c": 2}
        assert v.doc_freq == {"a": 2, "b": 1, "c": 1}
        assert v.n_docs == 2

    def test_single_doc(self):
        v = tf.build_vocabulary([["x", "y", "x"]])
        assert v.doc_freq == {"x": 1, "y": 1}
        assert v.n_docs == 1

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpusError):
            tf.build_vocabulary([])

    def test_indices_dense_and_sorted(self):
        v = tf.build_vocabulary([["pear", "apple"], ["zebra", "apple", "mango"]])
        assert sorted(v.index.values()) == list(range(len(v)))
        assert v.tokens == sorted(v.tokens)

    def test_test_docs_never_change_vocab(self):
        # leakage guard: vocabulary depends on the train split only
        train = [["a", "b"], ["c"]]
        v1 = tf.build_vocabulary(train)
        _ = tf.count_vectorize(["zzz", "qqq"], v1)   # unseen test doc
        v2 = tf.build_vocabulary(train)
        assert v1 == v2


class TestCountVectorize:
    def test_hand_counts(self):
        v = tf.build_vocabulary([["a", "b", "c"]])
        assert np.array_equal(tf.count_vectorize(["a", "a", "b"], v), [2.0, 1.0, 0.0])

    def test_empty_doc(self):
        v = tf.build_vocabulary([["a"]])
        assert np.array_equal(tf.count_vectorize([], v), [0.0])

    def test_oov_only_doc(self):
        v = tf.build_vocabulary([["a"]])
        assert np.array_equal(tf.count_vectorize(["zz", "yy"], v), [0.0])

    @given(st.lists(st.sampled_from("abcde"), max_size=30), st.lists(st.sampled_from("abcde"), max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_linearity_in_token_multiset(self, d1, d2):
        v = tf.build_vocabulary([list("abcde")])
        lhs = tf.count_vectorize(d1 + d2, v)
        rhs = tf.count_vectorize(d1, v) + tf.count_vectorize(d2, v)
        assert np.array_equal(lhs, rhs)


class TestTfidfVectorize:
    def test_two_doc_hand_values(self):
        v = tf.build_vocabulary([["a", "b"], ["a", "c"]])
        vec = tf.tfidf_vectorize(["a", "c"], v)
        assert abs(vec[v.index["a"]] - 0.0) < 1e-12
        assert abs(vec[v.index["c"]] - 0.5 * math.log(2.0)) < 1e-12
        assert vec[v.index["b"]] == 0.0

    def test_ubiquitous_token_zeroed(self):
        v = tf.build_vocabulary([["a", "b"], ["a"], ["a", "c"]])
        vec = tf.tfidf_vectorize(["a", "a", "a"], v)
        assert vec[v.index["a"]] == 0.0

    def test_empty_doc(self):
        v = tf.build_vocabulary([["a"]])
        assert np.array_equal(tf.tfidf_vectorize([], v), [0.0])

    def test_oov_inflates_tf_denominator(self):
        v = tf.build_vocabulary([["a"], ["b"]])
        with_oov = tf.tfidf_vectorize(["a", "zz"], v)
        without = tf.tfidf_vectorize(["a"], v)
        assert with_oov[v.index["a"]] == pytest.approx(without[v.index["a"]] / 2)

    def test_nonnegative(self):
        v = tf.build_vocabulary([["a", "b"], ["b", "c"], ["c", "d"]])
        rng = np.random.default_rng(0)
        for _ in range(20):
            doc = list(rng.choice(["a", "b", "c", "d", "zz"], size=rng.integers(0, 12)))
            assert np.all(tf.tfidf_vectorize(doc, v) >= 0.0)

    def test_matches_per_document_idf_oracle(self):
        # the idf vector is computed once per vocabulary; it must equal
        # ln(N/n_t) recomputed per document in column order
        v = tf.build_vocabulary([["a", "b"], ["b", "c"], ["c", "d"], ["a", "c"]])
        rng = np.random.default_rng(1)
        for _ in range(20):
            doc = list(rng.choice(["a", "b", "c", "d", "zz"], size=rng.integers(1, 12)))
            idf = np.array([math.log(v.n_docs / v.doc_freq[t]) for t in sorted(v.index, key=v.index.get)])
            assert np.array_equal(tf.tfidf_vectorize(doc, v), tf.count_vectorize(doc, v) / len(doc) * idf)

    def test_deterministic(self):
        v = tf.build_vocabulary([["a", "b"], ["a", "c"]])
        doc = ["a", "c", "b", "b"]
        assert np.array_equal(tf.tfidf_vectorize(doc, v), tf.tfidf_vectorize(doc, v))


class TestVocabularyIo:
    def test_stopword_file(self, tmp_path):
        p = tmp_path / "stop.txt"
        p.write_text("Foo\nbar\n\n  baz  \n", encoding="utf-8")
        assert tf.load_stopwords(p) == frozenset({"foo", "bar", "baz"})
