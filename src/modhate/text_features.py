"""Transcript vectorization: tokenization, vocabulary, counts and TF-IDF.

Documents are whole transcripts. Tokens are maximal [a-z]+ runs of the
lowercased text; everything else is a separator. The vocabulary is fit on
the training split only; out-of-vocabulary tokens contribute nothing at
vectorization time (but do count toward TF denominators).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from modhate.errors import EmptyCorpusError
from modhate.ingest import read_text

_TOKEN_SPLIT = re.compile(r"[^a-z]+")

# ~120 high-frequency English function words
DEFAULT_STOPWORDS = frozenset("""
a about above after again all am an and any are as at be because been before
being below between both but by can could did do does doing down during each
few for from further had has have having he her here hers herself him himself
his how i if in into is it its itself just me more most my myself no nor not
now of off on once only or other our ours ourselves out over own re s same she
should so some such t than that the their theirs them themselves then there
these they this those through to too under until up very was we were what when
where which while who whom why will with you your yours yourself yourselves
""".split())


@dataclass(frozen=True)
class Vocabulary:
    index: dict[str, int]       # token -> dense column, lexicographic order
    doc_freq: dict[str, int]    # token -> number of training docs containing it
    n_docs: int
    # derived once from the three fields above; equality compares only those
    tokens: list[str] = field(init=False, compare=False, repr=False)
    idf: np.ndarray = field(init=False, compare=False, repr=False)   # ln(N/n_t), column order

    def __post_init__(self):
        tokens = sorted(self.index, key=self.index.get)
        object.__setattr__(self, "tokens", tokens)
        object.__setattr__(self, "idf", np.array(
            [math.log(self.n_docs / self.doc_freq[t]) for t in tokens], dtype=np.float64))

    def __len__(self) -> int:
        return len(self.index)


def normalize_and_tokenize(raw: str, stopwords: frozenset[str] | set[str] = DEFAULT_STOPWORDS) -> list[str]:
    """Lowercase, split on non-alphabetic runs, drop empties and stop-words."""
    return [t for t in _TOKEN_SPLIT.split(raw.lower()) if t and t not in stopwords]


def build_vocabulary(train_docs: list[list[str]]) -> Vocabulary:
    """Union of train tokens, sorted; doc_freq counts documents, not occurrences."""
    if not train_docs:
        raise EmptyCorpusError("no training documents")
    df: dict[str, int] = {}
    for doc in train_docs:
        for tok in set(doc):
            df[tok] = df.get(tok, 0) + 1
    tokens = sorted(df)
    return Vocabulary(
        index={t: i for i, t in enumerate(tokens)},
        doc_freq=df,
        n_docs=len(train_docs),
    )


def count_vectorize(doc: list[str], vocab: Vocabulary) -> np.ndarray:
    """Occurrence counts per vocabulary token; OOV tokens are ignored."""
    vec = np.zeros(len(vocab), dtype=np.float64)
    for tok in doc:
        i = vocab.index.get(tok)
        if i is not None:
            vec[i] += 1.0
    return vec


def tfidf_vectorize(doc: list[str], vocab: Vocabulary) -> np.ndarray:
    """(count/len(doc)) * ln(N/n_t) per token; the TF denominator includes OOV tokens."""
    counts = count_vectorize(doc, vocab)
    if not doc:
        return counts
    tf = counts / len(doc)
    return tf * vocab.idf


def vectorize(doc: list[str], vocab: Vocabulary, mode: str) -> np.ndarray:
    if mode == "count":
        return count_vectorize(doc, vocab)
    if mode == "tfidf":
        return tfidf_vectorize(doc, vocab)
    raise ValueError(f"unknown text mode {mode!r}")


def load_stopwords(path: str | Path) -> frozenset[str]:
    """One token per line, UTF-8; blank lines ignored."""
    lines = read_text(path, "stopword file").splitlines()
    return frozenset(t.strip().lower() for t in lines if t.strip())


def write_vocabulary(vocab: Vocabulary, path: str | Path) -> None:
    """Dump as `token,index,doc_freq` CSV; the leading comment carries N."""
    lines = [f"# n_docs={vocab.n_docs}", "token,index,doc_freq"]
    lines += [f"{t},{vocab.index[t]},{vocab.doc_freq[t]}" for t in vocab.tokens]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
