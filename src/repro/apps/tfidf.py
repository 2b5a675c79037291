"""From-scratch tf-idf vectorization and cosine (dis)similarity.

TAGP (Example 2) measures the assignment cost of a user to an
advertisement with "some (dis-)similarity measure (e.g., tf-idf) between
his current discussions and the advertisement topic".  This module
provides the standard tf-idf pipeline used by
:mod:`repro.apps.tagp`: tokenize, build a vocabulary with smoothed
inverse document frequencies, embed documents as sparse vectors, and
compare them by cosine similarity.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence

from repro.errors import ConfigurationError

_TOKEN_RE = re.compile(r"[a-z0-9]+")

SparseVector = Dict[str, float]


def tokenize(text: str) -> List[str]:
    """Lowercase alphanumeric tokens of ``text``."""
    return _TOKEN_RE.findall(text.lower())


def term_frequencies(tokens: Sequence[str]) -> Dict[str, float]:
    """Relative term frequencies of a token list (empty dict if empty)."""
    if not tokens:
        return {}
    counts: Dict[str, int] = {}
    for token in tokens:
        counts[token] = counts.get(token, 0) + 1
    total = float(len(tokens))
    return {term: count / total for term, count in counts.items()}


@dataclass
class TfIdfModel:
    """A fitted vocabulary with smoothed idf weights.

    ``idf(t) = ln((1 + N) / (1 + df(t))) + 1`` — the standard smoothed
    form that never zeroes out a term entirely.
    """

    idf: Dict[str, float]
    num_documents: int

    def transform(self, text: str) -> SparseVector:
        """Embed ``text``; out-of-vocabulary terms are dropped."""
        tf = term_frequencies(tokenize(text))
        return {
            term: frequency * self.idf[term]
            for term, frequency in tf.items()
            if term in self.idf
        }


def fit_tfidf(documents: Iterable[str]) -> TfIdfModel:
    """Fit a :class:`TfIdfModel` on a corpus of raw strings."""
    documents = list(documents)
    if not documents:
        raise ConfigurationError("tf-idf needs at least one document")
    document_frequency: Dict[str, int] = {}
    for document in documents:
        for term in dict.fromkeys(tokenize(document)):
            document_frequency[term] = document_frequency.get(term, 0) + 1
    n = len(documents)
    idf = {
        term: math.log((1.0 + n) / (1.0 + df)) + 1.0
        for term, df in document_frequency.items()
    }
    return TfIdfModel(idf=idf, num_documents=n)


def cosine_similarity(a: SparseVector, b: SparseVector) -> float:
    """Cosine similarity in ``[0, 1]`` for non-negative vectors."""
    if not a or not b:
        return 0.0
    if len(b) < len(a):
        a, b = b, a
    dot = sum(value * b.get(term, 0.0) for term, value in a.items())
    norm_a = math.sqrt(sum(v * v for v in a.values()))
    norm_b = math.sqrt(sum(v * v for v in b.values()))
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    return dot / (norm_a * norm_b)


def cosine_dissimilarity(a: SparseVector, b: SparseVector) -> float:
    """``1 − cosine`` — a cost in ``[0, 1]`` (0 = identical topics)."""
    return 1.0 - cosine_similarity(a, b)
