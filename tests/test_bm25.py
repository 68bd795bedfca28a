"""BM25 scoring against an independently hand-computed oracle, self-retrieval,
tie-breaking, and CJK bigram tokenization."""

from __future__ import annotations

import math
import random

from estateqa.bm25 import Bm25Index, tokenize

import pytest


def oracle_bm25_scores(docs: list[str], query: str, k1=1.2, b=0.75) -> list[float]:
    """Textbook formula written out independently of the implementation."""
    doc_tokens = [tokenize(d) for d in docs]
    n = len(docs)
    avgdl = sum(len(t) for t in doc_tokens) / n
    scores = []
    for tokens in doc_tokens:
        score = 0.0
        for term in tokenize(query):
            f = tokens.count(term)
            if f == 0:
                continue
            df = sum(1 for other in doc_tokens if term in other)
            idf = math.log(1 + (n - df + 0.5) / (df + 0.5))
            score += idf * (f * (k1 + 1)) / (f + k1 * (1 - b + b * len(tokens) / avgdl))
        scores.append(score)
    return scores


TOY_DOCS = [
    "Table for Communities in Guangzhou",
    "Table for POIs in Guangzhou",
    "Table for Communities around POIs in Shenzhen",
]


def test_scores_match_hand_computed_oracle():
    index = Bm25Index(TOY_DOCS)
    for query in (
        "Communities in Guangzhou",
        "POIs Shenzhen",
        "Table",
        "communities around pois",
    ):
        expected = oracle_bm25_scores(TOY_DOCS, query)
        got = [index.score(query, i) for i in range(len(TOY_DOCS))]
        for g, e in zip(got, expected):
            assert abs(g - e) < 1e-9


def test_self_retrieval_rank_one(desk_store):
    captions = [c.caption for c in desk_store.list_captions()]
    assert len(captions) == 8
    index = Bm25Index(captions)
    for caption in captions:
        assert index.captions[index.rank(caption)[0]] == caption


def test_zero_overlap_scores_zero_lexicographic_order():
    index = Bm25Index(TOY_DOCS)
    assert all(index.score("zzz qqq unrelated", i) == 0.0 for i in range(len(TOY_DOCS)))
    best, score = index.rank("zzz qqq unrelated")
    assert score == 0.0 and index.captions[best] == min(TOY_DOCS)


def test_scores_nonnegative_and_permutation_invariant():
    rng = random.Random(3)
    docs = [
        " ".join(rng.choice(["alpha", "beta", "gamma", "delta", "table", "city"])
                 for _ in range(rng.randint(3, 8)))
        for _ in range(12)
    ]
    shuffled = docs[:]
    rng.shuffle(shuffled)
    a = Bm25Index(docs)
    b = Bm25Index(shuffled)
    for query in ("alpha table", "gamma delta city", "beta"):
        scores_a = {doc: a.score(query, i) for i, doc in enumerate(docs)}
        scores_b = {doc: b.score(query, i) for i, doc in enumerate(shuffled)}
        for doc in docs:
            assert scores_a[doc] >= 0.0
            assert scores_a[doc] == pytest.approx(scores_b[doc], abs=1e-12)


def test_cjk_bigram_tokenization():
    tokens = tokenize("广州市社区表")
    assert "广州" in tokens  # bigram
    assert "广" in tokens  # single char
    docs = ["广州市社区表", "深圳市兴趣点表"]
    index = Bm25Index(docs)
    assert index.rank("广州社区")[0] == 0
    assert index.rank("深圳")[0] == 1


def test_mixed_cjk_latin_tokens():
    tokens = tokenize("Table广州for社区")
    assert "table" in tokens
    assert "for" in tokens
    assert "广州" in tokens


def test_empty_corpus_rejected():
    with pytest.raises(ValueError):
        Bm25Index([])


def test_rank_scores_equal_score_for_every_caption(desk_store):
    """rank tokenizes the query once; the caption it picks is the best by
    ``score(query, i)``, a tie going to the least caption text, and its score
    is bit-identical, repeated and unknown terms included."""
    captions = [c.caption for c in desk_store.list_captions()] + TOY_DOCS + ["广州市社区表"]
    index = Bm25Index(captions)
    queries = captions + [
        "communities communities around POIs in Guangzhou zzz",
        "Table 广州 社区 pois pois",
        "",
        "no term here matches",
    ]
    for query in queries:
        scores = [index.score(query, i) for i in range(len(captions))]
        best = min(range(len(captions)), key=lambda i: (-scores[i], captions[i]))
        assert index.rank(query) == (best, scores[best]), query
