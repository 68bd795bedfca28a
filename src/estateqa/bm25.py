"""BM25 ranking over table captions.

Standard Okapi scoring with the non-negative idf variant
idf(t) = ln(1 + (N - df + 0.5) / (df + 0.5)), with the fixed K1=1.2 and B=0.75.

Tokenization: lowercase, split on non-alphanumeric boundaries; runs of CJK
characters additionally emit character bigrams so retrieval stays meaningful
for Chinese captions without a segmenter.
"""

from __future__ import annotations

import math
import re
from collections import Counter

K1 = 1.2
B = 0.75

_WORD_RE = re.compile(r"\w+", re.UNICODE)
_CJK_RE = re.compile(r"[一-鿿㐀-䶿]+")


def tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    for word in _WORD_RE.findall(text.casefold()):
        cjk_runs = _CJK_RE.findall(word)
        if not cjk_runs:
            tokens.append(word)
            continue
        # keep non-CJK remnants, expand each CJK run into chars + bigrams
        remnant = _CJK_RE.sub(" ", word).split()
        tokens.extend(remnant)
        for run in cjk_runs:
            tokens.extend(run)
            tokens.extend(run[i : i + 2] for i in range(len(run) - 1))
    return tokens


class Bm25Index:
    def __init__(self, captions: list[str]) -> None:
        if not captions:
            raise ValueError("cannot build an index over an empty caption corpus")
        self.captions = list(captions)
        self._tf = [Counter(tokenize(c)) for c in captions]
        self._doc_len = [sum(tf.values()) for tf in self._tf]
        self.avgdl = sum(self._doc_len) / len(captions)
        df: Counter[str] = Counter()
        for tf in self._tf:
            df.update(tf.keys())
        n = len(captions)
        self._idf = {
            t: math.log(1.0 + (n - d + 0.5) / (d + 0.5)) for t, d in df.items()
        }

    def score(self, query: str, doc_index: int) -> float:
        return self._score(tokenize(query), doc_index)

    def _score(self, terms: list[str], doc_index: int) -> float:
        tf = self._tf[doc_index]
        dl = self._doc_len[doc_index]
        norm = K1 * (1.0 - B + B * dl / self.avgdl) if self.avgdl else K1
        total = 0.0
        for term in terms:
            f = tf.get(term)
            if not f:
                continue
            total += self._idf[term] * f * (K1 + 1.0) / (f + norm)
        return total

    def rank(self, query: str) -> tuple[int, float]:
        """The index and score of the best caption; a tie goes to the least
        caption text. The query is tokenized once; a term no caption holds
        adds nothing to any score, so it is dropped before scoring."""
        terms = [t for t in tokenize(query) if t in self._idf]
        scores = [self._score(terms, i) for i in range(len(self.captions))]
        best = min(range(len(scores)), key=lambda i: (-scores[i], self.captions[i]))
        return best, scores[best]
