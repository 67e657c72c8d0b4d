"""Weak-supervision label model and the vote rule for open-ended extraction.

Implements the label-model family of Ratner et al. / Fu et al. in the
one-coin Dawid-Skene form: each function j has a latent accuracy p_j
(probability its non-abstaining vote equals the true value); the paper's
Appendix-D constraint — equal class-conditional accuracies — is exactly
the one-coin assumption, needed because the "classes" (candidate value
strings) differ per document.

Votes are a (docs x functions) block of value codes, ``-1`` where a
function abstains; a smaller code is the first string. One rule serves
Algorithm 1 three times: ``tally`` gives each vote its value's count and
weight sum in its doc, ``winner`` the doc's argmax, ties to the smallest
code. Top-B bucketing is B rounds of the winner by count, the EM E-step
the winner by weight, and the vote (``aggregate.aggregate_votes``) the
winner by the fitted weights over the top-B votes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

B = 4  # classes per doc: Algorithm 1 keeps each doc's top-b value buckets
N_ITER = 10  # EM iterations


def tally(codes: np.ndarray, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per vote, how many of its doc's votes share its value, and their
    weight sum (abstentions' tallies mean nothing). The weights add one
    column at a time, in column order, so a sum is a loop's over the
    doc's votes in that order, to the bit."""
    n = np.zeros(codes.shape, dtype=np.int64)
    score = np.zeros(codes.shape)
    for j in range(codes.shape[1]):
        same = codes == codes[:, [j]]
        n += same
        score += np.where(same, weights[j], 0.0)
    return n, score


def winner(codes: np.ndarray, score: np.ndarray) -> np.ndarray:
    """Per doc, the code of its highest-scoring vote, ties to the smallest
    code; ``-1`` where every function abstains."""
    voted = codes >= 0
    s = np.where(voted, score, -np.inf)
    best = voted & (s == s.max(axis=1, keepdims=True))
    none = np.iinfo(codes.dtype).max
    win = np.where(best, codes, none).min(axis=1)
    return np.where(win == none, -1, win)


def top_b(codes: np.ndarray, b: int) -> np.ndarray:
    """``codes`` with the votes outside each doc's ``b`` most-voted values
    (ties to the smallest code) turned into abstentions."""
    n, _ = tally(codes, np.zeros(codes.shape[1]))
    left, keep = codes.copy(), np.zeros(codes.shape, dtype=bool)
    for _ in range(b):
        hit = (left >= 0) & (left == winner(left, n)[:, None])
        keep |= hit
        left[hit] = -1
    return np.where(keep, codes, -1)


@dataclass
class LabelModel:
    """Learned per-function accuracies + vote weights."""

    accuracies: dict[str, float]

    def weight(self, fid: str) -> float:
        return _log_odds(self.accuracies.get(fid, 0.5))


def _log_odds(p: float) -> float:
    return math.log(p * (B - 1) / (1 - p))


def _clip(p: float) -> float:
    """Keep an accuracy in [0.05, 0.95], so every log-odds weight is finite."""
    return min(0.95, max(0.05, p))


def fit_label_model(votes: np.ndarray, fids: list[str]) -> LabelModel:
    """EM fit of one-coin accuracies from a codes block, one row per doc.

    ``votes``' first columns are ``fids``' votes; any further columns are
    voters outside ``fids`` at the neutral accuracy 0.5. Initialization
    is agreement-with-majority; iterations re-estimate the latent label
    as the accuracy-weighted vote (``winner``) and the accuracies as
    agreement with that label.
    """
    acc = [0.7] * len(fids)
    own = votes[:, :len(fids)]
    totals = (own >= 0).sum(axis=0).tolist()
    outside = [_log_odds(0.5)] * (votes.shape[1] - len(fids))
    for _ in range(N_ITER):
        # E-step: current best guess per doc via weighted vote (acc is
        # always within the clip bounds, so no clip is needed here)
        _, score = tally(votes, np.array([_log_odds(p) for p in acc] + outside))
        guess = winner(votes, score)
        # M-step: per-function agreement with the guesses
        hits = ((own >= 0) & (own == guess[:, None])).sum(axis=0).tolist()
        acc = [_clip(h / t) if t else p for p, h, t in zip(acc, hits, totals)]
    return LabelModel({f: _clip(p) for f, p in zip(fids, acc)})
