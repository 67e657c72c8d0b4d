"""Weak-supervision label model for open-ended extraction votes.

Implements the label-model family of Ratner et al. / Fu et al. in the
one-coin Dawid-Skene form: each function j has a latent accuracy p_j
(probability its non-abstaining vote equals the true value); the paper's
Appendix-D constraint — equal class-conditional accuracies — is exactly
the one-coin assumption, needed because the "classes" (candidate value
strings) differ per document.

Fitting is EM over the collected vote matrix (driver-side: |docs| x
the <= top-m functions Algorithm 1 keeps), one sweep over the docs per
iteration. Inference is an accuracy-weighted log-odds vote over the same
collected votes, ``aggregate.aggregate_votes``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

B = 4  # classes per doc: Algorithm 1 keeps each doc's top-b value buckets
N_ITER = 10  # EM iterations


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


def fit_label_model(
    votes: dict[str, dict[str, str]], fids: list[str]
) -> LabelModel:
    """EM fit of one-coin accuracies from per-doc vote dicts.

    ``votes[doc][fid] = value`` — abstentions are simply absent keys.
    Initialization is agreement-with-majority; iterations re-estimate the
    latent label as the accuracy-weighted vote and the accuracies as
    agreement with that label.
    """
    acc = {f: 0.7 for f in fids}
    if not votes:
        return LabelModel(acc)
    unknown = _log_odds(0.5)
    for _ in range(N_ITER):
        # E-step: current best guess per doc via weighted vote (acc is
        # always within the clip bounds, so no clip is needed here); the
        # M-step's per-function agreement counts ride the same sweep
        weight = {f: _log_odds(p) for f, p in acc.items()}
        hits = dict.fromkeys(acc, 0)
        totals = dict.fromkeys(acc, 0)
        for v in votes.values():
            if not v:
                continue
            scores: dict[str, float] = {}
            for fid, val in v.items():
                scores[val] = scores.get(val, 0) + weight.get(fid, unknown)
            guess = max(sorted(scores), key=scores.__getitem__)
            for fid, val in v.items():
                if fid in totals:
                    totals[fid] += 1
                    hits[fid] += val == guess
        # M-step: per-function agreement with the guesses
        for fid, n_tot in totals.items():
            if n_tot:
                acc[fid] = _clip(hits[fid] / n_tot)
    return LabelModel({f: _clip(p) for f, p in acc.items()})
