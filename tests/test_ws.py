"""Tests for the one-coin Dawid-Skene label model."""
import random
from collections import Counter

import numpy as np
import pytest

from repro.core.ws import N_ITER, LabelModel, _clip, _log_odds, fit_label_model


def fit_dicts(votes, fids):
    """``fit_label_model`` over per-doc ``{fid: value}`` dicts (abstentions
    are absent keys): a row per doc, ``fids``' columns then any other
    voter's, values coded in sorted order."""
    voters = fids + sorted({f for v in votes.values() for f in v} - set(fids))
    values = sorted({x for v in votes.values() for x in v.values()})
    code = {x: i for i, x in enumerate(values)}
    codes = np.full((len(votes), len(voters)), -1, dtype=np.int32)
    for i, v in enumerate(votes.values()):
        for j, f in enumerate(voters):
            if f in v:
                codes[i, j] = code[v[f]]
    return fit_label_model(codes, fids)


def synthetic_votes(n_docs=60, good_acc=0.9, bad_acc=0.2):
    """Two good functions, one adversarial, one random-ish."""
    from repro.util import hash_uniform
    votes, truth = {}, {}
    for i in range(n_docs):
        d = f"d{i}"
        y = f"val-{i % 5}"
        truth[d] = y
        v = {}
        for fid, acc in (("good1", good_acc), ("good2", good_acc), ("bad", bad_acc)):
            if hash_uniform("ws-test", fid, d) < acc:
                v[fid] = y
            else:
                v[fid] = f"wrong-{fid}-{i % 3}"
        votes[d] = v
    return votes, truth


class TestFitLabelModel:
    def test_good_functions_get_higher_accuracy(self):
        votes, _ = synthetic_votes()
        model = fit_dicts(votes, ["good1", "good2", "bad"])
        assert model.accuracies["good1"] > model.accuracies["bad"]
        assert model.accuracies["good2"] > model.accuracies["bad"]

    def test_weights_ordered_like_accuracies(self):
        votes, _ = synthetic_votes()
        model = fit_dicts(votes, ["good1", "good2", "bad"])
        assert model.weight("good1") > model.weight("bad")

    def test_weighted_vote_beats_bad_function(self):
        votes, truth = synthetic_votes(good_acc=0.75, bad_acc=0.1)
        model = fit_dicts(votes, ["good1", "good2", "bad"])
        # inference: weighted vote per doc
        correct = 0
        for d, v in votes.items():
            scores = {}
            for fid, val in v.items():
                scores[val] = scores.get(val, 0) + model.weight(fid)
            pred = max(sorted(scores), key=lambda k: scores[k])
            correct += int(pred == truth[d])
        assert correct / len(votes) > 0.8

    def test_empty_votes(self):
        model = fit_dicts({}, ["f1"])
        assert model.accuracies["f1"] == pytest.approx(0.7)

    def test_abstentions_are_absent_keys(self):
        votes = {"d1": {"f1": "x"}, "d2": {}}  # f1 abstains on d2
        model = fit_dicts(votes, ["f1", "f2"])
        assert 0.05 <= model.accuracies["f1"] <= 0.95

    def test_deterministic(self):
        votes, _ = synthetic_votes()
        a = fit_dicts(votes, ["good1", "good2", "bad"]).accuracies
        b = fit_dicts(votes, ["good1", "good2", "bad"]).accuracies
        assert a == b

    def test_accuracies_clipped(self):
        votes = {f"d{i}": {"f1": "same"} for i in range(10)}
        model = fit_dicts(votes, ["f1"])
        assert model.accuracies["f1"] <= 0.95


def reference_fit(votes, fids):
    """The EM loop as first written: an E-step over the docs, then an
    M-step that rescans every doc once per function."""
    acc = {f: 0.7 for f in fids}
    if not votes:
        return acc
    for _ in range(N_ITER):
        weight = {f: _log_odds(p) for f, p in acc.items()}
        unknown = _log_odds(0.5)
        guesses = {}
        for doc, v in votes.items():
            if not v:
                continue
            scores = Counter()
            for fid, val in v.items():
                scores[val] += weight.get(fid, unknown)
            guesses[doc] = max(sorted(scores), key=lambda k: scores[k])
        for fid in fids:
            n_tot = n_hit = 0
            for doc, v in votes.items():
                if fid in v and doc in guesses:
                    n_tot += 1
                    n_hit += int(v[fid] == guesses[doc])
            if n_tot:
                acc[fid] = _clip(n_hit / n_tot)
    return {f: _clip(p) for f, p in acc.items()}


class TestMatchesReferenceLoop:
    def test_accuracies_bit_identical(self):
        """300 seeded random vote dicts, with abstentions, empty docs,
        votes from a function outside ``fids`` and few distinct values
        (so weighted ties happen), fit to exactly the reference loop's
        accuracies."""
        for seed in range(300):
            rng = random.Random(seed)
            fids = [f"f{j}" for j in range(rng.randint(1, 6))]
            voters = fids + ["outside"] * rng.randint(0, 1)
            values = [f"v{k}" for k in range(rng.randint(1, 4))]
            votes = {}
            for i in range(rng.randint(0, 30)):
                v = {f: rng.choice(values) for f in voters if rng.random() < 0.6}
                votes[f"d{i}"] = dict(sorted(v.items(), key=lambda _: rng.random()))
            got = fit_dicts(votes, fids).accuracies
            assert got == reference_fit(votes, fids), seed


class TestLabelModelWeight:
    def test_unknown_function_neutral(self):
        m = LabelModel({})
        assert m.weight("unseen") == pytest.approx(
            m.weight("unseen"))  # stable
        assert m.weight("unseen") > 0  # 0.5 acc with b=4 -> log(1.5)

    def test_higher_accuracy_higher_weight(self):
        m = LabelModel({"a": 0.9, "b": 0.6})
        assert m.weight("a") > m.weight("b")


class TestClip:
    def test_bounds(self):
        assert _clip(0.0) == 0.05
        assert _clip(1.0) == 0.95
        assert _clip(0.5) == 0.5

