import random
import re

import pytest

from manalyzer import prompts
from manalyzer.config import DEFAULTS
from manalyzer.errors import ReviewFailure
from manalyzer.reviewer import (
    IndependentScores,
    ReviewRecord,
    baseline_screen,
    classification_metrics,
    fuse,
    load_screening_gold,
    review_batch,
    review_independent,
    screen,
)

from helpers import register_for

DIRECTION = "effects of cover crops on soil nitrogen"


def record(doc_id, final, kept=None):
    return ReviewRecord(
        doc_id=doc_id,
        s1=7,
        s2=7,
        s_r=0.5,
        final=final,
        kept=final >= DEFAULTS.reviewer_threshold if kept is None else kept,
        batch_id=0,
    )


def test_review_independent_happy_path(scripted):
    provider, gateway = scripted()
    req = prompts.independent_review_request(DIRECTION, "paper text", ())
    register_for(provider, req, "Topic Relevance: 8\nFeasibility: 6")
    scores = review_independent("paper text", DIRECTION, gateway)
    assert (scores.s1, scores.s2) == (8, 6)
    assert len(provider.calls) == 1


def test_review_independent_includes_captions(scripted):
    provider, gateway = scripted()
    req = prompts.independent_review_request(DIRECTION, "text", ("Figure 1: setup",))
    register_for(provider, req, "Topic Relevance: 5\nFeasibility: 5")
    scores = review_independent("text", DIRECTION, gateway, captions=("Figure 1: setup",))
    assert scores.s1 == 5


def test_review_independent_reasks_then_clamps(scripted):
    provider, gateway = scripted()
    req = prompts.independent_review_request(DIRECTION, "text", ())
    register_for(provider, req, "Topic Relevance: 14\nFeasibility: 0")
    register_for(
        provider,
        req.with_addendum(prompts.REASK_SCORES), "Topic Relevance: 12\nFeasibility: 0"
    )
    scores = review_independent("text", DIRECTION, gateway)
    assert (scores.s1, scores.s2) == (10, 1)
    assert len(provider.calls) == 2


def test_review_independent_fails_after_reask(scripted):
    provider, gateway = scripted()
    req = prompts.independent_review_request(DIRECTION, "text", ())
    register_for(provider, req, "I decline to score this.")
    register_for(provider, req.with_addendum(prompts.REASK_SCORES), "still no scores")
    with pytest.raises(ReviewFailure):
        review_independent("text", DIRECTION, gateway)


def test_review_independent_fails_after_over_long_integers(scripted):
    # 5,000 digits: more than `int` converts from a string by default.
    provider, gateway = scripted()
    req = prompts.independent_review_request(DIRECTION, "text", ())
    register_for(provider, req, f"Topic Relevance: {'9' * 5000}\nFeasibility: 6")
    reask = req.with_addendum(prompts.REASK_SCORES)
    register_for(provider, reask, f"Topic Relevance: 7\nFeasibility: {'1' * 5000}")
    with pytest.raises(ReviewFailure):
        review_independent("text", DIRECTION, gateway)
    assert len(provider.calls) == 2


def test_review_batch_happy_path(scripted):
    provider, gateway = scripted()
    texts = ["paper a", "paper b", "paper c"]
    req = prompts.comparative_review_request(DIRECTION, texts)
    register_for(provider, req, "[0.9, 0.1, 0.55]")
    assert review_batch(texts, DIRECTION, gateway) == [0.9, 0.1, 0.55]


def test_review_batch_clamps_into_unit_interval(scripted):
    provider, gateway = scripted()
    texts = ["a", "b"]
    req = prompts.comparative_review_request(DIRECTION, texts)
    register_for(provider, req, "[1.4, -0.2]")
    assert review_batch(texts, DIRECTION, gateway) == [1.0, 0.0]


def test_review_batch_length_mismatch_reask_then_failure(scripted):
    provider, gateway = scripted()
    texts = ["a", "b", "c"]
    req = prompts.comparative_review_request(DIRECTION, texts)
    register_for(provider, req, "[0.5, 0.5]")
    register_for(
        provider,
        req.with_addendum(f"{prompts.REASK_LIST} It must hold exactly 3 values."),
        "[0.5]",
    )
    with pytest.raises(ReviewFailure):
        review_batch(texts, DIRECTION, gateway)
    assert len(provider.calls) == 2


def test_review_batch_recovers_on_reask(scripted):
    provider, gateway = scripted()
    texts = ["a", "b"]
    req = prompts.comparative_review_request(DIRECTION, texts)
    register_for(provider, req, "no list here")
    register_for(
        provider,
        req.with_addendum(f"{prompts.REASK_LIST} It must hold exactly 2 values."),
        "[0.7, 0.3]",
    )
    assert review_batch(texts, DIRECTION, gateway) == [0.7, 0.3]


def test_fuse_examples():
    assert fuse(8, 6, 0.5) == pytest.approx(7.0)
    assert fuse(7, 7, 0.8) == pytest.approx(11.2)
    assert fuse(1, 1, 0.0) == 0.0
    assert fuse(10, 10, 1.0) == 20.0


def test_fuse_monotonicity():
    rng = random.Random(5)
    for _ in range(100):
        s1, s2 = rng.randint(1, 10), rng.randint(1, 10)
        r1, r2 = sorted((rng.random(), rng.random()))
        assert fuse(s1, s2, r1) <= fuse(s1, s2, r2)


def test_screen_threshold_is_inclusive():
    records = [record("a", 8.0), record("b", 7.999), record("c", 12.0)]
    assert screen(records, 8.0) == ["a", "c"]


def test_baseline_screen_strict():
    assert baseline_screen(6, 6) is False  # mean exactly 6
    assert baseline_screen(7, 6) is True
    assert baseline_screen(10, 3) is True
    assert baseline_screen(5, 6) is False


def test_independent_scores_validated():
    with pytest.raises(ValueError):
        IndependentScores(0, 5)
    with pytest.raises(ValueError):
        IndependentScores(5, 11)


def test_load_screening_gold(tmp_path):
    path = tmp_path / "gold.txt"
    path.write_text("# comment\nd01 1\nd02, 0\n\nd03 1\n", encoding="utf-8")
    assert load_screening_gold(path) == {"d01": True, "d02": False, "d03": True}


def test_load_screening_gold_rejects_bad_lines(tmp_path):
    path = tmp_path / "gold.txt"
    path.write_text("d01 yes\n", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{path}:1: expected 'doc_id 0|1', got 'd01 yes'")):
        load_screening_gold(path)


def naive_metrics(predicted, gold, corpus):
    tp = fp = tn = fn = 0
    for doc in corpus:
        if doc in predicted and doc in gold:
            tp += 1
        elif doc in predicted:
            fp += 1
        elif doc in gold:
            fn += 1
        else:
            tn += 1
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = (
        2 * precision * recall / (precision + recall) if precision + recall else 0.0
    )
    accuracy = (tp + tn) / len(corpus)
    return accuracy, precision, recall, f1, tp, fp, tn, fn


def test_metrics_match_naive_oracle_on_random_corpora():
    rng = random.Random(2024)
    for _ in range(100):
        corpus = {f"d{i}" for i in range(30)}
        predicted = {d for d in corpus if rng.random() < rng.random()}
        gold = {d for d in corpus if rng.random() < 0.5}
        m = classification_metrics(predicted, gold, corpus)
        acc, pre, rec, f1, tp, fp, tn, fn = naive_metrics(predicted, gold, corpus)
        assert abs(m.accuracy - acc) < 1e-12
        assert abs(m.precision - pre) < 1e-12
        assert abs(m.recall - rec) < 1e-12
        assert abs(m.f1 - f1) < 1e-12
        assert (m.tp, m.fp, m.tn, m.fn) == (tp, fp, tn, fn)


def test_metrics_all_kept_corpus():
    # Keeping all 182 papers when 69 are relevant: recall is perfect,
    # precision is 69/182.
    corpus = {f"p{i}" for i in range(182)}
    gold = {f"p{i}" for i in range(69)}
    m = classification_metrics(corpus, gold, corpus)
    assert m.recall == 1.0
    assert m.precision == pytest.approx(69 / 182)
    assert m.tp == 69 and m.fp == 113 and m.fn == 0 and m.tn == 0


def test_metrics_degenerate_flags():
    corpus = {"a", "b"}
    m = classification_metrics(set(), {"a"}, corpus)
    assert m.degenerate_precision and not m.degenerate_recall
    assert m.precision == 0.0 and m.f1 == 0.0
    m = classification_metrics({"a"}, set(), corpus)
    assert m.degenerate_recall and not m.degenerate_precision


def test_metrics_rejects_non_subsets():
    with pytest.raises(ValueError):
        classification_metrics({"x"}, set(), {"a"})
