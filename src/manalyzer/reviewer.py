"""Hybrid paper review: independent scores, batched comparative scores,
multiplicative fusion, threshold screening, and screening metrics.

Independent review grades each paper alone on relevance (s1) and
reliability (s2). Comparative review grades a batch of papers against each
other, yielding a relative score s_r in [0, 1]. The final score is
s_r * (s1 + s2); papers at or above the threshold survive screening.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from . import prompts
from .errors import ReviewFailure, SchemaViolationError, UnparseableReplyError
from .gateway import Gateway
from .parsing import parse_labeled_score, parse_real_list


@dataclass(frozen=True)
class IndependentScores:
    s1: int
    s2: int

    def __post_init__(self) -> None:
        for name, score in (("s1", self.s1), ("s2", self.s2)):
            if not 1 <= score <= 10:
                raise ValueError(f"{name}={score} outside [1, 10]")


@dataclass(frozen=True)
class ReviewRecord:
    """A paper's `reviews/<doc>.json`, plus whether screening keeps it."""

    doc_id: str
    s1: int
    s2: int
    s_r: float
    final: float
    batch_id: int
    kept: bool = False


@dataclass(frozen=True)
class ScreeningMetrics:
    accuracy: float
    precision: float
    recall: float
    f1: float
    tp: int
    fp: int
    tn: int
    fn: int
    degenerate_precision: bool = False
    degenerate_recall: bool = False


def review_independent(
    text: str,
    direction: str,
    gateway: Gateway,
    captions: Sequence[str] = (),
) -> IndependentScores:
    """Parse (s1, s2) from the independent-review reply.

    Unparseable or out-of-range replies get one re-ask. After that,
    out-of-range values are clamped into [1, 10]; a still-unparseable reply
    marks the paper unreviewable.
    """
    parsed: list[tuple[int, int]] = []  # the fallback clamps the last pair parsed

    def parse(reply: str) -> None:
        s1 = parse_labeled_score(reply, "Topic Relevance")
        s2 = parse_labeled_score(reply, "Feasibility")
        parsed.append((s1, s2))
        if not (1 <= s1 <= 10 and 1 <= s2 <= 10):
            raise UnparseableReplyError(f"scores {s1}, {s2} outside [1, 10]")

    request = prompts.independent_review_request(direction, text, captions)
    gateway.ask(request, parse, prompts.REASK_SCORES)
    if not parsed:
        raise ReviewFailure("independent review reply unparseable after re-ask")
    s1, s2 = parsed[-1]
    return IndependentScores(max(1, min(10, s1)), max(1, min(10, s2)))


def review_batch(texts: Sequence[str], direction: str, gateway: Gateway) -> list[float]:
    """One comparative relevance score per paper in the batch.

    The reply must be a bare list with exactly one value per paper; a
    mismatch or parse failure gets one re-ask, then fails the whole batch.
    Values are clamped into [0, 1].
    """
    if not texts:
        raise ValueError("empty comparative batch")
    request = prompts.comparative_review_request(direction, texts)
    values = gateway.ask(
        request, lambda reply: parse_real_list(reply, len(texts)), prompts.reask_count(len(texts))
    )
    if values is None:
        raise ReviewFailure(f"comparative reply did not yield {len(texts)} scores")
    return [min(1.0, max(0.0, v)) for v in values]


def fuse(s1: int, s2: int, s_r: float) -> float:
    """Final score: relative score scaled by the summed independent scores."""
    return s_r * (s1 + s2)


def clears_threshold(final: float, threshold: float) -> bool:
    """The screening rule: a paper survives when its final score reaches the threshold."""
    return final >= threshold


def screen(records: Iterable[ReviewRecord], threshold: float) -> list[str]:
    """Doc ids whose final score clears the threshold, sorted."""
    return sorted(r.doc_id for r in records if clears_threshold(r.final, threshold))


def baseline_screen(s1: int, s2: int) -> bool:
    """Independent-only screening rule: mean score strictly above 6."""
    return (s1 + s2) / 2 > 6


def load_screening_gold(path: Path) -> dict[str, bool]:
    """Gold screening labels: one `doc_id 0|1` per line (comma also works)."""
    labels: dict[str, bool] = {}
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.replace(",", " ").split()
        if len(fields) != 2 or fields[1] not in ("0", "1"):
            raise SchemaViolationError(f"{path}:{lineno}: expected 'doc_id 0|1', got {raw!r}")
        labels[fields[0]] = fields[1] == "1"
    return labels


def classification_metrics(
    predicted: set[str], gold: set[str], corpus: set[str]
) -> ScreeningMetrics:
    if not predicted <= corpus or not gold <= corpus:
        raise ValueError("predicted and gold sets must be subsets of the corpus")
    tp = len(predicted & gold)
    fp = len(predicted - gold)
    fn = len(gold - predicted)
    tn = len(corpus) - tp - fp - fn
    degenerate_precision = tp + fp == 0
    degenerate_recall = tp + fn == 0
    precision = 0.0 if degenerate_precision else tp / (tp + fp)
    recall = 0.0 if degenerate_recall else tp / (tp + fn)
    f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
    accuracy = (tp + tn) / len(corpus) if corpus else 0.0
    return ScreeningMetrics(
        accuracy=accuracy,
        precision=precision,
        recall=recall,
        f1=f1,
        tp=tp,
        fp=fp,
        tn=tn,
        fn=fn,
        degenerate_precision=degenerate_precision,
        degenerate_recall=degenerate_recall,
    )
