"""Paragraph packing: importance scoring plus exact 0/1 knapsack selection.

Long documents are cut down to a weight budget before review. Each
paragraph gets an integer importance from the scoring agent; the selection
then maximizes total importance under the budget, exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Sequence

from . import prompts
from .config import DEFAULTS, MAX_BUDGET
from .errors import UnparseableReplyError
from .gateway import Gateway
from .parsing import parse_int_reply

if TYPE_CHECKING:
    from .collector import Paragraph, ParsedDocument


@dataclass(frozen=True)
class RatedParagraph:
    index: int
    text: str
    importance: int
    weight: int

    def __post_init__(self) -> None:
        if not 0 <= self.importance <= 10:
            raise ValueError(f"importance {self.importance} outside [0, 10]")
        if self.weight < 1:
            raise ValueError(f"weight {self.weight} below 1")


@dataclass(frozen=True)
class PackedDocument:
    doc_id: str
    selected_indices: tuple[int, ...]
    total_weight: int
    total_importance: int
    budget: int
    text: str = ""  # the review-facing text, see packed_text
    captions: tuple[str, ...] = ()
    title: str = ""


def estimate_weight(text: str) -> int:
    """Crude token-count stand-in: one unit per four characters, minimum 1."""
    return max(1, math.ceil(len(text) / 4))


def _importance(reply: str) -> int:
    value = parse_int_reply(reply)
    if not 0 <= value <= 10:
        raise UnparseableReplyError(f"importance {value} outside [0, 10]")
    return value


def score_paragraphs(
    doc: "ParsedDocument",
    gateway: Gateway,
    default_importance: int = DEFAULTS.packer_default_importance,
) -> list[RatedParagraph]:
    """One importance rating per paragraph.

    A reply that is not an integer in [0, 10] gets one re-ask; if that also
    fails, the paragraph falls back to the default rating rather than
    sinking the document. Paragraphs are rated concurrently through
    ``gateway.map``.
    """
    def rate(para: "Paragraph") -> RatedParagraph:
        request = prompts.paragraph_score_request(para.text)
        importance = gateway.ask(request, _importance, prompts.REASK_INTEGER)
        return RatedParagraph(
            index=para.index,
            text=para.text,
            importance=default_importance if importance is None else importance,
            weight=estimate_weight(para.text),
        )

    return gateway.map(rate, doc.paragraphs)


def select_paragraphs(items: Sequence[RatedParagraph], budget: int, doc_id: str = "") -> PackedDocument:
    """Exact 0/1 knapsack over paragraphs.

    Maximizes total importance subject to total weight <= budget. Among
    optima, prefers the smaller total weight, then the lexicographically
    smallest index set. The DP runs over the importance dimension (min
    weight to reach each importance total), which stays small because
    importances are capped at 10 per item.
    """
    budget = min(budget, MAX_BUDGET)
    if budget < 0:
        budget = 0
    ordered = sorted(items, key=lambda it: it.index)
    eligible = [it for it in ordered if it.weight <= budget]

    n = len(eligible)
    if n == 0:
        return PackedDocument(doc_id, (), 0, 0, budget)

    import numpy as np  # imported here, so commands that never pack skip it

    v_max = sum(it.importance for it in eligible)
    inf = np.int64(1) << 62
    # row[v] = min weight of a subset of eligible[i:] with importance sum v,
    # rolled back from i = n to i = 0. Bit v of keep[i] records that taking
    # item i is optimal at v (its take is no heavier than the row without
    # it); the reconstruction needs only that. Packing the bits keeps the
    # matrix small enough that it does not linger in per-thread malloc arenas.
    row = np.full(v_max + 1, inf, dtype=np.int64)
    row[0] = 0
    keep = np.empty((n, (v_max + 8) // 8), dtype=np.uint8)
    better = np.zeros(v_max + 1, dtype=bool)
    for i in range(n - 1, -1, -1):
        imp, w = eligible[i].importance, eligible[i].weight
        take = row[: v_max + 1 - imp] + w
        better[:imp] = False
        np.less_equal(take, row[imp:], out=better[imp:])
        keep[i] = np.packbits(better)
        np.minimum(row[imp:], take, out=row[imp:])

    feasible = np.nonzero(row <= budget)[0]
    best_v = int(feasible[-1])
    best_w = int(row[best_v])

    # Greedy front-to-back reconstruction: taking an item whenever doing so
    # still reaches the (importance, weight) optimum yields the smallest
    # index set in lexicographic order.
    chosen: list[int] = []
    v = best_v
    for i in range(n):
        if keep[i, v >> 3] >> (7 - (v & 7)) & 1:
            chosen.append(eligible[i].index)
            v -= eligible[i].importance

    return PackedDocument(
        doc_id=doc_id,
        selected_indices=tuple(chosen),
        total_weight=best_w,
        total_importance=best_v,
        budget=budget,
    )


def pack_document(
    doc: "ParsedDocument",
    gateway: Gateway,
    budget: int,
    default_importance: int = DEFAULTS.packer_default_importance,
) -> PackedDocument:
    """Pack one document under the budget.

    Figure and table captions are always carried along to review, so their
    weight comes off the budget first. A document whose paragraphs already
    fit costs no agent calls: everything is selected at the default rating.
    The result carries what review reads: the text, captions and title.
    """
    budget = min(budget, MAX_BUDGET)
    caption_weight = sum(estimate_weight(c) for c in doc.captions())
    effective = max(0, budget - caption_weight)

    weights = [estimate_weight(p.text) for p in doc.paragraphs]
    if sum(weights) <= effective:
        packed = PackedDocument(
            doc_id=doc.doc_id,
            selected_indices=tuple(p.index for p in doc.paragraphs),
            total_weight=sum(weights),
            total_importance=default_importance * len(weights),
            budget=effective,
        )
    else:
        rated = score_paragraphs(doc, gateway, default_importance)
        packed = select_paragraphs(rated, effective, doc_id=doc.doc_id)
    return replace(
        packed, text=packed_text(doc, packed), captions=tuple(doc.captions()), title=doc.meta.title
    )


def packed_text(doc: "ParsedDocument", packed: PackedDocument) -> str:
    """The review-facing text: selected paragraphs in document order."""
    wanted = set(packed.selected_indices)
    return "\n\n".join(p.text for p in doc.paragraphs if p.index in wanted)
