"""Paragraph packing: importance scoring plus exact 0/1 knapsack selection.

Long documents are cut down to a weight budget before review. Each
paragraph gets an integer importance from the scoring agent; the selection
then maximizes total importance under the budget, exactly.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from itertools import accumulate
from operator import le
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
            importance=default_importance if importance is None else importance,
            weight=estimate_weight(para.text),
        )

    return gateway.map(rate, doc.paragraphs)


def select_paragraphs(items: Sequence[RatedParagraph], budget: int, doc_id: str = "") -> PackedDocument:
    """Exact 0/1 knapsack over paragraphs.

    Maximizes total importance subject to total weight <= budget. Among
    optima, prefers the smaller total weight, then the lexicographically
    smallest index set.

    Items over the budget are dropped, and so are items of importance 0,
    which only add weight. `_reduce` fixes the items that are in every
    maximum-importance set or in none, and `_core_select` decides the rest
    exactly. The fixed items are common to every set the tie-breaks
    compare, so the union is the optimum under the full order.
    """
    budget = max(0, min(budget, MAX_BUDGET))
    pool = sorted(
        (it for it in items if it.importance and it.weight <= budget), key=lambda it: it.index
    )
    fixed_in, core = _reduce(pool, budget)
    room = budget - sum(it.weight for it in fixed_in)
    chosen, importance, weight = _core_select([it for it in core if it.weight <= room], room)
    return PackedDocument(
        doc_id=doc_id,
        selected_indices=tuple(sorted(chosen + [it.index for it in fixed_in])),
        total_weight=budget - room + weight,
        total_importance=importance + sum(it.importance for it in fixed_in),
        budget=budget,
    )


def _by_ratio(items: Sequence[RatedParagraph]) -> list[RatedParagraph]:
    """Items by importance per unit weight, best first. Float ratios order
    exactly: equal ratios divide to equal floats, and distinct ones (numerators
    up to 10, denominators up to MAX_BUDGET) differ far beyond rounding."""
    return sorted(items, key=lambda it: it.importance / it.weight, reverse=True)


def _reduce(
    pool: Sequence[RatedParagraph], budget: int
) -> tuple[list[RatedParagraph], list[RatedParagraph]]:
    """Split `pool` into the items every optimum takes and the undecided core.

    This is the reduction of core methods (Martello and Toth, *Knapsack
    Problems*, 1990; Pisinger, Operations Research 1997). `lower` is the
    importance of a greedy fill, which is feasible. The Dantzig bound (the
    fractional optimum, rounded down) caps what any set reaches. An item
    whose absence caps the importance strictly below `lower` is in every
    maximum-importance set; one whose presence does so is in none. The
    tests are strict, so no tie is decided here. The core keeps `pool`'s
    order.
    """
    ranked = _by_ratio(pool)
    weights = list(accumulate((it.weight for it in ranked), initial=0))
    importances = list(accumulate((it.importance for it in ranked), initial=0))

    def upper(cap: int, skip: int) -> int:
        """The Dantzig bound at capacity `cap` over `ranked` without `ranked[skip]`."""
        total = 0
        if weights[skip] <= cap:  # everything ranked above `skip` fits: step over it
            cap += ranked[skip].weight
            total -= ranked[skip].importance
        k = bisect_right(weights, cap) - 1  # the fractional item is never `skip`
        total += importances[k]
        if k < len(ranked):
            total += (cap - weights[k]) * ranked[k].importance // ranked[k].weight
        return total

    lower, room = 0, budget
    for it in ranked:
        if it.weight <= room:
            lower += it.importance
            room -= it.weight

    fixed: dict[int, bool] = {}
    for j, it in enumerate(ranked):
        if upper(budget, j) < lower:
            fixed[it.index] = True
        elif it.importance + upper(budget - it.weight, j) < lower:
            fixed[it.index] = False
    return [it for it in pool if fixed.get(it.index)], [it for it in pool if it.index not in fixed]


def _core_select(core: Sequence[RatedParagraph], budget: int) -> tuple[list[int], int, int]:
    """The knapsack over `core` (in index order, no item over the budget):
    the chosen indices, their importance and their weight.

    The DP runs over the importance axis, capped at the core's Dantzig
    bound: `row[v]` is the least weight of a subset of ``core[i:]`` with
    importance `v`, rolled back from i = len(core) to 0. Any value over the
    budget stands for unreachable; the values within it are exact.
    ``keep[i][v - importance]`` records that taking item i is optimal at `v`
    (its take is no heavier than the row without it).
    """
    cap, room = 0, budget
    for it in _by_ratio(core):
        if it.weight > room:
            cap += room * it.importance // it.weight
            break
        cap += it.importance
        room -= it.weight

    row = [0] + [budget + 1] * cap
    keep = [b""] * len(core)
    for i in range(len(core) - 1, -1, -1):
        imp, w = core[i].importance, core[i].weight
        take = [x + w for x in row[: cap + 1 - imp]]
        rest = row[imp:]
        keep[i] = bytes(map(le, take, rest))
        row[imp:] = [t if t < r else r for t, r in zip(take, rest)]

    best = max(v for v, x in enumerate(row) if x <= budget)
    # Greedy front-to-back reconstruction: taking an item whenever doing so
    # still reaches the (importance, weight) optimum yields the smallest
    # index set in lexicographic order.
    chosen = []
    v = best
    for it, bits in zip(core, keep):
        if it.importance <= v and bits[v - it.importance]:
            chosen.append(it.index)
            v -= it.importance
    return chosen, best, row[best]


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
        packed, text=packed_text(doc, packed), captions=tuple(doc.captions()), title=doc.title
    )


def packed_text(doc: "ParsedDocument", packed: PackedDocument) -> str:
    """The review-facing text: selected paragraphs in document order."""
    wanted = set(packed.selected_indices)
    return "\n\n".join(p.text for p in doc.paragraphs if p.index in wanted)
