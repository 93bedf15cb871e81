"""Extraction evaluation: hit rate of extracted values against gold points.

A gold point is matched when some extracted value lands within tolerance
of it, by `within_tolerance`, the package's one tolerance rule (extraction
checks citations with it too). Matching is one-to-one and maximum: a
single extracted value can never satisfy two gold points. The values a
gold point admits form one run of the sorted extracted values, so a greedy
pass is exactly maximum (Glover 1967, convex bipartite graphs).
"""

from __future__ import annotations

import functools
import json
import math
from bisect import bisect_left
from collections import defaultdict
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .config import DEFAULTS, PipelineConfig
from .workspace import decode_json, from_json

LEVELS = (1, 2, 3)


@dataclass(frozen=True)
class GoldDataPoint:
    doc_id: str
    level: int
    value: float
    unit: str = ""
    label: str = ""

    def __post_init__(self) -> None:
        if self.level not in LEVELS:
            raise ValueError(f"level must be 1, 2 or 3, got {self.level}")
        if not math.isfinite(self.value):
            raise ValueError("gold value must be finite")


@dataclass(frozen=True)
class HitRateResult:
    doc_id: str
    level: int
    hits: int
    gold_count: int
    hit_rate: float


def default_rel_tol(level: int, config: PipelineConfig = DEFAULTS) -> float:
    """Level 3 values come out of model arithmetic, so they get more slack."""
    return config.eval_level3_rel_tol if level == 3 else config.eval_rel_tol


def load_gold(path: Path) -> list[GoldDataPoint]:
    """Read gold points, one JSON record per line, each through `from_json`.
    A line that does not fit GoldDataPoint (an unknown field, a float level,
    a non-string unit) is a ValueError naming `path:line`."""
    points = []
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        if not line.strip():
            continue
        try:
            points.append(from_json(GoldDataPoint, decode_json(line)))
        except (ValueError, OverflowError) as exc:  # a 400-digit value overflows isfinite
            raise ValueError(f"{path}:{lineno}: bad gold record: {exc}") from exc
    return points


def save_gold(points: Iterable[GoldDataPoint], path: Path) -> None:
    lines = [json.dumps(asdict(p), sort_keys=True) for p in points]
    path.write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def within_tolerance(a: float, b: float, abs_tol: float, rel_tol: float) -> bool:
    """True iff |a - b| <= max(abs_tol, rel_tol * |b|): `b` is the reference."""
    return abs(a - b) <= max(abs_tol, rel_tol * abs(b))


def tolerance_run(
    values: Sequence[float], b: float, abs_tol: float, rel_tol: float
) -> tuple[int, int]:
    """(start, end) such that values[start:end] are exactly the sorted,
    NaN-free `values` within tolerance of `b`: |a - b| only grows as `a`
    moves away from `b`, so each end is one bisect on `within_tolerance`."""
    admits = functools.partial(within_tolerance, b=b, abs_tol=abs_tol, rel_tol=rel_tol)
    start = bisect_left(values, True, key=lambda a: a >= b or admits(a))
    end = bisect_left(values, True, key=lambda a: a > b and not admits(a))
    return start, end


def match_values(
    extracted: Sequence[float],
    gold: Sequence[float],
    abs_tol: float = DEFAULTS.eval_abs_tol,
    rel_tol: float = DEFAULTS.eval_rel_tol,
) -> list[tuple[int, int]]:
    """Maximum one-to-one matching between extracted and gold values.

    Pair (a, b) is admissible iff `within_tolerance(a, b, ...)`. Returns the
    sorted (extracted_index, gold_index) pairs. Gold points are taken by the
    end of their run, and each gets the first free extracted value in its
    run: O((n + m) log n), with no recursion.
    """
    if abs_tol < 0 or rel_tol < 0:
        raise ValueError("tolerances must be >= 0")
    if not (math.isfinite(abs_tol) and math.isfinite(rel_tol)):  # nan passes the check above
        raise ValueError("tolerances must be finite")
    order = sorted((i for i, a in enumerate(extracted) if not math.isnan(a)),
                   key=extracted.__getitem__)
    values = [extracted[i] for i in order]
    runs = []  # (end, start, gold index): gold admits values[start:end]
    for j, b in enumerate(gold):
        start, end = tolerance_run(values, b, abs_tol, rel_tol)
        runs.append((end, start, j))

    free = list(range(len(values) + 1))  # union-find: the first free slot >= k

    def first_free(k: int) -> int:
        while free[k] != k:
            free[k] = free[free[k]]  # path halving
            k = free[k]
        return k

    pairs = []
    for end, start, j in sorted(runs):
        k = first_free(start)
        if k < end:
            pairs.append((order[k], j))
            free[k] = k + 1
    return sorted(pairs)


def hit_rate(
    extracted: Sequence[float],
    gold_points: Sequence[GoldDataPoint],
    abs_tol: float = DEFAULTS.eval_abs_tol,
    rel_tol: float | None = None,
) -> HitRateResult:
    """Hit rate for one document and level: matched gold / total gold."""
    if not gold_points:
        raise ValueError("hit rate undefined without gold points")
    doc_ids = {p.doc_id for p in gold_points}
    levels = {p.level for p in gold_points}
    if len(doc_ids) != 1 or len(levels) != 1:
        raise ValueError("gold points must share one doc_id and one level")
    level = gold_points[0].level
    if rel_tol is None:
        rel_tol = default_rel_tol(level)
    matches = match_values(extracted, [p.value for p in gold_points], abs_tol, rel_tol)
    return HitRateResult(
        doc_id=gold_points[0].doc_id,
        level=level,
        hits=len(matches),
        gold_count=len(gold_points),
        hit_rate=len(matches) / len(gold_points),
    )


def evaluate_extraction(
    extracted_by_doc: dict[str, Sequence[float]],
    gold: Sequence[GoldDataPoint],
    abs_tol: float = DEFAULTS.eval_abs_tol,
    rel_tol: float | None = None,
) -> list[HitRateResult]:
    """Hit rates for every (doc, level) group present in the gold set.

    All of a document's extracted values compete for each level's points.
    Documents absent from the extraction map count as empty extractions.
    """
    grouped: dict[tuple[str, int], list[GoldDataPoint]] = defaultdict(list)
    for point in gold:
        grouped[(point.doc_id, point.level)].append(point)
    results = []
    for (doc_id, level) in sorted(grouped):
        values = list(extracted_by_doc.get(doc_id, ()))
        results.append(hit_rate(values, grouped[(doc_id, level)], abs_tol, rel_tol))
    return results


def aggregate(results: Iterable[HitRateResult]) -> dict[int, float]:
    """Unweighted per-level mean of per-document hit rates."""
    by_level: dict[int, list[float]] = defaultdict(list)
    for result in results:
        by_level[result.level].append(result.hit_rate)
    return {level: sum(rates) / len(rates) for level, rates in sorted(by_level.items())}
