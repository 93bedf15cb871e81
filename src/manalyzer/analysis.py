"""Merged-table analysis: a fixed, deterministic toolkit driven by an
agent-produced plan.

The plan names steps of three kinds: k-means clustering, 1-nearest-neighbor
classification scored by leave-one-out accuracy, and simple least-squares
regression. Steps referencing unknown columns are dropped; missing kinds
are back-filled with defaults when the table's shape permits them. Rows
with missing values in a step's columns are excluded per step (listwise).

The numbers are computed on the standard library, with every floating-point
operation in the order numpy's float64 code uses (see `_sum`), so the results
are bit-identical to numpy's and do not drift between interpreter versions.

All randomness flows from one integer seed in [0, 2**32): k-means takes
its seed rows from ``numpy.random.RandomState(seed)``'s stream, which NEP
19 freezes, drawn with the standard library's Mersenne Twister. Leave-one-
out 1-NN scans the distinct rows in sorted order and stops at an exact
bound (see `_loo_nearest`), so its memory is linear in the row count; its
neighbours, ties to the lowest index included, are those of the full
distance matrix.
"""

from __future__ import annotations

import json
import logging
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from . import prompts
from .config import DEFAULTS, SEED_LIMIT
from .errors import ExtractionError, NoValidStepsError, UnparseableReplyError
from .extraction import ExtractedTable
from .gateway import Gateway
from .workspace import atomic_write_text, encode

log = logging.getLogger(__name__)

KMEANS_MAX_ITER = 100
_MT_STATE_WORDS = 624  # MT19937 state size, in 32-bit words
INDEX_COLUMN = "index"  # pseudo-column: row ordinal, for regression fallback
OVERFLOW = "statistics overflow the float range"

Row = tuple[float, ...]


@dataclass(frozen=True)
class MergedTable:
    header: tuple[str, ...]  # "doc_id" followed by the template columns
    rows: tuple[tuple[object, ...], ...]
    row_count: int
    missing_count: int

    def data_columns(self) -> tuple[str, ...]:
        return self.header[1:]

    def column(self, name: str) -> list[float | None]:
        if name == INDEX_COLUMN and INDEX_COLUMN not in self.header:
            return [float(i) for i in range(self.row_count)]
        idx = self.header.index(name)
        return [row[idx] for row in self.rows]  # type: ignore[misc]


@dataclass(frozen=True)
class AnalysisStep:
    kind: str  # clustering | classification | regression
    features: tuple[str, ...]
    k: int = 0
    label: str = ""
    response: str = ""


@dataclass(frozen=True)
class AnalysisPlan:
    steps: tuple[AnalysisStep, ...]


@dataclass(frozen=True)
class AnalysisResult:
    step: AnalysisStep
    stats: dict[str, object] = field(default_factory=dict)
    artifacts: tuple[str, ...] = ()
    excluded_rows: int = 0
    skipped: bool = False
    reason: str = ""


@dataclass(frozen=True)
class PlotData:
    """An ``analysis/step-<n>-<kind>.json``: a completed step's stats."""

    step: AnalysisStep
    stats: dict[str, object]
    excluded_rows: int


def merge_tables(tables: Sequence[ExtractedTable]) -> MergedTable:
    """Concatenate accepted per-paper tables, tagged and sorted by doc_id."""
    if not tables:
        return MergedTable(header=("doc_id",), rows=(), row_count=0, missing_count=0)
    for table in tables:
        if not table.accepted:
            raise ValueError(f"{table.doc_id}: refusing to merge an unaccepted table")
        if table.header != tables[0].header:
            raise ExtractionError(
                f"{table.doc_id}: header {table.header!r} != {tables[0].header!r}"
            )
    rows: list[tuple[object, ...]] = []
    missing = 0
    for table in sorted(tables, key=lambda t: t.doc_id):
        for row in table.rows:
            rows.append((table.doc_id, *row))
            missing += sum(1 for cell in row if cell is None)
    return MergedTable(
        header=("doc_id",) + tables[0].header,
        rows=tuple(rows),
        row_count=len(rows),
        missing_count=missing,
    )


def _default_steps(columns: Sequence[str]) -> list[AnalysisStep]:
    steps = []
    if columns:
        steps.append(AnalysisStep(kind="clustering", features=tuple(columns), k=2))
    if len(columns) >= 2:
        steps.append(
            AnalysisStep(kind="classification", label=columns[-1], features=tuple(columns[:-1]))
        )
        steps.append(AnalysisStep(kind="regression", response=columns[1], features=(columns[0],)))
    elif columns:
        steps.append(AnalysisStep(kind="regression", response=columns[0], features=(INDEX_COLUMN,)))
    return steps


def _parse_plan_steps(reply: str, columns: Sequence[str]) -> list[AnalysisStep]:
    start = reply.find("[")
    end = reply.rfind("]")
    if start < 0 or end <= start:
        raise UnparseableReplyError("no JSON list in plan reply")
    try:
        raw_steps = json.loads(reply[start : end + 1])
    except json.JSONDecodeError as exc:
        raise UnparseableReplyError(f"malformed plan JSON: {exc}") from exc
    if not isinstance(raw_steps, list):
        raise UnparseableReplyError("plan reply is not a list")

    known = set(columns) | {INDEX_COLUMN}
    steps = []
    for raw in raw_steps:
        if not isinstance(raw, dict):
            log.warning("plan step is not an object, dropped: %r", raw)
            continue
        kind = raw.get("kind")
        listed = raw.get("features") or []
        if not isinstance(listed, list) or not all(isinstance(f, str) for f in listed):
            log.warning("plan step features are not a list of column names, dropped: %r", raw)
            continue
        features = tuple(listed)
        label = str(raw.get("label") or "")
        response = str(raw.get("response") or "")
        named = set(features) | ({label} if label else set()) | ({response} if response else set())
        if not named <= known:
            log.warning("plan step names unknown columns %s, dropped", sorted(named - known))
            continue
        if kind == "clustering":
            k = raw.get("k")
            if isinstance(k, int) and k >= 2 and features:
                steps.append(AnalysisStep(kind=kind, features=features, k=k))
            else:
                log.warning("clustering step needs features and k >= 2, dropped: %r", raw)
        elif kind == "classification":
            if label and features:
                steps.append(AnalysisStep(kind=kind, features=features, label=label))
            else:
                log.warning("classification step needs label and features, dropped: %r", raw)
        elif kind == "regression":
            if response and len(features) == 1:
                steps.append(AnalysisStep(kind=kind, features=features, response=response))
            else:
                log.warning("regression step needs response and one feature, dropped: %r", raw)
        else:
            log.warning("unknown step kind %r, dropped", kind)
    return steps


def plan_analysis(merged: MergedTable, topic: str, gateway: Gateway) -> AnalysisPlan:
    """Ask for a plan over the merged table, keep its valid steps, and
    back-fill any step kind the table's shape permits but the plan lacks."""
    columns = merged.data_columns()
    if not columns or merged.row_count == 0:
        raise NoValidStepsError("merged table has no analyzable columns or rows")

    preview = [" | ".join(str(c) for c in row) for row in merged.rows[:5]]
    request = prompts.plan_request(topic, merged.header, preview)
    try:
        steps = _parse_plan_steps(gateway.complete(request).raw_text, columns)
    except UnparseableReplyError as exc:
        log.warning("plan reply unusable (%s); falling back to defaults", exc)
        steps = []

    present = {s.kind for s in steps}
    for default in _default_steps(columns):
        if default.kind not in present:
            steps.append(default)
    if not steps:
        raise NoValidStepsError("no valid analysis steps for this table")
    return AnalysisPlan(steps=tuple(steps))


def _step_matrix(merged: MergedTable, step: AnalysisStep) -> tuple[list[Row], int]:
    """Rows over the step's features, then its label or response, with
    listwise deletion.

    Returns the complete rows and the number of excluded rows.
    """
    names = [*step.features, *filter(None, (step.label, step.response))]
    columns = [merged.column(name) for name in names]
    rows = [tuple(map(float, cells)) for cells in zip(*columns) if None not in cells]
    return rows, merged.row_count - len(rows)


def _sum(values: Sequence[float]) -> float:
    """The float64 sum of `values` in numpy's order for one contiguous axis.

    numpy sums pairwise: under 8 items left to right; up to 128 items into 8
    interleaved accumulators, combined as a tree, then the rest in order;
    above that, two halves split at a multiple of 8. The reduction starts
    from its identity, 0.0. Builtin ``sum`` is compensated from Python 3.12
    on, so it would round differently.
    """
    return 0.0 + _pairwise(values, 0, len(values))


def _pairwise(values: Sequence[float], lo: int, n: int) -> float:
    if n < 8:
        total = 0.0
        for i in range(lo, lo + n):
            total += values[i]
        return total
    if n <= 128:
        r0, r1, r2, r3, r4, r5, r6, r7 = values[lo : lo + 8]
        end = lo + n - n % 8
        for i in range(lo + 8, end, 8):
            r0 += values[i]
            r1 += values[i + 1]
            r2 += values[i + 2]
            r3 += values[i + 3]
            r4 += values[i + 4]
            r5 += values[i + 5]
            r6 += values[i + 6]
            r7 += values[i + 7]
        total = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        for i in range(end, lo + n):
            total += values[i]
        return total
    half = n // 2
    half -= half % 8
    return _pairwise(values, lo, half) + _pairwise(values, lo + half, n - half)


def _distance(p: Row, q: Row) -> float:
    """Euclidean distance, rounded as ``numpy.linalg.norm(p - q)``."""
    if len(p) >= 8:
        return math.sqrt(_sum([(a - b) * (a - b) for a, b in zip(p, q)]))
    total = 0.0  # `_sum`'s plain loop, inlined: this is k-means' and 1-NN's inner loop
    for a, b in zip(p, q):
        total += (a - b) * (a - b)
    return math.sqrt(total)


def _mean(rows: Sequence[Row]) -> Row:
    """Column means, rounded as ``numpy.mean(rows, axis=0)``: one column is
    a contiguous axis, summed pairwise; wider rows are added row by row."""
    if len(rows[0]) == 1:
        return (_sum([row[0] for row in rows]) / len(rows),)
    totals = [0.0] * len(rows[0])
    for row in rows:
        totals = [t + v for t, v in zip(totals, row)]
    return tuple(t / len(rows) for t in totals)


def _seed_rows(n: int, k: int, seed: int) -> list[int]:
    """``numpy.random.RandomState(seed).choice(n, k, replace=False)``,
    drawn with the standard library's Mersenne Twister.

    The state is MT19937's ``init_genrand(seed)``, as RandomState seeds
    from an int; the rows are the first k of its legacy shuffle of
    ``range(n)``, which draws each swap index by masked rejection.
    """
    if not 0 <= seed < SEED_LIMIT:
        raise ValueError("seed must be in [0, 2**32)")
    key = [seed]
    for i in range(1, _MT_STATE_WORDS):
        key.append((1812433253 * (key[-1] ^ (key[-1] >> 30)) + i) % SEED_LIMIT)
    rng = random.Random()
    rng.setstate((3, (*key, _MT_STATE_WORDS), None))
    rows = list(range(n))
    for i in range(n - 1, 0, -1):
        mask = (1 << i.bit_length()) - 1
        while (j := rng.getrandbits(32) & mask) > i:
            pass
        rows[i], rows[j] = rows[j], rows[i]
    return rows[:k]


def _kmeans(data: list[Row], k: int, seed: int) -> tuple[list[int], list[Row], int]:
    centroids = [data[i] for i in _seed_rows(len(data), k, seed)]
    assignment: list[int] = []  # never equal to the first pass's, as len(data) >= k >= 2
    for iteration in range(1, KMEANS_MAX_ITER + 1):
        new_assignment = []
        for row in data:
            # The first nearest centroid, as numpy's argmin. Only centroid 0
            # can be NaN (its members are the rows infinitely far from every
            # centroid), and min() keeps a NaN in first place, as argmin does.
            distances = [_distance(row, centroid) for centroid in centroids]
            new_assignment.append(distances.index(min(distances)))
        members: list[list[Row]] = [[] for _ in range(k)]
        for row, c in zip(data, new_assignment):
            members[c].append(row)
        centroids = [_mean(rows) if rows else old for rows, old in zip(members, centroids)]
        if new_assignment == assignment:
            break
        assignment = new_assignment
    return new_assignment, centroids, iteration


def _loo_nearest(points: list[Row]) -> list[int]:
    """Each point's nearest other point: the argmin of its row of the full
    distance matrix with an infinite diagonal, ties to the lowest index.

    Identical points collapse into one that carries their lowest indices.
    The distinct points are sorted by the coordinate with the most distinct
    values, and each is scanned outwards in that order until the gap on that
    coordinate alone is farther than the best distance so far. The distance
    sums non-negative squares, that gap's among them, so with round-to-
    nearest it is never less than the gap and no point beyond can be as near
    (the bound k-d trees prune by: Friedman, Bentley and Finkel, TOMS 1977).
    The stop is strict, so every equally near point is seen. Exact for
    finite coordinates.
    """
    groups: dict[Row, list[int]] = {}
    for i, point in enumerate(points):
        groups.setdefault(point, []).append(i)
    axis = max(range(len(points[0])), key=lambda a: len({p[a] for p in groups}))
    order = sorted(groups, key=lambda p: p[axis])
    keys = [p[axis] for p in order]
    lowest = [groups[p][0] for p in order]
    nearest = [0] * len(points)
    for pos, query in enumerate(order):
        rows = groups[query]
        # Another copy of the query is at distance 0: only an index below
        # that copy's, at distance 0 too, can beat it.
        best, index = 0.0 if len(rows) > 1 else math.inf, len(points)
        for step, stop in ((-1, -1), (1, len(order))):
            for other in range(pos + step, stop, step):
                gap = keys[other] - keys[pos]
                if math.sqrt(gap * gap) > best:
                    break
                distance = _distance(query, order[other])
                if distance < best or (distance == best and lowest[other] < index):
                    best, index = distance, lowest[other]
        if len(rows) > 1:
            nearest[rows[0]] = min(rows[1], index)
            for i in rows[1:]:
                nearest[i] = min(rows[0], index)
        else:
            # With every other row infinitely far, the row's own infinite
            # diagonal ties too, and argmin takes row 0.
            nearest[rows[0]] = index if best < math.inf else 0
    return nearest


def _could_overflow(points: list[Row]) -> bool:
    """Whether a squared distance between two of `points` could overflow:
    the squared spans of the coordinates bound each one, and the factor 2
    covers the rounding of another summation order."""
    spans = [max(values) - min(values) for values in zip(*points)]
    return not math.isfinite(2.0 * _sum([s * s for s in spans]))


# Each runner takes the step's rows and returns its stats, or the reason
# the step is skipped.
def _run_clustering(step: AnalysisStep, data: list[Row], seed: int) -> dict | str:
    if len(data) < step.k:
        return f"only {len(data)} complete rows for k={step.k}"
    if _could_overflow(data):
        return OVERFLOW
    assignment, centroids, iterations = _kmeans(data, step.k, seed)
    return {
        "cluster_sizes": [assignment.count(c) for c in range(step.k)],
        "centroids": [list(c) for c in centroids],
        "iterations": iterations,
        "n": len(data),
        "assignment": assignment,
        "points": [list(row) for row in data],
    }


def _run_classification(step: AnalysisStep, data: list[Row], seed: int) -> dict | str:
    labels = [row[-1] for row in data]
    if len(data) < 2:
        return "fewer than two complete rows"
    classes = len(set(labels))
    if classes < 2:
        return "all labels identical"
    points = [row[:-1] for row in data]
    if _could_overflow(points):
        return OVERFLOW
    predicted = [labels[j] for j in _loo_nearest(points)]
    hits = [p == label for p, label in zip(predicted, labels)].count(True)
    return {
        "accuracy": hits / len(data),
        "n": len(data),
        "classes": classes,
        "labels": labels,
        "predicted": predicted,
    }


def _run_regression(step: AnalysisStep, data: list[Row], seed: int) -> dict | str:
    x = [row[0] for row in data]
    y = [row[-1] for row in data]
    if len(data) < 2:
        return "fewer than two complete rows"
    x_mean, y_mean = _sum(x) / len(x), _sum(y) / len(y)
    dx = [v - x_mean for v in x]
    dy = [v - y_mean for v in y]
    x_var = _sum([v * v for v in dx])
    if x_var == 0.0:
        return "zero variance in feature"
    ss_tot = _sum([v * v for v in dy])
    if ss_tot == 0.0:
        return "zero variance in response"
    slope = _sum([a * b for a, b in zip(dx, dy)]) / x_var
    intercept = y_mean - slope * x_mean
    residuals = [b - (slope * a + intercept) for a, b in zip(x, y)]
    r2 = 1.0 - _sum([r * r for r in residuals]) / ss_tot
    return {
        "slope": slope,
        "intercept": intercept,
        "r2": r2,
        "n": len(data),
        "points": [[a, b] for a, b in zip(x, y)],
    }


_RUNNERS = {
    "clustering": _run_clustering,
    "classification": _run_classification,
    "regression": _run_regression,
}


def run_analysis(
    plan: AnalysisPlan,
    merged: MergedTable,
    seed: int = DEFAULTS.analysis_seed,
    out_dir: Path | None = None,
) -> list[AnalysisResult]:
    """Run every step; write one plot-data artifact per completed step.

    Each step draws afresh from the same seed, so step order cannot leak
    randomness between steps.
    """
    results = []
    for number, step in enumerate(plan.steps, start=1):
        data, excluded = _step_matrix(merged, step)
        stats = _RUNNERS[step.kind](step, data, seed)
        if not isinstance(stats, str):
            try:  # the encoder refuses NaN and inf, which values from about 1e154 up make
                plot = encode(PlotData(step, stats, excluded))
            except ValueError:
                stats = OVERFLOW
        if isinstance(stats, str):
            results.append(AnalysisResult(step, excluded_rows=excluded, skipped=True, reason=stats))
            continue
        artifacts: tuple[str, ...] = ()
        if out_dir is not None:
            out_dir.mkdir(parents=True, exist_ok=True)
            name = f"step-{number}-{step.kind}.json"
            atomic_write_text(out_dir / name, plot)
            artifacts = (name,)
        results.append(AnalysisResult(step, stats, artifacts, excluded_rows=excluded))
    return results
