"""Merged-table analysis: a fixed, deterministic toolkit driven by an
agent-produced plan.

The plan names steps of three kinds: k-means clustering, 1-nearest-neighbor
classification scored by leave-one-out accuracy, and simple least-squares
regression. Steps referencing unknown columns are dropped; missing kinds
are back-filled with defaults when the table's shape permits them. Rows
with missing values in a step's columns are excluded per step (listwise).

All randomness flows from one integer seed in [0, 2**32): k-means takes
its seed rows from ``numpy.random.RandomState(seed)``'s stream, which NEP
19 freezes, drawn with the standard library's Mersenne Twister so that
``numpy.random`` is never imported. Leave-one-out 1-NN computes distances
for one block of query rows at a time, about NN_BLOCK_CELLS differences,
so its memory is linear in the row count; its neighbours, ties to the
lowest index included, are those of the full distance matrix.
"""

from __future__ import annotations

import json
import logging
import random
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from . import prompts
from .config import DEFAULTS, SEED_LIMIT
from .errors import HeaderMismatchError, NoValidStepsError, UnparseableReplyError
from .extraction import ExtractedTable
from .gateway import Gateway
from .workspace import atomic_write_text

if TYPE_CHECKING:
    import numpy as np

log = logging.getLogger(__name__)

KMEANS_MAX_ITER = 100
NN_BLOCK_CELLS = 1 << 20  # feature differences held at once by leave-one-out 1-NN
_MT_STATE_WORDS = 624  # MT19937 state size, in 32-bit words
INDEX_COLUMN = "index"  # pseudo-column: row ordinal, for regression fallback


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


def merge_tables(tables: Sequence[ExtractedTable]) -> MergedTable:
    """Concatenate accepted per-paper tables, tagged and sorted by doc_id."""
    if not tables:
        return MergedTable(header=("doc_id",), rows=(), row_count=0, missing_count=0)
    for table in tables:
        if not table.accepted:
            raise ValueError(f"{table.doc_id}: refusing to merge an unaccepted table")
        if table.header != tables[0].header:
            raise HeaderMismatchError(
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
        features = tuple(raw.get("features") or ())
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


def _step_matrix(
    merged: MergedTable, step: AnalysisStep
) -> tuple[np.ndarray, int]:
    """Rows x columns array over the step's features, then its label or
    response, with listwise deletion.

    Returns the dense matrix and the number of excluded rows.
    """
    import numpy as np  # imported where used, so commands that never analyze skip it
    names = [*step.features, *filter(None, (step.label, step.response))]
    columns = [merged.column(name) for name in names]
    keep = [
        i
        for i in range(merged.row_count)
        if all(col[i] is not None for col in columns)
    ]
    data = np.array(
        [[float(col[i]) for col in columns] for i in keep], dtype=np.float64
    ).reshape(len(keep), len(names))
    return data, merged.row_count - len(keep)


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


def _kmeans(data: np.ndarray, k: int, seed: int) -> tuple[np.ndarray, np.ndarray, int]:
    import numpy as np
    centroids = data[_seed_rows(len(data), k, seed)]
    assignment = np.zeros(len(data), dtype=np.int64)
    for iteration in range(1, KMEANS_MAX_ITER + 1):
        distances = np.linalg.norm(data[:, None, :] - centroids[None, :, :], axis=2)
        new_assignment = distances.argmin(axis=1)
        for c in range(k):
            members = data[new_assignment == c]
            if len(members):
                centroids[c] = members.mean(axis=0)
        if iteration > 1 and np.array_equal(new_assignment, assignment):
            break
        assignment = new_assignment
    return assignment, centroids, iteration


# Each runner takes the step's matrix and returns its stats, or the reason
# the step is skipped.
def _run_clustering(step: AnalysisStep, data: np.ndarray, seed: int) -> dict | str:
    if len(data) < step.k:
        return f"only {len(data)} complete rows for k={step.k}"
    assignment, centroids, iterations = _kmeans(data, step.k, seed)
    sizes = [int((assignment == c).sum()) for c in range(step.k)]
    return {
        "cluster_sizes": sizes,
        "centroids": [[float(x) for x in c] for c in centroids],
        "iterations": iterations,
        "n": int(len(data)),
        "assignment": [int(a) for a in assignment],
        "points": [[float(x) for x in row] for row in data],
    }


def _run_classification(step: AnalysisStep, data: np.ndarray, seed: int) -> dict | str:
    import numpy as np
    features, labels = data[:, :-1], data[:, -1]
    if len(data) < 2:
        return "fewer than two complete rows"
    if len(np.unique(labels)) < 2:
        return "all labels identical"
    # One block of query rows at a time keeps memory linear in n. Each
    # distance is computed as in the full matrix, and argmin breaks ties to
    # the lowest index, so `nearest` equals the full matrix's.
    n = len(features)
    block = max(1, NN_BLOCK_CELLS // (n * features.shape[1]))
    nearest = np.empty(n, dtype=np.intp)
    for start in range(0, n, block):
        rows = np.arange(start, min(start + block, n))
        distances = np.linalg.norm(features[rows, None, :] - features[None, :, :], axis=2)
        distances[rows - start, rows] = np.inf
        nearest[rows] = distances.argmin(axis=1)
    predicted = labels[nearest]
    accuracy = float((predicted == labels).mean())
    return {
        "accuracy": accuracy,
        "n": int(len(data)),
        "classes": int(len(np.unique(labels))),
        "labels": [float(v) for v in labels],
        "predicted": [float(v) for v in predicted],
    }


def _run_regression(step: AnalysisStep, data: np.ndarray, seed: int) -> dict | str:
    x, y = data[:, 0], data[:, -1]
    if len(data) < 2:
        return "fewer than two complete rows"
    x_var = float(((x - x.mean()) ** 2).sum())
    if x_var == 0.0:
        return "zero variance in feature"
    ss_tot = float(((y - y.mean()) ** 2).sum())
    if ss_tot == 0.0:
        return "zero variance in response"
    slope = float(((x - x.mean()) * (y - y.mean())).sum() / x_var)
    intercept = float(y.mean() - slope * x.mean())
    residuals = y - (slope * x + intercept)
    r2 = 1.0 - float((residuals**2).sum()) / ss_tot
    return {
        "slope": slope,
        "intercept": intercept,
        "r2": r2,
        "n": int(len(data)),
        "points": [[float(a), float(b)] for a, b in zip(x, y)],
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
        if isinstance(stats, str):
            results.append(AnalysisResult(step, excluded_rows=excluded, skipped=True, reason=stats))
            continue
        artifacts: tuple[str, ...] = ()
        if out_dir is not None:
            out_dir.mkdir(parents=True, exist_ok=True)
            name = f"step-{number}-{step.kind}.json"
            payload = {"step": asdict(step), "stats": stats, "excluded_rows": excluded}
            atomic_write_text(out_dir / name, json.dumps(payload, indent=2, sort_keys=True))
            artifacts = (name,)
        results.append(AnalysisResult(step, stats, artifacts, excluded_rows=excluded))
    return results
