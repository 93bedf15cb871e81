import json
import random
import tracemalloc

import numpy as np
import pytest

from manalyzer import prompts
from manalyzer.analysis import (
    INDEX_COLUMN,
    KMEANS_MAX_ITER,
    AnalysisPlan,
    AnalysisStep,
    _distance,
    _kmeans,
    _loo_nearest,
    _run_regression,
    _seed_rows,
    _sum,
    merge_tables,
    plan_analysis,
    run_analysis,
)
from manalyzer.config import SEED_LIMIT
from manalyzer.errors import ExtractionError, NoValidStepsError
from manalyzer.extraction import ExtractedTable

from helpers import register_for

TOPIC = "rainfall and yield"


def accepted_table(doc_id, header, rows):
    return ExtractedTable(
        doc_id=doc_id,
        header=tuple(header),
        rows=tuple(tuple(r) for r in rows),
        provenance=(),
        iteration=1,
        accepted=True,
    )


def merged_from(rows, header=("x", "y")):
    tables = [accepted_table(f"d{i:02d}", header, [row]) for i, row in enumerate(rows)]
    return merge_tables(tables)


def plan_request_for(merged):
    preview = [" | ".join(str(c) for c in row) for row in merged.rows[:5]]
    return prompts.plan_request(TOPIC, merged.header, preview)


def test_merge_tables_sorts_and_counts_missing():
    t1 = accepted_table("d02", ("a", "b"), [(1.0, None)])
    t2 = accepted_table("d01", ("a", "b"), [(2.0, 3.0), (None, None)])
    merged = merge_tables([t1, t2])
    assert merged.header == ("doc_id", "a", "b")
    assert merged.rows[0][0] == "d01"
    assert merged.rows[2][0] == "d02"
    assert merged.row_count == 3
    assert merged.missing_count == 3


def test_merge_tables_rejects_unaccepted():
    bad = ExtractedTable("d1", ("a",), ((1.0,),), (), 1, accepted=False)
    with pytest.raises(ValueError, match="unaccepted"):
        merge_tables([bad])


def test_merge_tables_rejects_header_mismatch():
    t1 = accepted_table("d1", ("a",), [(1.0,)])
    t2 = accepted_table("d2", ("b",), [(1.0,)])
    with pytest.raises(ExtractionError, match=r"d2: header \('b',\) != \('a',\)"):
        merge_tables([t1, t2])


def test_merge_tables_empty():
    merged = merge_tables([])
    assert merged.row_count == 0
    assert merged.data_columns() == ()


def test_index_pseudo_column():
    merged = merged_from([(1.0, 2.0), (3.0, 4.0)])
    assert merged.column(INDEX_COLUMN) == [0.0, 1.0]
    assert merged.column("x") == [1.0, 3.0]


def test_plan_analysis_uses_agent_steps_and_backfills(scripted):
    provider, gateway = scripted()
    merged = merged_from([(float(i), float(i * 2)) for i in range(6)])
    reply = json.dumps([{"kind": "clustering", "features": ["x", "y"], "k": 3}])
    register_for(provider, plan_request_for(merged), reply)
    plan = plan_analysis(merged, TOPIC, gateway)
    kinds = [s.kind for s in plan.steps]
    assert kinds == ["clustering", "classification", "regression"]
    assert plan.steps[0].k == 3  # the agent's choice survives
    assert plan.steps[2].response == "y"


def test_plan_analysis_falls_back_on_garbage(scripted):
    provider, gateway = scripted()
    merged = merged_from([(1.0, 2.0), (3.0, 4.0)])
    register_for(provider, plan_request_for(merged), "I would rather chat about the weather.")
    plan = plan_analysis(merged, TOPIC, gateway)
    assert [s.kind for s in plan.steps] == ["clustering", "classification", "regression"]


def test_plan_analysis_drops_invalid_steps(scripted):
    provider, gateway = scripted()
    merged = merged_from([(1.0, 2.0), (3.0, 4.0)])
    reply = json.dumps(
        [
            {"kind": "clustering", "features": ["nope"], "k": 2},
            {"kind": "clustering", "features": ["x"], "k": 1},
            {"kind": "sorcery", "features": ["x"]},
            {"kind": "regression", "features": ["x", "y"], "response": "y"},
        ]
    )
    register_for(provider, plan_request_for(merged), reply)
    plan = plan_analysis(merged, TOPIC, gateway)
    # Every agent step was invalid, so only the defaults remain.
    assert [s.kind for s in plan.steps] == ["clustering", "classification", "regression"]


@pytest.mark.parametrize("features", [3, [["x"], "y"], "xy", [1, "z"]])
def test_plan_analysis_drops_steps_whose_features_are_not_column_names(scripted, features):
    provider, gateway = scripted()
    merged = merged_from([(1.0, 2.0), (3.0, 4.0)], header=("x", "y"))
    reply = json.dumps([
        {"kind": "clustering", "features": features, "k": 2},
        {"kind": "classification", "features": features, "label": "y"},
        {"kind": "regression", "features": features, "response": "y"},
    ])
    register_for(provider, plan_request_for(merged), reply)
    plan = plan_analysis(merged, TOPIC, gateway)
    # Every agent step was dropped, so only the defaults remain.
    assert plan.steps == (
        AnalysisStep(kind="clustering", features=("x", "y"), k=2),
        AnalysisStep(kind="classification", features=("x",), label="y"),
        AnalysisStep(kind="regression", features=("x",), response="y"),
    )


def test_plan_analysis_single_column_regresses_on_index(scripted):
    provider, gateway = scripted()
    merged = merged_from([(1.0,), (2.0,), (4.0,)], header=("v",))
    register_for(provider, plan_request_for(merged), "[]")
    plan = plan_analysis(merged, TOPIC, gateway)
    regression = [s for s in plan.steps if s.kind == "regression"][0]
    assert regression.features == (INDEX_COLUMN,)
    assert regression.response == "v"


def test_plan_analysis_refuses_empty_table(scripted):
    _, gateway = scripted()
    with pytest.raises(NoValidStepsError):
        plan_analysis(merge_tables([]), TOPIC, gateway)


def test_kmeans_separates_two_blobs():
    rng = random.Random(7)
    blob_a = [(rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(5)]
    blob_b = [(rng.uniform(40, 41), rng.uniform(40, 41)) for _ in range(5)]
    merged = merged_from(blob_a + blob_b)
    step = AnalysisStep(kind="clustering", features=("x", "y"), k=2)
    result = run_analysis(AnalysisPlan((step,)), merged)[0]
    assert not result.skipped
    assert sorted(result.stats["cluster_sizes"]) == [5, 5]
    assignment = result.stats["assignment"]
    assert len(set(assignment[:5])) == 1
    assert len(set(assignment[5:])) == 1
    assert assignment[0] != assignment[5]


def test_kmeans_deterministic_per_seed():
    rng = random.Random(11)
    merged = merged_from([(rng.uniform(0, 10), rng.uniform(0, 10)) for _ in range(12)])
    step = AnalysisStep(kind="clustering", features=("x", "y"), k=3)
    first = run_analysis(AnalysisPlan((step,)), merged, seed=42)[0]
    second = run_analysis(AnalysisPlan((step,)), merged, seed=42)[0]
    assert first.stats == second.stats


def test_seed_rows_equal_numpy_random_state_choice():
    # RandomState's stream is frozen (NEP 19), so the k-means seed rows
    # drawn without numpy.random must stay equal to its choice().
    rng = random.Random(18)
    seeds = [0, 42, SEED_LIMIT - 1]
    for case in range(2000):
        n = rng.randint(2, 3000) if case % 4 == 0 else rng.randint(2, 40)
        k = rng.randint(1, n)
        seed = seeds[case] if case < len(seeds) else rng.randrange(SEED_LIMIT)
        expected = np.random.RandomState(seed).choice(n, k, replace=False)
        assert _seed_rows(n, k, seed) == expected.tolist(), (n, k, seed)


@pytest.mark.parametrize("seed", [-1, SEED_LIMIT])
def test_seed_rows_refuse_a_seed_out_of_range(seed):
    with pytest.raises(ValueError, match="seed must be in"):
        _seed_rows(5, 2, seed)


# The numpy code that the standard-library analysis replaced, kept as its
# oracle. Results must be equal bit for bit: they are compared by repr,
# which tells -0.0 from 0.0 and prints NaN and inf.
def kmeans_oracle(rows, k, seed):
    data = np.array(rows, dtype=np.float64)
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
    return assignment.tolist(), [tuple(c) for c in centroids.tolist()], iteration


def loo_nearest_oracle(rows):
    """Leave-one-out nearest neighbours from the full n x n distance matrix."""
    features = np.array(rows, dtype=np.float64)
    distances = np.linalg.norm(features[:, None, :] - features[None, :, :], axis=2)
    np.fill_diagonal(distances, np.inf)
    return distances.argmin(axis=1).tolist()


def regression_oracle(rows):
    data = np.array(rows, dtype=np.float64)
    x, y = data[:, 0], data[:, -1]
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


KINDS = ("ties", "continuous", "duplicates", "magnitudes")


def random_rows(rng, kind, n, d):
    """`n` rows of `d` values: tie-heavy small integers, continuous values,
    rows drawn from a small pool, or both signs at magnitudes from 1e-200 to
    1e308 (their squares underflow and overflow, their sums can too)."""
    if kind == "ties":
        return [tuple(float(rng.randint(0, 3)) for _ in range(d)) for _ in range(n)]
    if kind == "continuous":
        return [tuple(rng.uniform(-50, 50) for _ in range(d)) for _ in range(n)]
    if kind == "duplicates":
        scales = (1.0, 1e-200)  # the gaps between tiny values square to 0
        pool = [
            tuple(rng.uniform(-5, 5) * rng.choice(scales) for _ in range(d))
            for _ in range(1 + n // 4)
        ]
        return [rng.choice(pool) for _ in range(n)]
    exponents = (-200, -3, 0, 6, 150, 307)
    return [
        tuple(rng.choice((-1, 1)) * rng.uniform(1, 1.7) * 10.0 ** rng.choice(exponents)
              for _ in range(d))
        for _ in range(n)
    ]


def random_cases(kind, count, min_rows=1):
    """Seeded (rows, seed) cases with 1-9 columns, so that sums of 8 or
    more terms take the pairwise path, and a few with over 128 rows."""
    rng = random.Random(kind)
    for case in range(count):
        n = rng.randint(129, 400) if case % 10 == 0 else rng.randint(min_rows, 60)
        yield random_rows(rng, kind, n, rng.randint(1, 9)), rng.randrange(SEED_LIMIT)


def test_sum_follows_numpys_pairwise_order():
    rng = random.Random(20)
    for n in [*range(0, 300), 1000, 8191, 8193, 100_000]:
        values = [rng.uniform(-1, 1) * 10.0 ** rng.randint(-8, 8) for _ in range(n)]
        assert repr(_sum(values)) == repr(float(np.add.reduce(np.array(values)))), n
    assert repr(_sum([-0.0] * 9)) == repr(float(np.add.reduce(np.full(9, -0.0))))


def test_distance_rounds_as_numpy_norm_over_the_last_axis():
    rng = random.Random(21)
    for d in [*range(1, 20), 130]:
        for _ in range(50):
            p, q = ([rng.uniform(-1, 1) * 10.0 ** rng.randint(-8, 8) for _ in range(d)]
                    for _ in range(2))
            want = np.linalg.norm(np.array([p]) - np.array([q]), axis=1)[0]
            assert repr(_distance(p, q)) == repr(float(want)), (p, q)


@pytest.mark.parametrize("kind", KINDS)
def test_leave_one_out_nearest_equals_the_full_matrix(kind):
    for rows, _ in random_cases(kind, 150, min_rows=2):
        with np.errstate(over="ignore"):
            assert _loo_nearest(rows) == loo_nearest_oracle(rows), rows


@pytest.mark.parametrize("kind", KINDS)
def test_kmeans_equals_the_numpy_oracle(kind):
    rng = random.Random(kind)
    for rows, seed in random_cases(kind, 60, min_rows=5):
        k = rng.randint(2, 5)
        with np.errstate(over="ignore", invalid="ignore"):
            assert repr(_kmeans(rows, k, seed)) == repr(kmeans_oracle(rows, k, seed)), rows


@pytest.mark.parametrize("kind", KINDS)
def test_regression_equals_the_numpy_oracle(kind):
    step = AnalysisStep(kind="regression", features=("x",), response="y")
    for rows, _ in random_cases(kind, 150, min_rows=2):
        pairs = [(row[0], row[-1]) for row in rows]
        with np.errstate(over="ignore", invalid="ignore"):
            assert repr(_run_regression(step, pairs, 0)) == repr(regression_oracle(pairs)), pairs


def test_leave_one_out_nearest_of_20000_rows_stays_small():
    # The full distance matrix of 20,000 rows would take 3.2 GB. A
    # continuous feature and a three-level one keep the traced scan short.
    rng = random.Random(6)
    rows = [(rng.uniform(0, 1000), float(rng.randint(0, 2))) for _ in range(20_000)]
    tracemalloc.start()
    try:
        nearest = _loo_nearest(rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 50 * 2**20
    assert all(i != j for i, j in enumerate(nearest))


def test_clustering_skips_when_rows_short():
    merged = merged_from([(1.0, 2.0)])
    step = AnalysisStep(kind="clustering", features=("x", "y"), k=2)
    result = run_analysis(AnalysisPlan((step,)), merged)[0]
    assert result.skipped
    assert "k=2" in result.reason


def test_classification_nearest_neighbor_known_case():
    rows = [(0.0, 0.0), (0.1, 0.0), (10.0, 1.0), (10.1, 1.0)]
    merged = merged_from(rows, header=("feat", "label"))
    step = AnalysisStep(kind="classification", features=("feat",), label="label")
    result = run_analysis(AnalysisPlan((step,)), merged)[0]
    assert result.stats["accuracy"] == 1.0
    assert result.stats["classes"] == 2


def test_classification_skips_identical_labels():
    rows = [(0.0, 1.0), (1.0, 1.0), (2.0, 1.0)]
    merged = merged_from(rows, header=("feat", "label"))
    step = AnalysisStep(kind="classification", features=("feat",), label="label")
    result = run_analysis(AnalysisPlan((step,)), merged)[0]
    assert result.skipped
    assert result.reason == "all labels identical"


def test_regression_exact_line():
    rows = [(float(x), 2.0 * x + 1.0) for x in range(8)]
    merged = merged_from(rows)
    step = AnalysisStep(kind="regression", features=("x",), response="y")
    result = run_analysis(AnalysisPlan((step,)), merged)[0]
    assert result.stats["slope"] == pytest.approx(2.0, abs=1e-9)
    assert result.stats["intercept"] == pytest.approx(1.0, abs=1e-9)
    assert result.stats["r2"] == pytest.approx(1.0, abs=1e-9)


def test_regression_matches_polyfit_oracle():
    rng = np.random.RandomState(3)
    for _ in range(20):
        x = rng.uniform(-50, 50, size=15)
        y = 3.5 * x - 2.0 + rng.normal(0, 4.0, size=15)
        merged = merged_from(list(zip(map(float, x), map(float, y))))
        step = AnalysisStep(kind="regression", features=("x",), response="y")
        result = run_analysis(AnalysisPlan((step,)), merged)[0]
        slope, intercept = np.polyfit(x, y, 1)
        assert result.stats["slope"] == pytest.approx(float(slope), rel=1e-9)
        assert result.stats["intercept"] == pytest.approx(float(intercept), rel=1e-9)


def test_regression_skips_degenerate_inputs():
    flat_x = merged_from([(1.0, 2.0), (1.0, 3.0)])
    step = AnalysisStep(kind="regression", features=("x",), response="y")
    assert run_analysis(AnalysisPlan((step,)), flat_x)[0].reason == "zero variance in feature"
    flat_y = merged_from([(1.0, 2.0), (2.0, 2.0)])
    assert run_analysis(AnalysisPlan((step,)), flat_y)[0].reason == "zero variance in response"


def test_regression_skips_statistics_out_of_float_range(tmp_path):
    # The squares of values near ±1e200 overflow, so slope, intercept and r²
    # come out NaN. No artifact may hold one: the step is skipped instead.
    merged = merged_from([(1e200, 2e200), (-1e200, -3e200), (2e200, 1e200), (-2e200, -1e200)])
    step = AnalysisStep(kind="regression", features=("x",), response="y")
    result = run_analysis(AnalysisPlan((step,)), merged, out_dir=tmp_path)[0]
    assert result.skipped
    assert result.reason == "statistics overflow the float range"
    assert list(tmp_path.iterdir()) == []


def test_listwise_deletion_per_step():
    rows = [(1.0, 1.0), (2.0, None), (3.0, 3.0), (None, 4.0)]
    merged = merged_from(rows)
    step = AnalysisStep(kind="regression", features=("x",), response="y")
    result = run_analysis(AnalysisPlan((step,)), merged)[0]
    assert result.excluded_rows == 2
    assert result.stats["n"] == 2


def test_run_analysis_writes_artifacts(tmp_path):
    merged = merged_from([(float(i), float(2 * i)) for i in range(6)])
    plan = AnalysisPlan(
        (
            AnalysisStep(kind="clustering", features=("x", "y"), k=2),
            AnalysisStep(kind="regression", features=("x",), response="y"),
        )
    )
    results = run_analysis(plan, merged, out_dir=tmp_path)
    assert results[0].artifacts == ("step-1-clustering.json",)
    assert results[1].artifacts == ("step-2-regression.json",)
    payload = json.loads((tmp_path / "step-2-regression.json").read_text())
    assert payload["stats"]["slope"] == pytest.approx(2.0)
    assert payload["step"]["kind"] == "regression"


def test_run_analysis_skipped_steps_write_nothing(tmp_path):
    merged = merged_from([(1.0, 2.0)])
    plan = AnalysisPlan((AnalysisStep(kind="clustering", features=("x", "y"), k=2),))
    results = run_analysis(plan, merged, out_dir=tmp_path)
    assert results[0].skipped
    assert list(tmp_path.iterdir()) == []


def test_run_analysis_artifacts_are_byte_deterministic(tmp_path):
    merged = merged_from([(float(i), float(i) ** 1.5 + 0.25) for i in range(9)])
    plan = AnalysisPlan(
        (
            AnalysisStep(kind="clustering", features=("x", "y"), k=2),
            AnalysisStep(kind="regression", features=("x",), response="y"),
        )
    )
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    run_analysis(plan, merged, out_dir=dir_a)
    run_analysis(plan, merged, out_dir=dir_b)
    for name in ("step-1-clustering.json", "step-2-regression.json"):
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()
