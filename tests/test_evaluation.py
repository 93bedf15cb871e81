import functools
import random

import pytest

from manalyzer.config import DEFAULTS
from manalyzer.errors import EmptyGoldError, SchemaViolationError
from manalyzer.evaluation import (
    GoldDataPoint,
    aggregate,
    default_rel_tol,
    evaluate_extraction,
    hit_rate,
    load_gold,
    match_values,
    save_gold,
    tolerance_run,
    within_tolerance,
)

from helpers import edge_values


def admissible(a, b, abs_tol, rel_tol):
    return abs(a - b) <= max(abs_tol, rel_tol * abs(b))


def augmenting_path_matching(extracted, gold, abs_tol, rel_tol):
    """Maximum matching by recursive augmenting paths (Kuhn): the matcher
    the package used before the convex-graph greedy, kept as an oracle.
    It recurses once per augmenting path, so it suits small inputs only."""
    candidates = [
        [j for j, b in enumerate(gold) if admissible(a, b, abs_tol, rel_tol)]
        for a in extracted
    ]
    owner = [-1] * len(gold)  # gold index -> extracted index

    def assign(i, seen):
        for j in candidates[i]:
            if seen[j]:
                continue
            seen[j] = True
            if owner[j] < 0 or assign(owner[j], seen):
                owner[j] = i
                return True
        return False

    for i in range(len(extracted)):
        assign(i, [False] * len(gold))
    return sorted((i, j) for j, i in enumerate(owner) if i >= 0)


def oracle_matching_size(extracted, gold, abs_tol, rel_tol):
    """Exact maximum matching size by DP over gold subsets."""
    edges = [
        [j for j, b in enumerate(gold) if admissible(a, b, abs_tol, rel_tol)]
        for a in extracted
    ]

    @functools.lru_cache(maxsize=None)
    def best(i, mask):
        if i == len(extracted):
            return 0
        result = best(i + 1, mask)
        for j in edges[i]:
            if mask >> j & 1:
                result = max(result, 1 + best(i + 1, mask & ~(1 << j)))
        return result

    return best(0, (1 << len(gold)) - 1)


def test_match_values_matches_oracle_on_random_instances():
    rng = random.Random(90210)
    for case in range(500):
        n1, n2 = rng.randint(0, 10), rng.randint(1, 10)
        extracted = [round(rng.uniform(-20, 20), 2) for _ in range(n1)]
        gold = [round(rng.uniform(-20, 20), 2) for _ in range(n2)]
        abs_tol = rng.choice([0.0, 0.05, 0.5, 2.0])
        rel_tol = rng.choice([0.0, 0.01, 0.1])
        pairs = match_values(extracted, gold, abs_tol, rel_tol)
        expected = oracle_matching_size(extracted, gold, abs_tol, rel_tol)
        assert len(pairs) == expected, f"case {case}"
        # Pairs must be one-to-one and individually admissible.
        assert len({i for i, _ in pairs}) == len(pairs)
        assert len({j for _, j in pairs}) == len(pairs)
        for i, j in pairs:
            assert admissible(extracted[i], gold[j], abs_tol, rel_tol)


def test_within_tolerance_is_the_oracle_predicate():
    rng = random.Random(4242)
    for _ in range(2000):
        a, b = rng.uniform(-5, 5), rng.choice([0.0, rng.uniform(-5, 5)])
        abs_tol, rel_tol = rng.choice([0.0, 1e-9, 0.5]), rng.choice([0.0, 1e-4, 0.3])
        assert within_tolerance(a, b, abs_tol, rel_tol) == admissible(a, b, abs_tol, rel_tol)


def tie_heavy(rng):
    """Many exact ties: values drawn from a few one-decimal values."""
    pool = [round(rng.uniform(-3, 3), 1) for _ in range(rng.randint(1, 6))]
    extracted = [
        rng.choice(pool) + rng.choice([0.0, 0.0, 0.05]) for _ in range(rng.randint(0, 40))
    ]
    gold = [rng.choice(pool) for _ in range(rng.randint(1, 40))]
    return extracted, gold, rng.choice([0.0, 0.05, 0.2]), rng.choice([0.0, 0.01, 0.1])


TOLERANCES = [(0.0, 0.0), (1e-9, 1e-4), (0.05, 0.0), (0.0, 0.1), (0.2, 0.01)]


def edge_heavy(rng):
    """Values at the tolerance bounds of a few gold values, and one ulp off."""
    abs_tol, rel_tol = rng.choice(TOLERANCES)
    pool = [round(rng.uniform(-50, 50), rng.choice([0, 1, 3])) for _ in range(rng.randint(1, 4))]
    extracted = edge_values(rng, pool, rng.randint(0, 20), abs_tol, rel_tol)
    gold = pool + edge_values(rng, pool, rng.randint(0, 20), abs_tol, rel_tol)
    return extracted, gold, abs_tol, rel_tol


def test_match_values_matches_augmenting_paths_on_tie_heavy_instances():
    for instance, seed, cases in ((tie_heavy, 1967, 300), (edge_heavy, 3000, 3000)):
        rng = random.Random(seed)
        for case in range(cases):
            extracted, gold, abs_tol, rel_tol = instance(rng)
            pairs = match_values(extracted, gold, abs_tol, rel_tol)
            expected = augmenting_path_matching(extracted, gold, abs_tol, rel_tol)
            assert len(pairs) == len(expected), f"{instance.__name__} case {case}"
            assert len({i for i, _ in pairs}) == len({j for _, j in pairs}) == len(pairs)
            assert all(admissible(extracted[i], gold[j], abs_tol, rel_tol) for i, j in pairs)


def test_tolerance_run_is_exactly_the_admitted_values_on_edge_heavy_instances():
    rng = random.Random(2024)
    for case in range(3000):
        values, gold, abs_tol, rel_tol = edge_heavy(rng)
        values.sort()
        for b in gold:
            start, end = tolerance_run(values, b, abs_tol, rel_tol)
            admitted = [k for k, a in enumerate(values) if admissible(a, b, abs_tol, rel_tol)]
            assert admitted == list(range(start, end)), f"case {case}, b={b!r}"


def test_match_values_on_2000_equal_values():
    # The augmenting-path matcher raised RecursionError from 1,200 equal
    # values on; the greedy matches them all without recursion.
    pairs = match_values([3.5] * 2000, [3.5] * 2000)
    assert len({i for i, _ in pairs}) == len({j for _, j in pairs}) == len(pairs) == 2000


def test_match_values_prefers_augmenting_over_greedy():
    # Greedy first-fit would bind extracted[0] to gold[0] and strand
    # extracted[1]; an augmenting pass finds both.
    pairs = match_values([1.0, 1.0], [1.0, 1.05], abs_tol=0.06, rel_tol=0.0)
    assert len(pairs) == 2


def test_match_values_rejects_negative_tolerances():
    with pytest.raises(ValueError):
        match_values([1.0], [1.0], abs_tol=-1.0)


def test_hit_rate_boundaries():
    gold = [GoldDataPoint("d1", 1, v) for v in (1.0, 2.0, 3.0)]
    assert hit_rate([], gold).hit_rate == 0.0
    assert hit_rate([1.0, 2.0, 3.0], gold).hit_rate == 1.0
    half = hit_rate([1.0, 99.0], gold)
    assert half.hits == 1
    assert half.gold_count == 3
    assert half.hit_rate == pytest.approx(1 / 3)


def test_hit_rate_duplicates_are_capped():
    gold_single = [GoldDataPoint("d1", 1, 5.0)]
    assert hit_rate([5.0, 5.0, 5.0], gold_single).hits == 1
    gold_double = [GoldDataPoint("d1", 1, 5.0), GoldDataPoint("d1", 1, 5.0)]
    assert hit_rate([5.0], gold_double).hit_rate == 0.5


def test_hit_rate_validates_grouping():
    with pytest.raises(EmptyGoldError):
        hit_rate([1.0], [])
    mixed_docs = [GoldDataPoint("d1", 1, 1.0), GoldDataPoint("d2", 1, 2.0)]
    with pytest.raises(ValueError):
        hit_rate([1.0], mixed_docs)
    mixed_levels = [GoldDataPoint("d1", 1, 1.0), GoldDataPoint("d1", 2, 2.0)]
    with pytest.raises(ValueError):
        hit_rate([1.0], mixed_levels)


def test_default_rel_tol_per_level():
    assert default_rel_tol(1) == DEFAULTS.eval_rel_tol
    assert default_rel_tol(2) == DEFAULTS.eval_rel_tol
    assert default_rel_tol(3) == DEFAULTS.eval_level3_rel_tol


def test_level3_gets_wider_tolerance_by_default():
    gold1 = [GoldDataPoint("d1", 1, 100.0)]
    gold3 = [GoldDataPoint("d1", 3, 100.0)]
    assert hit_rate([100.5], gold1).hits == 0
    assert hit_rate([100.5], gold3).hits == 1


def test_tolerance_is_relative_to_gold_value():
    # diff = 0.0101 fails against b = 1.0 but passes against b = 1.0101.
    assert match_values([1.0101], [1.0], 0.0, 0.01) == []
    assert match_values([1.0], [1.0101], 0.0, 0.01) == [(0, 0)]


def test_evaluate_extraction_groups_and_fills_missing_docs():
    gold = [
        GoldDataPoint("d1", 1, 1.0),
        GoldDataPoint("d1", 1, 2.0),
        GoldDataPoint("d1", 2, 7.0),
        GoldDataPoint("d2", 1, 5.0),
    ]
    results = evaluate_extraction({"d1": [1.0, 7.0]}, gold)
    by_key = {(r.doc_id, r.level): r for r in results}
    assert by_key[("d1", 1)].hit_rate == 0.5
    assert by_key[("d1", 2)].hit_rate == 1.0
    assert by_key[("d2", 1)].hit_rate == 0.0  # doc absent from extraction


def test_aggregate_is_unweighted_per_document():
    gold = [GoldDataPoint("d1", 1, v) for v in (1.0, 2.0, 3.0, 4.0)] + [
        GoldDataPoint("d2", 1, 10.0)
    ]
    results = evaluate_extraction({"d1": [1.0], "d2": [10.0]}, gold)
    # d1 scores 1/4, d2 scores 1/1; the mean of rates is 0.625, not the
    # pooled 2/5.
    assert aggregate(results) == {1: pytest.approx(0.625)}


def test_gold_round_trip(tmp_path):
    points = [
        GoldDataPoint("d1", 1, 1.5, "mm", "rainfall"),
        GoldDataPoint("d2", 3, -2.0),
    ]
    path = tmp_path / "gold.jsonl"
    save_gold(points, path)
    assert load_gold(path) == points


def test_load_gold_rejects_bad_lines(tmp_path):
    path = tmp_path / "gold.jsonl"
    path.write_text('{"doc_id": "d1", "level": 9, "value": 1.0}\n', encoding="utf-8")
    with pytest.raises(SchemaViolationError, match=":1"):
        load_gold(path)
    path.write_text('{"doc_id": "d1"}\n', encoding="utf-8")
    with pytest.raises(SchemaViolationError):
        load_gold(path)
    path.write_text("not json\n", encoding="utf-8")
    with pytest.raises(SchemaViolationError):
        load_gold(path)


def test_gold_point_validation():
    with pytest.raises(ValueError):
        GoldDataPoint("d1", 4, 1.0)
    with pytest.raises(ValueError):
        GoldDataPoint("d1", 1, float("nan"))


def test_exact_match_needs_no_tolerance():
    assert match_values([0.0], [0.0], 0.0, 0.0) == [(0, 0)]
    assert hit_rate([0.0], [GoldDataPoint("d1", 1, 0.0)], abs_tol=0.0, rel_tol=0.0).hits == 1
