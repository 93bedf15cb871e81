import random
import time

import numpy as np
import pytest

from manalyzer import prompts
from manalyzer.collector import Paragraph, ParsedDocument
from manalyzer.config import DEFAULTS
from manalyzer.packer import (
    MAX_BUDGET,
    PackedDocument,
    RatedParagraph,
    _reduce,
    estimate_weight,
    pack_document,
    packed_text,
    score_paragraphs,
    select_paragraphs,
)

from helpers import register_for, run_python


def make_items(spec):
    """spec: list of (importance, weight) in index order."""
    return [
        RatedParagraph(index=i, text=f"para {i}", importance=imp, weight=w)
        for i, (imp, w) in enumerate(spec)
    ]


def brute_force(items, budget):
    """Enumerate every subset in one pass: max importance, then min weight,
    then the lexicographically smallest index tuple. Each mask's sums are
    those of the mask with its low bit cleared plus that one item, and the
    index tuple is built only when (importance, weight) ties or beats the
    best so far. Independent of the DP: no table, no code from the packer."""
    n = len(items)
    weight = [0] * (1 << n)
    importance = [0] * (1 << n)
    best = (0, 0, ())  # the empty set is always feasible
    for mask in range(1, 1 << n):
        low = mask & -mask
        item = items[low.bit_length() - 1]
        w = weight[mask] = weight[mask ^ low] + item.weight
        imp = importance[mask] = importance[mask ^ low] + item.importance
        if w > budget or (-imp, w) > best[:2]:
            continue
        chosen = tuple(items[i].index for i in range(n) if mask >> i & 1)
        best = min(best, (-imp, w, chosen))
    return best[2], -best[0], best[1]


def full_table_select(items, budget):
    """The knapsack with its whole (n+1) x (v_max+1) min-weight table and the
    reconstruction's equality test against it: the reference for the
    rolling-row DP with a boolean keep matrix."""
    budget = max(0, min(budget, MAX_BUDGET))
    eligible = [it for it in sorted(items, key=lambda it: it.index) if it.weight <= budget]
    n = len(eligible)
    if n == 0:
        return (), 0, 0
    v_max = sum(it.importance for it in eligible)
    inf = np.int64(1) << 62
    g = np.full((n + 1, v_max + 1), inf, dtype=np.int64)
    g[n][0] = 0
    for i in range(n - 1, -1, -1):
        imp, w = eligible[i].importance, eligible[i].weight
        take = np.full(v_max + 1, inf, dtype=np.int64)
        take[imp:] = g[i + 1][: v_max + 1 - imp] + w
        g[i] = np.minimum(g[i + 1], take)
    best_v = int(np.nonzero(g[0] <= budget)[0][-1])
    chosen = []
    v = best_v
    for i in range(n):
        imp, w = eligible[i].importance, eligible[i].weight
        if v >= imp and w + g[i + 1][v - imp] == g[i][v]:
            chosen.append(eligible[i].index)
            v -= imp
    return tuple(chosen), best_v, int(g[0][best_v])


def numpy_select(items, budget):
    """The knapsack as the packer ran it on numpy: a rolling min-weight row
    over every eligible item, importance-0 ones included, with one packed
    keep bit per (item, importance) cell and the front-to-back keep-bit
    reconstruction. The oracle for the bound-and-core selection."""
    budget = max(0, min(budget, MAX_BUDGET))
    eligible = [it for it in sorted(items, key=lambda it: it.index) if it.weight <= budget]
    n = len(eligible)
    if n == 0:
        return (), 0, 0
    v_max = sum(it.importance for it in eligible)
    inf = np.int64(1) << 62
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
    best_v = int(np.nonzero(row <= budget)[0][-1])
    chosen = []
    v = best_v
    for i in range(n):
        if keep[i, v >> 3] >> (7 - (v & 7)) & 1:
            chosen.append(eligible[i].index)
            v -= eligible[i].importance
    return tuple(chosen), best_v, int(row[best_v])


def oracle_cases(kind, rng):
    """Seeded (items, budget) pairs of one shape."""
    if kind == "tie_heavy":
        for _ in range(300):
            items = make_items(
                [(rng.randint(0, 3), rng.randint(1, 4)) for _ in range(rng.randint(1, 120))]
            )
            yield items, rng.randint(0, sum(it.weight for it in items) + 3)
    elif kind == "random":
        for _ in range(150):
            items = make_items(
                [(rng.randint(0, 10), rng.randint(1, 300)) for _ in range(rng.randint(1, 150))]
            )
            yield items, rng.randint(0, sum(it.weight for it in items) + 3)
    elif kind == "deep_shaped":
        # perfbench's `deep`: 1,500 paragraphs of 14-40 words rated 0-6,
        # with a few planted relevant ones rated 10.
        for _ in range(4):
            yield make_items(
                [(10 if rng.random() < 0.01 else rng.randint(0, 6), rng.randint(20, 75))
                 for _ in range(1500)]
            ), 4977
    else:  # equal_ratio: every item is a multiple of one (importance, weight)
        for _ in range(80):
            imp, w = rng.choice([(1, 1), (1, 2), (2, 3), (10, 1), (3, 7)])
            items = make_items(
                [(imp * k, w * k) for k in
                 (rng.randint(1, 10 // imp) for _ in range(rng.randint(1, 80)))]
            )
            yield items, rng.randint(0, sum(it.weight for it in items))


def test_estimate_weight():
    assert estimate_weight("") == 1
    assert estimate_weight("abcd") == 1
    assert estimate_weight("abcde") == 2
    assert estimate_weight("x" * 8) == 2
    assert estimate_weight("x" * 9) == 3


def test_select_empty_and_zero_budget():
    assert select_paragraphs([], 100).selected_indices == ()
    items = make_items([(5, 10)])
    packed = select_paragraphs(items, 0)
    assert packed.selected_indices == ()
    assert packed.total_importance == 0


def test_select_excludes_oversized_items():
    items = make_items([(10, 50), (1, 2)])
    packed = select_paragraphs(items, 10)
    assert packed.selected_indices == (1,)


def test_select_known_instance():
    # Budget 10; (imp, w) = (6, 5), (5, 4), (5, 6), (1, 1).
    # Items 0+1+3 use the budget exactly for importance 12.
    items = make_items([(6, 5), (5, 4), (5, 6), (1, 1)])
    packed = select_paragraphs(items, 10)
    assert packed.selected_indices == (0, 1, 3)
    assert packed.total_importance == 12
    assert packed.total_weight == 10


def test_tie_break_prefers_smaller_weight():
    items = make_items([(5, 10), (5, 4)])
    packed = select_paragraphs(items, 10)
    assert packed.selected_indices == (1,)
    assert packed.total_weight == 4


def test_tie_break_prefers_lexicographically_smallest_indices():
    items = make_items([(5, 4), (5, 4), (5, 4)])
    packed = select_paragraphs(items, 8)
    assert packed.selected_indices == (0, 1)


def test_select_matches_brute_force_on_random_instances():
    rng = random.Random(1349)
    start = time.monotonic()
    for case in range(200):
        n = rng.randint(1, 15)
        items = make_items(
            [(rng.randint(0, 10), rng.randint(1, 25)) for _ in range(n)]
        )
        budget = rng.randint(0, sum(it.weight for it in items) + 5)
        expected_indices, expected_imp, expected_w = brute_force(items, budget)
        packed = select_paragraphs(items, budget, doc_id=f"case-{case}")
        assert packed.total_importance == expected_imp, f"case {case}"
        assert packed.total_weight == expected_w, f"case {case}"
        assert packed.selected_indices == expected_indices, f"case {case}"
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"200 cases took {elapsed:.2f} s"


def test_select_matches_full_table_on_tie_heavy_instances():
    rng = random.Random(2718)
    for case in range(60):
        n = rng.randint(1, 300)
        # Few distinct importances and weights, so optima tie often.
        importances = rng.sample(range(11), rng.randint(1, 4))
        weights = rng.sample(range(1, 9), rng.randint(1, 3))
        items = make_items(
            [(rng.choice(importances), rng.choice(weights)) for _ in range(n)]
        )
        budget = rng.randint(0, sum(it.weight for it in items) + 5)
        packed = select_paragraphs(items, budget)
        got = (packed.selected_indices, packed.total_importance, packed.total_weight)
        assert got == full_table_select(items, budget), f"case {case}"


@pytest.mark.parametrize("kind", ["tie_heavy", "random", "deep_shaped", "equal_ratio"])
def test_select_matches_the_numpy_oracle(kind):
    rng = random.Random(f"packer-oracle-{kind}")
    for case, (items, budget) in enumerate(oracle_cases(kind, rng)):
        packed = select_paragraphs(items, budget)
        got = (packed.selected_indices, packed.total_importance, packed.total_weight)
        assert got == numpy_select(items, budget), f"{kind} case {case}"


def test_reduction_decides_no_tie():
    # Every item has importance/weight 2: each is in some optimum and out of
    # another, so the core is everything, and the index tie-break picks the
    # earliest items.
    items = make_items([(2, 1)] * 10 + [(4, 2)] * 10)
    pool = sorted(items, key=lambda it: it.index)
    assert _reduce(pool, 7) == ([], pool)
    assert select_paragraphs(items, 7).selected_indices == tuple(range(7))


def test_an_over_budget_selection_does_not_load_numpy():
    result = run_python(
        "import random, sys\n"
        "from manalyzer.packer import RatedParagraph, select_paragraphs\n"
        "rng = random.Random(5)\n"
        "items = [RatedParagraph(i, '', rng.randint(0, 6), rng.randint(20, 75))"
        " for i in range(1500)]\n"
        "assert select_paragraphs(items, 4977).total_weight <= 4977\n"
        "assert 'numpy' not in sys.modules, sorted(m for m in sys.modules if 'numpy' in m)\n"
    )
    assert result.returncode == 0, result.stderr


def test_budget_monotonicity():
    rng = random.Random(77)
    for _ in range(30):
        n = rng.randint(1, 12)
        items = make_items([(rng.randint(0, 10), rng.randint(1, 20)) for _ in range(n)])
        total = sum(it.weight for it in items)
        budgets = sorted(rng.randint(0, total) for _ in range(4))
        imps = [select_paragraphs(items, b).total_importance for b in budgets]
        assert imps == sorted(imps)


def test_selection_never_exceeds_budget():
    rng = random.Random(88)
    for _ in range(50):
        n = rng.randint(1, 12)
        items = make_items([(rng.randint(0, 10), rng.randint(1, 20)) for _ in range(n)])
        budget = rng.randint(0, 60)
        packed = select_paragraphs(items, budget)
        assert packed.total_weight <= budget


def test_budget_is_capped():
    items = make_items([(5, 3)])
    packed = select_paragraphs(items, MAX_BUDGET * 10)
    assert packed.budget == MAX_BUDGET


def make_doc(paragraph_texts, captions=()):
    from manalyzer.collector import ImageRef

    figures = tuple(
        ImageRef(id=f"fig-{i}", caption=c, image=f"images/fig-{i}.png")
        for i, c in enumerate(captions)
    )
    return ParsedDocument(
        doc_id="doc-1",
        title="A study",
        doi=None,
        paragraphs=tuple(Paragraph(i, t) for i, t in enumerate(paragraph_texts)),
        figures=figures,
        tables=(),
    )


def test_pack_document_under_budget_skips_scoring(scripted):
    provider, gateway = scripted()
    doc = make_doc(["short one", "short two"])
    packed = pack_document(doc, gateway, budget=1000)
    assert packed.selected_indices == (0, 1)
    assert packed.total_importance == DEFAULTS.packer_default_importance * 2
    assert provider.calls == []


def test_pack_document_subtracts_caption_weight(scripted):
    provider, gateway = scripted()
    # One paragraph of weight 3; caption of weight 2; budget 4 leaves
    # effective budget 2 so the paragraph cannot fit.
    doc = make_doc(["x" * 12], captions=["y" * 8])
    register_for(
        provider,
        prompts.paragraph_score_request(doc.paragraphs[0].text), "7"
    )
    packed = pack_document(doc, gateway, budget=4)
    assert packed.budget == 2
    assert packed.selected_indices == ()


def test_pack_document_scores_and_selects_over_budget(scripted):
    provider, gateway = scripted()
    texts = ["a" * 40, "b" * 40, "c" * 40]  # weight 10 each
    doc = make_doc(texts)
    for text, score in zip(texts, ("9", "3", "8")):
        register_for(provider, prompts.paragraph_score_request(text), score)
    packed = pack_document(doc, gateway, budget=20)
    assert packed.selected_indices == (0, 2)
    assert packed.total_importance == 17
    assert len(provider.calls) == 3


def test_score_paragraphs_reasks_then_defaults(scripted):
    provider, gateway = scripted()
    doc = make_doc(["needs scoring"])
    first = prompts.paragraph_score_request("needs scoring")
    register_for(provider, first, "I cannot rate this.")
    register_for(provider, first.with_addendum(prompts.REASK_INTEGER), "also words")
    rated = score_paragraphs(doc, gateway)
    assert rated[0].importance == DEFAULTS.packer_default_importance
    assert len(provider.calls) == 2


def test_score_paragraphs_reasks_an_over_long_integer_then_defaults(scripted):
    # 5,000 digits: more than `int` converts from a string by default.
    provider, gateway = scripted()
    doc = make_doc(["p"])
    first = prompts.paragraph_score_request("p")
    register_for(provider, first, "9" * 5000)
    register_for(provider, first.with_addendum(prompts.REASK_INTEGER), "Score: " + "8" * 5000)
    rated = score_paragraphs(doc, gateway)
    assert rated[0].importance == DEFAULTS.packer_default_importance
    assert len(provider.calls) == 2


def test_score_paragraphs_reasks_out_of_range(scripted):
    provider, gateway = scripted()
    doc = make_doc(["p"])
    first = prompts.paragraph_score_request("p")
    register_for(provider, first, "25")
    register_for(provider, first.with_addendum(prompts.REASK_INTEGER), "8")
    rated = score_paragraphs(doc, gateway)
    assert rated[0].importance == 8


def test_packed_text_in_document_order():
    doc = make_doc(["first", "second", "third"])
    packed = PackedDocument("doc-1", (2, 0), 0, 0, 10)
    assert packed_text(doc, packed) == "first\n\nthird"


def test_rated_paragraph_validation():
    with pytest.raises(ValueError):
        RatedParagraph(0, "t", importance=11, weight=1)
    with pytest.raises(ValueError):
        RatedParagraph(0, "t", importance=5, weight=0)
