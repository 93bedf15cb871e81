"""Acceptance gate: ten numbered guarantees the package must hold.

Each test prints one verdict line (run with -s to see them on success;
pytest shows them automatically on failure). Tolerances are pinned in the
asserts themselves, not in shared constants, so loosening one is a visible
diff.
"""

import dataclasses
import itertools
import random
import socket
import time
from collections import Counter
from functools import lru_cache
from types import SimpleNamespace

import pytest

from manalyzer import evaluation, prompts, reviewer, synth
from manalyzer.config import PipelineConfig
from manalyzer.extraction import (
    ConvertedPart,
    ExtractedTable,
    ProvenanceEntry,
    render_part,
    run_feedback_loop,
    validate_provenance,
)
from manalyzer.gateway import Gateway, ScriptedProvider
from manalyzer.packer import RatedParagraph, select_paragraphs
from manalyzer.parsing import normalize_numeric, render_markdown_table, render_numeric
from manalyzer.pipeline import Pipeline
from manalyzer.reviewer import baseline_screen, fuse
from manalyzer.workspace import Workspace

from helpers import register_for, tree


class _Verdict:
    def __init__(self, number, label):
        self.number = number
        self.label = label

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        outcome = "PASS" if exc_type is None else "FAIL"
        print(f"{outcome} criterion {self.number}: {self.label}")
        return False


def verdict(number, label):
    return _Verdict(number, label)


# -- 1: knapsack optimality ---------------------------------------------------


def brute_force_importance(items, budget):
    reachable = [(0, 0)]
    for item in items:
        reachable += [
            (w + item.weight, v + item.importance)
            for (w, v) in reachable
            if w + item.weight <= budget
        ]
    return max(v for _, v in reachable)


def test_criterion_1_knapsack_matches_brute_force():
    with verdict(1, "knapsack optimal on 200 random instances in < 5 s"):
        rng = random.Random(20260814)
        started = time.monotonic()
        for _ in range(200):
            n = rng.randint(1, 15)
            items = [
                RatedParagraph(
                    index=i,
                    importance=rng.randint(0, 10),
                    weight=rng.randint(1, 30),
                )
                for i in range(n)
            ]
            budget = rng.randint(0, sum(it.weight for it in items))
            packed = select_paragraphs(items, budget)
            assert packed.total_weight <= budget
            assert packed.total_importance == brute_force_importance(items, budget)
        elapsed = time.monotonic() - started
        assert elapsed < 5.0, f"knapsack suite took {elapsed:.2f} s"


# -- 2: score fusion ----------------------------------------------------------


def test_criterion_2_fusion_and_baseline_boundary():
    with verdict(2, "fuse(8,6,0.5)=7.0, monotone on the full grid, strict baseline"):
        assert fuse(8, 6, 0.5) == 7.0
        grid_r = [i / 10 for i in range(11)]
        for s1, s2, s_r in itertools.product(range(1, 11), range(1, 11), grid_r):
            base = fuse(s1, s2, s_r)
            if s1 < 10:
                assert fuse(s1 + 1, s2, s_r) >= base
            if s2 < 10:
                assert fuse(s1, s2 + 1, s_r) >= base
            if s_r < 1.0:
                assert fuse(s1, s2, s_r + 0.1) >= base
        assert baseline_screen(6, 6) is False
        assert baseline_screen(7, 6) is True


# -- 3: screening metrics -----------------------------------------------------


def naive_metrics(predicted, gold, corpus):
    tp = len(predicted & gold)
    fp = len(predicted - gold)
    fn = len(gold - predicted)
    tn = len(corpus) - tp - fp - fn
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return (tp + tn) / len(corpus), precision, recall, f1


def test_criterion_3_screening_metrics_match_oracle():
    with verdict(3, "screening metrics match a confusion-count oracle at 1e-12"):
        rng = random.Random(3)
        for _ in range(100):
            corpus = {f"p{i}" for i in range(30)}
            predicted = {d for d in corpus if rng.random() < rng.random()}
            gold = {d for d in corpus if rng.random() < 0.5}
            got = reviewer.classification_metrics(predicted, gold, corpus)
            acc, pre, rec, f1 = naive_metrics(predicted, gold, corpus)
            assert abs(got.accuracy - acc) <= 1e-12
            assert abs(got.precision - pre) <= 1e-12
            assert abs(got.recall - rec) <= 1e-12
            assert abs(got.f1 - f1) <= 1e-12
        # Keeping everything in a 182-paper corpus with 69 true positives
        # collapses precision to the base rate.
        corpus = {f"p{i}" for i in range(182)}
        gold = {f"p{i}" for i in range(69)}
        all_kept = reviewer.classification_metrics(corpus, gold, corpus)
        assert all_kept.precision == 69 / 182
        assert all_kept.recall == 1.0


# -- 4: value matching and hit rates ------------------------------------------


def oracle_matching_size(extracted, gold, abs_tol, rel_tol):
    admit = [
        sum(1 << j for j, b in enumerate(gold) if abs(a - b) <= max(abs_tol, rel_tol * abs(b)))
        for a in extracted
    ]

    @lru_cache(maxsize=None)
    def best(i, used):
        if i == len(admit):
            return 0
        out = best(i + 1, used)
        free = admit[i] & ~used
        while free:
            bit = free & -free
            out = max(out, 1 + best(i + 1, used | bit))
            free ^= bit
        return out

    return best(0, 0)


def test_criterion_4_matching_is_maximum_and_hit_rate_boundaries_hold():
    with verdict(4, "matching optimal on 500 instances; hit-rate edge cases hold"):
        rng = random.Random(4)
        for _ in range(500):
            extracted = [rng.randint(0, 12) + rng.choice([0.0, 0.5]) for _ in range(rng.randint(0, 10))]
            gold = [rng.randint(0, 12) + rng.choice([0.0, 0.5]) for _ in range(rng.randint(0, 10))]
            abs_tol = rng.choice([0.0, 0.5, 1.0])
            pairs = evaluation.match_values(extracted, gold, abs_tol=abs_tol, rel_tol=0.0)
            assert len(pairs) == oracle_matching_size(
                tuple(extracted), tuple(gold), abs_tol, 0.0
            )
            assert len({i for i, _ in pairs}) == len(pairs)
            assert len({j for _, j in pairs}) == len(pairs)
            for i, j in pairs:
                assert abs(extracted[i] - gold[j]) <= abs_tol

        def points(values):
            return [
                evaluation.GoldDataPoint(doc_id="d", level=1, value=v) for v in values
            ]

        assert evaluation.hit_rate([], points([1.0, 2.0])).hit_rate == 0.0
        assert evaluation.hit_rate([1.0, 2.0], points([1.0, 2.0])).hit_rate == 1.0
        # Two extractions of the same number earn one gold point, not two.
        assert evaluation.hit_rate([5.0, 5.0], points([5.0, 7.0])).hit_rate == 0.5


# -- 5: provenance enforcement ------------------------------------------------


def test_criterion_5_validation_flags_exactly_the_planted_errors():
    with verdict(5, "planted citation errors recovered with full precision/recall"):
        rng = random.Random(5)
        planted_kinds = set()
        for doc in range(20):
            # 4x3 grid where every value appears in exactly two cells, so a
            # single corrupted citation never leaves an output cell without
            # a vouching twin.
            flat = [100.0 * doc + 10.0 * (k // 2) + 0.5 for k in range(12)]
            grid = [flat[r * 3 : r * 3 + 3] for r in range(4)]
            part = ConvertedPart(
                part_id=f"tbl-{doc}",
                origin="table-image",
                body=render_markdown_table(
                    ["col0", "col1", "col2"],
                    [[render_numeric(v) for v in row] for row in grid],
                ),
                title="Measurements.",
                footnote="Synthetic.",
            )
            entries = [
                ProvenanceEntry(value=v, part_id=part.part_id, row=r + 1, column=c + 1)
                for r, row in enumerate(grid)
                for c, v in enumerate(row)
            ]
            wrong_valued = set()
            planted = {}
            corrupted_entries = []
            for k, entry in enumerate(entries):
                if rng.random() >= 0.10:
                    corrupted_entries.append(entry)
                    continue
                kind = rng.choice(["wrong-cell", "out-of-range", "wrong-value"])
                if kind == "wrong-value" and (k ^ 1) in wrong_valued:
                    kind = "wrong-cell"  # keep the twin cell vouched for
                if kind == "wrong-cell":
                    other = (k + 3) % 12
                    bad = ProvenanceEntry(
                        value=entry.value, part_id=entry.part_id,
                        row=other // 3 + 1, column=other % 3 + 1,
                    )
                    planted[bad] = "value-mismatch"
                elif kind == "out-of-range":
                    bad = ProvenanceEntry(
                        value=entry.value, part_id=entry.part_id, row=99, column=entry.column
                    )
                    planted[bad] = "out-of-range"
                else:
                    wrong_valued.add(k)
                    bad = ProvenanceEntry(
                        value=entry.value + 0.37, part_id=entry.part_id,
                        row=entry.row, column=entry.column,
                    )
                    planted[bad] = "value-mismatch"
                planted_kinds.add(kind)
                corrupted_entries.append(bad)
            table = ExtractedTable(
                doc_id=f"d{doc}",
                header=("col0", "col1", "col2"),
                rows=tuple(tuple(row) for row in grid),
                provenance=tuple(corrupted_entries),
                iteration=1,
            )
            violations = validate_provenance(table, [part])
            assert {(v.entry, v.kind) for v in violations} == set(
                (entry, kind) for entry, kind in planted.items()
            )
        assert planted_kinds == {"wrong-cell", "out-of-range", "wrong-value"}


# -- 6: feedback-loop bound ---------------------------------------------------

LOOP_TOPIC = "loop bound check"

ACCEPT = (
    "{'Data Accuracy': 9, 'Semantic Consistency': 8, 'Data Completeness': 8, "
    "'Overall Score': 8, 'Suggestion': 'Good.'}"
)


def reject(suggestion):
    return (
        "{'Data Accuracy': 4, 'Semantic Consistency': 4, 'Data Completeness': 3, "
        f"'Overall Score': 4, 'Suggestion': {suggestion!r}}}"
    )


def extract_reply(value):
    return (
        f"| value |\n| --- |\n| {value} |\n\n"
        "[The Start of Explanation]\n"
        f"1. The number {value}: Comes from Part 1, Row 1, Column 1.\n"
        "[The End of Explanation]\n"
    )


def run_scripted_loop(suggestions, accept_last):
    """Drive run_feedback_loop through len(suggestions)+accept_last rounds,
    each extraction returning the next of 40, 41, 42."""
    provider = ScriptedProvider()
    gateway = Gateway(provider, sleep=lambda s: None)
    part = ConvertedPart(
        part_id="para-0",
        origin="text-paragraph",
        body="Values 40, 41 and 42 were all reported.",
    )
    rendered = [render_part(part, 1)]
    replies = [reject(s) for s in suggestions]
    if accept_last:
        replies.append(ACCEPT)
    prior = None
    for round_no, reply in enumerate(replies):
        value = str(40 + round_no)
        register_for(
            provider,
            prompts.extract_request(LOOP_TOPIC, ["value"], rendered, prior),
            extract_reply(value),
        )
        table = ExtractedTable(
            "d1", ("value",), ((float(value),),),
            (ProvenanceEntry(float(value), "para-0", 1, 1),), 1,
        )
        register_for(
            provider,
            prompts.check_request(LOOP_TOPIC, rendered, table.render()), reply
        )
        prior = suggestions[round_no] if round_no < len(suggestions) else None
    table, trace, _ = run_feedback_loop([part], ["value"], LOOP_TOPIC, gateway, doc_id="d1")
    tags = [tag for tag, _ in Counter(provider.calls)]
    return table, trace, tags


def test_criterion_6_loop_never_exceeds_three_attempts():
    with verdict(6, "feedback loop runs exactly bounded attempts, flags rejects"):
        table, trace, tags = run_scripted_loop(
            ["Look again.", "Still wrong."], accept_last=True
        )
        assert table.accepted
        assert table.iteration == 3
        assert len(trace) == 3
        assert tags.count("extract") == 3 and tags.count("check") == 3

        table, trace, tags = run_scripted_loop(
            ["No.", "No again.", "Final no."], accept_last=False
        )
        assert not table.accepted
        assert len(trace) == 3
        assert tags.count("extract") == 3 and tags.count("check") == 3


# -- 7: numeric normalization -------------------------------------------------


def test_criterion_7_normalization_table_and_idempotence():
    with verdict(7, "30 messy cells normalize to hand values, idempotently"):
        from test_parsing import NORMALIZATION_CASES

        assert len(NORMALIZATION_CASES) >= 30
        for raw, expected in NORMALIZATION_CASES:
            got = normalize_numeric(raw)
            assert got == expected, f"{raw!r} -> {got!r}, wanted {expected!r}"
            assert normalize_numeric(render_numeric(got)) == got


# -- 8 through 10: the bundled corpus end to end ------------------------------


def run_corpus(root, corpus_dir):
    ws = Workspace.init(root / "run", synth.DIRECTION, PipelineConfig())
    provider = ScriptedProvider.load_script(corpus_dir / "script.jsonl")
    pipe = Pipeline(ws, PipelineConfig(), provider)
    pipe.ingest_dir(corpus_dir / "docs")
    summary = pipe.run(synth.TEMPLATE)
    return pipe, provider, summary


def strip_path(summary):
    # Workspaces live in distinct temp dirs, so the report path is the one
    # legitimately differing field.
    return dataclasses.replace(summary, report_path="")


def level_hit_rates(pipe, corpus_dir):
    extracted = {
        table.doc_id: [cell for row in table.rows for cell in row if cell is not None]
        for table in pipe.load_accepted_tables()
    }
    gold = evaluation.load_gold(corpus_dir / "gold.jsonl")
    return evaluation.aggregate(evaluation.evaluate_extraction(extracted, gold))


@pytest.fixture(scope="module")
def uninterrupted(tmp_path_factory, corpus_dir):
    pipe, provider, summary = run_corpus(
        tmp_path_factory.mktemp("uninterrupted"), corpus_dir
    )
    return SimpleNamespace(
        pipe=pipe, summary=summary, tree=tree(pipe.ws.root)
    )


def test_criterion_8_end_to_end_deterministic_offline(tmp_path, corpus_dir, monkeypatch):
    with verdict(8, "two scratch runs byte-identical, level-1 hit rate 1.0, offline"):
        def refuse(*args, **kwargs):
            raise AssertionError("network access attempted during scripted run")

        monkeypatch.setattr(socket, "socket", refuse)
        monkeypatch.setattr(socket, "create_connection", refuse)

        started = time.monotonic()
        pipe_a, _, summary_a = run_corpus(tmp_path / "a", corpus_dir)
        pipe_b, _, summary_b = run_corpus(tmp_path / "b", corpus_dir)
        elapsed = time.monotonic() - started
        assert elapsed < 60.0, f"two runs took {elapsed:.1f} s"

        assert summary_a.accepted == 6
        assert strip_path(summary_a) == strip_path(summary_b)
        report_a = pipe_a.ws.report_path.read_bytes()
        report_b = pipe_b.ws.report_path.read_bytes()
        assert report_a == report_b
        assert tree(pipe_a.ws.root) == tree(pipe_b.ws.root)

        levels = level_hit_rates(pipe_a, corpus_dir)
        assert levels[1] == 1.0
        assert levels[2] == 1.0
        assert levels[3] == 0.0  # derived sums are never extracted verbatim


def test_criterion_9_resume_is_byte_equivalent_with_no_repeat_calls(
    tmp_path, corpus_dir, uninterrupted
):
    with verdict(9, "kill-after-review resume: identical artifacts, no repeat calls"):
        config = PipelineConfig()
        ws = Workspace.init(tmp_path / "run", synth.DIRECTION, config)
        first_provider = ScriptedProvider.load_script(corpus_dir / "script.jsonl")
        pipe = Pipeline(ws, config, first_provider)
        pipe.ingest_dir(corpus_dir / "docs")
        pipe.store_template(synth.TEMPLATE)
        pipe.stage_pack()
        pipe.stage_review()
        first_keys = set(first_provider.calls)
        assert first_keys, "the interrupted run should have reached the agent"

        resumed_ws = Workspace.load(tmp_path / "run")
        second_provider = ScriptedProvider.load_script(corpus_dir / "script.jsonl")
        resumed = Pipeline(resumed_ws, config, second_provider)
        summary = resumed.run(None)
        assert strip_path(summary) == strip_path(uninterrupted.summary)

        second_keys = set(second_provider.calls)
        assert first_keys & second_keys == set()
        assert tree(resumed_ws.root) == uninterrupted.tree


def test_criterion_10_hybrid_discriminates_where_independent_cannot(
    corpus_dir, uninterrupted
):
    with verdict(10, "identical (s1,s2): independent screening flat, hybrid F1 = 1.0"):
        records, failures = uninterrupted.pipe.load_review_records()
        assert failures == []
        assert {(r.s1, r.s2) for r in records} == {(7, 7)}
        assert sorted(r.s_r for r in records) == sorted(synth.S_R)

        labels = reviewer.load_screening_gold(corpus_dir / "screening_gold.txt")
        corpus = set(labels)
        gold = {doc_id for doc_id, keep in labels.items() if keep}

        hybrid = set(reviewer.screen(records, 8.0))
        hybrid_metrics = reviewer.classification_metrics(hybrid, gold, corpus)
        assert hybrid_metrics.f1 == 1.0

        independent_votes = {baseline_screen(r.s1, r.s2) for r in records}
        assert len(independent_votes) == 1  # no discrimination at all
        independent = (
            {r.doc_id for r in records} if independent_votes == {True} else set()
        )
        indep_metrics = reviewer.classification_metrics(independent, gold, corpus)
        # Keeping everything scores exactly the no-information level for a
        # 6-in-10 corpus; nowhere near the hybrid's separation.
        assert indep_metrics.f1 == pytest.approx(0.75)
        assert indep_metrics.f1 < hybrid_metrics.f1
