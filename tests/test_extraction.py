import json
import random
import re
from dataclasses import asdict

import pytest

from manalyzer import prompts
from manalyzer.analysis import AnalysisPlan, AnalysisResult, AnalysisStep, MergedTable
from manalyzer.errors import (
    ConversionFailure,
    HeaderMismatchError,
    MissingExplanationError,
    NoTableFoundError,
    UnparseableReplyError,
    UnparseableTableError,
)
from manalyzer.evaluation import within_tolerance
from manalyzer.extraction import (
    ConvertedPart,
    ExtractedTable,
    ProvenanceEntry,
    check_table,
    convert_table_image,
    extract_to_table,
    relevance_mask,
    render_part,
    retain_parts,
    run_feedback_loop,
    validate_provenance,
)
from manalyzer.parsing import render_markdown_table
from manalyzer.workspace import from_json

from helpers import edge_values, register_for

TOPIC = "wheat yield response to irrigation"

GOOD_TABLE_REPLY = (
    "| Season | Yield |\n"
    "| --- | --- |\n"
    "| 1 | 11.5 |\n"
    "| 2 | 10.2 |\n"
    "\n"
    "[The Start of Title]\n"
    "Yield by season.\n"
    "[The End of Title]\n"
    "[The Start of Footnote]\n"
    "Yields in t/ha.\n"
    "[The End of Footnote]\n"
)


def prose_part(part_id="para-0", body="The measured value was 42."):
    return ConvertedPart(part_id=part_id, origin="text-paragraph", body=body)


def table_part(part_id="tbl-0", header=("a", "b"), rows=(("1", "2"), ("3", "4"))):
    return ConvertedPart(
        part_id=part_id,
        origin="table-image",
        body=render_markdown_table(list(header), [list(r) for r in rows]),
        title="A table.",
        footnote="A footnote.",
    )


ACCEPT_REPLY = (
    "{'Data Accuracy': 9, 'Semantic Consistency': 8, 'Data Completeness': 8, "
    "'Overall Score': 8, 'Suggestion': 'Good.'}"
)


def reject_reply(suggestion):
    return (
        "{'Data Accuracy': 4, 'Semantic Consistency': 4, 'Data Completeness': 3, "
        f"'Overall Score': 4, 'Suggestion': {suggestion!r}}}"
    )


def test_part_validation():
    with pytest.raises(ValueError):
        ConvertedPart(part_id="x", origin="pdf-page", body="b")
    with pytest.raises(ValueError):
        ConvertedPart(part_id="x", origin="table-image", body="b", title="t", footnote="")


def test_render_part_shapes():
    text = render_part(table_part(), 3)
    assert text.startswith("Part 3 (table):")
    assert "Title: A table." in text
    assert "Footnote: A footnote." in text
    prose = render_part(prose_part(), 1)
    assert prose == "Part 1 (paragraph):\nThe measured value was 42."


def test_convert_table_image_single(tmp_path, scripted):
    provider, gateway = scripted()
    img = tmp_path / "t.png"
    img.write_bytes(b"table image bytes")
    req = prompts.table_convert_request(str(img), "Table 1: yields")
    register_for(provider, req, GOOD_TABLE_REPLY)
    parts = convert_table_image(str(img), "Table 1: yields", gateway, "tbl-1")
    assert len(parts) == 1
    assert parts[0].part_id == "tbl-1"
    assert parts[0].title == "Yield by season."
    assert parts[0].footnote == "Yields in t/ha."
    assert "| 11.5 |" in parts[0].body


def test_convert_table_image_multi_table_suffixes(tmp_path, scripted):
    provider, gateway = scripted()
    img = tmp_path / "t.png"
    img.write_bytes(b"img")
    reply = (
        "| a |\n| --- |\n| 1 |\n"
        "\n"
        "[The Start of Title]\nFirst.\n[The End of Title]\n"
        "[The Start of Footnote]\nNote one.\n[The End of Footnote]\n"
        "\n"
        "| b |\n| --- |\n| 2 |\n"
    )
    req = prompts.table_convert_request(str(img), "cap")
    register_for(provider, req, reply)
    parts = convert_table_image(str(img), "cap", gateway, "tbl-9")
    assert [p.part_id for p in parts] == ["tbl-9#1", "tbl-9#2"]
    assert parts[0].title == "First."
    # The second table has no blocks of its own; the caption stands in.
    assert parts[1].title == "cap"
    assert parts[1].footnote == "cap"


@pytest.mark.parametrize("caption, fallback", [("cap", "cap"), ("", "Table tbl-2")])
def test_convert_table_image_empty_blocks_fall_back(tmp_path, scripted, caption, fallback):
    provider, gateway = scripted()
    img = tmp_path / "t.png"
    img.write_bytes(b"img")
    reply = (
        "| a |\n| --- |\n| 1 |\n"
        "\n"
        "[The Start of Title]\n \n[The End of Title]\n"
        "[The Start of Footnote]\n[The End of Footnote]\n"
    )
    register_for(provider, prompts.table_convert_request(str(img), caption), reply)
    [part] = convert_table_image(str(img), caption, gateway, "tbl-2")
    assert (part.title, part.footnote) == (fallback, fallback)


def test_convert_table_image_reasks_then_fails(tmp_path, scripted):
    provider, gateway = scripted()
    img = tmp_path / "t.png"
    img.write_bytes(b"img")
    req = prompts.table_convert_request(str(img), "cap")
    register_for(provider, req, "There is prose but no table here.")
    register_for(provider, req.with_addendum(prompts.REASK_TABLE), "still prose")
    with pytest.raises(NoTableFoundError):
        convert_table_image(str(img), "cap", gateway, "tbl-1")
    assert len(provider.calls) == 2


def test_summarize_figure_requires_bullets(tmp_path, scripted):
    from manalyzer.extraction import summarize_figure

    provider, gateway = scripted()
    img = tmp_path / "f.png"
    img.write_bytes(b"img")
    req = prompts.figure_summary_request(str(img), "Figure 1")
    register_for(provider, req, "- rises with rainfall\n- flattens at peak")
    part = summarize_figure(str(img), "Figure 1", gateway, "fig-1")
    assert part.origin == "figure-image"
    assert part.body.startswith("- rises")

    img2 = tmp_path / "g.png"
    img2.write_bytes(b"other")
    req2 = prompts.figure_summary_request(str(img2), "Figure 2")
    register_for(provider, req2, "a paragraph, not bullets")
    register_for(provider, req2.with_addendum(prompts.REASK_BULLETS), "still prose")
    with pytest.raises(ConversionFailure):
        summarize_figure(str(img2), "Figure 2", gateway, "fig-2")


def test_relevance_mask_batches_and_clamps(scripted):
    provider, gateway = scripted()
    parts = [prose_part(f"p{i}", f"text {i}") for i in range(5)]
    batch1 = [render_part(p, i) for i, p in enumerate(parts[:2], start=1)]
    batch2 = [render_part(p, i) for i, p in enumerate(parts[2:4], start=1)]
    batch3 = [render_part(p, i) for i, p in enumerate(parts[4:], start=1)]
    register_for(provider, prompts.mask_request(TOPIC, batch1), "[0.9, -0.5]")
    register_for(provider, prompts.mask_request(TOPIC, batch2), "[1.7, 0.5]")
    register_for(provider, prompts.mask_request(TOPIC, batch3), "[0.4]")
    scores = relevance_mask(parts, TOPIC, gateway, batch_size=2)
    assert scores == [0.9, 0.0, 1.0, 0.5, 0.4]
    assert len(provider.calls) == 3


def test_relevance_mask_reasks_on_length_mismatch(scripted):
    provider, gateway = scripted()
    parts = [prose_part(f"p{i}") for i in range(3)]
    rendered = [render_part(p, i) for i, p in enumerate(parts, start=1)]
    req = prompts.mask_request(TOPIC, rendered)
    register_for(provider, req, "[0.9, 0.8]")
    register_for(
        provider,
        req.with_addendum(f"{prompts.REASK_LIST} It must hold exactly 3 values."),
        "[0.9, 0.8, 0.1]",
    )
    assert relevance_mask(parts, TOPIC, gateway) == [0.9, 0.8, 0.1]


def test_relevance_mask_fails_after_reask(scripted):
    provider, gateway = scripted()
    parts = [prose_part("p0")]
    rendered = [render_part(parts[0], 1)]
    req = prompts.mask_request(TOPIC, rendered)
    register_for(provider, req, "no list")
    register_for(
        provider,
        req.with_addendum(f"{prompts.REASK_LIST} It must hold exactly 1 values."),
        "still none",
    )
    with pytest.raises(UnparseableReplyError):
        relevance_mask(parts, TOPIC, gateway)


def test_retain_parts_is_strict():
    parts = [prose_part(f"p{i}") for i in range(3)]
    kept = retain_parts(parts, [0.51, 0.5, 0.49])
    assert [p.part_id for p in kept] == ["p0"]


def extract_reply(value_lines, explanation_lines):
    table = "| value |\n| --- |\n" + "".join(f"| {v} |\n" for v in value_lines)
    block = (
        "[The Start of Explanation]\n"
        + "".join(f"{i}. {line}\n" for i, line in enumerate(explanation_lines, start=1))
        + "[The End of Explanation]\n"
    )
    return table + "\n" + block


def test_extract_to_table_happy_path(scripted):
    provider, gateway = scripted()
    part = prose_part()
    rendered = [render_part(part, 1)]
    reply = extract_reply(["42"], ["The number 42: Comes from Part 1, Row 1, Column 1."])
    register_for(provider, prompts.extract_request(TOPIC, ["value"], rendered, None), reply)
    table = extract_to_table([part], ["value"], TOPIC, gateway, doc_id="d1")
    assert table.rows == ((42.0,),)
    assert table.provenance == (
        ProvenanceEntry(42.0, "para-0", 1, 1, "The number 42: Comes from Part 1, Row 1, Column 1"),
    )
    assert not table.accepted


def test_extract_to_table_empty_retained_makes_empty_table(scripted):
    provider, gateway = scripted()
    table = extract_to_table([], ["value"], TOPIC, gateway, doc_id="d1")
    assert table.is_empty()
    assert provider.calls == []


def test_extract_to_table_header_mismatch(scripted):
    provider, gateway = scripted()
    part = prose_part()
    rendered = [render_part(part, 1)]
    reply = extract_reply(["42"], ["The number 42: Comes from Part 1, Row 1, Column 1."])
    register_for(
        provider,
        prompts.extract_request(TOPIC, ["other column"], rendered, None), reply
    )
    with pytest.raises(HeaderMismatchError):
        extract_to_table([part], ["other column"], TOPIC, gateway)


def test_extract_to_table_header_tolerates_markup(scripted):
    provider, gateway = scripted()
    part = prose_part()
    rendered = [render_part(part, 1)]
    reply = (
        "| **Value** |\n| --- |\n| 42 |\n\n"
        "[The Start of Explanation]\n"
        "1. The number 42: Comes from Part 1, Row 1, Column 1.\n"
        "[The End of Explanation]\n"
    )
    register_for(provider, prompts.extract_request(TOPIC, ["value"], rendered, None), reply)
    table = extract_to_table([part], ["value"], TOPIC, gateway)
    assert table.header == ("value",)


def test_extract_to_table_rejects_unparseable_cells(scripted):
    provider, gateway = scripted()
    part = prose_part()
    rendered = [render_part(part, 1)]
    reply = extract_reply(["about half"], ["The number 42: Comes from Part 1, Row 1, Column 1."])
    register_for(provider, prompts.extract_request(TOPIC, ["value"], rendered, None), reply)
    with pytest.raises(UnparseableTableError):
        extract_to_table([part], ["value"], TOPIC, gateway)


def test_extract_to_table_requires_explanations_for_numbers(scripted):
    provider, gateway = scripted()
    part = prose_part()
    rendered = [render_part(part, 1)]
    register_for(
        provider,
        prompts.extract_request(TOPIC, ["value"], rendered, None),
        "| value |\n| --- |\n| 42 |\n",
    )
    with pytest.raises(MissingExplanationError):
        extract_to_table([part], ["value"], TOPIC, gateway)


def test_extract_to_table_nan_cells_need_no_explanation(scripted):
    provider, gateway = scripted()
    part = prose_part()
    rendered = [render_part(part, 1)]
    register_for(
        provider,
        prompts.extract_request(TOPIC, ["value"], rendered, None),
        "| value |\n| --- |\n| NaN |\n",
    )
    table = extract_to_table([part], ["value"], TOPIC, gateway)
    assert table.rows == ((None,),)
    assert table.provenance == ()


def test_extract_to_table_unresolvable_part_number(scripted):
    provider, gateway = scripted()
    part = prose_part()
    rendered = [render_part(part, 1)]
    reply = extract_reply(["42"], ["The number 42: Comes from Part 7, Row 1, Column 1."])
    register_for(provider, prompts.extract_request(TOPIC, ["value"], rendered, None), reply)
    table = extract_to_table([part], ["value"], TOPIC, gateway)
    assert table.provenance[0].part_id == "#7"
    violations = validate_provenance(table, [part])
    assert any(v.kind == "missing-part" for v in violations)


def make_cited_table(doc_id, part, grid_values):
    """An ExtractedTable mirroring a table part's grid, every cell cited."""
    rows = tuple(tuple(v for v in row) for row in grid_values)
    provenance = tuple(
        ProvenanceEntry(value=v, part_id=part.part_id, row=r + 1, column=c + 1)
        for r, row in enumerate(grid_values)
        for c, v in enumerate(row)
    )
    return ExtractedTable(
        doc_id=doc_id,
        header=tuple(f"col{c}" for c in range(len(grid_values[0]))),
        rows=rows,
        provenance=provenance,
        iteration=1,
    )


def test_validate_provenance_clean_table_has_no_violations():
    grid = [[1.5, 2.5], [3.5, 4.5]]
    part = table_part(rows=tuple(tuple(str(v) for v in row) for row in grid), header=("col0", "col1"))
    table = make_cited_table("d1", part, grid)
    assert validate_provenance(table, [part]) == []


def test_validate_provenance_out_of_range():
    grid = [[1.0]]
    part = table_part(rows=(("1",),), header=("col0",))
    table = make_cited_table("d1", part, grid)
    bad = ExtractedTable(
        doc_id="d1",
        header=table.header,
        rows=table.rows,
        provenance=(ProvenanceEntry(1.0, part.part_id, 99, 1),),
        iteration=1,
    )
    violations = validate_provenance(bad, [part])
    assert [v.kind for v in violations] == ["out-of-range"]


def test_validate_provenance_prose_substring():
    part = prose_part(body="Rainfall totaled 410 mm that year.")
    good = ExtractedTable(
        "d1", ("value",), ((410.0,),), (ProvenanceEntry(410.0, "para-0", 1, 1),), 1
    )
    assert validate_provenance(good, [part]) == []
    bad = ExtractedTable(
        "d1", ("value",), ((411.0,),), (ProvenanceEntry(411.0, "para-0", 1, 1),), 1
    )
    kinds = [v.kind for v in validate_provenance(bad, [part])]
    assert "value-mismatch" in kinds


def test_validate_provenance_flags_uncited_cells():
    part = prose_part(body="The value 42 appears here.")
    table = ExtractedTable("d1", ("value",), ((42.0, ), (7.0,)), (ProvenanceEntry(42.0, "para-0", 1, 1),), 1)
    violations = validate_provenance(table, [part])
    assert [v.kind for v in violations] == ["uncited"]
    assert "7" in violations[0].reason


def test_validate_provenance_respects_tolerance():
    grid = [[100.0]]
    part = table_part(rows=(("100.0",),), header=("col0",))
    near = ExtractedTable(
        "d1", ("col0",), ((100.0,),), (ProvenanceEntry(100.005, part.part_id, 1, 1),), 1
    )
    assert validate_provenance(near, [part], abs_tol=1e-9, rel_tol=1e-4) == []
    far = ExtractedTable(
        "d1", ("col0",), ((100.0,),), (ProvenanceEntry(100.5, part.part_id, 1, 1),), 1
    )
    kinds = [v.kind for v in validate_provenance(far, [part], abs_tol=1e-9, rel_tol=1e-4)]
    # The drifted citation is flagged, and the cell it abandoned is now
    # uncited as well.
    assert kinds == ["value-mismatch", "uncited"]


def uncited_by_all_pairs(table, abs_tol, rel_tol):
    return [
        (i, j) for i, j, value in table.numeric_cells()
        if not any(within_tolerance(e.value, value, abs_tol, rel_tol) for e in table.provenance)
    ]


def uncited_cells(table, abs_tol, rel_tol):
    return [
        (int(row), int(column))
        for v in validate_provenance(table, [], abs_tol, rel_tol) if v.kind == "uncited"
        for row, column in [re.search(r"row (\d+), column (\d+)", v.reason).groups()]
    ]


def edge_heavy_table(rng, cells, abs_tol, rel_tol):
    """Cells and citations at a few values, their tolerance bounds, and one
    ulp inside or beyond those bounds; every citation names no part."""
    pool = [round(rng.uniform(-500, 500), rng.choice([0, 2])) for _ in range(max(1, cells // 8))]
    grid = edge_values(rng, pool, cells // 2 * 2, abs_tol, rel_tol)
    cited = edge_values(rng, pool, rng.randint(0, cells), abs_tol, rel_tol)
    return ExtractedTable(
        "d1", ("a", "b"), tuple(zip(grid[::2], grid[1::2])),
        tuple(ProvenanceEntry(value, "none", 1, 1) for value in cited), 1,
    )


def test_uncited_check_matches_an_all_pairs_scan_on_edge_heavy_tables():
    rng = random.Random(77)
    for case, cells in enumerate([rng.randint(0, 24) for _ in range(500)] + [2000]):
        abs_tol, rel_tol = rng.choice([(0.0, 0.0), (1e-9, 1e-4), (0.5, 0.0), (0.0, 0.01)])
        table = edge_heavy_table(rng, cells, abs_tol, rel_tol)
        expected = uncited_by_all_pairs(table, abs_tol, rel_tol)
        assert uncited_cells(table, abs_tol, rel_tol) == expected, f"case {case}"


def test_validate_provenance_recovers_planted_corruptions_exactly():
    """Across 20 synthetic documents, corrupt ~10% of citations in known
    ways; validation must flag exactly the planted set."""
    rng = random.Random(424242)
    for doc in range(20):
        grid = [
            [1000.0 * doc + 10.0 * r + c + 0.5 for c in range(3)]
            for r in range(4)
        ]
        part = table_part(
            part_id=f"tbl-{doc}",
            header=("col0", "col1", "col2"),
            rows=tuple(tuple(str(v) for v in row) for row in grid),
        )
        table = make_cited_table(f"d{doc}", part, grid)
        planted = {}  # entry -> expected violation kind
        entries = []
        for entry in table.provenance:
            roll = rng.random()
            if roll < 0.10:
                kind = rng.choice(["value-mismatch", "out-of-range", "missing-part"])
                if kind == "value-mismatch":
                    wrong_row = entry.row % len(grid) + 1  # a different, valid row
                    corrupted = ProvenanceEntry(entry.value, entry.part_id, wrong_row, entry.column)
                elif kind == "out-of-range":
                    corrupted = ProvenanceEntry(entry.value, entry.part_id, 99, entry.column)
                else:
                    corrupted = ProvenanceEntry(entry.value, "ghost-part", entry.row, entry.column)
                planted[corrupted] = kind
                entries.append(corrupted)
            else:
                entries.append(entry)
        corrupted_table = ExtractedTable(
            doc_id=table.doc_id,
            header=table.header,
            rows=table.rows,
            provenance=tuple(entries),
            iteration=1,
        )
        got = validate_provenance(corrupted_table, [part])
        assert {(v.entry, v.kind) for v in got} == {(e, k) for e, k in planted.items()}


def test_check_table_empty_table_scores_minimum_without_calls(scripted):
    provider, gateway = scripted()
    empty = ExtractedTable("d1", ("value",), (), (), 1)
    report = check_table(empty, [], TOPIC, gateway)
    assert report.overall == 1
    assert provider.calls == []


def test_check_table_parses_and_clamps(scripted):
    provider, gateway = scripted()
    part = prose_part()
    table = ExtractedTable(
        "d1", ("value",), ((42.0,),), (ProvenanceEntry(42.0, "para-0", 1, 1),), 1
    )
    rendered = [render_part(part, 1)]
    req = prompts.check_request(TOPIC, rendered, table.render())
    register_for(
        provider,
        req,
        "{'Data Accuracy': 15, 'Semantic Consistency': 0, 'Data Completeness': 8, "
        "'Overall Score': 7, 'Suggestion': 'ok'}",
    )
    report = check_table(table, [part], TOPIC, gateway)
    assert (report.data_accuracy, report.semantic_consistency) == (10, 1)
    assert report.overall == 7


def test_check_table_fails_after_reask(scripted):
    from manalyzer.errors import CheckerFailure

    provider, gateway = scripted()
    part = prose_part()
    table = ExtractedTable(
        "d1", ("value",), ((42.0,),), (ProvenanceEntry(42.0, "para-0", 1, 1),), 1
    )
    rendered = [render_part(part, 1)]
    req = prompts.check_request(TOPIC, rendered, table.render())
    register_for(provider, req, "no dict")
    register_for(provider, req.with_addendum(prompts.REASK_CHECK), "still no dict")
    with pytest.raises(CheckerFailure):
        check_table(table, [part], TOPIC, gateway)


class LoopHarness:
    """Registers scripted replies for one run_feedback_loop scenario."""

    def __init__(self, provider, part, template=("value",)):
        self.provider = provider
        self.part = part
        self.template = list(template)
        self.rendered = [render_part(part, 1)]

    def script_extract(self, prior, reply):
        register_for(
            self.provider,
            prompts.extract_request(TOPIC, self.template, self.rendered, prior), reply
        )

    def script_check(self, value_lines, reply):
        table = ExtractedTable(
            "d1",
            tuple(self.template),
            tuple((float(v),) for v in value_lines),
            (),
            1,
        )
        register_for(
            self.provider,
            prompts.check_request(TOPIC, self.rendered, table.render()), reply
        )


def test_feedback_loop_accepts_first_try(scripted):
    provider, gateway = scripted()
    part = prose_part()
    harness = LoopHarness(provider, part)
    harness.script_extract(
        None, extract_reply(["42"], ["The number 42: Comes from Part 1, Row 1, Column 1."])
    )
    harness.script_check(["42"], ACCEPT_REPLY)
    table, trace, violations = run_feedback_loop([part], ["value"], TOPIC, gateway, doc_id="d1")
    assert table.accepted
    assert violations == []
    assert table.iteration == 1
    assert len(trace) == 1
    assert trace[0][1].overall == 8


def test_feedback_loop_reject_reject_accept(scripted):
    provider, gateway = scripted()
    part = prose_part(body="Candidate values 40, 41 and 42 were recorded.")
    harness = LoopHarness(provider, part)
    harness.script_extract(
        None, extract_reply(["40"], ["The number 40: Comes from Part 1, Row 1, Column 1."])
    )
    harness.script_check(["40"], reject_reply("Look again."))
    harness.script_extract(
        "Look again.",
        extract_reply(["41"], ["The number 41: Comes from Part 1, Row 1, Column 1."]),
    )
    harness.script_check(["41"], reject_reply("Check the second value."))
    harness.script_extract(
        "Check the second value.",
        extract_reply(["42"], ["The number 42: Comes from Part 1, Row 1, Column 1."]),
    )
    harness.script_check(["42"], ACCEPT_REPLY)
    table, trace, _ = run_feedback_loop([part], ["value"], TOPIC, gateway, doc_id="d1")
    assert table.accepted
    assert table.rows == ((42.0,),)
    assert table.iteration == 3
    assert [t[0] for t in trace] == [1, 2, 3]


def test_feedback_loop_exhausts_and_returns_best_unaccepted(scripted):
    provider, gateway = scripted()
    part = prose_part()
    harness = LoopHarness(provider, part)
    reply = extract_reply(["42"], ["The number 42: Comes from Part 1, Row 1, Column 1."])
    harness.script_extract(None, reply)
    harness.script_extract("No.", reply)
    harness.script_check(["42"], reject_reply("No."))
    table, trace, violations = run_feedback_loop([part], ["value"], TOPIC, gateway, doc_id="d1")
    assert not table.accepted
    assert table.rows == ((42.0,),)
    assert len(trace) == 3
    assert violations == validate_provenance(table, [part])


def test_feedback_loop_violations_block_acceptance(scripted):
    provider, gateway = scripted()
    part = prose_part(body="Only 42 appears in this text.")
    harness = LoopHarness(provider, part)
    # Iteration 1 cites 43, which the part never states; the checker loves
    # it anyway. Validation must force another round.
    harness.script_extract(
        None, extract_reply(["43"], ["The number 43: Comes from Part 1, Row 1, Column 1."])
    )
    harness.script_check(
        ["43"],
        "{'Data Accuracy': 9, 'Semantic Consistency': 9, 'Data Completeness': 9, "
        "'Overall Score': 9, 'Suggestion': 'Fine.'}",
    )
    prior = "Fine.\nProvenance problems found by validation:\n- value 43 does not appear in para-0"
    harness.script_extract(
        prior, extract_reply(["42"], ["The number 42: Comes from Part 1, Row 1, Column 1."])
    )
    harness.script_check(["42"], ACCEPT_REPLY)
    table, trace, violations = run_feedback_loop([part], ["value"], TOPIC, gateway, doc_id="d1")
    assert table.accepted
    assert table.rows == ((42.0,),)
    assert len(trace) == 2
    assert violations == validate_provenance(table, [part]) == []


def test_feedback_loop_returns_the_violations_of_the_best_attempt(scripted):
    provider, gateway = scripted()
    part = prose_part(body="Only 42 appears in this text.")
    harness = LoopHarness(provider, part)
    # Attempt 1 cites 43, which the part never states, and scores 9; the
    # clean attempt 2 scores 4, so attempt 1 stays the best.
    harness.script_extract(
        None, extract_reply(["43"], ["The number 43: Comes from Part 1, Row 1, Column 1."])
    )
    harness.script_check(
        ["43"],
        "{'Data Accuracy': 9, 'Semantic Consistency': 9, 'Data Completeness': 9, "
        "'Overall Score': 9, 'Suggestion': 'Fine.'}",
    )
    prior = "Fine.\nProvenance problems found by validation:\n- value 43 does not appear in para-0"
    harness.script_extract(
        prior, extract_reply(["42"], ["The number 42: Comes from Part 1, Row 1, Column 1."])
    )
    harness.script_check(["42"], reject_reply("Worse."))
    table, trace, violations = run_feedback_loop(
        [part], ["value"], TOPIC, gateway, doc_id="d1", max_iter=2
    )
    assert not table.accepted
    assert table.rows == ((43.0,),)
    assert [t[1].overall for t in trace] == [9, 4]
    assert [v.reason for v in violations] == ["value 43 does not appear in para-0"]
    assert violations == validate_provenance(table, [part])


def test_feedback_loop_checker_failure_accepts_with_minimum_trace(scripted):
    provider, gateway = scripted()
    part = prose_part()
    harness = LoopHarness(provider, part)
    harness.script_extract(
        None, extract_reply(["42"], ["The number 42: Comes from Part 1, Row 1, Column 1."])
    )
    table = ExtractedTable("d1", ("value",), ((42.0,),), (), 1)
    req = prompts.check_request(TOPIC, harness.rendered, table.render())
    register_for(provider, req, "garbage")
    register_for(provider, req.with_addendum(prompts.REASK_CHECK), "more garbage")
    table, trace, violations = run_feedback_loop([part], ["value"], TOPIC, gateway, doc_id="d1")
    assert table.accepted
    assert violations == validate_provenance(table, [part])
    assert len(trace) == 1
    assert trace[0][1].overall == 1
    assert "warning" in trace[0][1].suggestion


def test_feedback_loop_final_attempt_error_propagates(scripted):
    provider, gateway = scripted()
    part = prose_part()
    harness = LoopHarness(provider, part)
    harness.script_extract(None, "no table in this reply at all")
    with pytest.raises(UnparseableTableError):
        run_feedback_loop([part], ["value"], TOPIC, gateway, doc_id="d1", max_iter=1)


def test_feedback_loop_earlier_error_becomes_feedback(scripted):
    provider, gateway = scripted()
    part = prose_part()
    harness = LoopHarness(provider, part)
    bad_reply = "no table in this reply at all"
    harness.script_extract(None, bad_reply)
    try:
        from manalyzer.parsing import parse_markdown_table

        parse_markdown_table(bad_reply)
    except UnparseableTableError as exc:
        prior = f"Your previous reply could not be used ({exc}). Follow the format exactly."
    harness.script_extract(
        prior, extract_reply(["42"], ["The number 42: Comes from Part 1, Row 1, Column 1."])
    )
    harness.script_check(["42"], ACCEPT_REPLY)
    table, trace, _ = run_feedback_loop([part], ["value"], TOPIC, gateway, doc_id="d1", max_iter=2)
    assert table.accepted
    assert len(trace) == 1  # only the successful round reached the checker


def test_feedback_loop_empty_parts_single_round(scripted):
    provider, gateway = scripted()
    table, trace, violations = run_feedback_loop([], ["value"], TOPIC, gateway, doc_id="d1")
    assert table.is_empty()
    assert violations == []
    assert not table.accepted
    assert len(trace) == 1
    assert trace[0][1].overall == 1
    assert provider.calls == []


def test_feedback_loop_validates_max_iter(scripted):
    _, gateway = scripted()
    with pytest.raises(ValueError):
        run_feedback_loop([], ["value"], TOPIC, gateway, max_iter=4)
    with pytest.raises(ValueError):
        run_feedback_loop([], ["value"], TOPIC, gateway, max_iter=0)


def test_table_json_round_trip():
    step = AnalysisStep("clustering", ("a", "b"), k=2)
    artifacts = [
        prose_part(),
        table_part(),
        ExtractedTable(
            "d1",
            ("a", "b"),
            ((1.0, None), (None, 2.5)),
            (ProvenanceEntry(1.0, "para-0", 1, 1, "note"),),
            2,
            accepted=True,
        ),
        MergedTable(("doc_id", "a"), (("d1", 1.0), ("d2", None)), 2, 1),
        AnalysisPlan((step, AnalysisStep("regression", ("a",), response="b"))),
        AnalysisResult(step, {"n": 2, "points": [[1.0, 2.0]]}, ("step-1-clustering.json",), 1),
        AnalysisResult(step, skipped=True, reason="only 1 complete rows for k=2"),
    ]
    for artifact in artifacts:
        raw = json.loads(json.dumps(asdict(artifact)))
        assert from_json(type(artifact), raw) == artifact
    # Fields absent from the JSON take their defaults.
    raw = {"value": 1.0, "part_id": "para-0", "row": 1, "column": 1}
    assert from_json(ProvenanceEntry, raw) == ProvenanceEntry(1.0, "para-0", 1, 1)


ENTRY = {"value": 1.0, "part_id": "para-0", "row": 1, "column": 1}
TABLE = {"doc_id": "d1", "header": ["a"], "rows": [[1.0]], "provenance": [ENTRY], "iteration": 1}


@pytest.mark.parametrize("cls, raw, message", [
    (ProvenanceEntry, [], "ProvenanceEntry: expected an object, got list"),
    (ProvenanceEntry, {**ENTRY, "colum": 1}, "ProvenanceEntry: unknown field 'colum'"),
    (ProvenanceEntry, {"value": 1.0, "part_id": "para-0"}, "ProvenanceEntry: missing field 'column'"),
    (ExtractedTable, {**TABLE, "rows": {}}, "expected a list, got dict"),
    (ExtractedTable, {**TABLE, "provenance": [[]]}, "ProvenanceEntry: expected an object, got list"),
    (ExtractedTable, {**TABLE, "rows": [[None, "1.0"]]},
     "ExtractedTable.rows: expected float | None, got str"),
    (ExtractedTable, {**TABLE, "iteration": True}, "ExtractedTable.iteration: expected int, got bool"),
    (ExtractedTable, {**TABLE, "iteration": 1.0}, "ExtractedTable.iteration: expected int, got float"),
    (ExtractedTable, {**TABLE, "header": [1]}, "ExtractedTable.header: expected str, got int"),
    (ProvenanceEntry, {**ENTRY, "value": False}, "ProvenanceEntry.value: expected float, got bool"),
], ids=[
    "list", "unknown-field", "missing-field", "rows-object", "nested-entry", "string-cell",
    "bool-for-int", "float-for-int", "int-header", "bool-for-float",
])
def test_from_json_refuses_an_artifact_of_the_wrong_shape(cls, raw, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        from_json(cls, raw)


def test_from_json_takes_an_int_for_a_float():
    assert from_json(ProvenanceEntry, {**ENTRY, "value": 1}).value == 1
    assert from_json(ExtractedTable, {**TABLE, "rows": [[2, None]]}).rows == ((2, None),)
