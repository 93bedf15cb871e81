import re

from manalyzer.analysis import AnalysisStep, merge_tables, run_analysis
from manalyzer.extraction import ExtractedTable
from manalyzer.report import TraceSummary, render_report
from manalyzer.reviewer import ReviewRecord

TOPIC = "irrigation and wheat yield"


def record(doc_id, final, kept):
    return ReviewRecord(
        doc_id=doc_id,
        s1=7,
        s2=7,
        s_r=final / 14,
        final=final,
        kept=kept,
        batch_id=0,
    )


def sample_inputs():
    tables = [
        ExtractedTable(
            doc_id=d,
            header=("x", "y"),
            rows=((1.0 * i, 2.0 * i), (1.0 * i + 1, 2.0 * i + 2)),
            provenance=(),
            iteration=1,
            accepted=True,
        )
        for i, d in enumerate(["d01", "d02", "d03"])
    ]
    merged = merge_tables(tables)
    plan = (
        AnalysisStep(kind="regression", features=("x",), response="y"),
        AnalysisStep(kind="clustering", features=("x", "y"), k=9),  # will skip
    )
    results = run_analysis(plan, merged)
    records = [record("d01", 11.2, True), record("d02", 4.2, False), record("d03", 9.8, True)]
    traces = [
        TraceSummary("d01", 1, True, 2, 4, 0),
        TraceSummary("d03", 3, False, 2, 3, 1),
    ]
    return merged, results, records, traces


def heading_positions(text):
    return [text.index(h) for h in ("## Methods", "## Results", "## Discussion", "## References")]


def test_headings_fixed_order_populated():
    merged, results, records, traces = sample_inputs()
    text = render_report(TOPIC, merged, results, records, traces, narrative="A finding.\n")
    positions = heading_positions(text)
    assert positions == sorted(positions)
    assert text.startswith(f"# Meta-analysis: {TOPIC}")


def test_headings_fixed_order_empty_corpus():
    merged = merge_tables([])
    text = render_report(TOPIC, merged, [], [], [])
    positions = heading_positions(text)
    assert positions == sorted(positions)
    assert "No usable studies" in text
    assert "(no papers reviewed)" in text


def test_no_usable_studies_when_nothing_accepted():
    merged, results, records, _ = sample_inputs()
    traces = [TraceSummary("d01", 3, False, 2, 4, 2)]
    text = render_report(TOPIC, merged, results, records, traces)
    assert "No usable studies" in text


def test_artifact_links_and_skips():
    merged, results, records, traces = sample_inputs()
    out = render_report(TOPIC, merged, results, records, traces)
    # The regression ran without an artifact directory, so no link; give it
    # one and the link renders under analysis/.
    import dataclasses

    linked = [dataclasses.replace(results[0], artifacts=("step-1-regression.json",)), results[1]]
    out = render_report(TOPIC, merged, linked, records, traces)
    assert "![regression plot data](analysis/step-1-regression.json)" in out
    assert "Skipped: only 6 complete rows for k=9." in out


def test_screening_and_provenance_tables():
    merged, results, records, traces = sample_inputs()
    text = render_report(TOPIC, merged, results, records, traces)
    assert "| d01 | 7 | 7 | 0.8 | 11.2 | yes |" in text
    assert "| d02 | 7 | 7 | 0.3 | 4.2 | no |" in text
    assert "| d03 | 2 | 3 | 1 | 3 | no |" in text
    assert text.index("Screening scores:") < text.index("## Discussion")


def test_references_list_titles():
    merged, results, records, traces = sample_inputs()
    text = render_report(
        TOPIC, merged, results, records, traces, titles={"d01": "Trial One"}
    )
    refs = text[text.index("## References") :]
    assert re.search(r"- d01: Trial One", refs)
    assert "- d02" in refs
    # Every reviewed doc appears exactly once.
    assert refs.count("d03") == 1


def test_i2_reported_unavailable():
    merged, results, records, traces = sample_inputs()
    text = render_report(TOPIC, merged, results, records, traces)
    assert "I^2" in text
    assert "unavailable" in text


def test_render_is_byte_deterministic():
    merged, results, records, traces = sample_inputs()
    a = render_report(TOPIC, merged, results, records, traces, narrative="Same.\n")
    b = render_report(TOPIC, merged, results, records, traces, narrative="Same.\n")
    assert a == b
    assert a.encode("utf-8") == b.encode("utf-8")


def test_narrative_replaces_fallback_discussion():
    merged, results, records, traces = sample_inputs()
    with_narrative = render_report(TOPIC, merged, results, records, traces, narrative="Custom words.")
    assert "Custom words." in with_narrative
    without = render_report(TOPIC, merged, results, records, traces)
    assert "Custom words." not in without
    assert "screened" in without  # deterministic fallback text
