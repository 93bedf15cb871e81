"""Final report rendering.

Pure string assembly: given the merged table, analysis results, review and
extraction summaries, and an optional pre-written narrative, emit the
Markdown report with the fixed section order Methods, Results, Discussion,
References. Identical inputs produce identical bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .analysis import AnalysisResult, MergedTable
from .parsing import render_markdown_table
from .reviewer import ReviewRecord


@dataclass(frozen=True)
class TraceSummary:
    """Per-paper extraction outcome, for the report's provenance table."""

    doc_id: str
    iterations: int
    accepted: bool
    row_count: int
    provenance_count: int
    violation_count: int = 0


def _fmt(value: float, places: int = 4) -> str:
    text = f"{value:.{places}f}"
    return text.rstrip("0").rstrip(".") if "." in text else text


def _result_lines(result: AnalysisResult, number: int) -> list[str]:
    step = result.step
    title = f"### Step {number}: {step.kind}"
    if result.skipped:
        return [title, "", f"Skipped: {result.reason}.", ""]
    lines = [title, ""]
    if step.kind == "clustering":
        sizes = result.stats["cluster_sizes"]
        lines.append(
            f"k-means over {', '.join(step.features)} with k={step.k}: "
            f"cluster sizes {sizes}, converged in {result.stats['iterations']} iterations "
            f"on {result.stats['n']} rows."
        )
    elif step.kind == "classification":
        lines.append(
            f"1-nearest-neighbor on label `{step.label}` from {', '.join(step.features)}: "
            f"leave-one-out accuracy {_fmt(float(result.stats['accuracy']))} "
            f"over {result.stats['n']} rows ({result.stats['classes']} classes)."
        )
    elif step.kind == "regression":
        lines.append(
            f"Least squares of `{step.response}` on `{step.features[0]}`: "
            f"slope {_fmt(float(result.stats['slope']))}, "
            f"intercept {_fmt(float(result.stats['intercept']))}, "
            f"R^2 {_fmt(float(result.stats['r2']))} over {result.stats['n']} rows."
        )
    if result.excluded_rows:
        lines.append(f"{result.excluded_rows} rows excluded for missing values.")
    for artifact in result.artifacts:
        lines.append(f"![{step.kind} plot data](analysis/{artifact})")
    lines.append("")
    return lines


def render_report(
    topic: str,
    merged: MergedTable,
    results: Sequence[AnalysisResult],
    review_records: Sequence[ReviewRecord],
    traces: Sequence[TraceSummary],
    narrative: str = "",
    titles: Mapping[str, str] | None = None,
) -> str:
    """The full report document. Headings are fixed in the order Methods,
    Results, Discussion, References regardless of input."""
    titles = titles or {}
    kept = sorted(r.doc_id for r in review_records if r.kept)
    accepted = sorted(t.doc_id for t in traces if t.accepted)

    lines: list[str] = [f"# Meta-analysis: {topic}", ""]

    lines += ["## Methods", ""]
    lines.append(
        f"{len(review_records)} papers entered hybrid review: each received "
        "independent relevance and reliability scores (1-10) plus a batched "
        "comparative score in [0, 1]; the final score is the comparative score "
        "times the summed independent scores."
    )
    lines.append(
        f"{len(kept)} papers passed screening. Numeric data was extracted into "
        "a shared table template; every value carries a source citation "
        "(part, row, column) that was machine-verified, and an independent "
        "checker graded each table with up to three extraction attempts."
    )
    lines.append(
        "Between-study heterogeneity (I^2) is not computed by this pipeline "
        "and is reported as unavailable."
    )
    lines.append("")

    lines += ["## Results", ""]
    if merged.row_count == 0 or not accepted:
        lines += ["No usable studies: no accepted extractions survived screening and checking.", ""]
    else:
        lines.append(
            f"The merged table holds {merged.row_count} rows from {len(accepted)} "
            f"papers across {len(merged.data_columns())} data columns, with "
            f"{merged.missing_count} missing cells."
        )
        lines.append("")
        preview = merged.rows[:10]
        lines.append(render_markdown_table(merged.header, preview))
        if merged.row_count > len(preview):
            lines.append("")
            lines.append(f"(first {len(preview)} of {merged.row_count} rows shown)")
        lines.append("")
        for number, result in enumerate(results, start=1):
            lines += _result_lines(result, number)

    if review_records:
        table = render_markdown_table(
            ["Paper", "s1", "s2", "s_r", "Final", "Kept"],
            [[r.doc_id, r.s1, r.s2, _fmt(r.s_r, 2), _fmt(r.final, 2),
              "yes" if r.kept else "no"] for r in sorted(review_records, key=lambda r: r.doc_id)],
        )
        lines += ["Screening scores:", "", table, ""]
    if traces:
        table = render_markdown_table(
            ["Paper", "Rows", "Cited values", "Violations", "Attempts", "Accepted"],
            [[t.doc_id, t.row_count, t.provenance_count, t.violation_count, t.iterations,
              "yes" if t.accepted else "no"] for t in sorted(traces, key=lambda t: t.doc_id)],
        )
        lines += ["Extraction provenance per paper:", "", table, ""]

    lines += ["## Discussion", ""]
    if narrative.strip():
        lines += [narrative.strip(), ""]
    else:
        dropped = len(review_records) - len(kept)
        lines.append(
            f"Of {len(review_records)} candidate papers, {dropped} were screened "
            f"out and {len(accepted)} yielded accepted extractions. Conclusions "
            "rest on machine-verified citations back to the source tables and "
            "text; unaccepted extractions are excluded from the pooled data."
        )
        if merged.missing_count:
            lines.append(
                f"The pooled table is sparse in places ({merged.missing_count} "
                "missing cells), so per-step row exclusions above should be "
                "read alongside each statistic."
            )
        lines.append("")

    lines += ["## References", ""]
    all_docs = sorted({r.doc_id for r in review_records} | {t.doc_id for t in traces})
    if not all_docs:
        lines.append("(no papers reviewed)")
    for doc_id in all_docs:
        title = titles.get(doc_id, "")
        suffix = f": {title}" if title else ""
        lines.append(f"- {doc_id}{suffix}")
    lines.append("")
    return "\n".join(lines)
