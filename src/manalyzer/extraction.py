"""Data extraction with self-proving provenance.

Stage one converts table and figure images into text parts and drops
irrelevant parts with a scored mask. Stage two asks for one integrated
table plus an explanation line per number ("Comes from Part p, Row r,
Column c"); those citations are machine-checked against the source parts,
and an independent checker grades the result. Rejections feed the
checker's suggestion back into another attempt, at most three in total.
"""

from __future__ import annotations

import dataclasses
import logging
import math
import re
from dataclasses import dataclass
from typing import Sequence

from . import prompts
from .config import DEFAULTS
from .errors import (
    CheckerFailure,
    ConversionFailure,
    ExtractionError,
    HeaderMismatchError,
    MissingExplanationError,
    NoTableFoundError,
    UnparseableNumericError,
    UnparseableReplyError,
    UnparseableTableError,
)
from .evaluation import tolerance_run, within_tolerance
from .gateway import Gateway
from .parsing import (
    CHECK_KEYS,
    normalize_numeric,
    parse_all_markdown_tables,
    parse_check_reply,
    parse_delimited_blocks,
    parse_markdown_table,
    parse_real_list,
    render_markdown_table,
    render_numeric,
)

log = logging.getLogger(__name__)

ORIGIN_LABELS = {
    "text-paragraph": "paragraph",
    "table-image": "table",
    "figure-image": "figure",
}


@dataclass(frozen=True)
class ConvertedPart:
    part_id: str
    origin: str
    body: str
    title: str = ""
    footnote: str = ""

    def __post_init__(self) -> None:
        if self.origin not in ORIGIN_LABELS:
            raise ValueError(f"unknown part origin {self.origin!r}")
        if self.origin == "table-image" and not (self.title and self.footnote):
            raise ValueError("table parts need a title and a footnote")


@dataclass(frozen=True)
class ProvenanceEntry:
    value: float
    part_id: str
    row: int
    column: int
    note: str = ""


@dataclass(frozen=True)
class ExtractedTable:
    doc_id: str
    header: tuple[str, ...]
    rows: tuple[tuple[float | None, ...], ...]
    provenance: tuple[ProvenanceEntry, ...]
    iteration: int
    accepted: bool = False

    def render(self) -> str:
        return render_markdown_table(list(self.header), [list(r) for r in self.rows])

    def is_empty(self) -> bool:
        return not self.rows

    def numeric_cells(self) -> list[tuple[int, int, float]]:
        """(row, column, value) for every non-missing cell, 1-based."""
        out = []
        for i, row in enumerate(self.rows, start=1):
            for j, cell in enumerate(row, start=1):
                if cell is not None:
                    out.append((i, j, cell))
        return out


@dataclass(frozen=True)
class CheckReport:
    data_accuracy: int
    semantic_consistency: int
    data_completeness: int
    overall: int
    suggestion: str


@dataclass(frozen=True)
class Violation:
    kind: str  # missing-part | out-of-range | value-mismatch | uncited
    reason: str
    entry: ProvenanceEntry | None = None


def render_part(part: ConvertedPart, number: int) -> str:
    """The text form of a part as agents see it; `number` is how the
    extraction reply's citations refer back to it."""
    lines = [f"Part {number} ({ORIGIN_LABELS[part.origin]}):"]
    if part.title:
        lines.append(f"Title: {part.title}")
    lines.append(part.body)
    if part.footnote:
        lines.append(f"Footnote: {part.footnote}")
    return "\n".join(lines)


def convert_table_image(
    image_path: str, caption: str, gateway: Gateway, part_id: str
) -> list[ConvertedPart]:
    """Transcribe one table image into ConvertedParts (one per table found).

    A reply with no parseable table gets one re-ask; a second miss raises
    NoTableFoundError, and an empty reply EmptyResponseError. Missing or
    empty title and footnote blocks fall back to the caption rather than
    failing the conversion.
    """
    def parse(reply: str) -> list[ConvertedPart]:
        tables = parse_all_markdown_tables(reply)
        if not tables:
            raise UnparseableReplyError("no table in reply")
        titles = parse_delimited_blocks(reply, "Title")
        footnotes = parse_delimited_blocks(reply, "Footnote")
        parts = []
        for k, (header, rows) in enumerate(tables):
            suffix = f"#{k + 1}" if len(tables) > 1 else ""
            title = (titles[k] if k < len(titles) else "") or caption or f"Table {part_id}"
            footnote = (footnotes[k] if k < len(footnotes) else "") or caption or title
            parts.append(
                ConvertedPart(
                    part_id=f"{part_id}{suffix}",
                    origin="table-image",
                    body=render_markdown_table(header, rows),
                    title=title,
                    footnote=footnote,
                )
            )
        return parts

    request = prompts.table_convert_request(image_path, caption)
    parts = gateway.ask(request, parse, prompts.REASK_TABLE)
    if parts is None:
        raise NoTableFoundError(f"{part_id}: conversion reply holds no table")
    return parts


def summarize_figure(
    image_path: str, caption: str, gateway: Gateway, part_id: str
) -> ConvertedPart:
    """Summarize one figure image into a bullet-list part."""
    def parse(reply: str) -> ConvertedPart:
        if not any(ln.strip().startswith(("-", "*", "•")) for ln in reply.splitlines()):
            raise UnparseableReplyError("no bullets in reply")
        return ConvertedPart(part_id=part_id, origin="figure-image", body=reply.strip())

    request = prompts.figure_summary_request(image_path, caption)
    part = gateway.ask(request, parse, prompts.REASK_BULLETS)
    if part is None:
        raise ConversionFailure(f"{part_id}: figure summary reply holds no bullets")
    return part


def relevance_mask(
    parts: Sequence[ConvertedPart],
    topic: str,
    gateway: Gateway,
    batch_size: int = DEFAULTS.extraction_mask_batch,
) -> list[float]:
    """One relevance score in [0, 1] per part, batched.

    Batches partition the part list in order and are scored concurrently
    through ``gateway.map``; a reply whose length does not match its batch
    gets one re-ask and then fails.
    """
    if not parts:
        raise ValueError("relevance_mask needs at least one part")

    def score_batch(start: int) -> list[float]:
        batch = parts[start : start + batch_size]
        rendered = [render_part(p, i) for i, p in enumerate(batch, start=1)]
        request = prompts.mask_request(topic, rendered)
        scores = gateway.ask(
            request, lambda reply: parse_real_list(reply, len(batch)),
            prompts.reask_count(len(batch)),
        )
        if scores is None:
            raise UnparseableReplyError(
                f"mask reply did not yield {len(batch)} scores for batch at {start}"
            )
        return [min(1.0, max(0.0, v)) for v in scores]

    batches = gateway.map(score_batch, range(0, len(parts), batch_size))
    return [score for batch_scores in batches for score in batch_scores]


def retain_parts(
    parts: Sequence[ConvertedPart], scores: Sequence[float]
) -> list[ConvertedPart]:
    """Parts whose mask score is strictly above 0.5."""
    return [p for p, s in zip(parts, scores) if s > 0.5]


_EXPLANATION_LINE = re.compile(
    r"The number\s+(?P<value>[^:]+):\s*Comes from\s+\w+\s*(?P<part>\d+)\s*,"
    r"\s*Row\s*(?P<row>\d+)\s*,\s*Column\s*(?P<col>\d+)",
    re.IGNORECASE,
)

_HEADER_JUNK = re.compile(r"[\s*`]+")


def canon_header(name: str) -> str:
    return _HEADER_JUNK.sub(" ", name).strip().lower()


def extract_to_table(
    retained: Sequence[ConvertedPart],
    template: Sequence[str],
    topic: str,
    gateway: Gateway,
    prior_suggestion: str | None = None,
    iteration: int = 1,
    doc_id: str = "",
) -> ExtractedTable:
    """One integrated table from the retained parts.

    The reply's header must match the template; every number line in the
    explanation block becomes a ProvenanceEntry. An empty retained set
    short-circuits to an empty table without an agent call.
    """
    if not template:
        raise ValueError("extraction template needs at least one column")
    if not retained:
        return ExtractedTable(
            doc_id=doc_id,
            header=tuple(template),
            rows=(),
            provenance=(),
            iteration=iteration,
        )

    rendered = [render_part(p, i) for i, p in enumerate(retained, start=1)]
    request = prompts.extract_request(topic, template, rendered, prior_suggestion)
    reply = gateway.complete(request).raw_text

    header, raw_rows = parse_markdown_table(reply)
    if len(header) != len(template) or any(
        canon_header(a) != canon_header(b) for a, b in zip(header, template)
    ):
        raise HeaderMismatchError(
            f"reply columns {header!r} do not match template {list(template)!r}"
        )

    rows = []
    for raw in raw_rows:
        cells = []
        for text in raw:
            try:
                cells.append(normalize_numeric(text))
            except UnparseableNumericError as exc:
                raise UnparseableTableError(str(exc)) from exc
        rows.append(tuple(cells))

    provenance = []
    blocks = parse_delimited_blocks(reply, "Explanation")
    for block in blocks:
        for match in _EXPLANATION_LINE.finditer(block):
            try:
                value = normalize_numeric(match.group("value"))
            except UnparseableNumericError:
                continue
            if value is None:
                continue
            number = int(match.group("part"))
            part_id = retained[number - 1].part_id if 1 <= number <= len(retained) else f"#{number}"
            provenance.append(
                ProvenanceEntry(
                    value=value,
                    part_id=part_id,
                    row=int(match.group("row")),
                    column=int(match.group("col")),
                    note=match.group(0),
                )
            )

    table = ExtractedTable(
        doc_id=doc_id,
        header=tuple(template),
        rows=tuple(rows),
        provenance=tuple(provenance),
        iteration=iteration,
    )
    if not blocks and table.numeric_cells():
        raise MissingExplanationError("extraction reply carries numbers but no explanation block")
    return table


def validate_provenance(
    table: ExtractedTable,
    parts: Sequence[ConvertedPart],
    abs_tol: float = DEFAULTS.eval_abs_tol,
    rel_tol: float = DEFAULTS.eval_rel_tol,
) -> list[Violation]:
    """Machine-check every citation against its source part.

    Citations into table parts resolve (row, column) in the part's grid and
    compare values under the matching tolerance; citations into paragraphs
    and figure summaries check that the value's canonical text appears,
    since those have no grid. Numeric output cells no citation vouches for
    are violations too.
    """
    by_id = {p.part_id: p for p in parts}
    grids: dict[str, tuple[list[str], list[list[str]]]] = {}
    violations = []

    for entry in table.provenance:
        part = by_id.get(entry.part_id)
        if part is None:
            violations.append(
                Violation("missing-part", f"cites unknown part {entry.part_id!r}", entry)
            )
            continue
        if part.origin == "table-image":
            if part.part_id not in grids:
                grids[part.part_id] = parse_markdown_table(part.body)
            header, rows = grids[part.part_id]
            if not (1 <= entry.row <= len(rows)) or not (1 <= entry.column <= len(header)):
                violations.append(
                    Violation(
                        "out-of-range",
                        f"row {entry.row}, column {entry.column} outside "
                        f"{len(rows)}x{len(header)} grid of {part.part_id}",
                        entry,
                    )
                )
                continue
            cell_text = rows[entry.row - 1][entry.column - 1]
            try:
                cell_value = normalize_numeric(cell_text)
            except UnparseableNumericError:
                cell_value = None
            if cell_value is None or not within_tolerance(
                entry.value, cell_value, abs_tol, rel_tol
            ):
                violations.append(
                    Violation(
                        "value-mismatch",
                        f"cites {render_numeric(entry.value)} but {part.part_id} "
                        f"row {entry.row}, column {entry.column} holds {cell_text!r}",
                        entry,
                    )
                )
        else:
            needle = render_numeric(entry.value)
            haystack = "\n".join((part.title, part.body, part.footnote))
            if needle not in haystack:
                violations.append(
                    Violation(
                        "value-mismatch",
                        f"value {needle} does not appear in {part.part_id}",
                        entry,
                    )
                )

    cited = sorted(e.value for e in table.provenance if not math.isnan(e.value))
    for i, j, value in table.numeric_cells():
        start, end = tolerance_run(cited, value, abs_tol, rel_tol)
        if start == end:
            violations.append(
                Violation(
                    "uncited",
                    f"cell at row {i}, column {j} ({render_numeric(value)}) has no citation",
                )
            )
    return violations


def check_table(
    table: ExtractedTable,
    parts: Sequence[ConvertedPart],
    topic: str,
    gateway: Gateway,
) -> CheckReport:
    """Grade the integration; empty submissions score the minimum without
    an agent call. An unparseable reply after one re-ask raises
    CheckerFailure (callers accept with a warning rather than deadlock)."""
    if table.is_empty():
        return CheckReport(1, 1, 1, 1, "The submission is empty; extract the relevant values.")
    rendered = [render_part(p, i) for i, p in enumerate(parts, start=1)]

    def parse(reply: str) -> CheckReport:
        raw = parse_check_reply(reply)
        scores = [max(1, min(10, int(raw[k]))) for k in CHECK_KEYS]  # type: ignore[call-overload]
        return CheckReport(*scores, suggestion=str(raw["Suggestion"]))

    request = prompts.check_request(topic, rendered, table.render())
    report = gateway.ask(request, parse, prompts.REASK_CHECK)
    if report is None:
        raise CheckerFailure("checker reply unparseable after re-ask")
    return report


def _feedback_text(report: CheckReport, violations: Sequence[Violation]) -> str:
    lines = [report.suggestion] if report.suggestion else []
    if violations:
        lines.append("Provenance problems found by validation:")
        lines.extend(f"- {v.reason}" for v in violations)
    return "\n".join(lines) or "Improve accuracy and completeness."


def run_feedback_loop(
    parts: Sequence[ConvertedPart],
    template: Sequence[str],
    topic: str,
    gateway: Gateway,
    doc_id: str = "",
    accept_overall: int = DEFAULTS.extraction_accept_overall,
    max_iter: int = DEFAULTS.extraction_max_iter,
    abs_tol: float = DEFAULTS.eval_abs_tol,
    rel_tol: float = DEFAULTS.eval_rel_tol,
) -> tuple[ExtractedTable, list[tuple[int, CheckReport]], list[Violation]]:
    """Extract, validate, and check until accepted or attempts run out.

    Acceptance needs an overall check score at or above the threshold AND
    zero provenance violations. The checker's suggestion plus the violation
    list feed the next attempt. On exhaustion the best-scoring attempt is
    returned, flagged unaccepted. Extraction errors on the final attempt
    propagate; earlier ones become feedback. The returned table comes with
    its check trace and its provenance violations.
    """
    if not 1 <= max_iter <= 3:
        raise ValueError("max_iter must be in [1, 3]")
    trace: list[tuple[int, CheckReport]] = []
    prior: str | None = None
    best: tuple[tuple[int, int], ExtractedTable, list[Violation]] | None = None

    for iteration in range(1, max_iter + 1):
        try:
            table = extract_to_table(
                parts, template, topic, gateway, prior, iteration, doc_id
            )
        except ExtractionError as exc:
            if iteration == max_iter:
                raise
            prior = f"Your previous reply could not be used ({exc}). Follow the format exactly."
            continue

        violations = validate_provenance(table, parts, abs_tol, rel_tol)
        try:
            report = check_table(table, parts, topic, gateway)
        except CheckerFailure:
            log.warning("%s: checker unusable on attempt %d; accepting as-is", doc_id, iteration)
            trace.append(
                (iteration, CheckReport(1, 1, 1, 1, "checker unusable; accepted with warning"))
            )
            return dataclasses.replace(table, accepted=True), trace, violations

        trace.append((iteration, report))
        if report.overall >= accept_overall and not violations:
            return dataclasses.replace(table, accepted=True), trace, violations

        key = (report.overall, -len(violations))
        if best is None or key > best[0]:
            best = (key, table, violations)
        if table.is_empty():
            # Re-asking over zero retained parts cannot change anything.
            break
        prior = _feedback_text(report, violations)

    assert best is not None
    return dataclasses.replace(best[1], accepted=False), trace, best[2]

