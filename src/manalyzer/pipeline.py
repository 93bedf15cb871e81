"""Stage orchestration over a persistent workspace.

The pipeline walks ingest -> pack -> review -> screen -> extract ->
analyze -> report, persisting every per-document artifact before moving
on and recording progress in the workspace manifest. Status marks stay in
memory, and manifest.json is written once per stage: each stage method is
wrapped by ``@stage(name)``, which writes it when the stage returns, and
also when a ManalyzerError or OSError inside it is re-raised as
``StageFailure(name)`` (exit 3), so ``status`` then shows the documents
the stage finished. Any other exception, a ValueError (bad input, exit 2)
or a kill among them, writes nothing: after a kill, ``status`` shows the
last finished stage until the next command runs.

A killed run resumes where it stopped, and every status comes back from
files already on disk with no agent call. A killed ``ingest`` is redone by
running ``ingest`` again. Each stage takes its work list from the manifest
as the documents at one status (``Workspace.docs_at``). Per-document work
(packing, independent review, comparative review batches, extraction)
runs on one bounded worker pool, ``_per_document``. The artifact its work
step writes last (``packed/<doc>.json``, ``reviews/<doc>.json``,
``extracted/<doc>/table.json``) records that a document finished the
stage, so a work step that finds it returns with no agent call; the
finish step only marks, on the orchestrator thread once the pool has
drained, in work-list order. Review marks instead, once the stage
ends or fails, exactly the papers whose record exists. Screening outcomes
are recomputed from the review records and the threshold. The exceptions:
a kill after the ``plan`` call and before analyze's manifest write repeats
the ``plan`` call (``results.json`` cannot tell a current analysis from a
stale one), and a kill between two record writes of one review batch
repeats the batch's call. An artifact a killed command wrote is kept under
a later command's overrides (``pack --budget``, ``screen --batch-size``,
``extract --topic``), as a marked document's is. Merge points (screening,
table merge, report) are single-threaded. Only the orchestrator thread
marks statuses.

A document's status vouches for its artifacts (``ARTIFACTS``): from that
status a missing or undecodable one is exit 2, naming the file. Each stage
and read-only command reads, through ``Pipeline.artifact``, every artifact
it uses before its first agent call or output, and each file once.

Inside a document, the independent agent calls (paragraph scores, mask
batches) fan out through ``Gateway.map``, on the document's own thread and
its helpers, so up to ``max_concurrency x provider.max_in_flight`` threads
besides the orchestrator can exist while the calls in flight stay at most
``provider.max_in_flight``.
"""

from __future__ import annotations

import functools
import json
import logging
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, TypeVar

from . import collector, extraction, packer, prompts, reviewer
from .analysis import (
    AnalysisPlan, AnalysisResult, MergedTable, merge_tables, plan_analysis, run_analysis,
)
from .config import PipelineConfig
from .errors import (
    EmptyResponseError, ExtractionError, ManalyzerError, NoValidStepsError, ReviewFailure,
    StageFailure,
)
from .gateway import Gateway, Provider, ScriptedProvider
from .report import TraceSummary, render_report
from .reviewer import ReviewRecord
from .workspace import (
    Workspace, atomic_write_bytes, atomic_write_json, atomic_write_text, read_artifact,
)

log = logging.getLogger(__name__)
K = TypeVar("K")
T = TypeVar("T")


@dataclass(frozen=True)
class RunSummary:
    total_docs: int
    packed: int
    reviewed: int
    review_failures: int
    screened_in: int
    extracted: int
    accepted: int
    merged_rows: int
    report_path: str | None


@dataclass(frozen=True)
class TraceEntry(extraction.CheckReport):
    """One feedback-loop attempt: its check report and its number."""

    iteration: int


@dataclass(frozen=True)
class TraceViolation:
    """A provenance violation, without the entry it concerns."""

    kind: str
    reason: str


@dataclass(frozen=True)
class ExtractionTrace:
    """An ``extracted/<doc>/trace.json``: each attempt's check report, and
    the provenance violations of the table kept."""

    trace: tuple[TraceEntry, ...]
    violations: tuple[TraceViolation, ...]


@dataclass(frozen=True)
class IndependentFailure:
    """The ``reviews/<doc>.indep.json`` of a paper whose independent review
    failed; that of a scored paper holds ``reviewer.IndependentScores``."""

    failed: bool
    reason: str


@dataclass(frozen=True)
class ReviewFailureRecord(IndependentFailure):
    """The ``reviews/<doc>.json`` of a paper whose review failed; that of a
    reviewed paper holds ``reviewer.ReviewRecord``."""

    doc_id: str


@dataclass(frozen=True)
class Screening:
    """``reviews/screening.json``: the threshold, and the papers screening
    kept, excluded, and could not review."""

    threshold: float
    kept: tuple[str, ...]
    excluded: tuple[str, ...]
    failures: tuple[str, ...]


@dataclass(frozen=True)
class ExtractionParts:
    """An ``extracted/<doc>/parts.json``: the converted parts, their mask
    scores, the ids of the parts kept, and the conversion warnings."""

    parts: tuple[extraction.ConvertedPart, ...]
    mask: tuple[float, ...]
    retained: tuple[str, ...]
    warnings: tuple[str, ...]


# Each artifact read back: its path under the workspace root ({doc} is the
# doc_id), its type, and the status from which a document must have it; a
# workspace-level file is required once any document has that status.
ARTIFACTS: dict[str, tuple[str, Any, str]] = {
    "parsed": ("parsed/{doc}.json", collector.ParsedDocument, "parsed"),
    "packed": ("packed/{doc}.json", packer.PackedDocument, "packed"),
    "indep": ("reviews/{doc}.indep.json", reviewer.IndependentScores | IndependentFailure,
              "reviewed"),
    "review": ("reviews/{doc}.json", ReviewRecord | ReviewFailureRecord, "reviewed"),
    "table": ("extracted/{doc}/table.json", extraction.ExtractedTable, "extracted"),
    "trace": ("extracted/{doc}/trace.json", ExtractionTrace, "extracted"),
    "merged": ("analysis/merged.json", MergedTable, "analyzed"),
    "results": ("analysis/results.json", tuple[AnalysisResult, ...], "analyzed"),
}


def build_provider(config: PipelineConfig, base_dir: Path) -> Provider:
    """The provider named by the config. Only the scripted provider ships;
    live providers plug in through the Provider protocol."""
    if config.provider_kind != "scripted":
        raise ValueError(
            f"unknown provider.kind {config.provider_kind!r}; this build ships "
            "'scripted' (live providers implement the Provider protocol)"
        )
    if config.provider_script:
        script = Path(config.provider_script)
        if not script.is_absolute():
            script = base_dir / script
        try:
            return ScriptedProvider.load_script(script)
        except OSError as exc:
            raise ValueError(f"provider.script {script}: {exc.strerror}") from exc
    return ScriptedProvider()


def stage(name: str) -> Callable[[Callable[..., T]], Callable[..., T]]:
    """Run a Pipeline method as stage `name` and write the workspace
    manifest once when it returns. A ManalyzerError or an OSError (a failed
    write, say) inside it writes the manifest too, then is re-raised as
    StageFailure(name) (exit 3); any other exception, a ValueError (bad
    input, exit 2) among them, passes through and writes nothing."""
    def wrap(method: Callable[..., T]) -> Callable[..., T]:
        @functools.wraps(method)
        def run_stage(self: "Pipeline", *args, **kwargs) -> T:
            try:
                result = method(self, *args, **kwargs)
            except (ManalyzerError, OSError) as exc:
                self.ws.compact()
                raise StageFailure(name, exc) from exc
            self.ws.compact()
            return result
        return run_stage
    return wrap


def load_template(path: Path) -> list[str]:
    """Extraction template: ordered column names, one per line. A column that
    holds `|`, which splits table rows, or that equals `doc_id` or another
    column under `extraction.canon_header` can never work, so it is refused."""
    columns = []
    for raw in path.read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            columns.append(line)
    if not columns:
        raise ValueError(f"template {path} holds no columns")
    seen = {"doc_id": "the merged table's doc_id column"}
    for column in columns:
        name = extraction.canon_header(column)
        if "|" in column:
            raise ValueError(f"template {path}: column {column!r} holds '|'")
        if name in seen:
            raise ValueError(f"template {path}: column {column!r} clashes with {seen[name]}")
        seen[name] = repr(column)
    return columns


class Pipeline:
    def __init__(self, ws: Workspace, config: PipelineConfig, provider: Provider):
        self.ws = ws
        self.config = config
        self.gateway = Gateway(
            provider,
            retries=config.provider_retries,
            max_in_flight=config.provider_max_in_flight,
        )
        self._read: dict[Path, Any] = {}  # what `artifact` read, by path

    # -- small helpers ---------------------------------------------------

    def _per_document(
        self, work: Callable[[K], T], todo: list[K], finish: Callable[[K, T], None] = lambda *_: None
    ) -> None:
        """Run `work` over `todo` (documents, or review batches) on the pool.
        Every item runs even when another fails. Once the pool has drained,
        call `finish` here, on the orchestrator thread, for each item that
        succeeded, in `todo` order, then raise the first failure in `todo`
        order. An interrupt leaves queued items unstarted. `work` writes its
        item's artifacts and returns early when the last one exists, so
        `finish` only marks or collects (review marks from its records once
        the stage ends); the module docstring names the two cases where a
        resume still repeats a call."""
        def attempt(key: K) -> tuple[bool, Any]:
            try:
                return True, work(key)
            except Exception as exc:
                return False, exc

        with ThreadPoolExecutor(max_workers=self.config.max_concurrency) as pool:
            outcomes = list(pool.map(attempt, todo))
        for key, (ok, result) in zip(todo, outcomes):
            if ok:
                finish(key, result)
        for ok, result in outcomes:
            if not ok:
                raise result

    def _path(self, name: str, doc_id: str | None = None) -> Path:
        return self.ws.root / ARTIFACTS[name][0].format(doc=doc_id)

    def artifact(self, name: str, doc_id: str | None = None) -> Any:
        """The `ARTIFACTS` entry `name` of `doc_id` (of the workspace when
        None). An absent file is None below the status that vouches for it
        and a ValueError naming it (exit 2) from there on; so is a file that
        does not decode, whose doc_id is not the file's name, or, for a parse
        file, one of whose images is gone from the workspace. A file read is
        kept until the pipeline writes it, except a parse file, which is
        large and read where it is used."""
        path = self._path(name, doc_id)
        if path in self._read:
            return self._read[path]
        _, cls, status = ARTIFACTS[name]
        found = read_artifact(path, cls)
        if found is None:
            if any(self.ws.at_least(d, status) for d in ([doc_id] if doc_id else self.ws.docs)):
                raise ValueError(f"{path}: no such file")
            return None
        if getattr(found, "doc_id", doc_id) != doc_id:
            raise ValueError(f"{path}: doc_id {found.doc_id!r} is not the file's name")
        if name != "parsed":
            self._read[path] = found
        elif ref := collector.missing_image(found, self.ws.root):
            raise ValueError(f"{path}: image {ref.image!r} ({ref.id}) not found")
        return found

    def _write(self, path: Path, obj: object) -> None:
        """Write an artifact, dropping what `artifact` kept of it."""
        self._read.pop(path, None)
        atomic_write_json(path, obj)

    def _template_path(self) -> Path:
        return self.ws.root / "template.txt"

    def store_template(self, columns: list[str]) -> None:
        stored = self._template_path()
        if stored.exists():
            existing = load_template(stored)
            if existing != columns:
                raise ValueError(
                    "extraction template differs from the one this workspace "
                    "was run with (see template.txt); start a fresh workspace "
                    "to change templates"
                )
            return
        atomic_write_text(stored, "\n".join(columns) + "\n")

    def load_stored_template(self) -> list[str]:
        path = self._template_path()
        if not path.exists():
            raise ValueError("no extraction template stored; pass --template")
        return load_template(path)

    # -- ingest ----------------------------------------------------------

    def ingest_dir(self, source: Path) -> list[str]:
        """Validate every parse file under `source`, then import them all.

        Image paths inside the files are relative to `source`; images are
        copied into the workspace under the same relative paths. Not a
        stage: a bad parse file, a doc_id two files share, or a document
        already packed (by status or by packed/<doc>.json, which vouches for
        its parse) is a validation error, refused before anything is written.
        """
        if not source.is_dir():
            raise ValueError(f"{source} is not a directory")
        docs: dict[str, tuple[Path, collector.ParsedDocument]] = {}
        for parse_file in sorted(source.glob("*.json")):
            doc = collector.ingest_parsed(parse_file, source)
            if doc.doc_id in docs:
                twin = docs[doc.doc_id][0].name
                raise ValueError(f"{parse_file}: {twin} has doc_id {doc.doc_id!r} too")
            if self.ws.at_least(doc.doc_id, "packed") or self._path("packed", doc.doc_id).exists():
                raise ValueError(f"{doc.doc_id} is packed already; its parse cannot change")
            docs[doc.doc_id] = parse_file, doc
        for _, doc in docs.values():
            for ref in list(doc.figures) + list(doc.tables):
                target = self.ws.root / ref.image
                target.parent.mkdir(parents=True, exist_ok=True)
                if not target.exists():
                    atomic_write_bytes(target, (source / ref.image).read_bytes())
            collector.save_parsed(doc, self._path("parsed", doc.doc_id))
            self.ws.mark(doc.doc_id, "parsed")
        self.ws.compact()
        return list(docs)

    # -- pack ------------------------------------------------------------

    @stage("pack")
    def stage_pack(self) -> None:
        def work(doc_id: str) -> None:
            path = self._path("packed", doc_id)
            if not path.exists():
                self._write(path, packer.pack_document(
                    self.artifact("parsed", doc_id), self.gateway, self.config.packer_budget,
                    self.config.packer_default_importance,
                ))

        self._per_document(
            work, self.ws.docs_at("parsed"), lambda doc_id, _: self.ws.mark(doc_id, "packed")
        )

    # -- review ----------------------------------------------------------

    @stage("review")
    def stage_review(self) -> None:
        if not self.ws.docs_at("packed"):
            return
        direction = self.ws.direction

        def record(entry: ReviewRecord | ReviewFailureRecord) -> None:
            path = self._path("review", entry.doc_id)
            if not path.exists():
                self._write(path, entry)

        # Phase 1: independent scores, one file per paper, for every packed
        # paper (a reviewed paper's file is read back: batches span it too).
        # A paper that fails here gets its failure record and no batch.
        def independent(doc_id: str) -> reviewer.IndependentScores | IndependentFailure:
            scores = indep[doc_id]
            if scores is None:
                try:
                    scores = reviewer.review_independent(
                        packed[doc_id].text, direction, self.gateway, packed[doc_id].captions
                    )
                except ReviewFailure as exc:
                    scores = IndependentFailure(failed=True, reason=str(exc))
                self._write(self._path("indep", doc_id), scores)
            if isinstance(scores, IndependentFailure):
                record(ReviewFailureRecord(**vars(scores), doc_id=doc_id))
            return scores

        # Phase 2: comparative batches over all successfully scored papers,
        # in sorted order, run on the pool. A batch whose members all hold
        # their records issues no call; one whose reply is unusable gives
        # each of its papers a failure record.
        def comparative(batch_id: int) -> None:
            batch = batches[batch_id]
            if all(self._path("review", d).exists() for d in batch):
                return
            try:
                relatives = reviewer.review_batch(
                    [packed[d].text for d in batch], direction, self.gateway
                )
            except ReviewFailure as exc:
                for doc_id in batch:
                    record(ReviewFailureRecord(failed=True, reason=str(exc), doc_id=doc_id))
                return
            for doc_id, s_r in zip(batch, relatives):
                s1, s2 = indep[doc_id].s1, indep[doc_id].s2
                record(ReviewRecord(doc_id, s1, s2, s_r, reviewer.fuse(s1, s2, s_r), batch_id))

        # Every packed paper's scores and text, read before the first call.
        papers = [d for d in self.ws.doc_ids() if self.ws.at_least(d, "packed")]
        indep: dict[str, Any] = {d: self.artifact("indep", d) for d in papers}
        packed = {d: self.artifact("packed", d) for d in papers}
        try:
            self._per_document(independent, papers, indep.__setitem__)
            scored = sorted(d for d, s in indep.items() if not isinstance(s, IndependentFailure))
            size = self.config.reviewer_batch_size
            batches = [scored[start : start + size] for start in range(0, len(scored), size)]
            self._per_document(comparative, list(range(len(batches))))
        finally:  # reviewed: exactly the papers whose record exists, even after a failure
            for doc_id in self.ws.docs_at("packed"):
                if self._path("review", doc_id).exists():
                    self.ws.mark(doc_id, "reviewed")

    # -- screen ----------------------------------------------------------

    def load_review_records(self) -> tuple[list[ReviewRecord], list[ReviewFailureRecord]]:
        """Review records and failure records. A screened paper is kept as
        its manifest says; an unscreened one by the configured threshold."""
        records, failures = [], []
        threshold = self.config.reviewer_threshold
        for doc_id in self.ws.doc_ids():
            record = self.artifact("review", doc_id)
            if record is None:
                continue
            if isinstance(record, ReviewFailureRecord):
                failures.append(record)
                continue
            if self.ws.at_least(doc_id, "screened_in"):
                kept = "screened_in" in self.ws.docs[doc_id]
            else:
                kept = reviewer.clears_threshold(record.final, threshold)
            records.append(replace(record, kept=kept))
        return records, failures

    @stage("screen")
    def stage_screen(self) -> None:
        pending = self.ws.docs_at("reviewed")
        screening = self.ws.dir("reviews") / "screening.json"
        if not pending and screening.exists():
            return
        records, failures = self.load_review_records()
        kept = {r.doc_id for r in records if r.kept}
        self._write(screening, Screening(
            threshold=self.config.reviewer_threshold,
            kept=tuple(sorted(kept)),
            excluded=tuple(sorted(r.doc_id for r in records if not r.kept)),
            failures=tuple(sorted(f.doc_id for f in failures)),
        ))
        for doc_id in pending:
            self.ws.mark(doc_id, "screened_in" if doc_id in kept else "screened_out")

    # -- extract ---------------------------------------------------------

    def _extract_one(
        self, doc_id: str, template: list[str], direction: str
    ) -> extraction.ExtractedTable:
        doc = self.artifact("parsed", doc_id)
        out = self._path("table", doc_id).parent
        out.mkdir(parents=True, exist_ok=True)

        parts: list[extraction.ConvertedPart] = [
            extraction.ConvertedPart(
                part_id=f"para-{p.index}", origin="text-paragraph", body=p.text
            )
            for p in doc.paragraphs
        ]
        warnings: list[str] = []
        for ref in doc.tables:
            try:
                parts.extend(extraction.convert_table_image(
                    str(self.ws.root / ref.image), ref.caption, self.gateway, ref.id
                ))
            except (ExtractionError, EmptyResponseError) as exc:
                warnings.append(f"table {ref.id}: {exc}")
        for ref in doc.figures:
            try:
                parts.append(extraction.summarize_figure(
                    str(self.ws.root / ref.image), ref.caption, self.gateway, ref.id
                ))
            except (ExtractionError, EmptyResponseError) as exc:
                warnings.append(f"figure {ref.id}: {exc}")

        mask = extraction.relevance_mask(
            parts, direction, self.gateway, self.config.extraction_mask_batch
        ) if parts else []
        retained = extraction.retain_parts(parts, mask)

        try:
            table, trace, violations = extraction.run_feedback_loop(
                retained, template, direction, self.gateway, doc_id=doc_id,
                accept_overall=self.config.extraction_accept_overall,
                max_iter=self.config.extraction_max_iter,
                abs_tol=self.config.eval_abs_tol, rel_tol=self.config.eval_rel_tol,
            )
        except ExtractionError as exc:
            warnings.append(f"extraction failed: {exc}")
            table = extraction.ExtractedTable(
                doc_id=doc_id, header=tuple(template), rows=(), provenance=(),
                iteration=self.config.extraction_max_iter, accepted=False,
            )
            trace, violations = [], []

        self._write(out / "parts.json", ExtractionParts(
            tuple(parts), tuple(mask), tuple(p.part_id for p in retained), tuple(warnings)
        ))
        self._write(out / "trace.json", ExtractionTrace(
            trace=tuple(TraceEntry(**vars(r), iteration=i) for i, r in trace),
            violations=tuple(TraceViolation(v.kind, v.reason) for v in violations),
        ))
        # Last: a table.json vouches that the document's other files exist.
        self._write(out / "table.json", table)
        return table

    @stage("extract")
    def stage_extract(self, template: list[str], topic: str | None = None) -> None:
        """Extract every screened-in document; `topic`, when given, stands
        in for the workspace direction in this call only."""
        direction = self.ws.direction if topic is None else topic

        def work(doc_id: str) -> extraction.ExtractedTable:
            return tables[doc_id] or self._extract_one(doc_id, template, direction)

        def finish(doc_id: str, table: extraction.ExtractedTable) -> None:
            self.ws.mark(doc_id, "extracted")
            self.ws.mark(doc_id, "accepted" if table.accepted else "unaccepted")

        todo = self.ws.docs_at("extracted") + self.ws.docs_at("screened_in")
        tables = {doc_id: self.artifact("table", doc_id) for doc_id in todo}  # before any call
        self._per_document(work, todo, finish)

    # -- analyze ---------------------------------------------------------

    def load_tables(self) -> dict[str, extraction.ExtractedTable]:
        """The table of each extracted document, by doc_id."""
        return {
            doc_id: self.artifact("table", doc_id)
            for doc_id in self.ws.doc_ids() if self.ws.at_least(doc_id, "extracted")
        }

    def load_accepted_tables(self) -> list[extraction.ExtractedTable]:
        """The tables of the accepted documents."""
        return [t for doc_id, t in self.load_tables().items() if "accepted" in self.ws.docs[doc_id]]

    @stage("analyze")
    def stage_analyze(self, force: bool) -> None:
        out = self.ws.dir("analysis")
        results_path = self._path("results")
        pending = self.ws.docs_at("accepted")
        if results_path.exists() and not pending and not force:
            return

        merged = merge_tables(self.load_accepted_tables())
        self._write(self._path("merged"), merged)

        results: list[AnalysisResult] = []
        plan = AnalysisPlan(steps=())
        if merged.row_count and merged.data_columns():
            try:
                plan = plan_analysis(merged, self.ws.direction, self.gateway)
                results = run_analysis(plan, merged, self.config.analysis_seed, out)
            except NoValidStepsError as exc:
                log.warning("analysis skipped: %s", exc)

        self._write(out / "plan.json", plan)
        self._write(results_path, results)
        for doc_id in pending:
            self.ws.mark(doc_id, "analyzed")

    # -- report ----------------------------------------------------------

    def load_merged(self) -> MergedTable:
        merged = self.artifact("merged")
        return merge_tables([]) if merged is None else merged

    def load_traces(self) -> list[TraceSummary]:
        """One summary per extracted document."""
        traces = []
        for doc_id, table in self.load_tables().items():
            trace = self.artifact("trace", doc_id)
            traces.append(TraceSummary(
                doc_id=doc_id,
                iterations=max([t.iteration for t in trace.trace], default=0),
                accepted=table.accepted,
                row_count=len(table.rows),
                provenance_count=len(table.provenance),
                violation_count=len(trace.violations),
            ))
        return traces

    def _narrative(self, merged: MergedTable, results: list[AnalysisResult]) -> str:
        summary_lines = [
            f"Merged rows: {merged.row_count}; missing cells: {merged.missing_count}.",
        ]
        for r in results:
            if r.skipped:
                summary_lines.append(f"{r.step.kind}: skipped ({r.reason})")
            else:
                stats = {k: v for k, v in r.stats.items()
                         if isinstance(v, (int, float)) or k == "cluster_sizes"}
                summary_lines.append(f"{r.step.kind}: {json.dumps(stats, sort_keys=True)}")
        request = prompts.report_request(self.ws.direction, "\n".join(summary_lines))
        try:
            return self.gateway.complete(request).raw_text
        except ManalyzerError as exc:
            log.info("no narrative available (%s); using the built-in discussion", exc)
            return ""

    @stage("report")
    def stage_report(self, force: bool) -> None:
        if self.ws.report_path.exists() and not force:
            return
        merged = self.load_merged()
        results = self.artifact("results") or ()
        records, _failures = self.load_review_records()
        traces = self.load_traces()
        titles = {
            doc_id: packed.title for doc_id in self.ws.doc_ids()
            if (packed := self.artifact("packed", doc_id))
        }
        text = render_report(
            topic=self.ws.direction, merged=merged, results=results, review_records=records,
            traces=traces, narrative=self._narrative(merged, results), titles=titles,
        )
        atomic_write_text(self.ws.report_path, text)

    # -- whole-run orchestration ------------------------------------------

    def run(self, template: list[str] | None = None) -> RunSummary:
        """Execute every remaining stage. Completed stages are skipped, so
        run() on a finished workspace is a no-op and run() on a partial one
        is a resume."""
        if template is not None:
            self.store_template(template)
        columns = self.load_stored_template()

        before = {d: self.ws.status_of(d) for d in self.ws.doc_ids()}
        self.stage_pack()
        self.stage_review()
        self.stage_screen()
        self.stage_extract(columns)
        did_work = before != {d: self.ws.status_of(d) for d in self.ws.doc_ids()}
        self.stage_analyze(force=did_work)
        self.stage_report(force=did_work)
        return self.summary()

    def summary(self) -> RunSummary:
        docs = self.ws.doc_ids()
        _records, failures = self.load_review_records()
        merged = self.load_merged()
        return RunSummary(
            total_docs=len(docs),
            packed=sum(self.ws.at_least(d, "packed") for d in docs),
            reviewed=sum(self.ws.at_least(d, "reviewed") for d in docs),
            review_failures=len(failures),
            screened_in=sum("screened_in" in self.ws.docs[d] for d in docs),
            extracted=sum(self.ws.at_least(d, "extracted") for d in docs),
            accepted=sum("accepted" in self.ws.docs[d] for d in docs),
            merged_rows=merged.row_count,
            report_path=str(self.ws.report_path) if self.ws.report_path.exists() else None,
        )


def status_text(ws: Workspace) -> str:
    """Human-readable stage/document matrix; read-only."""
    counts = ws.status_counts()
    lines = [f"workspace: {ws.root}", f"direction: {ws.direction}", ""]
    lines.append("status counts:")
    for status, count in counts.items():
        lines.append(f"  {status:<12} {count}")
    lines.append("")
    lines.append("documents:")
    if not ws.docs:
        lines.append("  (none)")
    for doc_id in ws.doc_ids():
        lines.append(f"  {doc_id:<24} {ws.status_of(doc_id)}")
    return "\n".join(lines) + "\n"
