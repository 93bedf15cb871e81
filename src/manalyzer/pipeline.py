"""Stage orchestration over a persistent workspace.

The pipeline walks ingest -> pack -> review -> screen -> extract ->
analyze -> report, persisting every per-document artifact before moving
on and recording progress in the workspace manifest. Each stage's status
marks go to the manifest's log, which is compacted into manifest.json
when the stage returns. A killed run resumes from the manifest: completed
documents are never recomputed and their agent calls are never re-issued.

Per-document work (packing, independent review, extraction) runs on a
bounded worker pool, and comparative review batches fan out through
``Gateway.map``; merge points (screening, table merge, report) are
single-threaded. Only the orchestrator thread writes the manifest.

Inside a document, the independent agent calls (paragraph scores, mask
batches) fan out through ``Gateway.map``, so up to
``max_concurrency x (1 + provider.max_in_flight)`` threads can exist while
the calls in flight stay at most ``provider.max_in_flight``.
"""

from __future__ import annotations

import json
import logging
import shutil
from collections.abc import Callable, Iterator
from concurrent.futures import ThreadPoolExecutor, as_completed
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TypeVar

from . import collector, extraction, packer, prompts, reviewer
from .analysis import (
    AnalysisPlan,
    AnalysisResult,
    MergedTable,
    merge_tables,
    plan_analysis,
    run_analysis,
)
from .config import PipelineConfig
from .errors import (
    ConfigError,
    EmptyResponseError,
    ExtractionError,
    ManalyzerError,
    NoValidStepsError,
    ReviewFailure,
    StageFailure,
)
from .gateway import Gateway, Provider, ScriptedProvider
from .report import TraceSummary, render_report
from .reviewer import IndependentScores, ReviewRecord
from .workspace import Workspace, atomic_write_json, atomic_write_text, from_json

log = logging.getLogger(__name__)
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


@contextmanager
def stage_failure(stage: str) -> Iterator[None]:
    """Re-raise a pipeline error from inside `stage` as StageFailure(stage)."""
    try:
        yield
    except ManalyzerError as exc:
        raise StageFailure(stage, exc) from exc


def build_provider(config: PipelineConfig, base_dir: Path) -> Provider:
    """The provider named by the config. Only the scripted provider ships;
    live providers plug in through the Provider protocol."""
    if config.provider_kind != "scripted":
        raise ConfigError(
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
            raise ConfigError(f"provider.script {script}: {exc.strerror}") from exc
    return ScriptedProvider()


def compacts(stage: Callable[..., T]) -> Callable[..., T]:
    """Fold the workspace's status log into manifest.json whenever `stage`
    returns. A stage that raises leaves the log for `Workspace.load`."""
    def run_stage(self: "Pipeline", *args, **kwargs) -> T:
        result = stage(self, *args, **kwargs)
        self.ws.compact()
        return result
    return run_stage


def load_template(path: Path) -> list[str]:
    """Extraction template: ordered column names, one per line."""
    columns = []
    for raw in path.read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            columns.append(line)
    if not columns:
        raise ConfigError(f"template {path} holds no columns")
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

    # -- small helpers ---------------------------------------------------

    def _per_document(
        self, work: Callable[[str], T], todo: list[str], finish: Callable[[str, T], None]
    ) -> None:
        """Run `work` over `todo` on the pool and call `finish` here, on the
        orchestrator thread, as each document completes, so every finished
        document is kept even when another fails. The first failure in
        `todo` order is raised once the pool has drained."""
        failures: dict[str, Exception] = {}
        with ThreadPoolExecutor(max_workers=self.config.max_concurrency) as pool:
            futures = {pool.submit(work, doc_id): doc_id for doc_id in todo}
            for future in as_completed(futures):
                try:
                    result = future.result()
                except Exception as exc:
                    failures[futures[future]] = exc
                else:
                    finish(futures[future], result)
        for doc_id in todo:
            if doc_id in failures:
                raise failures[doc_id]

    def _parsed_path(self, doc_id: str) -> Path:
        return self.ws.dir("parsed") / f"{doc_id}.json"

    def _load_parsed(self, doc_id: str) -> collector.ParsedDocument:
        return collector.ingest_parsed(self._parsed_path(doc_id), self.ws.root)

    def _template_path(self) -> Path:
        return self.ws.root / "template.txt"

    def store_template(self, columns: list[str]) -> None:
        stored = self._template_path()
        if stored.exists():
            existing = load_template(stored)
            if existing != columns:
                raise ConfigError(
                    "extraction template differs from the one this workspace "
                    "was run with (see template.txt); start a fresh workspace "
                    "to change templates"
                )
            return
        atomic_write_text(stored, "\n".join(columns) + "\n")

    def load_stored_template(self) -> list[str]:
        path = self._template_path()
        if not path.exists():
            raise ConfigError("no extraction template stored; pass --template")
        return load_template(path)

    # -- ingest ----------------------------------------------------------

    @compacts
    def ingest_dir(self, source: Path) -> list[str]:
        """Validate and import every parse file under `source`.

        Image paths inside the files are relative to `source`; images are
        copied into the workspace under the same relative paths.
        """
        doc_ids = []
        for parse_file in sorted(source.glob("*.json")):
            doc = collector.ingest_parsed(parse_file, source)
            for ref in list(doc.figures) + list(doc.tables):
                target = self.ws.root / ref.image
                target.parent.mkdir(parents=True, exist_ok=True)
                if not target.exists():  # copy, then rename: a kill leaves no torn image
                    tmp = target.with_name(target.name + ".tmp")
                    shutil.copyfile(source / ref.image, tmp)
                    tmp.replace(target)
            collector.save_parsed(doc, self._parsed_path(doc.doc_id))
            self.ws.mark(doc.doc_id, "parsed")
            doc_ids.append(doc.doc_id)
        return doc_ids

    # -- pack ------------------------------------------------------------

    def _packed_path(self, doc_id: str) -> Path:
        return self.ws.dir("packed") / f"{doc_id}.json"

    @compacts
    def stage_pack(self) -> None:
        todo = [
            d for d in self.ws.doc_ids()
            if self.ws.at_least(d, "parsed") and not self.ws.at_least(d, "packed")
        ]
        if not todo:
            return

        def work(doc_id: str) -> packer.PackedDocument:
            return packer.pack_document(
                self._load_parsed(doc_id), self.gateway, self.config.packer_budget,
                self.config.packer_default_importance,
            )

        def finish(doc_id: str, packed: packer.PackedDocument) -> None:
            atomic_write_json(self._packed_path(doc_id), asdict(packed))
            self.ws.mark(doc_id, "packed")

        self._per_document(work, todo, finish)

    # -- review ----------------------------------------------------------

    def _indep_path(self, doc_id: str) -> Path:
        return self.ws.dir("reviews") / f"{doc_id}.indep.json"

    def _review_path(self, doc_id: str) -> Path:
        return self.ws.dir("reviews") / f"{doc_id}.json"

    def _load_packed(self, doc_id: str) -> packer.PackedDocument:
        raw = json.loads(self._packed_path(doc_id).read_text(encoding="utf-8"))
        return from_json(packer.PackedDocument, raw)

    @compacts
    def stage_review(self) -> None:
        docs = [d for d in self.ws.doc_ids() if self.ws.at_least(d, "packed")]
        todo = [d for d in docs if not self.ws.at_least(d, "reviewed")]
        if not todo:
            return
        direction = self.ws.direction

        # Phase 1: independent scores, one file per paper.
        def independent(doc_id: str) -> dict:
            if self._indep_path(doc_id).exists():
                return json.loads(self._indep_path(doc_id).read_text(encoding="utf-8"))
            packed = self._load_packed(doc_id)
            try:
                scores = reviewer.review_independent(
                    packed.text, direction, self.gateway, packed.captions
                )
                payload = {"s1": scores.s1, "s2": scores.s2}
            except ReviewFailure as exc:
                payload = {"failed": True, "reason": str(exc)}
            atomic_write_json(self._indep_path(doc_id), payload)
            return payload

        indep: dict[str, dict] = {}
        self._per_document(independent, todo, indep.__setitem__)
        for doc_id in docs:
            if doc_id not in indep and self._indep_path(doc_id).exists():
                indep[doc_id] = json.loads(self._indep_path(doc_id).read_text(encoding="utf-8"))

        # Failed papers are reviewed (with a failure record), never batched.
        for doc_id in todo:
            if indep[doc_id].get("failed"):
                atomic_write_json(self._review_path(doc_id), {
                    "doc_id": doc_id, "failed": True, "reason": indep[doc_id]["reason"],
                })
                self.ws.mark(doc_id, "reviewed")

        # Phase 2: comparative batches over all successfully scored papers,
        # in sorted order. Batches whose members are all marked reviewed are
        # skipped, so a stage-boundary resume issues no repeat calls. The mark,
        # not the record file, is the progress record: a kill between the two
        # redoes the batch rather than leaving the paper unreviewed. The
        # batches' calls run concurrently; every batch that returned is
        # recorded in batch order before the first error is raised.
        scored = sorted(d for d, info in indep.items() if not info.get("failed"))
        batch_size = self.config.reviewer_batch_size
        batches = [
            scored[start : start + batch_size] for start in range(0, len(scored), batch_size)
        ]
        pending = [
            (batch_id, batch) for batch_id, batch in enumerate(batches)
            if not all(self.ws.at_least(d, "reviewed") for d in batch)
        ]

        def comparative(batch: list[str]) -> list[float] | Exception:
            try:
                texts = [self._load_packed(d).text for d in batch]
                return reviewer.review_batch(texts, direction, self.gateway)
            except Exception as exc:
                return exc

        replies = self.gateway.map(comparative, [batch for _, batch in pending])
        errors: list[Exception] = []
        for (batch_id, batch), relatives in zip(pending, replies):
            if isinstance(relatives, ReviewFailure):
                for doc_id in batch:
                    if not self.ws.at_least(doc_id, "reviewed"):
                        atomic_write_json(self._review_path(doc_id), {
                            "doc_id": doc_id, "failed": True, "reason": str(relatives),
                        })
                        self.ws.mark(doc_id, "reviewed")
                continue
            if isinstance(relatives, Exception):
                errors.append(relatives)
                continue
            for doc_id, s_r in zip(batch, relatives):
                if self.ws.at_least(doc_id, "reviewed"):
                    continue
                info = indep[doc_id]
                final = reviewer.fuse(info["s1"], info["s2"], s_r)
                atomic_write_json(self._review_path(doc_id), {
                    "doc_id": doc_id,
                    "s1": info["s1"],
                    "s2": info["s2"],
                    "s_r": s_r,
                    "final": final,
                    "batch_id": batch_id,
                })
                self.ws.mark(doc_id, "reviewed")
        if errors:
            raise errors[0]

    # -- screen ----------------------------------------------------------

    def _screening_path(self) -> Path:
        return self.ws.dir("reviews") / "screening.json"

    def load_review_records(self) -> tuple[list[ReviewRecord], list[dict]]:
        """Review records and failure records. A screened paper is kept as
        its manifest says; an unscreened one by the configured threshold."""
        records, failures = [], []
        threshold = self.config.reviewer_threshold
        for doc_id in self.ws.doc_ids():
            path = self._review_path(doc_id)
            if not path.exists():
                continue
            raw = json.loads(path.read_text(encoding="utf-8"))
            if raw.get("failed"):
                failures.append(raw)
                continue
            history = self.ws.docs[doc_id]
            screened = self.ws.at_least(doc_id, "screened_in")
            records.append(ReviewRecord(
                doc_id=doc_id,
                independent=IndependentScores(raw["s1"], raw["s2"]),
                s_r=raw["s_r"],
                final=raw["final"],
                kept="screened_in" in history if screened else raw["final"] >= threshold,
                batch_id=raw["batch_id"],
            ))
        return records, failures

    @compacts
    def stage_screen(self) -> None:
        pending = [
            d for d in self.ws.doc_ids()
            if self.ws.at_least(d, "reviewed") and not self.ws.at_least(d, "screened_in")
        ]
        if not pending and self._screening_path().exists():
            return
        records, failures = self.load_review_records()
        kept = {r.doc_id for r in records if r.kept}
        atomic_write_json(self._screening_path(), {
            "threshold": self.config.reviewer_threshold,
            "kept": sorted(kept),
            "excluded": sorted(r.doc_id for r in records if not r.kept),
            "failures": sorted(f["doc_id"] for f in failures),
        })
        for doc_id in pending:
            self.ws.mark(doc_id, "screened_in" if doc_id in kept else "screened_out")

    # -- extract ---------------------------------------------------------

    def _extract_dir(self, doc_id: str) -> Path:
        return self.ws.dir("extracted") / doc_id

    def _extract_one(self, doc_id: str, template: list[str]) -> extraction.ExtractedTable:
        doc = self._load_parsed(doc_id)
        out = self._extract_dir(doc_id)
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
                    str(self.ws.root / ref.image), ref.caption, self.gateway, ref.ref_id
                ))
            except (ExtractionError, EmptyResponseError) as exc:
                warnings.append(f"table {ref.ref_id}: {exc}")
        for ref in doc.figures:
            try:
                parts.append(extraction.summarize_figure(
                    str(self.ws.root / ref.image), ref.caption, self.gateway, ref.ref_id
                ))
            except (ExtractionError, EmptyResponseError) as exc:
                warnings.append(f"figure {ref.ref_id}: {exc}")

        mask = (
            extraction.relevance_mask(
                parts, self.ws.direction, self.gateway, self.config.extraction_mask_batch
            )
            if parts
            else []
        )
        retained = extraction.retain_parts(parts, mask)

        try:
            table, trace = extraction.run_feedback_loop(
                retained,
                template,
                self.ws.direction,
                self.gateway,
                doc_id=doc_id,
                accept_overall=self.config.extraction_accept_overall,
                max_iter=self.config.extraction_max_iter,
                abs_tol=self.config.eval_abs_tol,
                rel_tol=self.config.eval_rel_tol,
            )
        except ExtractionError as exc:
            warnings.append(f"extraction failed: {exc}")
            table = extraction.ExtractedTable(
                doc_id=doc_id, header=tuple(template), rows=(), provenance=(),
                iteration=self.config.extraction_max_iter, accepted=False,
            )
            trace = []

        violations = extraction.validate_provenance(
            table, retained, self.config.eval_abs_tol, self.config.eval_rel_tol
        )
        atomic_write_json(out / "parts.json", {
            "parts": [asdict(p) for p in parts],
            "mask": mask,
            "retained": [p.part_id for p in retained],
            "warnings": warnings,
        })
        atomic_write_json(out / "table.json", asdict(table))
        atomic_write_json(out / "trace.json", {
            "trace": [{"iteration": i, **asdict(r)} for i, r in trace],
            "violations": [
                {"kind": v.kind, "reason": v.reason} for v in violations
            ],
        })
        return table

    @compacts
    def stage_extract(self, template: list[str]) -> None:
        def finish(doc_id: str, table: extraction.ExtractedTable) -> None:
            self.ws.mark(doc_id, "extracted")
            self.ws.mark(doc_id, "accepted" if table.accepted else "unaccepted")

        for doc_id in self.ws.doc_ids():
            if self.ws.status_of(doc_id) == "extracted":  # its table.json precedes the mark
                finish(doc_id, self.load_table(doc_id))
        todo = [d for d in self.ws.doc_ids() if self.ws.status_of(d) == "screened_in"]
        if todo:
            self._per_document(lambda doc_id: self._extract_one(doc_id, template), todo, finish)

    # -- analyze ---------------------------------------------------------

    def _analysis_dir(self) -> Path:
        return self.ws.dir("analysis")

    def load_table(self, doc_id: str) -> extraction.ExtractedTable | None:
        """The document's extracted table; None before extraction wrote it."""
        path = self._extract_dir(doc_id) / "table.json"
        if not path.exists():
            return None
        return from_json(extraction.ExtractedTable, json.loads(path.read_text(encoding="utf-8")))

    def load_accepted_tables(self) -> list[extraction.ExtractedTable]:
        return [
            self.load_table(doc_id) for doc_id in self.ws.doc_ids()
            if self.ws.status_of(doc_id) in ("accepted", "analyzed")
        ]

    @compacts
    def stage_analyze(self, force: bool) -> None:
        results_path = self._analysis_dir() / "results.json"
        pending = [
            d for d in self.ws.doc_ids() if self.ws.status_of(d) == "accepted"
        ]
        if results_path.exists() and not pending and not force:
            return

        merged = merge_tables(self.load_accepted_tables())
        atomic_write_json(self._analysis_dir() / "merged.json", asdict(merged))

        results: list[AnalysisResult] = []
        plan = AnalysisPlan(steps=())
        if merged.row_count and merged.data_columns():
            try:
                plan = plan_analysis(merged, self.ws.direction, self.gateway)
                results = run_analysis(
                    plan, merged, self.config.analysis_seed, self._analysis_dir()
                )
            except NoValidStepsError as exc:
                log.warning("analysis skipped: %s", exc)

        atomic_write_json(self._analysis_dir() / "plan.json", asdict(plan))
        atomic_write_json(results_path, [asdict(r) for r in results])
        for doc_id in pending:
            self.ws.mark(doc_id, "analyzed")

    # -- report ----------------------------------------------------------

    def load_merged(self) -> MergedTable:
        path = self._analysis_dir() / "merged.json"
        if not path.exists():
            return MergedTable(header=("doc_id",), rows=(), row_count=0, missing_count=0)
        return from_json(MergedTable, json.loads(path.read_text(encoding="utf-8")))

    def load_results(self) -> list[AnalysisResult]:
        path = self._analysis_dir() / "results.json"
        if not path.exists():
            return []
        raw = json.loads(path.read_text(encoding="utf-8"))
        return [from_json(AnalysisResult, r) for r in raw]

    def load_traces(self) -> list[TraceSummary]:
        traces = []
        for doc_id in self.ws.doc_ids():
            table = self.load_table(doc_id)
            if table is None:
                continue
            trace = json.loads(
                (self._extract_dir(doc_id) / "trace.json").read_text(encoding="utf-8")
            )
            traces.append(TraceSummary(
                doc_id=doc_id,
                iterations=max([t["iteration"] for t in trace["trace"]], default=0),
                accepted=table.accepted,
                row_count=len(table.rows),
                provenance_count=len(table.provenance),
                violation_count=len(trace["violations"]),
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

    @compacts
    def stage_report(self, force: bool) -> None:
        if self.ws.report_path.exists() and not force:
            return
        merged = self.load_merged()
        results = self.load_results()
        records, _failures = self.load_review_records()
        traces = self.load_traces()
        titles = {
            doc_id: self._load_packed(doc_id).title
            for doc_id in self.ws.doc_ids() if self._packed_path(doc_id).exists()
        }
        text = render_report(
            topic=self.ws.direction,
            merged=merged,
            results=results,
            review_records=records,
            traces=traces,
            narrative=self._narrative(merged, results),
            titles=titles,
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
        for name, stage in (
            ("pack", self.stage_pack),
            ("review", self.stage_review),
            ("screen", self.stage_screen),
            ("extract", lambda: self.stage_extract(columns)),
        ):
            with stage_failure(name):
                stage()

        after = {d: self.ws.status_of(d) for d in self.ws.doc_ids()}
        did_work = before != after
        with stage_failure("analyze"):
            self.stage_analyze(force=did_work)
        with stage_failure("report"):
            self.stage_report(force=did_work)
        return self.summary()

    def summary(self) -> RunSummary:
        ranks = {d: self.ws.rank_of(d) for d in self.ws.doc_ids()}
        records, failures = self.load_review_records()
        merged = self.load_merged()
        return RunSummary(
            total_docs=len(ranks),
            packed=sum(1 for r in ranks.values() if r >= 2),
            reviewed=sum(1 for r in ranks.values() if r >= 3),
            review_failures=len(failures),
            screened_in=sum(
                1 for d in self.ws.doc_ids()
                if "screened_in" in self.ws.docs.get(d, [])
            ),
            extracted=sum(1 for r in ranks.values() if r >= 5),
            accepted=sum(
                1 for d in self.ws.doc_ids()
                if "accepted" in self.ws.docs.get(d, [])
            ),
            merged_rows=merged.row_count,
            report_path=str(self.ws.report_path) if self.ws.report_path.exists() else None,
        )


def status_text(ws: Workspace) -> str:
    """Human-readable stage/document matrix; read-only."""
    counts = ws.status_counts()
    lines = [f"workspace: {ws.root}", f"direction: {ws.direction}", ""]
    lines.append("status counts:")
    for status in ("collected", "parsed", "packed", "reviewed", "screened_in",
                   "screened_out", "extracted", "accepted", "unaccepted", "analyzed"):
        lines.append(f"  {status:<12} {counts[status]}")
    lines.append("")
    lines.append("documents:")
    if not ws.docs:
        lines.append("  (none)")
    for doc_id in ws.doc_ids():
        lines.append(f"  {doc_id:<24} {ws.status_of(doc_id)}")
    return "\n".join(lines) + "\n"
