"""Stage orchestration over a persistent workspace.

The pipeline walks ingest -> pack -> review -> screen -> extract ->
analyze -> report, persisting every per-document artifact before moving
on. The artifacts are the one record of progress: ``Pipeline.statuses``
reads each document's status, the latest it has reached, off the artifact
that records it (``ARTIFACTS``' last column); a review record by its
listing, decoded only by ``load_review_records``. A ``Pipeline`` derives
them when built, and each ``@stage(name)`` takes its work list from them,
derives them again when it returns or fails with exit 3, and writes them,
one status per document, to manifest.json's ``docs`` view. A kill writes
no view, and every command derives the statuses afresh.

Per-document work (packing, independent review, comparative review
batches, extraction) runs on one bounded worker pool, ``_per_document``.
The artifact a work step writes last (``packed/<doc>.json``,
``reviews/<doc>.json``, ``extracted/<doc>/table.json``) records that a
document finished the stage, so a resumed stage leaves it out and repeats
none of its agent calls. ``reviews/screening.json`` records the screening
outcomes, and ``analysis/results.json`` the analysis of the tables in
``analysis/merged.json``, one result per planned step; analyze deletes the
old ``results.json`` and ``report.md`` before it writes a new
``merged.json``. The exceptions: a kill between the ``plan`` call and the
write of ``results.json`` repeats the ``plan`` call, and a kill between
two record writes of one review batch repeats the batch's call. A provider
failure left after the gateway's retries, at the ``report`` call too, is
never a fallback: the stage fails, and a resume asks again. A killed
``ingest`` is redone by running it again. An artifact a killed command
wrote is kept under a later command's overrides (``pack --budget``,
``screen --batch-size``, ``extract --topic``). Merge points (screening,
table merge, report) are single-threaded, and only the orchestrator thread
sets the status view. A paragraph's text is written only in
``parsed/<doc>.json``; ``extracted/<doc>/parts.json`` keeps its score.

A status vouches for the artifacts ``ARTIFACTS``' third column names, and
the view a command loads does too: a missing or undecodable one is exit 2,
naming the file, so a file deleted since the last view write is refused,
not redone. Each stage and read-only command reads, through
``Pipeline.artifact``, every artifact it uses before its first agent call
or output, and each file once.

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
import os
import re
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, TypeVar

from . import collector, extraction, packer, prompts, reviewer
from .analysis import AnalysisResult, MergedTable, merge_tables, plan_analysis, run_analysis
from .config import PipelineConfig
from .errors import (
    EmptyResponseError, ExtractionError, ManalyzerError, ReviewFailure, StageFailure,
    TransportError,
)
from .gateway import Gateway, Provider, ScriptedProvider
from .report import TraceSummary, render_report
from .reviewer import ReviewRecord
from .workspace import (
    ROOT_FILES, SUBDIRS, Workspace, atomic_write_bytes, atomic_write_json, atomic_write_text,
    read_artifact,
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
class ExtractionTrace:
    """An ``extracted/<doc>/trace.json``: each attempt's check report, and
    the provenance violations of the table kept."""

    trace: tuple[TraceEntry, ...]
    violations: tuple[extraction.Violation, ...]


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
    """An ``extracted/<doc>/parts.json``: the converted table and figure
    parts, one mask score per part (paragraph ``i``, part ``para-<i>``, at
    ``mask[i]``, then the converted parts'), the ids kept, and the warnings."""

    parts: tuple[extraction.ConvertedPart, ...]
    mask: tuple[float, ...]
    retained: tuple[str, ...]
    warnings: tuple[str, ...]


# Each artifact: its path under the workspace root ({doc} is the doc_id);
# its type when read back; the status from which a document must have it
# (a workspace-level file: once any document has it); and the status it
# records, which `Pipeline.statuses` reads off it.
ARTIFACTS: dict[str, tuple[str, Any, str | None, str | None]] = {
    "paper": ("papers/{doc}.pdf", None, None, "collected"),
    "parsed": ("parsed/{doc}.json", collector.ParsedDocument, "parsed", "parsed"),
    "packed": ("packed/{doc}.json", packer.PackedDocument, "packed", "packed"),
    "indep": ("reviews/{doc}.indep.json", reviewer.IndependentScores | IndependentFailure,
              "reviewed", None),
    "review": ("reviews/{doc}.json", ReviewRecord | ReviewFailureRecord, "reviewed", "reviewed"),
    "screening": ("reviews/screening.json", Screening, "screened_in", "screened_in"),
    "table": ("extracted/{doc}/table.json", extraction.ExtractedTable, "extracted", "extracted"),
    "trace": ("extracted/{doc}/trace.json", ExtractionTrace, "extracted", None),
    "merged": ("analysis/merged.json", MergedTable, "analyzed", None),
    "results": ("analysis/results.json", tuple[AnalysisResult, ...], None, "analyzed"),
}
# Each `ARTIFACTS` path as a pattern that any doc_id fits, and the length of
# its fixed text: a path is read as the entry with the most that it fits.
_SHAPES = [
    (re.compile(re.escape(path).replace(r"\{doc\}", "[^/]*")), len(path.replace("{doc}", "")))
    for path, *_ in ARTIFACTS.values()
]
# The first path components that an ingested image may not have.
_RESERVED = {*SUBDIRS, *ROOT_FILES, *(f"{name}.tmp" for name in ROOT_FILES)}
# The longest name a doc_id makes, `<doc>.indep.json.tmp`, must fit in 255 bytes.
MAX_ID_BYTES = 240


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


def _name_problem(doc: collector.ParsedDocument) -> str | None:
    """Why `doc`'s id or an image path cannot name workspace files: an id
    too long, or one whose path for an `ARTIFACTS` entry is read as another
    entry's (`_SHAPES`); an image where the workspace keeps its own files.
    None if neither."""
    if len(doc.doc_id.encode("utf-8")) > MAX_ID_BYTES:
        return f"doc_id is longer than {MAX_ID_BYTES} UTF-8 bytes"
    for (pattern, *_), (_, fixed) in zip(ARTIFACTS.values(), _SHAPES):
        path = pattern.format(doc=doc.doc_id)
        if any(s.fullmatch(path) and n > fixed for s, n in _SHAPES):
            return f"doc_id {doc.doc_id!r} makes {path}, the path of another artifact"
    for ref in doc.figures + doc.tables:
        if _RESERVED.intersection(Path(ref.image).parts[:1]):
            return f"image {ref.image!r} is where the workspace keeps its own files"
    return None


def stage(name: str) -> Callable[[Callable[..., T]], Callable[..., T]]:
    """Run a Pipeline method as stage `name` on the current status view,
    then derive the view again and write it. A ManalyzerError or an OSError
    (a failed write, say) derives and writes the view too, then is re-raised
    as StageFailure(name) (exit 3); any other exception, a ValueError (bad
    input, exit 2) among them, passes through and writes nothing."""
    def wrap(method: Callable[..., T]) -> Callable[..., T]:
        @functools.wraps(method)
        def run_stage(self: "Pipeline", *args, **kwargs) -> T:
            try:
                result = method(self, *args, **kwargs)
            except (ManalyzerError, OSError) as exc:
                self.refresh(save=True)
                raise StageFailure(name, exc) from exc
            self.refresh(save=True)
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
        self.gateway = Gateway(provider, retries=config.provider_retries,
                               max_in_flight=config.provider_max_in_flight)
        self._read: dict[str, Any] = {}  # what `artifact` read, by workspace-relative path
        self.refresh()

    # -- small helpers ---------------------------------------------------

    def _per_document(self, work: Callable[[K], T], todo: list[K]) -> list[T]:
        """Run `work` over `todo` (documents, or review batches) on the pool
        and return its results in `todo` order. Every item runs even when
        another fails; once the pool has drained, the first failure in
        `todo` order is raised. An interrupt leaves queued items unstarted."""
        def attempt(key: K) -> tuple[bool, Any]:
            try:
                return True, work(key)
            except Exception as exc:
                return False, exc

        with ThreadPoolExecutor(max_workers=self.config.max_concurrency) as pool:
            outcomes = list(pool.map(attempt, todo))
        for ok, result in outcomes:
            if not ok:
                raise result
        return [result for _, result in outcomes]

    def _path(self, name: str, doc_id: str | None = None) -> Path:
        return self.ws.root / ARTIFACTS[name][0].format(doc=doc_id)

    def artifact(self, name: str, doc_id: str | None = None) -> Any:
        """The `ARTIFACTS` entry `name` of `doc_id` (of the workspace when
        None); None when absent (see `_vouch`). A file that does not decode,
        whose doc_id is not the file's name, or, for a parse file, one of
        whose images is gone, is a ValueError naming it (exit 2). A file read
        is kept until the pipeline writes it, except a parse file (large)."""
        rel = ARTIFACTS[name][0].format(doc=doc_id)
        if rel in self._read:
            return self._read[rel]
        path = self.ws.root / rel
        found = read_artifact(path, ARTIFACTS[name][1])
        if found is None:
            return self._vouch(name, doc_id)
        if getattr(found, "doc_id", doc_id) != doc_id:
            raise ValueError(f"{path}: doc_id {found.doc_id!r} is not the file's name")
        if name != "parsed":
            self._read[rel] = found
        elif ref := collector.missing_image(found, self.ws.root):
            raise ValueError(f"{path}: image {ref.image!r} ({ref.id}) not found")
        return found

    def _vouch(self, name: str, doc_id: str | None = None) -> None:
        """For an absent `ARTIFACTS` entry `name` of `doc_id`: a ValueError
        naming it when the status view vouches for it."""
        status, owners = ARTIFACTS[name][2], [doc_id] if doc_id else self.ws.docs
        if status and any(self.ws.at_least(d, status) for d in owners):
            raise ValueError(f"{self._path(name, doc_id)}: no such file")

    def _listed(self, name: str) -> set[str]:
        """The doc ids that have an `ARTIFACTS` entry `name`, from one
        directory listing: `statuses` runs often, and a stat per file costs."""
        folder, suffix = ARTIFACTS[name][0].split("/{doc}")
        return {f.removesuffix(suffix) for f in os.listdir(self.ws.root / folder)
                if f.endswith(suffix)}

    def _screened(self) -> dict[str, str]:
        """Each paper's outcome in `reviews/screening.json`, by the list it is in."""
        s = self.artifact("screening") or Screening(0.0, (), (), ())
        out = dict.fromkeys(s.excluded + s.failures, "screened_out")
        return out | dict.fromkeys(s.kept, "screened_in")

    def statuses(self) -> dict[str, str]:
        """Each document's status, off the artifacts that record it
        (`ARTIFACTS`' last column), the latest that it has: a file that its
        directory lists records its status, undecoded; screening.json
        records outcomes; a table accepted or unaccepted; results.json
        analyzed, for an accepted table with rows in merged.json or none.
        Documents: the view's and those with a paper or a parse file, less
        those with no status."""
        screened = self._screened()
        merged = self.artifact("merged") if self._path("results").exists() else None
        merged_docs = set() if merged is None else {row[0] for row in merged.rows}
        listed = {name: self._listed(name) for name in ("paper", "parsed", "packed", "review")}
        begun = set(os.listdir(self.ws.dir("extracted")))  # the documents that may have a table
        view = {}
        for doc_id in sorted({*self.ws.docs, *listed["paper"], *listed["parsed"]}):
            for name, found in listed.items():
                if doc_id in found:
                    view[doc_id] = ARTIFACTS[name][3]
                else:
                    self._vouch(name, doc_id)
            if doc_id in screened:
                view[doc_id] = screened[doc_id]
            if doc_id not in begun:
                self._vouch("table", doc_id)
            elif table := self.artifact("table", doc_id):
                view[doc_id] = "accepted" if table.accepted else "unaccepted"
                if table.accepted and merged and (doc_id in merged_docs or not table.rows):
                    view[doc_id] = "analyzed"
        return view

    def refresh(self, save: bool = False) -> None:
        """Set the status view to `statuses()`; with `save`, write it too."""
        statuses = self.statuses()
        self.ws.docs = {}
        for doc_id, status in statuses.items():
            self.ws.mark(doc_id, status)
        if save:
            self.ws.save()

    def _write(self, path: Path, obj: object) -> None:
        """Write an artifact, dropping what `artifact` kept of it."""
        self._read.pop(path.relative_to(self.ws.root).as_posix(), None)
        atomic_write_json(path, obj)

    def store_template(self, columns: list[str]) -> None:
        stored = self.ws.root / "template.txt"
        if not stored.exists():
            atomic_write_text(stored, "\n".join(columns) + "\n")
        elif load_template(stored) != columns:
            raise ValueError(
                "extraction template differs from the one this workspace "
                "was run with (see template.txt); start a fresh workspace "
                "to change templates"
            )

    def load_stored_template(self) -> list[str]:
        path = self.ws.root / "template.txt"
        if not path.exists():
            raise ValueError(
                f"no extraction template stored in {path}; "
                "pass --template to init, extract or run"
            )
        return load_template(path)

    # -- ingest ----------------------------------------------------------

    def ingest_dir(self, source: Path) -> list[str]:
        """Validate every parse file under `source`, then import them all.

        Image paths inside the files are relative to `source`; images are
        copied into the workspace under the same relative paths. Not a
        stage: a bad parse file, a doc_id two files share, a name that
        `_name_problem` refuses, a document already packed
        (packed/<doc>.json vouches for its parse), or an image whose
        workspace path holds other bytes is a validation error, refused
        before anything is written.
        """
        if not source.is_dir():
            raise ValueError(f"{source} is not a directory")
        docs: dict[str, tuple[Path, collector.ParsedDocument]] = {}
        for parse_file in sorted(source.glob("*.json")):
            doc = collector.ingest_parsed(parse_file, source)
            if problem := _name_problem(doc):
                raise ValueError(f"{parse_file}: {problem}")
            if doc.doc_id in docs:
                twin = docs[doc.doc_id][0].name
                raise ValueError(f"{parse_file}: {twin} has doc_id {doc.doc_id!r} too")
            if self._path("packed", doc.doc_id).exists():
                raise ValueError(f"{doc.doc_id} is packed already; its parse cannot change")
            for ref in doc.figures + doc.tables:
                target = self.ws.root / ref.image
                if target.exists() and target.read_bytes() != (source / ref.image).read_bytes():
                    raise ValueError(f"{source / ref.image}: {target} holds another image")
            docs[doc.doc_id] = parse_file, doc
        for _, doc in docs.values():
            for ref in list(doc.figures) + list(doc.tables):
                target = self.ws.root / ref.image
                target.parent.mkdir(parents=True, exist_ok=True)
                if not target.exists():
                    atomic_write_bytes(target, (source / ref.image).read_bytes())
            collector.save_parsed(doc, self._path("parsed", doc.doc_id))
        self.refresh(save=True)
        return list(docs)

    # -- pack ------------------------------------------------------------

    @stage("pack")
    def stage_pack(self) -> None:
        def work(doc_id: str) -> None:
            self._write(self._path("packed", doc_id), packer.pack_document(
                self.artifact("parsed", doc_id), self.gateway, self.config.packer_budget,
                self.config.packer_default_importance,
            ))

        self._per_document(work, self.ws.docs_at("parsed"))

    # -- review ----------------------------------------------------------

    @stage("review")
    def stage_review(self) -> None:
        if not self.ws.docs_at("packed"):
            return
        direction = self.ws.direction

        def record(entry: ReviewRecord | ReviewFailureRecord) -> None:
            if not self.ws.at_least(entry.doc_id, "reviewed"):
                self._write(self._path("review", entry.doc_id), entry)

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
            if all(self.ws.at_least(d, "reviewed") for d in batch):
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
        indep.update(zip(papers, self._per_document(independent, papers)))
        scored = sorted(d for d, s in indep.items() if not isinstance(s, IndependentFailure))
        size = self.config.reviewer_batch_size
        batches = [scored[start : start + size] for start in range(0, len(scored), size)]
        self._per_document(comparative, list(range(len(batches))))

    # -- screen ----------------------------------------------------------

    def load_review_records(self) -> tuple[list[ReviewRecord], list[ReviewFailureRecord]]:
        """Review records and failure records. A paper screening.json lists
        is kept as it says; any other by the configured threshold."""
        records, failures = [], []
        threshold = self.config.reviewer_threshold
        screened = self._screened()
        for doc_id in self.ws.doc_ids():
            record = self.artifact("review", doc_id)
            if record is None:
                continue
            if isinstance(record, ReviewFailureRecord):
                failures.append(record)
                continue
            kept = (screened[doc_id] == "screened_in" if doc_id in screened
                    else reviewer.clears_threshold(record.final, threshold))
            records.append(replace(record, kept=kept))
        return records, failures

    @stage("screen")
    def stage_screen(self) -> None:
        screening = self._path("screening")
        if not self.ws.docs_at("reviewed") and screening.exists():
            return
        records, failures = self.load_review_records()
        self._write(screening, Screening(
            threshold=self.config.reviewer_threshold,
            kept=tuple(sorted(r.doc_id for r in records if r.kept)),
            excluded=tuple(sorted(r.doc_id for r in records if not r.kept)),
            failures=tuple(sorted(f.doc_id for f in failures)),
        ))

    # -- extract ---------------------------------------------------------

    def _extract_one(self, doc_id: str, template: list[str], direction: str) -> None:
        doc = self.artifact("parsed", doc_id)
        out = self._path("table", doc_id).parent
        out.mkdir(parents=True, exist_ok=True)

        parts: list[extraction.ConvertedPart] = [
            extraction.ConvertedPart(f"para-{p.index}", "text-paragraph", p.text)
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
            tuple(parts[len(doc.paragraphs):]), tuple(mask), tuple(p.part_id for p in retained),
            tuple(warnings),
        ))
        self._write(out / "trace.json", ExtractionTrace(
            trace=tuple(TraceEntry(**vars(r), iteration=i) for i, r in trace),
            violations=tuple(violations),
        ))
        # Last: a table.json vouches that the document's other files exist.
        self._write(out / "table.json", table)

    @stage("extract")
    def stage_extract(self, template: list[str], topic: str | None = None) -> None:
        """Extract every screened-in document; `topic`, when given, stands
        in for the workspace direction in this call only."""
        direction = self.ws.direction if topic is None else topic
        self._per_document(
            lambda doc_id: self._extract_one(doc_id, template, direction),
            self.ws.docs_at("screened_in"),
        )

    # -- analyze ---------------------------------------------------------

    def load_tables(self) -> dict[str, extraction.ExtractedTable]:
        """The table of each extracted document, by doc_id."""
        return {
            doc_id: self.artifact("table", doc_id)
            for doc_id in self.ws.doc_ids() if self.ws.at_least(doc_id, "extracted")
        }

    def load_accepted_tables(self) -> list[extraction.ExtractedTable]:
        """The tables of the accepted documents. One whose header is not the
        stored template is a ValueError naming its file (exit 2)."""
        accepted = [t for t in self.load_tables().values() if t.accepted]
        template = tuple(self.load_stored_template()) if accepted else ()
        for table in accepted:
            if table.header != template:
                raise ValueError(
                    f"{self._path('table', table.doc_id)}: header {table.header!r} "
                    f"is not the stored template {template!r}"
                )
        return accepted

    @stage("analyze")
    def stage_analyze(self, force: bool) -> None:
        out = self.ws.dir("analysis")
        results_path = self._path("results")
        if results_path.exists() and not self.ws.docs_at("accepted") and not force:
            return
        tables = self.load_accepted_tables()  # refused before anything is changed
        # No results.json or report.md may stand beside a table it did not analyze.
        self._read.pop(ARTIFACTS["results"][0], None)
        results_path.unlink(missing_ok=True)
        self.ws.report_path.unlink(missing_ok=True)

        merged = merge_tables(tables)
        self._write(self._path("merged"), merged)

        results: list[AnalysisResult] = []
        if merged.row_count:
            steps = plan_analysis(merged, self.ws.direction, self.gateway)
            results = run_analysis(steps, merged, self.config.analysis_seed, out)
        self._write(results_path, results)

    # -- report ----------------------------------------------------------

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
        summary_lines = [f"Merged rows: {merged.row_count}; missing cells: {merged.missing_count}."]
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
        except TransportError:  # the provider is down: the stage fails, and resume asks again
            raise
        except ManalyzerError as exc:
            log.info("no narrative available (%s); using the built-in discussion", exc)
            return ""

    @stage("report")
    def stage_report(self, force: bool) -> None:
        if self.ws.report_path.exists() and not force:
            return
        merged = self.artifact("merged") or merge_tables([])
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

        before = self.ws.docs  # `refresh` replaces the dict, never changes it
        self.stage_pack()
        self.stage_review()
        self.stage_screen()
        self.stage_extract(columns)
        did_work = before != self.ws.docs
        self.stage_analyze(force=did_work)
        self.stage_report(force=did_work)
        return self.summary()

    def summary(self) -> RunSummary:
        """Counts off the status view and the screening `run()` has just brought up to date."""
        docs = self.ws.doc_ids()
        screening = self.artifact("screening")
        return RunSummary(
            total_docs=len(docs),
            packed=sum(self.ws.at_least(d, "packed") for d in docs),
            reviewed=sum(self.ws.at_least(d, "reviewed") for d in docs),
            review_failures=len(screening.failures),
            screened_in=list(self._screened().values()).count("screened_in"),
            extracted=sum(self.ws.at_least(d, "extracted") for d in docs),
            accepted=sum(self.ws.status_of(d) in ("accepted", "analyzed") for d in docs),
            merged_rows=(self.artifact("merged") or merge_tables([])).row_count,
            report_path=str(self.ws.report_path) if self.ws.report_path.exists() else None,
        )


def status_text(ws: Workspace) -> str:
    """Human-readable stage/document matrix; read-only."""
    lines = [f"workspace: {ws.root}", f"direction: {ws.direction}", "", "status counts:"]
    lines += [f"  {status:<12} {count}" for status, count in ws.status_counts().items()]
    lines += ["", "documents:"] + ([] if ws.docs else ["  (none)"])
    lines += [f"  {doc_id:<24} {ws.status_of(doc_id)}" for doc_id in ws.doc_ids()]
    return "\n".join(lines) + "\n"
