"""Span tracing from outside the program, and the per-layer metrics.

``Tracer.install`` replaces each traced public function of manalyzer at
every module that binds it (``pipeline`` imports the atomic writers by
name, the packer, reviewer and extraction import the ``parse_*`` helpers by
name) and each traced method on its class. ``Tracer.restore`` puts every
original back. Spans live in memory as dicts: name, start, end, parent,
thread, document id, and a few attributes read from the call's arguments
or result. ``layer_metrics`` turns a list of spans into the per-layer
numbers; a layer's time is its self time (duration minus the same-thread
child spans it covers) unless the metric says otherwise.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import statistics
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable

from manalyzer import prompts
from manalyzer.packer import MAX_BUDGET

# Re-asks append one of these addenda as the request's last part.
REASK_PREFIXES = tuple(v for k, v in vars(prompts).items() if k.startswith("REASK_"))
STAGES = ("ingest", "pack", "review", "screen", "extract", "analyze", "report")
POOLED_STAGES = ("pack", "review", "extract")


def _text_bytes(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"bytes": len(args[1].encode("utf-8"))}


def _digest_bytes(args: tuple, kwargs: dict, result: Any) -> dict:
    total = 0
    for part in args[0].user_parts:
        if hasattr(part, "text"):
            total += len(part.text.encode("utf-8"))
        else:
            total += os.path.getsize(part.path) + len(part.caption.encode("utf-8"))
    return {"bytes": total}


def _request_attrs(args: tuple, kwargs: dict, result: Any) -> dict:
    request = args[1]
    last = request.user_parts[-1]
    reask = isinstance(getattr(last, "text", None), str) and last.text.startswith(REASK_PREFIXES)
    return {"tag": request.request_tag, "reask": reask}


def _dp_cells(args: tuple, kwargs: dict, result: Any) -> dict:
    items = args[0]
    budget = max(0, min(args[1], MAX_BUDGET))
    eligible = [it for it in items if it.weight <= budget]
    return {"dp_cells": (len(eligible) + 1) * (sum(it.importance for it in eligible) + 1)}


def _accepted(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"accepted": bool(result[0].accepted)}


def _merged_rows(args: tuple, kwargs: dict, result: Any) -> dict:
    return {"rows": result.row_count}


def _doc_arg(args: tuple, kwargs: dict) -> str | None:
    return args[0].doc_id


def _doc_kwarg(args: tuple, kwargs: dict) -> str | None:
    return kwargs.get("doc_id") or None


def _doc_path(args: tuple, kwargs: dict) -> str | None:
    return Path(args[0]).stem


def _doc_mark(args: tuple, kwargs: dict) -> str | None:
    return args[1]


# (module, attribute) -> (span name, describe(args, kwargs, result), doc(args, kwargs)).
# A dotted attribute names a method on a class of that module.
TARGETS: dict[tuple[str, str], tuple[str, Callable | None, Callable | None]] = {
    ("workspace", "Workspace.mark"): ("workspace.mark", None, _doc_mark),
    ("workspace", "Workspace.save"): ("workspace.save", None, None),
    ("workspace", "Workspace.load"): ("workspace.load", None, None),
    ("workspace", "atomic_write_json"): ("workspace.atomic_write", None, None),
    ("workspace", "atomic_write_text"): ("workspace.atomic_write", _text_bytes, None),
    ("gateway", "Gateway.complete"): ("gateway.complete", _request_attrs, None),
    ("gateway", "ScriptedProvider.complete"): ("gateway.provider", None, None),
    ("gateway", "ScriptedProvider.load_script"): ("gateway.load_script", None, None),
    ("gateway", "digest_request"): ("gateway.digest", _digest_bytes, None),
    ("pipeline", "Pipeline.ingest_dir"): ("pipeline.ingest", None, None),
    ("pipeline", "Pipeline.stage_pack"): ("pipeline.pack", None, None),
    ("pipeline", "Pipeline.stage_review"): ("pipeline.review", None, None),
    ("pipeline", "Pipeline.stage_screen"): ("pipeline.screen", None, None),
    ("pipeline", "Pipeline.stage_extract"): ("pipeline.extract", None, None),
    ("pipeline", "Pipeline.stage_analyze"): ("pipeline.analyze", None, None),
    ("pipeline", "Pipeline.stage_report"): ("pipeline.report", None, None),
    ("packer", "pack_document"): ("packer.pack_document", None, _doc_arg),
    ("packer", "score_paragraphs"): ("packer.score", None, None),
    ("packer", "select_paragraphs"): ("packer.select", _dp_cells, None),
    ("packer", "packed_text"): ("packer.packed_text", None, None),
    ("collector", "ingest_parsed"): ("collector.ingest_parsed", None, _doc_path),
    ("collector", "save_parsed"): ("collector.save_parsed", None, None),
    ("reviewer", "review_independent"): ("reviewer.independent", None, None),
    ("reviewer", "review_batch"): ("reviewer.batch", None, None),
    ("reviewer", "screen"): ("reviewer.screen", None, None),
    ("reviewer", "classification_metrics"): ("reviewer.metrics", None, None),
    ("extraction", "convert_table_image"): ("extraction.convert", None, None),
    ("extraction", "summarize_figure"): ("extraction.figure", None, None),
    ("extraction", "relevance_mask"): ("extraction.mask", None, None),
    ("extraction", "run_feedback_loop"): ("extraction.loop", _accepted, _doc_kwarg),
    ("extraction", "extract_to_table"): ("extraction.extract", None, None),
    ("extraction", "validate_provenance"): ("extraction.validate", None, None),
    ("extraction", "check_table"): ("extraction.check", None, None),
    ("analysis", "merge_tables"): ("analysis.merge", _merged_rows, None),
    ("analysis", "plan_analysis"): ("analysis.plan", None, None),
    ("analysis", "run_analysis"): ("analysis.run", None, None),
    ("report", "render_report"): ("report.render", None, None),
    ("evaluation", "evaluate_extraction"): ("evaluation.evaluate", None, None),
    ("evaluation", "load_gold"): ("evaluation.load_gold", None, None),
    ("evaluation", "aggregate"): ("evaluation.aggregate", None, None),
}
PARSING_FUNCTIONS = (
    "parse_all_markdown_tables", "parse_markdown_table", "render_markdown_table",
    "normalize_numeric", "render_numeric", "parse_real_list", "parse_string_groups",
    "parse_int_reply", "parse_labeled_score", "parse_delimited_blocks", "parse_check_reply",
)
for _name in PARSING_FUNCTIONS:
    TARGETS[("parsing", _name)] = ("parsing.call", None, None)


class Tracer:
    """Records spans for calls into manalyzer while installed."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._stage: int | None = None
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------

    def install(self, provider_classes: tuple[type, ...] = ()) -> None:
        """Wrap every target at every binding site. ``provider_classes`` are
        further providers whose ``complete`` counts as provider time."""
        loaded = {
            name: module for name, module in list(sys.modules.items())
            if name.startswith("manalyzer.") and module is not None
        }
        for (module_name, attr), (span_name, describe, doc) in TARGETS.items():
            module = loaded[f"manalyzer.{module_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                self._wrap_method(getattr(module, cls_name), method, span_name, describe, doc)
                continue
            original = getattr(module, attr)
            wrapper = self._wrapper(original, span_name, describe, doc)
            for site in loaded.values():
                for name, value in list(vars(site).items()):
                    if value is original:
                        self._patch(site, name, wrapper)
        for cls in provider_classes:
            self._wrap_method(cls, "complete", "gateway.provider", None, None)

    def _wrap_method(self, cls: type, name: str, span_name: str,
                     describe: Callable | None, doc: Callable | None) -> None:
        raw = cls.__dict__[name]
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrapper(raw.__func__, span_name, describe, doc, skip=1))
        else:
            wrapped = self._wrapper(raw, span_name, describe, doc, skip=0)
        self._patch(cls, name, wrapped)

    def _patch(self, owner: object, name: str, value: object) -> None:
        self._patches.append((owner, name, getattr(owner, name) if not isinstance(owner, type)
                              else owner.__dict__[name]))
        setattr(owner, name, value)

    def restore(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- recording ------------------------------------------------------

    def _wrapper(self, fn: Callable, span_name: str, describe: Callable | None,
                 doc_of: Callable | None, skip: int = 0) -> Callable:
        tracer = self
        stage = span_name.startswith("pipeline.")

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            local = tracer._local
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
                local.doc = None
            call_args = args[skip:]
            doc = doc_of(call_args, kwargs) if doc_of else None
            if stack:
                parent = stack[-1]
                doc = doc or parent["doc"]
            else:
                parent = None
                if doc:
                    local.doc = doc
                doc = doc or local.doc
            span = {
                "id": next(tracer._ids),
                "name": span_name,
                "parent": parent["id"] if parent else tracer._stage,
                "same_thread_parent": parent is not None,
                "thread": threading.get_ident(),
                "doc": doc,
                "start": time.perf_counter(),
            }
            stack.append(span)
            if stage:
                outer_stage, tracer._stage = tracer._stage, span["id"]
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                if stage:
                    tracer._stage = outer_stage
                tracer.spans.append(span)
            # Outside the span, so reading attributes does not count as layer time.
            if describe is not None:
                span.update(describe(call_args, kwargs, result))
            return result

        return traced

    def take(self) -> list[dict]:
        spans, self.spans = self.spans, []
        return spans


# -- metrics -------------------------------------------------------------------

def _dur(span: dict) -> float:
    return span["end"] - span["start"]


def layer_metrics(spans: list[dict], workers: int) -> dict[str, float]:
    """Per-layer numbers for one traced run (see the module docstring)."""
    by_id = {s["id"]: s for s in spans}
    child_time: dict[int, float] = {}
    first_child: dict[int, float] = {}
    for s in spans:
        if s["same_thread_parent"]:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + _dur(s)
            first_child[s["parent"]] = min(first_child.get(s["parent"], s["start"]), s["start"])

    def self_time(s: dict) -> float:
        return _dur(s) - child_time.get(s["id"], 0.0)

    def named(name: str) -> list[dict]:
        return [s for s in spans if s["name"] == name]

    def self_sum(name: str) -> float:
        return sum(self_time(s) for s in named(name))

    def ancestors(s: dict):
        while s["same_thread_parent"]:
            s = by_id[s["parent"]]
            yield s

    m: dict[str, float] = {}

    # workspace
    saves = named("workspace.save")
    writes = named("workspace.atomic_write")
    under_save = [w for w in writes if any(a["name"] == "workspace.save" for a in ancestors(w))]
    save_ids = {w["id"] for w in under_save}
    outer_artifacts = [
        w for w in writes if w["id"] not in save_ids
        and not (w["same_thread_parent"] and by_id[w["parent"]]["name"] == "workspace.atomic_write")
    ]
    m["workspace.marks"] = len(named("workspace.mark"))
    m["workspace.saves"] = len(saves)
    m["workspace.save_s"] = sum(_dur(s) for s in saves)
    m["workspace.manifest_bytes"] = sum(w.get("bytes", 0) for w in under_save)
    m["workspace.artifact_writes"] = len(outer_artifacts)
    m["workspace.artifact_write_s"] = sum(_dur(w) for w in outer_artifacts)
    m["workspace.load_s"] = sum(_dur(s) for s in named("workspace.load"))

    # gateway
    completes = named("gateway.complete")
    reasks = sum(1 for s in completes if s.get("reask"))
    m["gateway.calls"] = len(completes)
    tags = sorted({s["tag"] for s in completes})
    for tag in tags:
        m[f"gateway.calls.{tag}"] = sum(1 for s in completes if s["tag"] == tag)
    m["gateway.complete_s"] = self_sum("gateway.complete")
    m["gateway.provider_s"] = self_sum("gateway.provider")
    m["gateway.slot_wait_s"] = sum(first_child.get(s["id"], s["start"]) - s["start"] for s in completes)
    digests = named("gateway.digest")
    m["gateway.digests"] = len(digests)
    m["gateway.digest_s"] = self_sum("gateway.digest")
    m["gateway.digest_bytes"] = sum(s["bytes"] for s in digests)
    m["gateway.load_script_s"] = self_sum("gateway.load_script")
    m["gateway.reasks"] = reasks
    first_tries = len(completes) - reasks
    m["gateway.first_try_ratio"] = (first_tries - reasks) / first_tries if first_tries else 1.0

    # pipeline
    stage_spans = {stage: named(f"pipeline.{stage}") for stage in STAGES}
    for stage, found in stage_spans.items():
        m[f"pipeline.{stage}_s"] = sum(_dur(s) for s in found)
    packs = named("packer.pack_document")
    m["pipeline.pack_doc_max_s"] = max((_dur(s) for s in packs), default=0.0)
    extract_ids = {s["id"] for s in stage_spans["extract"]}
    extents: dict[str, list[float]] = {}
    for s in spans:
        if s["doc"] and not s["same_thread_parent"] and s["parent"] in extract_ids:
            lo_hi = extents.setdefault(s["doc"], [s["start"], s["end"]])
            lo_hi[0], lo_hi[1] = min(lo_hi[0], s["start"]), max(lo_hi[1], s["end"])
    per_doc = [hi - lo for lo, hi in extents.values()]
    m["pipeline.extract_doc_p50_s"] = statistics.median(per_doc) if per_doc else 0.0
    m["pipeline.extract_doc_max_s"] = max(per_doc, default=0.0)
    pooled_ids = {s["id"] for stage in POOLED_STAGES for s in stage_spans[stage]}
    pooled_wall = sum(_dur(s) for stage in POOLED_STAGES for s in stage_spans[stage])
    busy = sum(_dur(s) for s in spans if not s["same_thread_parent"] and s["parent"] in pooled_ids)
    m["pipeline.worker_busy_ratio"] = busy / (workers * pooled_wall) if pooled_wall else 0.0

    # packer
    scored_packs = {s["parent"] for s in named("packer.score") if s["same_thread_parent"]}
    selects = named("packer.select")
    m["packer.s"] = sum(self_sum(n) for n in (
        "packer.pack_document", "packer.score", "packer.select", "packer.packed_text"))
    m["packer.score_s"] = self_sum("packer.score")
    m["packer.select_s"] = self_sum("packer.select")
    m["packer.select_calls"] = len(selects)
    m["packer.dp_cells"] = sum(s["dp_cells"] for s in selects)
    m["packer.passthrough_docs"] = sum(1 for s in packs if s["id"] not in scored_packs)

    # collector
    m["collector.ingest_parsed_calls"] = len(named("collector.ingest_parsed"))
    m["collector.ingest_parsed_s"] = self_sum("collector.ingest_parsed")
    m["collector.save_parsed_s"] = self_sum("collector.save_parsed")

    # reviewer
    m["reviewer.independent_s"] = self_sum("reviewer.independent")
    m["reviewer.batch_s"] = self_sum("reviewer.batch")
    m["reviewer.batches"] = len(named("reviewer.batch"))
    m["reviewer.failures"] = sum(
        1 for s in named("reviewer.independent") + named("reviewer.batch")
        if s.get("error") == "ReviewFailure"
    )

    # extraction
    loops = named("extraction.loop")
    for key, name in (("convert_s", "convert"), ("figure_s", "figure"), ("mask_s", "mask"),
                      ("loop_s", "loop"), ("validate_s", "validate"), ("check_s", "check")):
        m[f"extraction.{key}"] = self_sum(f"extraction.{name}")
    m["extraction.attempts"] = len(named("extraction.extract"))
    m["extraction.accept_ratio"] = (
        sum(1 for s in loops if s.get("accepted")) / len(loops) if loops else 0.0
    )

    # parsing, analysis, report, evaluation
    m["parsing.calls"] = len(named("parsing.call"))
    m["parsing.s"] = self_sum("parsing.call")
    m["analysis.merge_s"] = self_sum("analysis.merge")
    m["analysis.plan_s"] = self_sum("analysis.plan")
    m["analysis.run_s"] = self_sum("analysis.run")
    m["analysis.merged_rows"] = max((s["rows"] for s in named("analysis.merge")), default=0)
    m["report.render_s"] = self_sum("report.render")
    m["evaluation.s"] = sum(self_sum(n) for n in (
        "evaluation.evaluate", "evaluation.load_gold", "evaluation.aggregate"))
    return m


def dump_spans(spans: list[dict], path: Path, **context: Any) -> None:
    """Append spans as JSON lines, each tagged with ``context``."""
    with path.open("a", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps({**context, **span}, sort_keys=True) + "\n")


def load_spans(paths: list[Path]) -> list[dict]:
    """Spans from several processes, with ids made unique across them."""
    spans = []
    for k, path in enumerate(paths):
        offset = (k + 1) << 40
        for line in path.read_text(encoding="utf-8").splitlines():
            span = json.loads(line)
            span["id"] += offset
            if span["parent"] is not None:
                span["parent"] += offset
            spans.append(span)
    return spans
