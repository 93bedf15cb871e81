"""Seeded synthetic inputs for the benchmark workloads.

The documents reuse the public functions of ``manalyzer.synth`` (planted
values, paragraphs, and the replies an honest model would give), but the
corpus scales past ten documents: ids carry a four-digit token and the
comparative scores are looked up through an id -> index map instead of
``DOC_IDS.index``.

Two corpora are built here:

* ``build_wide`` makes N short documents that all fit the packer budget.
  Its answering provider records every (tag, digest) -> reply pair so the
  timed run replays the script through ``ScriptedProvider``.
* ``build_deep`` makes a dozen long documents over a small budget, so the
  knapsack runs, and plants re-asks, one review failure, revision rounds
  and one never-accepted table. Everything planted is known up front,
  including the exact number of agent calls the run must make.
"""

from __future__ import annotations

import json
import math
import random
import re
import threading
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from manalyzer import prompts, synth
from manalyzer.config import PipelineConfig
from manalyzer.errors import DuplicateScriptKeyError
from manalyzer.evaluation import GoldDataPoint, save_gold
from manalyzer.gateway import AgentRequest, AgentResponse, ImagePart, ScriptedProvider, TextPart, digest_request
from manalyzer.packer import MAX_BUDGET, estimate_weight

TOKEN = re.compile(r"\bd\d{4}\b")
MAX_DOCS = 9999

# Deep workload shape. Lengths are fixed so every seed costs the same; the
# seed only moves content and which small document plays which role.
DEEP_LENGTHS = (1500, 400, 300, 250, 200, 150, 60, 60, 60, 60, 60, 60)
DEEP_BUDGET = 5000
DEEP_ROLES = ("review_failure", "screened_out", "never_accepted", "revise", "revise", "review_reask")
DEEP_REASK_PER_100 = 1  # malformed paragraph-score replies per hundred paragraphs

KEPT_S_R = 0.9
DROPPED_S_R = 0.2
MALFORMED_SCORE = "rather important, I would say"
MALFORMED_REVIEW = "Relevance looks high; reliability is fine."
_FILLER_WORDS = (
    "plots", "canopy", "nitrogen", "sowing", "harvest", "tillage", "cultivar", "drainage",
    "sampling", "moisture", "biomass", "protocol", "replicate", "transect", "weather", "station",
)


@dataclass
class Corpus:
    """A generated corpus on disk plus everything the checks compare against."""

    root: Path
    doc_ids: list[str]
    s_r: dict[str, float]
    kept: list[str]
    budget: int | None = None
    lengths: dict[str, int] = field(default_factory=dict)
    roles: dict[str, str] = field(default_factory=dict)
    malformed: set[str] = field(default_factory=set)
    knapsack: set[str] = field(default_factory=set)
    expected_calls: int = 0

    @property
    def docs_dir(self) -> Path:
        return self.root / "docs"

    @property
    def config_path(self) -> Path:
        return self.root / "config.txt"

    @property
    def gold_path(self) -> Path:
        return self.root / "gold.jsonl"

    @property
    def screening_gold_path(self) -> Path:
        return self.root / "screening_gold.txt"

    @property
    def template_path(self) -> Path:
        return self.root / "template.txt"

    def role(self, doc_id: str) -> str:
        return self.roles.get(doc_id, "normal")


def _doc_ids(rng: random.Random, n: int) -> list[str]:
    if not 1 <= n <= MAX_DOCS:
        raise ValueError(f"document count {n} outside [1, {MAX_DOCS}]")
    offset = rng.randrange(0, MAX_DOCS - n + 1)
    return [f"d{offset + i:04d}" for i in range(1, n + 1)]


def _write_doc(docs_dir: Path, doc_id: str, paragraphs: list[str]) -> None:
    table_image = f"images/{doc_id}-tbl.png"
    figure_image = f"images/{doc_id}-fig.png"
    (docs_dir / table_image).write_bytes(f"synthetic-table-image:{doc_id}".encode() * 4)
    (docs_dir / figure_image).write_bytes(f"synthetic-figure-image:{doc_id}".encode() * 4)
    payload = {
        "doc_id": doc_id,
        "title": f"Rainfall and wheat yield: field trial {doc_id}",
        "doi": None,
        "paragraphs": [{"index": i, "text": text} for i, text in enumerate(paragraphs)],
        "figures": [{
            "id": f"{doc_id}-fig",
            "caption": f"Figure 1 ({doc_id}): yield response to water supply",
            "image": figure_image,
        }],
        "tables": [{
            "id": f"{doc_id}-tbl",
            "caption": f"Table 1 ({doc_id}): seasonal rainfall and yield",
            "image": table_image,
        }],
    }
    (docs_dir / f"{doc_id}.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True), encoding="utf-8"
    )


def _write_common(corpus: Corpus, config_text: str, gold_docs: list[str]) -> None:
    corpus.template_path.write_text("\n".join(synth.TEMPLATE) + "\n", encoding="utf-8")
    corpus.config_path.write_text(config_text, encoding="utf-8")
    points = []
    for doc_id in gold_docs:
        v = synth.planted_values(doc_id)
        points.extend([
            GoldDataPoint(doc_id, 1, v["y1"], "t/ha", "season-one yield, prose"),
            GoldDataPoint(doc_id, 1, v["r1"], "mm", "season-one rainfall, prose"),
            GoldDataPoint(doc_id, 2, v["y2"], "t/ha", "season-two yield, table"),
            GoldDataPoint(doc_id, 2, v["r2"], "mm", "season-two rainfall, table"),
            GoldDataPoint(doc_id, 3, v["y1"] + v["y2"], "t/ha", "summed two-season yield"),
        ])
    save_gold(points, corpus.gold_path)
    kept = set(corpus.kept)
    lines = [f"{d} {1 if d in kept else 0}" for d in corpus.doc_ids]
    corpus.screening_gold_path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# -- wide --------------------------------------------------------------------

WIDE_CONFIG = "provider.kind = scripted\nprovider.script = script.jsonl\n"


def build_wide(root: Path, n: int, seed: int) -> Corpus:
    """N short documents; comparative scores cycle through ``synth.S_R``
    from a seeded rotation, so six in ten documents are kept."""
    rng = random.Random(seed)
    doc_ids = _doc_ids(rng, n)
    shift = rng.randrange(len(synth.S_R))
    s_r = {d: synth.S_R[(k + shift) % len(synth.S_R)] for k, d in enumerate(doc_ids)}
    kept = [d for d in doc_ids if s_r[d] * 14 >= 8.0]
    corpus = Corpus(root=root, doc_ids=doc_ids, s_r=s_r, kept=kept)
    (corpus.docs_dir / "images").mkdir(parents=True, exist_ok=True)
    for doc_id in doc_ids:
        _write_doc(corpus.docs_dir, doc_id, synth.doc_paragraphs(doc_id))
    _write_common(corpus, WIDE_CONFIG, kept)
    return corpus


def _doc_of(request: AgentRequest) -> str:
    for part in request.user_parts:
        text = part.caption if isinstance(part, ImagePart) else part.text
        match = TOKEN.search(text)
        if match:
            return match.group(0)
    raise ValueError(f"no document token in {request.request_tag} request")


def _comparative_reply(request: AgentRequest, s_r: dict[str, float]) -> str:
    values = []
    for part in request.user_parts[1:]:
        assert isinstance(part, TextPart)
        match = TOKEN.search(part.text)
        if match is None:
            raise ValueError("comparative request paper without a document token")
        values.append(str(s_r[match.group(0)]))
    return "[" + ", ".join(values) + "]"


def wide_answer(corpus: Corpus) -> Callable[[AgentRequest], str]:
    """Replies computed from request content, as ``synth`` answers them."""
    fixed = {
        "independent_review": "Topic Relevance: 7\nFeasibility: 7",
        "mask": synth.MASK_REPLY,
        "check": synth.CHECK_REPLY,
        "plan": synth.PLAN_REPLY,
        "report": synth.NARRATIVE_REPLY,
    }
    per_doc = {
        "table_convert": synth.conversion_reply,
        "figure_summary": synth.figure_reply,
        "extract": synth.extract_reply,
    }

    def answer(request: AgentRequest) -> str:
        tag = request.request_tag
        if tag in fixed:
            return fixed[tag]
        if tag in per_doc:
            return per_doc[tag](_doc_of(request))
        if tag == "comparative_review":
            return _comparative_reply(request, corpus.s_r)
        raise ValueError(f"unexpected request tag {tag!r} in the wide workload")

    return answer


# -- deep --------------------------------------------------------------------

def _filler(rng: random.Random, doc_id: str, k: int) -> str:
    words = " ".join(rng.choice(_FILLER_WORDS) for _ in range(rng.randrange(14, 40)))
    return f"Note {k} on trial {doc_id}: {words}."


def _importance(text: str) -> int:
    return zlib.crc32(text.encode("utf-8")) % 7


def build_deep(root: Path, seed: int) -> Corpus:
    """Long documents over a small budget with seeded planted failures."""
    rng = random.Random(seed)
    doc_ids = _doc_ids(rng, len(DEEP_LENGTHS))
    lengths = dict(zip(doc_ids, DEEP_LENGTHS))
    small = [d for d in doc_ids if lengths[d] == min(DEEP_LENGTHS)]
    roles = dict(zip(rng.sample(small, len(DEEP_ROLES)), DEEP_ROLES))
    s_r = {d: DROPPED_S_R if roles.get(d) == "screened_out" else KEPT_S_R for d in doc_ids}
    kept = [d for d in doc_ids if roles.get(d) not in ("screened_out", "review_failure")]
    corpus = Corpus(
        root=root, doc_ids=doc_ids, s_r=s_r, kept=kept, budget=DEEP_BUDGET,
        lengths=lengths, roles=roles,
    )
    (corpus.docs_dir / "images").mkdir(parents=True, exist_ok=True)
    for doc_id in doc_ids:
        paragraphs = synth.doc_paragraphs(doc_id)
        paragraphs += [_filler(rng, doc_id, k) for k in range(len(paragraphs), lengths[doc_id])]
        fillers = paragraphs[len(synth.doc_paragraphs(doc_id)):]
        reasks = max(1, len(paragraphs) * DEEP_REASK_PER_100 // 100)
        corpus.malformed.update(rng.sample(fillers, reasks))
        _write_doc(corpus.docs_dir, doc_id, paragraphs)
        if _is_knapsack_doc(corpus, doc_id):
            corpus.knapsack.add(doc_id)
    _write_common(corpus, f"packer.budget = {DEEP_BUDGET}\n", kept)
    corpus.expected_calls = _deep_expected_calls(corpus)
    return corpus


def _is_knapsack_doc(corpus: Corpus, doc_id: str) -> bool:
    """Mirrors the packer's pass-through test: captions come off the budget."""
    raw = json.loads((corpus.docs_dir / f"{doc_id}.json").read_text(encoding="utf-8"))
    captions = [r["caption"] for r in raw["figures"] + raw["tables"]]
    effective = max(0, min(corpus.budget, MAX_BUDGET) - sum(estimate_weight(c) for c in captions))
    return sum(estimate_weight(p["text"]) for p in raw["paragraphs"]) > effective


def _deep_expected_calls(corpus: Corpus) -> int:
    config = PipelineConfig(packer_budget=DEEP_BUDGET)
    calls = 0
    for doc_id in corpus.doc_ids:
        role = corpus.role(doc_id)
        if doc_id in corpus.knapsack:
            calls += corpus.lengths[doc_id]
            calls += sum(1 for t in corpus.malformed if TOKEN.search(t).group(0) == doc_id)
        calls += 2 if role in ("review_failure", "review_reask") else 1
        if doc_id in corpus.kept:
            parts = corpus.lengths[doc_id] + 2  # paragraphs, table, figure
            attempts = {"revise": 2, "never_accepted": 3}.get(role, 1)
            calls += 2 + math.ceil(parts / config.extraction_mask_batch) + 2 * attempts
    scored = len(corpus.doc_ids) - 1  # the review failure is never batched
    calls += math.ceil(scored / config.reviewer_batch_size)
    return calls + 2  # plan and report


def _planted_relevant(doc_id: str) -> set[str]:
    paragraphs = synth.doc_paragraphs(doc_id)
    return {paragraphs[0], paragraphs[2]}


def _check_reply(overall: int, suggestion: str) -> str:
    return str({
        "Data Accuracy": overall, "Semantic Consistency": overall,
        "Data Completeness": overall, "Overall Score": overall, "Suggestion": suggestion,
    })


def _partial_extract_reply(doc_id: str) -> str:
    """The synth extraction reply without its season-two row and citations."""
    lines = synth.extract_reply(doc_id).splitlines(keepends=True)
    return "".join(ln for ln in lines if not ln.startswith("| 2 |") and "Row 2" not in ln)


def deep_answer(corpus: Corpus) -> Callable[[AgentRequest], str]:
    relevant = set().union(*(_planted_relevant(d) for d in corpus.doc_ids))
    synth_filler = {d: synth.doc_paragraphs(d) for d in corpus.doc_ids}

    def paragraph_score(request: AgentRequest) -> str:
        text = request.user_parts[0].text
        if len(request.user_parts) == 1 and text in corpus.malformed:
            return MALFORMED_SCORE
        if text in relevant:
            return "10"
        doc_id = TOKEN.search(text).group(0)
        if text in synth_filler[doc_id]:
            return "4"
        return str(_importance(text))

    def mask(request: AgentRequest) -> str:
        scores = []
        for part in request.user_parts[1:]:
            head, _, body = part.text.partition("\n")
            if "(paragraph)" not in head or body in relevant:
                scores.append("0.9")
            else:
                scores.append("0.1")
        return "[" + ", ".join(scores) + "]"

    def check(request: AgentRequest) -> str:
        doc_id = _doc_of(request)
        table = request.user_parts[-1].text
        rows = sum(1 for ln in table.splitlines() if ln.startswith("|")) - 2
        if corpus.role(doc_id) == "never_accepted":
            return _check_reply(4, "Values look transcribed, not integrated; start over.")
        if rows < 2:
            return _check_reply(5, "Add the season-two row from the table.")
        return synth.CHECK_REPLY

    def answer(request: AgentRequest) -> str:
        tag = request.request_tag
        if tag == "paragraph_score":
            return paragraph_score(request)
        if tag == "independent_review":
            role = corpus.role(_doc_of(request))
            reasked = request.user_parts[-1].text == prompts.REASK_SCORES
            if role == "review_failure" or (role == "review_reask" and not reasked):
                return MALFORMED_REVIEW
            return "Topic Relevance: 7\nFeasibility: 7"
        if tag == "comparative_review":
            return _comparative_reply(request, corpus.s_r)
        if tag == "table_convert":
            return synth.conversion_reply(_doc_of(request))
        if tag == "figure_summary":
            return synth.figure_reply(_doc_of(request))
        if tag == "mask":
            return mask(request)
        if tag == "extract":
            doc_id = _doc_of(request)
            revised = request.user_parts[-1].text.startswith("Revision feedback")
            if corpus.role(doc_id) == "revise" and not revised:
                return _partial_extract_reply(doc_id)
            return synth.extract_reply(doc_id)
        if tag == "check":
            return check(request)
        if tag == "plan":
            return synth.PLAN_REPLY
        if tag == "report":
            return synth.NARRATIVE_REPLY
        raise ValueError(f"unexpected request tag {tag!r} in the deep workload")

    return answer


class AnsweringProvider:
    """In-process provider: replies come from ``answer``, after a fixed
    simulated latency. With ``record`` set, every pair served is registered
    into a ScriptedProvider for later replay."""

    provider_id = "synthetic"

    def __init__(self, answer: Callable[[AgentRequest], str], latency_s: float = 0.0,
                 record: bool = False) -> None:
        self.answer = answer
        self.latency_s = latency_s
        self.recorded = ScriptedProvider() if record else None
        self.calls = 0
        self._lock = threading.Lock()

    def complete(self, request: AgentRequest) -> AgentResponse:
        if self.latency_s:
            time.sleep(self.latency_s)
        text = self.answer(request)
        with self._lock:
            self.calls += 1
        if self.recorded is not None:
            try:
                self.recorded.register_script(request.request_tag, digest_request(request), text)
            except DuplicateScriptKeyError:
                pass
        return AgentResponse(raw_text=text, provider_id=self.provider_id)


class DelayedProvider:
    """Replays through the wrapped ScriptedProvider after a fixed latency
    per call, as a live provider would answer."""

    provider_id = ScriptedProvider.provider_id

    def __init__(self, inner: ScriptedProvider, latency_s: float) -> None:
        self.inner = inner
        self.latency_s = latency_s

    def complete(self, request: AgentRequest) -> AgentResponse:
        time.sleep(self.latency_s)
        return self.inner.complete(request)
