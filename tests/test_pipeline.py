"""Orchestration: stage sequencing, template pinning, resume semantics, and
the end-to-end run over the bundled scripted corpus."""

import contextlib
import dataclasses
import json
import re
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from manalyzer import extraction, gateway, pipeline, prompts, synth, workspace
from manalyzer.analysis import MergedTable
from manalyzer.config import PipelineConfig
from manalyzer.errors import ManalyzerError, StageFailure, TransportError
from manalyzer.gateway import AgentResponse, ScriptedProvider, digest_request
from manalyzer.pipeline import Pipeline, build_provider, load_template, status_text
from manalyzer.workspace import Workspace

from helpers import Killed, kill_after_commit, register_for, run_cli, tree

DIRECTION = "mini direction"


def write_mini_doc(source, doc_id, texts):
    (source / f"{doc_id}.json").write_text(
        json.dumps({
            "doc_id": doc_id,
            "title": f"Study {doc_id}",
            "doi": None,
            "paragraphs": [{"index": i, "text": t} for i, t in enumerate(texts)],
            "figures": [],
            "tables": [],
        }),
        encoding="utf-8",
    )


@pytest.fixture
def mini(tmp_path):
    """Two tiny image-free documents, ingested into a fresh workspace."""
    source = tmp_path / "source"
    source.mkdir()
    write_mini_doc(source, "ma", ["Alpha finding one.", "Alpha finding two."])
    write_mini_doc(source, "mb", ["Beta finding one.", "Beta finding two."])
    ws = Workspace.init(tmp_path / "run", DIRECTION, PipelineConfig())
    provider = ScriptedProvider()
    pipe = Pipeline(ws, PipelineConfig(), provider)
    pipe.ingest_dir(source)
    return pipe, provider


def screen_in(ws, config):
    """Pack, review and screen the workspace's documents with replies that
    keep each one, so that extract takes them all."""
    screener = Pipeline(ws, config, ContentAnsweringProvider())
    screener.stage_pack()
    screener.stage_review()
    screener.stage_screen()


# -- provider construction -------------------------------------------------


def test_build_provider_default_is_empty_scripted(tmp_path):
    provider = build_provider(PipelineConfig(), tmp_path)
    assert isinstance(provider, ScriptedProvider)
    assert Counter(provider.calls) == {}


def test_build_provider_resolves_relative_script(tmp_path):
    recorded = ScriptedProvider()
    request = prompts.report_request("t", "s")
    register_for(recorded, request, "narrative")
    recorded.save_script(tmp_path / "s.jsonl")
    provider = build_provider(
        PipelineConfig(provider_script="s.jsonl"), tmp_path
    )
    assert provider.complete(request).raw_text == "narrative"


def test_build_provider_rejects_unknown_kind(tmp_path):
    with pytest.raises(ValueError, match="unknown provider.kind 'live'"):
        build_provider(PipelineConfig(provider_kind="live"), tmp_path)


# -- template handling -------------------------------------------------------


def test_load_template_skips_comments(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("# cols\nseason\n\nrainfall mm\n", encoding="utf-8")
    assert load_template(path) == ["season", "rainfall mm"]


def test_load_template_rejects_empty(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("# nothing\n", encoding="utf-8")
    with pytest.raises(ValueError, match="no columns"):
        load_template(path)


def test_template_pinned_to_workspace(mini):
    pipe, _ = mini
    with pytest.raises(ValueError, match="no extraction template"):
        pipe.load_stored_template()
    pipe.store_template(["a", "b"])
    assert pipe.load_stored_template() == ["a", "b"]
    pipe.store_template(["a", "b"])  # idempotent
    with pytest.raises(ValueError, match="template differs"):
        pipe.store_template(["a", "c"])


# -- ingest ------------------------------------------------------------------


def test_ingest_corpus_copies_images(tmp_path, corpus_dir):
    ws = Workspace.init(tmp_path / "run", synth.DIRECTION, PipelineConfig())
    pipe = Pipeline(ws, PipelineConfig(), ScriptedProvider())
    ids = pipe.ingest_dir(corpus_dir / "docs")
    assert ids == [f"d{i:02d}" for i in range(1, 11)]
    assert all(ws.status_of(d) == "parsed" for d in ids)
    copied = sorted(p.name for p in (ws.root / "images").iterdir())
    original = sorted(p.name for p in (corpus_dir / "docs" / "images").iterdir())
    assert copied == original


def test_ingest_killed_mid_copy_leaves_no_torn_image(tmp_path, corpus_dir, monkeypatch):
    ws = Workspace.init(tmp_path / "run", synth.DIRECTION, PipelineConfig())
    pipe = Pipeline(ws, PipelineConfig(), ScriptedProvider())
    write_bytes = Path.write_bytes

    def killed_copy(path, data):
        if "images" not in path.parts:
            return write_bytes(path, data)
        write_bytes(path, data[:16])
        monkeypatch.setattr(Path, "write_bytes", write_bytes)
        raise Killed(path)

    monkeypatch.setattr(Path, "write_bytes", killed_copy)
    with pytest.raises(Killed):
        pipe.ingest_dir(corpus_dir / "docs")
    pipe.ingest_dir(corpus_dir / "docs")
    for image in sorted((corpus_dir / "docs" / "images").iterdir()):
        assert (ws.root / "images" / image.name).read_bytes() == image.read_bytes(), image.name


def test_ingest_is_repeatable(mini, tmp_path):
    pipe, _ = mini
    assert pipe.ingest_dir(tmp_path / "source") == ["ma", "mb"]
    assert pipe.ws.status_of("ma") == "parsed"


# -- pack and review over the mini workspace ---------------------------------


def test_pack_under_budget_needs_no_calls(mini):
    pipe, provider = mini
    pipe.stage_pack()
    assert Counter(provider.calls) == {}
    payload = json.loads(
        (pipe.ws.dir("packed") / "ma.json").read_text(encoding="utf-8")
    )
    assert payload["selected_indices"] == [0, 1]
    assert "Alpha finding one." in payload["text"]
    assert pipe.ws.status_of("ma") == "packed"


def test_review_isolates_failed_papers(mini):
    pipe, provider = mini
    pipe.stage_pack()
    text_of = {
        d: json.loads(
            (pipe.ws.dir("packed") / f"{d}.json").read_text(encoding="utf-8")
        )["text"]
        for d in ("ma", "mb")
    }

    good = prompts.independent_review_request(DIRECTION, text_of["ma"])
    register_for(provider, good, "Topic Relevance: 7\nFeasibility: 7")
    bad = prompts.independent_review_request(DIRECTION, text_of["mb"])
    register_for(provider, bad, "no scores here")
    register_for(provider, bad.with_addendum(prompts.REASK_SCORES), "still nothing")
    # Only the reviewable paper reaches the comparative batch.
    batch = prompts.comparative_review_request(DIRECTION, [text_of["ma"]])
    register_for(provider, batch, "[0.8]")

    pipe.stage_review()
    assert pipe.ws.status_of("ma") == "reviewed"
    assert pipe.ws.status_of("mb") == "reviewed"

    records, failures = pipe.load_review_records()
    assert [r.doc_id for r in records] == ["ma"]
    assert records[0].final == pytest.approx(11.2)
    assert records[0].kept
    assert [f.doc_id for f in failures] == ["mb"]

    pipe.stage_screen()
    screening = json.loads(
        (pipe.ws.dir("reviews") / "screening.json").read_text(encoding="utf-8")
    )
    assert screening["kept"] == ["ma"]
    assert screening["failures"] == ["mb"]
    assert pipe.ws.status_of("ma") == "screened_in"
    assert pipe.ws.status_of("mb") == "screened_out"


def test_run_requires_template(mini):
    pipe, _ = mini
    with pytest.raises(ValueError, match="no extraction template"):
        pipe.run(None)


def test_stage_error_becomes_stage_failure(tmp_path):
    source = tmp_path / "source"
    source.mkdir()
    write_mini_doc(source, "ma", ["one", "two"])
    config = PipelineConfig(packer_budget=1)  # forces scoring, which is unscripted
    ws = Workspace.init(tmp_path / "run", DIRECTION, config)
    pipe = Pipeline(ws, config, ScriptedProvider())
    pipe.ingest_dir(source)
    pipe.store_template(["a"])
    with pytest.raises(StageFailure, match="stage 'pack' failed") as exc_info:
        pipe.run(None)
    assert exc_info.value.stage == "pack"


# -- fan-out inside a document ------------------------------------------------


class ContentAnsweringProvider(ScriptedProvider):
    """Replies computed from the request content, recorded in ``calls``.

    Paragraph i is scored ``i % 11``, except that i % 6 == 0 gets two
    unusable replies (default importance) and i % 6 == 1 gets an
    out-of-range score and then 3 on the re-ask. The mask batch holding
    paragraph 10 first gets a reply of the wrong length."""

    def complete(self, request):
        key = (request.request_tag, digest_request(request))
        with self._lock:
            self.calls.append(key)
        return AgentResponse(raw_text=self._answer(request), provider_id="answering")

    @staticmethod
    def _answer(request):
        tag = request.request_tag
        texts = [part.text for part in request.user_parts]
        reask = texts[-1].startswith((prompts.REASK_INTEGER, prompts.REASK_LIST))
        if tag == "paragraph_score":
            i = int(re.search(r"Finding (\d+)\.", texts[0]).group(1))
            if i % 6 == 0:
                return "no idea"
            if i % 6 == 1:
                return "3" if reask else "25"
            return str(i % 11)
        if tag == "mask":
            scored = texts[1:-1] if reask else texts[1:]
            if not reask and "Finding 10." in scored[0]:
                return "[0.9]"
            return "[" + ", ".join("0.9" if k % 2 else "0.2" for k in range(len(scored))) + "]"
        if tag == "independent_review":
            return "Topic Relevance: 7\nFeasibility: 7"
        if tag == "comparative_review":
            return "[0.9]"
        if tag == "extract":
            return (
                "| rainfall mm |\n| --- |\n| 401 |\n\n[The Start of Explanation]\n"
                "1. The number 401: Comes from Part 1, Row 1, Column 1.\n"
                "[The End of Explanation]\n"
            )
        if tag == "check":
            return synth.CHECK_REPLY
        return "Narrative."


def test_fan_out_matches_one_call_in_flight(tmp_path):
    source = tmp_path / "source"
    source.mkdir()
    write_mini_doc(source, "long", [
        f"Finding {i}. Rainfall reached {400 + i} mm while yield held at {5 + i / 10} t/ha."
        for i in range(24)
    ])
    config = PipelineConfig(packer_budget=150)
    trees, calls = [], []
    for in_flight in (1, 4):
        # One config snapshot for both workspaces; only the gateway differs.
        ws = Workspace.init(tmp_path / f"run{in_flight}", DIRECTION, config)
        provider = ContentAnsweringProvider()
        pipe = Pipeline(
            ws, dataclasses.replace(config, provider_max_in_flight=in_flight), provider
        )
        pipe.ingest_dir(source)
        pipe.run(["rainfall mm"])
        trees.append(tree(ws.root))
        calls.append(Counter(provider.calls))

    assert pipe.ws.status_of("long") == "analyzed"
    assert trees[0] == trees[1]
    assert calls[0] == calls[1]
    tags = Counter(tag for tag, _ in calls[0].elements())
    # 24 paragraphs, 4 of each re-asked kind; 3 mask batches, one re-asked.
    assert tags["paragraph_score"] == 24 + 4 + 4
    assert tags["mask"] == 3 + 1
    packed = json.loads(trees[1]["packed/long.json"])
    assert 0 < len(packed["selected_indices"]) < 24


class MissingScores(ContentAnsweringProvider):
    """Misses every paragraph score whose paragraph holds `marker`, and
    records the paragraphs it did score."""

    def __init__(self, marker=None):
        super().__init__()
        self.marker = marker
        self.scored = []

    def complete(self, request):
        if request.request_tag == "paragraph_score":
            text = request.user_parts[0].text
            if self.marker and self.marker in text:
                raise ManalyzerError(f"no score for {text[:20]!r}")
            with self._lock:
                self.scored.append(text)
        return super().complete(request)


def test_pack_keeps_finished_documents_when_another_fails(tmp_path):
    source = tmp_path / "source"
    source.mkdir()
    for doc_id, name in (("ma", "Alpha"), ("mb", "Beta")):
        write_mini_doc(source, doc_id, [
            f"Finding {i}. {name} rainfall reached {400 + i} mm in trial {i}." for i in range(12)
        ])
    config = PipelineConfig(packer_budget=100)
    ws = Workspace.init(tmp_path / "run", DIRECTION, config)
    pipe = Pipeline(ws, config, MissingScores("Alpha"))
    pipe.ingest_dir(source)
    with pytest.raises(StageFailure, match="stage 'pack' failed"):
        pipe.run(["rainfall mm"])
    assert ws.status_of("ma") == "parsed"
    assert ws.status_of("mb") == "packed"
    assert (ws.dir("packed") / "mb.json").exists()
    # The failed stage wrote the manifest, so `status` shows mb packed.
    assert Workspace.load(ws.root).status_of("mb") == "packed"

    provider = MissingScores()
    Pipeline(Workspace.load(ws.root), config, provider).run(None)
    assert provider.scored and all("Alpha" in text for text in provider.scored)


def test_kill_at_the_first_packed_mark_repeats_no_paragraph_score(tmp_path):
    source = tmp_path / "source"
    source.mkdir()
    for doc_id, name in (("ma", "Alpha"), ("mb", "Beta"), ("mc", "Gamma")):
        write_mini_doc(source, doc_id, [
            f"Finding {i}. {name} rainfall reached {400 + i} mm in trial {i}." for i in range(12)
        ])
    # Below every document's weight, on one worker, which the kill stops
    # before it takes more than one more document.
    config = PipelineConfig(packer_budget=100, max_concurrency=1)

    def ingested(run, provider):
        pipe = Pipeline(Workspace.init(tmp_path / run, DIRECTION, config), config, provider)
        pipe.ingest_dir(source)
        return pipe

    clean = ingested("clean", ContentAnsweringProvider())
    clean.stage_pack()
    killed = ContentAnsweringProvider()
    pipe = ingested("kill", killed)
    with pytest.MonkeyPatch.context() as patch:
        kill_after_commit(patch, pipe.ws.root, r"packed/.*\.json", 0)
        with pytest.raises(Killed):
            pipe.stage_pack()
    provider = ContentAnsweringProvider()
    Pipeline(Workspace.load(pipe.ws.root), config, provider).stage_pack()
    assert {tag for tag, _ in killed.calls} == {"paragraph_score"}
    assert set(killed.calls) & set(provider.calls) == set()
    assert tree(pipe.ws.root / "packed") == tree(clean.ws.root / "packed")


def test_per_document_starts_no_queued_item_after_an_interrupt(mini, monkeypatch):
    pipe, _provider = mini
    started, gate = [], threading.Event()

    class GatedPool(ThreadPoolExecutor):
        # Busy items are released only once the pool shuts down, after the
        # interrupt closed the result iterator and so cancelled the queue.
        def shutdown(self, *args, **kwargs):
            gate.set()
            super().shutdown(*args, **kwargs)

    def work(item):
        started.append(item)
        if item == 0:
            raise KeyboardInterrupt
        assert gate.wait(timeout=30)
        return item

    monkeypatch.setattr(pipeline, "ThreadPoolExecutor", GatedPool)
    pipe.config = dataclasses.replace(pipe.config, max_concurrency=2)
    with pytest.raises(KeyboardInterrupt):
        pipe._per_document(work, list(range(20)))
    # The worker freed by item 0 may take item 2 before the queue is cancelled.
    assert sorted(started) in ([0, 1], [0, 1, 2])


def test_per_document_finishes_in_todo_order_then_raises_the_first_failure(mini):
    pipe, _provider = mini
    pipe.config = dataclasses.replace(pipe.config, max_concurrency=4)
    failing = {3, 6}

    def work(item):
        if item == 0:
            # Item 0 finishes last, so completion order is not todo order.
            assert later_done.wait(timeout=30)
        ran.append(item)
        if item == 5:
            later_done.set()
        if item in failing:
            raise ValueError(f"item {item}")
        return item * 10

    for expected in (pytest.raises(ValueError, match="item 3"), contextlib.nullcontext()):
        later_done, ran = threading.Event(), []
        with expected:
            assert pipe._per_document(work, list(range(8))) == [i * 10 for i in range(8)]
        assert sorted(ran) == list(range(8))
        failing = set()


# -- end-to-end over the bundled corpus --------------------------------------


def corpus_pipeline(tmp_path, corpus_dir, ingest=True):
    root, config = tmp_path / "run", PipelineConfig()
    if root.exists():
        ws = Workspace.load(root)
    else:
        ws = Workspace.init(root, synth.DIRECTION, config)
    provider = ScriptedProvider.load_script(corpus_dir / "script.jsonl")
    pipe = Pipeline(ws, config, provider)
    if ingest:
        pipe.ingest_dir(corpus_dir / "docs")
    return pipe, provider


def test_full_run_summary(tmp_path, corpus_dir):
    pipe, provider = corpus_pipeline(tmp_path, corpus_dir)
    summary = pipe.run(synth.TEMPLATE)
    assert summary.total_docs == 10
    assert summary.packed == 10
    assert summary.reviewed == 10
    assert summary.review_failures == 0
    assert summary.screened_in == 6
    assert summary.extracted == 6
    assert summary.accepted == 6
    assert summary.merged_rows == 12
    assert summary.report_path == str(pipe.ws.report_path)
    # Every scripted exchange is consumed exactly once.
    counts = Counter(provider.calls)
    assert len(counts) == 43
    assert set(counts.values()) == {1}


def test_parts_json_names_paragraphs_by_score_and_no_plan_json_is_written(tmp_path, corpus_dir):
    """A paragraph's text is only in its parse file: parts.json holds the
    converted parts, and `mask` the scores the mask replies gave, the
    paragraphs' first, by index."""
    pipe, _ = corpus_pipeline(tmp_path, corpus_dir)
    pipe.run(synth.TEMPLATE)
    extracted = pipe.load_tables()
    assert len(extracted) == 6
    for doc_id in extracted:
        parts = workspace.read_artifact(
            pipe.ws.root / "extracted" / doc_id / "parts.json", pipeline.ExtractionParts
        )
        assert all(p.origin != "text-paragraph" for p in parts.parts), doc_id
        paragraphs = [
            extraction.ConvertedPart(f"para-{p.index}", "text-paragraph", p.text)
            for p in pipe.artifact("parsed", doc_id).paragraphs
        ]
        assert len(parts.mask) == len(paragraphs) + len(parts.parts), doc_id
        assert list(parts.mask) == extraction.relevance_mask(
            paragraphs + list(parts.parts), synth.DIRECTION, pipe.gateway,
            pipe.config.extraction_mask_batch,
        ), doc_id
    assert not (pipe.ws.root / "analysis" / "plan.json").exists()


def test_finished_run_is_a_no_op(tmp_path, corpus_dir):
    pipe, _ = corpus_pipeline(tmp_path, corpus_dir)
    first = pipe.run(synth.TEMPLATE)
    report = pipe.ws.report_path.read_bytes()

    resumed, provider = corpus_pipeline(tmp_path, corpus_dir, ingest=False)
    second = resumed.run(None)
    assert Counter(provider.calls) == {}
    assert second == first
    assert resumed.ws.report_path.read_bytes() == report


def test_a_corpus_run_validates_each_extracted_table_once(tmp_path, corpus_dir, monkeypatch):
    # The feedback loop returns the violations it found; the pipeline writes
    # those rather than validating the table a second time.
    validated = []
    validate = extraction.validate_provenance

    def spy(table, *args):
        validated.append(table.doc_id)
        return validate(table, *args)

    monkeypatch.setattr(extraction, "validate_provenance", spy)
    pipe, _ = corpus_pipeline(tmp_path, corpus_dir)
    assert pipe.run(synth.TEMPLATE).accepted == 6
    assert sorted(validated) == synth.KEPT


def test_build_corpus_reproduces_the_bundled_corpus(tmp_path, corpus_dir):
    # script.jsonl is the sorted set of served (tag, digest) pairs, so this
    # also pins the set of agent calls a corpus run makes.
    assert synth.main(["--out", str(tmp_path / "corpus")]) == 0
    assert tree(tmp_path / "corpus") == tree(corpus_dir)


def test_resume_never_repeats_a_call(tmp_path, corpus_dir):
    pipe, first_provider = corpus_pipeline(tmp_path, corpus_dir)
    pipe.store_template(synth.TEMPLATE)
    pipe.stage_pack()
    pipe.stage_review()
    first_keys = set(first_provider.calls)
    assert first_keys  # the interrupted run did reach the agent

    resumed, second_provider = corpus_pipeline(tmp_path, corpus_dir, ingest=False)
    summary = resumed.run(None)
    assert summary.accepted == 6
    second_keys = set(second_provider.calls)
    assert first_keys & second_keys == set()
    assert len(first_keys) + len(second_keys) == 43


TABLE = r"extracted/.*/table\.json"  # the file whose commit records extracted


def test_each_stage_writes_the_manifest_at_most_once(tmp_path, corpus_dir, monkeypatch):
    pipe, _ = corpus_pipeline(tmp_path, corpus_dir, ingest=False)
    pipe.store_template(synth.TEMPLATE)
    writes = []
    replace = Path.replace

    def counting_replace(self, target):
        if Path(target).name == "manifest.json":
            writes.append(target)
        return replace(self, target)

    monkeypatch.setattr(Path, "replace", counting_replace)
    per_stage = {}
    for name, stage in (
        ("ingest", lambda: pipe.ingest_dir(corpus_dir / "docs")),
        ("pack", pipe.stage_pack),
        ("review", pipe.stage_review),
        ("screen", pipe.stage_screen),
        ("extract", lambda: pipe.stage_extract(synth.TEMPLATE)),
        ("analyze", lambda: pipe.stage_analyze(force=False)),
    ):
        before = len(writes)
        stage()
        per_stage[name] = len(writes) - before
    # Each stage moves between 6 and 10 documents on.
    assert per_stage == dict.fromkeys(per_stage, 1)
    assert Workspace.load(pipe.ws.root).docs == pipe.ws.docs


def test_kill_after_last_extracted_mark_resumes_without_extract_calls(tmp_path, corpus_dir):
    """A kill right after the last `table.json` commit, before extract's
    view write: the manifest still shows the last table's document
    screened in, but its status comes from the table."""
    clean, _ = corpus_pipeline(tmp_path / "clean", corpus_dir)
    clean.run(synth.TEMPLATE)
    expected = tree(clean.ws.root)

    pipe, _ = corpus_pipeline(tmp_path / "kill", corpus_dir)
    pipe.store_template(synth.TEMPLATE)
    with pytest.MonkeyPatch.context() as patch:
        tables = kill_after_commit(
            patch, pipe.ws.root, TABLE, len(synth.KEPT) - 1
        )
        with pytest.raises(Killed):
            pipe.run(None)
    last = tables[-1].parent.name
    assert Workspace.load(pipe.ws.root).status_of(last) == "screened_in"

    resumed, provider = corpus_pipeline(tmp_path / "kill", corpus_dir, ingest=False)
    assert resumed.statuses()[last] == "accepted"
    resumed.run(None)
    extract_tags = {"table_convert", "figure_summary", "mask", "extract", "check"}
    assert [key for key in provider.calls if key[0] in extract_tags] == []
    assert tree(resumed.ws.root) == expected


def test_status_right_after_a_kill_shows_what_the_artifacts_record(tmp_path, corpus_dir):
    pipe, _ = corpus_pipeline(tmp_path, corpus_dir)
    pipe.store_template(synth.TEMPLATE)
    with pytest.MonkeyPatch.context() as patch:
        tables = kill_after_commit(patch, pipe.ws.root, TABLE, 2)
        with pytest.raises(Killed):
            pipe.run(None)
    result = run_cli(["--workspace", pipe.ws.root, "status"])
    assert result.exit_code == 0, result.stderr
    shown = dict(line.split() for line in result.stdout.split("documents:\n")[1].splitlines())
    assert {shown[path.parent.name] for path in tables[:3]} <= {"accepted", "unaccepted"}


class DownAt(ContentAnsweringProvider):
    """Fails every attempt of the calls tagged `tag` with `error`."""

    def __init__(self, tag, error=TransportError):
        super().__init__()
        self.tag, self.error = tag, error

    def complete(self, request):
        if request.request_tag == self.tag:
            raise self.error(f"no {self.tag} reply")
        return super().complete(request)


@pytest.fixture
def two_sources(tmp_path):
    """The source folders of the mini documents `ma` and `mb`, by doc_id."""
    sources = {}
    for doc_id, first in (("ma", 1), ("mb", 5)):
        sources[doc_id] = tmp_path / doc_id
        sources[doc_id].mkdir()
        write_mini_doc(sources[doc_id], doc_id, [
            f"Finding {first}. Rainfall reached 401 mm.",
            f"Finding {first + 2}. Rainfall reached 401 mm again.",
        ])
    return sources


def test_a_failed_reanalysis_leaves_no_stale_results_beside_the_new_merged_table(
        tmp_path, two_sources):
    """After a finished analysis of `ma`, `mb` is ingested and the second
    analysis fails at its plan call: no document is analyzed, and `report`
    renders the new merged table with no results, as after a first
    analysis that failed."""
    config, sources = PipelineConfig(reviewer_batch_size=1), two_sources

    def reported(root):
        pipe = Pipeline(Workspace.load(root), config, ContentAnsweringProvider())
        pipe.stage_report(force=True)
        return pipe.ws.report_path.read_bytes()

    again = Pipeline(Workspace.init(tmp_path / "again", DIRECTION, config), config,
                     ContentAnsweringProvider())
    again.ingest_dir(sources["ma"])
    again.run(["rainfall mm"])
    assert again.ws.status_of("ma") == "analyzed"
    again = Pipeline(Workspace.load(again.ws.root), config, DownAt("plan", ManalyzerError))
    again.ingest_dir(sources["mb"])
    with pytest.raises(StageFailure, match="stage 'analyze' failed"):
        again.run(None)
    assert not (again.ws.dir("analysis") / "results.json").exists()
    merged = json.loads((again.ws.dir("analysis") / "merged.json").read_text(encoding="utf-8"))
    assert [row[0] for row in merged["rows"]] == ["ma", "mb"]
    result = run_cli(["--workspace", again.ws.root, "status"])
    assert re.findall(r"(m[ab]) +(\w+)", result.stdout) == [("ma", "accepted"), ("mb", "accepted")]

    once = Pipeline(Workspace.init(tmp_path / "once", DIRECTION, config), config,
                    DownAt("plan", ManalyzerError))
    for source in sources.values():
        once.ingest_dir(source)
    with pytest.raises(StageFailure, match="stage 'analyze' failed"):
        once.run(["rainfall mm"])
    assert reported(again.ws.root) == reported(once.ws.root)


@pytest.mark.parametrize("tag, stage, asked", [
    ("plan", "analyze", ["plan", "report"]), ("report", "report", ["report"])], ids=["plan", "report"])
def test_an_outage_after_a_finished_run_leaves_no_stale_report(
        tag, stage, asked, tmp_path, two_sources, monkeypatch):
    """An outage at the `tag` call, once `mb` joins a finished run on `ma`, fails
    the run; a resume asks again and leaves the tree a run with no outage leaves."""
    monkeypatch.setattr(gateway, "BACKOFF_S", (0.0,))
    config, healthy = PipelineConfig(reviewer_batch_size=1), ContentAnsweringProvider()
    for name, provider, ends in (
            ("clean", healthy, contextlib.nullcontext()),
            ("down", DownAt(tag), pytest.raises(StageFailure, match=f"stage '{stage}' failed"))):
        pipe = Pipeline(Workspace.init(tmp_path / name, DIRECTION, config), config, healthy)
        pipe.ingest_dir(two_sources["ma"])
        pipe.run(["rainfall mm"])
        pipe = Pipeline(Workspace.load(pipe.ws.root), config, provider)
        pipe.ingest_dir(two_sources["mb"])
        with ends:
            pipe.run(None)
    healthy.calls.clear()
    Pipeline(Workspace.load(pipe.ws.root), config, healthy).run(None)
    assert [call[0] for call in healthy.calls] == asked
    assert tree(pipe.ws.root) == tree(tmp_path / "clean")


class MissingBatch(ContentAnsweringProvider):
    """Misses the comparative review of every batch holding `marker`."""

    def __init__(self, marker):
        super().__init__()
        self.marker = marker

    def complete(self, request):
        if request.request_tag == "comparative_review" and any(
            self.marker in part.text for part in request.user_parts
        ):
            raise ManalyzerError("no comparative review scripted")
        return super().complete(request)


def test_review_batches_fan_out_and_record_around_a_failed_batch(tmp_path):
    source = tmp_path / "source"
    source.mkdir()
    for doc_id, name in (("ma", "Alpha"), ("mb", "Beta"), ("mc", "Gamma")):
        write_mini_doc(source, doc_id, [f"{name} finding one.", f"{name} finding two."])
    config = PipelineConfig(reviewer_batch_size=1)  # three batches
    ws = Workspace.init(tmp_path / "run", DIRECTION, config)
    pipe = Pipeline(ws, config, MissingBatch("Beta"))
    pipe.ingest_dir(source)
    with pytest.raises(StageFailure, match="stage 'review' failed") as exc_info:
        pipe.run(["rainfall mm"])
    assert exc_info.value.stage == "review"
    assert [ws.status_of(d) for d in ("ma", "mb", "mc")] == ["reviewed", "packed", "reviewed"]
    records = {
        d: json.loads((ws.dir("reviews") / f"{d}.json").read_text(encoding="utf-8"))
        for d in ("ma", "mc")
    }
    assert {d: r["batch_id"] for d, r in records.items()} == {"ma": 0, "mc": 2}
    assert not (ws.dir("reviews") / "mb.json").exists()

    provider = ContentAnsweringProvider()
    resumed = Pipeline(Workspace.load(ws.root), config, provider)
    resumed.stage_review()
    packed = json.loads((ws.dir("packed") / "mb.json").read_text(encoding="utf-8"))
    batch_1 = prompts.comparative_review_request(DIRECTION, [packed["text"]])
    assert provider.calls == [("comparative_review", digest_request(batch_1))]
    assert resumed.ws.status_of("mb") == "reviewed"
    assert json.loads((ws.dir("reviews") / "mb.json").read_text(encoding="utf-8"))["batch_id"] == 1


def test_extract_keeps_finished_documents_when_another_fails(tmp_path, corpus_dir):
    first = synth.KEPT[0]
    lines = (corpus_dir / "script.jsonl").read_text(encoding="utf-8").splitlines()
    missing = [
        line for line in lines
        if json.loads(line)["response"] != synth.extract_reply(first)
    ]
    assert len(missing) < len(lines)
    script = tmp_path / "missing.jsonl"
    script.write_text("\n".join(missing) + "\n", encoding="utf-8")

    config = PipelineConfig()
    ws = Workspace.init(tmp_path / "run", synth.DIRECTION, config)
    pipe = Pipeline(ws, config, ScriptedProvider.load_script(script))
    pipe.ingest_dir(corpus_dir / "docs")
    with pytest.raises(StageFailure, match="stage 'extract' failed"):
        pipe.run(synth.TEMPLATE)
    assert ws.status_of(first) == "screened_in"
    assert all(ws.status_of(d) == "accepted" for d in synth.KEPT if d != first)

    resumed, provider = corpus_pipeline(tmp_path, corpus_dir, ingest=False)
    resumed.run(None)
    tags = Counter(tag for tag, _ in provider.calls)
    assert (tags["extract"], tags["check"]) == (1, 1)  # the first document's only


def test_empty_table_reply_is_one_call_and_a_warning(tmp_path):
    source = tmp_path / "source"
    source.mkdir()
    texts = ["Alpha finding one.", "Alpha finding two."]
    write_mini_doc(source, "ma", texts)
    raw = json.loads((source / "ma.json").read_text(encoding="utf-8"))
    raw["tables"] = [{"id": "t1", "caption": "Outcomes", "image": "t1.png"}]
    (source / "ma.json").write_text(json.dumps(raw), encoding="utf-8")
    (source / "t1.png").write_bytes(b"table pixels")

    provider = ScriptedProvider()
    register_for(provider, prompts.table_convert_request(str(source / "t1.png"), "Outcomes"), "")
    rendered = [
        extraction.render_part(
            extraction.ConvertedPart(f"para-{i}", "text-paragraph", text), i + 1
        )
        for i, text in enumerate(texts)
    ]
    register_for(provider, prompts.mask_request(DIRECTION, rendered), "[0.0, 0.0]")
    config = PipelineConfig()
    ws = Workspace.init(tmp_path / "run", DIRECTION, config)
    pipe = Pipeline(ws, config, provider)
    pipe.ingest_dir(source)
    screen_in(ws, config)
    pipe.stage_extract(["value"])

    assert [tag for tag, _ in provider.calls] == ["table_convert", "mask"]
    parts = json.loads((ws.root / "extracted" / "ma" / "parts.json").read_text(encoding="utf-8"))
    assert parts["warnings"] == [
        "table t1: provider returned empty reply for tag 'table_convert'"
    ]


def test_results_mark_analyzed_only_the_tables_merged_json_holds(mini):
    """With results.json present, an accepted document is analyzed when
    merged.json holds its rows or its table has none; one whose rows
    merged.json lacks is still accepted, for the next analyze to take."""
    pipe, _ = mini
    screen_in(pipe.ws, pipe.config)
    for doc_id, rows in (("ma", ()), ("mb", ((401.0,),))):
        pipe._path("table", doc_id).parent.mkdir(parents=True)
        workspace.atomic_write_json(pipe._path("table", doc_id), extraction.ExtractedTable(
            doc_id, ("value",), rows, (), iteration=1, accepted=True,
        ))
    assert pipe.statuses() == {"ma": "accepted", "mb": "accepted"}
    workspace.atomic_write_json(pipe._path("merged"), MergedTable(("doc_id",), (), 0, 0))
    workspace.atomic_write_json(pipe._path("results"), [])
    assert pipe.statuses() == {"ma": "analyzed", "mb": "accepted"}


def test_a_path_the_pipeline_writes_is_read_afresh(mini):
    """What `artifact` read is kept only until the pipeline writes its path."""
    pipe, _ = mini
    for rows in ((), (("ma", 1.0),)):
        merged = MergedTable(("doc_id", "value"), rows, len(rows), 0)
        pipe._write(pipe.ws.dir("analysis") / "merged.json", merged)
        assert pipe.artifact("merged") == merged


def test_unusable_figure_and_extract_replies_leave_warnings_and_an_unaccepted_table(tmp_path):
    source = tmp_path / "source"
    source.mkdir()
    texts = ["Alpha finding one.", "Alpha finding two."]
    write_mini_doc(source, "ma", texts)
    raw = json.loads((source / "ma.json").read_text(encoding="utf-8"))
    raw["figures"] = [{"id": "f1", "caption": "Yield", "image": "f1.png"}]
    (source / "ma.json").write_text(json.dumps(raw), encoding="utf-8")
    (source / "f1.png").write_bytes(b"figure pixels")

    provider = ScriptedProvider()
    figure = prompts.figure_summary_request(str(source / "f1.png"), "Yield")
    register_for(provider, figure, "A rising line.")
    register_for(provider, figure.with_addendum(prompts.REASK_BULLETS), "Still a rising line.")
    rendered = [
        extraction.render_part(
            extraction.ConvertedPart(f"para-{i}", "text-paragraph", text), i + 1
        )
        for i, text in enumerate(texts)
    ]
    register_for(provider, prompts.mask_request(DIRECTION, rendered), "[1.0, 1.0]")
    register_for(provider, prompts.extract_request(DIRECTION, ["value"], rendered), "no table")
    retry = ("Your previous reply could not be used (no Markdown table found in reply). "
             "Follow the format exactly.")
    register_for(provider, prompts.extract_request(DIRECTION, ["value"], rendered, retry),
                 "no table again")
    config = PipelineConfig()
    ws = Workspace.init(tmp_path / "run", DIRECTION, config)
    pipe = Pipeline(ws, config, provider)
    pipe.ingest_dir(source)
    screen_in(ws, config)
    pipe.stage_extract(["value"])

    assert [tag for tag, _ in provider.calls] == [
        "figure_summary", "figure_summary", "mask", "extract", "extract", "extract"
    ]
    out = ws.root / "extracted" / "ma"
    parts = json.loads((out / "parts.json").read_text(encoding="utf-8"))
    assert parts["warnings"] == [
        "figure f1: f1: figure summary reply holds no bullets",
        "extraction failed: no Markdown table found in reply",
    ]
    assert parts["retained"] == ["para-0", "para-1"]
    table = json.loads((out / "table.json").read_text(encoding="utf-8"))
    assert (table["rows"], table["provenance"], table["accepted"]) == ([], [], False)
    assert table["iteration"] == config.extraction_max_iter
    trace = json.loads((out / "trace.json").read_text(encoding="utf-8"))
    assert trace == {"trace": [], "violations": []}
    assert ws.status_of("ma") == "unaccepted"


def test_status_text_lists_counts(tmp_path, corpus_dir):
    pipe, _ = corpus_pipeline(tmp_path, corpus_dir)
    pipe.run(synth.TEMPLATE)
    text = status_text(pipe.ws)
    lines = text.splitlines()
    assert any(re.fullmatch(r"  analyzed     6", ln) for ln in lines)
    assert any(re.fullmatch(r"  screened_out 4", ln) for ln in lines)
    assert f"workspace: {pipe.ws.root}" in lines
