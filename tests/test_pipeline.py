"""Orchestration: stage sequencing, template pinning, resume semantics, and
the end-to-end run over the bundled scripted corpus."""

import dataclasses
import json
import re
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from manalyzer import extraction, pipeline, prompts, synth, workspace
from manalyzer.analysis import MergedTable
from manalyzer.config import PipelineConfig
from manalyzer.errors import ManalyzerError, StageFailure
from manalyzer.gateway import AgentResponse, ScriptedProvider, digest_request
from manalyzer.pipeline import Pipeline, build_provider, load_template, status_text
from manalyzer.workspace import Workspace

from helpers import register_for, tree

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
    config = PipelineConfig(packer_budget=100)  # below every document's weight

    def ingested(run, provider):
        pipe = Pipeline(Workspace.init(tmp_path / run, DIRECTION, config), config, provider)
        pipe.ingest_dir(source)
        return pipe

    clean = ingested("clean", ContentAnsweringProvider())
    clean.stage_pack()
    killed = ContentAnsweringProvider()
    pipe = ingested("kill", killed)
    mark = pipe.ws.mark

    def killing_mark(doc_id, status):
        if status == "packed":
            raise Killed(doc_id)
        mark(doc_id, status)

    pipe.ws.mark = killing_mark
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

    finished = []
    monkeypatch.setattr(pipeline, "ThreadPoolExecutor", GatedPool)
    pipe.config = dataclasses.replace(pipe.config, max_concurrency=2)
    with pytest.raises(KeyboardInterrupt):
        pipe._per_document(work, list(range(20)), lambda *args: finished.append(args))
    # The worker freed by item 0 may take item 2 before the queue is cancelled.
    assert sorted(started) in ([0, 1], [0, 1, 2])
    assert finished == []


def test_per_document_finishes_in_todo_order_then_raises_the_first_failure(mini):
    pipe, _provider = mini
    pipe.config = dataclasses.replace(pipe.config, max_concurrency=4)
    later_done = threading.Event()
    ran, finished = [], []

    def work(item):
        if item == 0:
            # Item 0 finishes last, so completion order is not todo order.
            assert later_done.wait(timeout=30)
        ran.append(item)
        if item == 5:
            later_done.set()
        if item in (3, 6):
            raise ValueError(f"item {item}")
        return item * 10

    with pytest.raises(ValueError, match="item 3"):
        pipe._per_document(work, list(range(8)), lambda *args: finished.append(args))
    assert sorted(ran) == list(range(8))
    assert finished == [(0, 0), (1, 10), (2, 20), (4, 40), (5, 50), (7, 70)]


# -- end-to-end over the bundled corpus --------------------------------------


def corpus_pipeline(tmp_path, corpus_dir, ingest=True):
    config = PipelineConfig()
    root = tmp_path / "run"
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


class Killed(BaseException):
    """A kill of the process: no handler in the pipeline catches it."""


def test_kill_at_any_review_mark_resumes_byte_identical(tmp_path, corpus_dir):
    clean, _ = corpus_pipeline(tmp_path / "clean", corpus_dir)
    clean.run(synth.TEMPLATE)
    expected = tree(clean.ws.root)

    for k in range(len(synth.DOC_IDS)):
        pipe, killed = corpus_pipeline(tmp_path / f"kill{k}", corpus_dir)
        pipe.store_template(synth.TEMPLATE)
        reviewed = []
        mark = pipe.ws.mark

        def killing_mark(doc_id, status):
            if status == "reviewed":
                if len(reviewed) == k:
                    raise Killed(doc_id)
                reviewed.append(doc_id)
            mark(doc_id, status)

        pipe.ws.mark = killing_mark
        with pytest.raises(Killed):
            pipe.run(None)
        resumed, provider = corpus_pipeline(tmp_path / f"kill{k}", corpus_dir, ingest=False)
        resumed.run(None)
        assert tree(resumed.ws.root) == expected, f"killed at review mark {k}"
        assert set(killed.calls) & set(provider.calls) == set(), f"killed at review mark {k}"


@pytest.fixture(scope="module")
def clean_corpus_run(tmp_path_factory, corpus_dir):
    """The tree of an uninterrupted corpus run, and how many documents
    reached each status."""
    clean, _ = corpus_pipeline(tmp_path_factory.mktemp("clean"), corpus_dir)
    clean.run(synth.TEMPLATE)
    reached = Counter(status for history in clean.ws.docs.values() for status in history)
    return tree(clean.ws.root), reached


@pytest.mark.parametrize("which", ["first", "last"])
@pytest.mark.parametrize("status", [
    "parsed", "packed", "reviewed", "screened_in", "screened_out", "extracted", "accepted",
    "analyzed",
])
def test_kill_at_a_mark_of_each_status_resumes_byte_identical(
    tmp_path, corpus_dir, clean_corpus_run, status, which
):
    expected, reached = clean_corpus_run
    kill_at = 0 if which == "first" else reached[status] - 1
    pipe, killed = corpus_pipeline(tmp_path, corpus_dir, ingest=False)
    seen = []
    mark = pipe.ws.mark

    def killing_mark(doc_id, marked):
        if marked == status:
            if len(seen) == kill_at:
                raise Killed(doc_id)
            seen.append(doc_id)
        mark(doc_id, marked)

    pipe.ws.mark = killing_mark
    with pytest.raises(Killed):
        pipe.ingest_dir(corpus_dir / "docs")
        pipe.run(synth.TEMPLATE)
    resumed, provider = corpus_pipeline(tmp_path, corpus_dir, ingest=status == "parsed")
    resumed.run(synth.TEMPLATE)
    assert tree(resumed.ws.root) == expected
    # A finished document's artifact spares its calls. The one exception:
    # results.json cannot tell a current analysis from a stale one, so a
    # kill at an `analyzed` mark repeats the plan call.
    repeated = [tag for tag, digest in provider.calls if (tag, digest) in set(killed.calls)]
    assert repeated == (["plan"] if status == "analyzed" else [])


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
    # Each stage marks between 6 and 10 documents.
    assert per_stage == dict.fromkeys(per_stage, 1)
    assert Workspace.load(pipe.ws.root).docs == pipe.ws.docs


def test_kill_after_last_extracted_mark_resumes_without_extract_calls(tmp_path, corpus_dir):
    clean, _ = corpus_pipeline(tmp_path / "clean", corpus_dir)
    clean.run(synth.TEMPLATE)
    expected = tree(clean.ws.root)

    pipe, _ = corpus_pipeline(tmp_path / "kill", corpus_dir)
    pipe.store_template(synth.TEMPLATE)
    extracted = []
    mark = pipe.ws.mark

    def killing_mark(doc_id, status):
        if status in ("accepted", "unaccepted") and len(extracted) == len(synth.KEPT):
            raise Killed(doc_id)
        mark(doc_id, status)
        if status == "extracted":
            extracted.append(doc_id)

    pipe.ws.mark = killing_mark
    with pytest.raises(Killed):
        pipe.run(None)
    assert pipe.ws.status_of(extracted[-1]) == "extracted"

    resumed, provider = corpus_pipeline(tmp_path / "kill", corpus_dir, ingest=False)
    resumed.run(None)
    extract_tags = {"table_convert", "figure_summary", "mask", "extract", "check"}
    assert [key for key in provider.calls if key[0] in extract_tags] == []
    assert tree(resumed.ws.root) == expected


def test_kill_at_every_write_resumes_byte_identical(tmp_path, corpus_dir, monkeypatch):
    # One worker and one call in flight fix the order of calls and writes.
    config = PipelineConfig(max_concurrency=1, provider_max_in_flight=1)
    commit = workspace._commit
    finishing = {
        name for d in synth.DOC_IDS for name in (
            f"packed/{d}.json", f"reviews/{d}.indep.json", f"reviews/{d}.json",
            f"extracted/{d}/table.json",
        )
    }

    def start(root, provider, hook):
        """Ingest and run on a fresh workspace, whose later writes commit
        through `hook`, until done or killed; returns whether ingest returned."""
        pipe = Pipeline(Workspace.init(root, synth.DIRECTION, config), config, provider)
        with monkeypatch.context() as patch:
            patch.setattr(workspace, "_commit", hook)
            try:
                pipe.ingest_dir(corpus_dir / "docs")
            except Killed:
                return False
            try:
                pipe.run(synth.TEMPLATE)
            except Killed:
                pass
        return True

    def script():
        return ScriptedProvider.load_script(corpus_dir / "script.jsonl")

    writes = []
    clean = tmp_path / "clean"
    start(clean, script(), lambda tmp, path: (writes.append(path), commit(tmp, path)))
    expected = tree(clean)
    assert not [name for name in expected if name.endswith(".tmp")]

    batch_repeats = []
    for k in range(len(writes)):
        root = tmp_path / f"kill{k}"
        done = []  # (workspace-relative name, calls issued by then) per finished write

        def killing_commit(tmp, path):
            if len(done) > k:  # the process is dead: no later write happens
                tmp.unlink()
                raise Killed(path)
            if len(done) == k:  # killed with the temp file written, before its rename
                done.append(None)
                raise Killed(path)
            commit(tmp, path)
            done.append((path.relative_to(root).as_posix(), len(killed.calls)))

        killed, provider = script(), script()
        ingested = start(root, killed, killing_commit)
        assert len(done) == k + 1, f"write {k} was never reached"
        resumed = Pipeline(Workspace.load(root), config, provider)
        if not ingested:
            resumed.ingest_dir(corpus_dir / "docs")
        resumed.run(synth.TEMPLATE)
        assert tree(root) == expected, f"killed at write {k}: {writes[k]}"

        # A call issued before the last finished artifact was written is
        # vouched for by it and never repeated; but a kill between two record
        # writes of one comparative batch repeats the batch's call.
        vouched = max([calls for name, calls in done[:k] if name in finishing], default=0)
        repeated = set(killed.calls[:vouched]) & set(provider.calls)
        if repeated:
            last_two = [done[k - 1][0], writes[k].relative_to(clean).as_posix()]
            assert all(re.fullmatch(r"reviews/d\d\d\.json", name) for name in last_two), (
                f"killed at write {k}: {writes[k]} repeated {repeated}"
            )
            assert repeated == {killed.calls[-1]}
            assert killed.calls[-1][0] == "comparative_review"
            batch_repeats.append(k)
    # The corpus makes one batch of ten records, with nine gaps between them.
    assert len(batch_repeats) == len(synth.DOC_IDS) - 1


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
    ws = Workspace.init(tmp_path / "run", DIRECTION, PipelineConfig())
    pipe = Pipeline(ws, PipelineConfig(), provider)
    pipe.ingest_dir(source)
    for status in ("packed", "reviewed", "screened_in"):
        ws.mark("ma", status)
    pipe.stage_extract(["value"])

    assert [tag for tag, _ in provider.calls] == ["table_convert", "mask"]
    parts = json.loads((ws.root / "extracted" / "ma" / "parts.json").read_text(encoding="utf-8"))
    assert parts["warnings"] == [
        "table t1: provider returned empty reply for tag 'table_convert'"
    ]


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
    for status in ("packed", "reviewed", "screened_in"):
        ws.mark("ma", status)
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
