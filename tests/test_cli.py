"""Command-line flows over the bundled corpus, including exit codes:
0 success, 2 validation problems, 3 stage failures."""

import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest
from click.testing import CliRunner

import manalyzer
from manalyzer import collector, pipeline, reviewer, synth
from manalyzer.cli import main
from manalyzer.errors import NotDownloadableError
from manalyzer.workspace import Workspace


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, ws, *args, config=None):
    argv = ["--workspace", str(ws)]
    if config is not None:
        argv += ["--config", str(config)]
    return runner.invoke(main, argv + list(args))


@pytest.fixture
def initialized(runner, tmp_path, corpus_dir):
    """Workspace initialized under the corpus config with docs ingested."""
    ws = tmp_path / "ws"
    config = corpus_dir / "config.txt"
    result = invoke(
        runner, ws, "init", "--direction", synth.DIRECTION,
        "--template", str(corpus_dir / "template.txt"), config=config,
    )
    assert result.exit_code == 0, result.output
    result = invoke(
        runner, ws, "ingest", "--from", str(corpus_dir / "docs"), config=config
    )
    assert result.exit_code == 0, result.output
    assert "ingested 10 documents" in result.stdout
    return ws, config


def test_init_reports_path(runner, tmp_path):
    ws = tmp_path / "ws"
    result = invoke(runner, ws, "init", "--direction", "anything")
    assert result.exit_code == 0
    assert f"initialized workspace at {ws}" in result.stdout


def test_init_twice_is_a_validation_error(runner, tmp_path):
    ws = tmp_path / "ws"
    assert invoke(runner, ws, "init", "--direction", "x").exit_code == 0
    result = invoke(runner, ws, "init", "--direction", "x")
    assert result.exit_code == 2
    assert "already holds a workspace" in result.stderr


def test_status_without_workspace(runner, tmp_path):
    result = invoke(runner, tmp_path / "missing", "status")
    assert result.exit_code == 2
    assert "not a workspace" in result.stderr


def test_config_drift_refuses_resume(runner, tmp_path, initialized):
    ws, _config = initialized
    drifted = tmp_path / "other.cfg"
    drifted.write_text("packer.budget = 64\n", encoding="utf-8")
    result = invoke(runner, ws, "status", config=drifted)
    assert result.exit_code == 0  # status is read-only, no digest check
    result = invoke(runner, ws, "resume", config=drifted)
    assert result.exit_code == 2
    assert "config digest mismatch" in result.stderr


def test_unscripted_review_is_a_stage_failure(runner, tmp_path, corpus_dir):
    # No --config, so the provider has no script: packing succeeds without
    # agent calls (everything fits the budget) and review is the first
    # stage to need one.
    ws = tmp_path / "ws"
    invoke(runner, ws, "init", "--direction", synth.DIRECTION)
    invoke(runner, ws, "ingest", "--from", str(corpus_dir / "docs"))
    result = invoke(runner, ws, "run", "--template", str(corpus_dir / "template.txt"))
    assert result.exit_code == 3
    assert "stage 'review' failed" in result.stderr


def test_pack_budget_override_needs_scores(runner, tmp_path, corpus_dir):
    ws = tmp_path / "ws"
    invoke(runner, ws, "init", "--direction", synth.DIRECTION)
    invoke(runner, ws, "ingest", "--from", str(corpus_dir / "docs"))
    result = invoke(runner, ws, "pack", "--budget", "1")
    assert result.exit_code == 3
    assert "stage 'pack' failed" in result.stderr


def test_full_run_and_evaluation(runner, initialized, corpus_dir):
    ws, config = initialized
    result = invoke(runner, ws, "run", config=config)
    assert result.exit_code == 0, result.output
    assert "documents:       10" in result.stdout
    assert "screened in:     6" in result.stdout
    assert "accepted tables: 6" in result.stdout
    assert "merged rows:     12" in result.stdout
    assert "report:" in result.stdout
    assert (ws / "report.md").exists()

    result = invoke(runner, ws, "status", config=config)
    assert result.exit_code == 0
    assert "analyzed     6" in result.stdout
    assert "screened_out 4" in result.stdout

    result = invoke(
        runner, ws, "screen-eval",
        "--gold", str(corpus_dir / "screening_gold.txt"), config=config,
    )
    assert result.exit_code == 0, result.output
    assert "f1:        1.0000" in result.stdout
    assert "tp=6 fp=0 tn=4 fn=0" in result.stdout

    result = invoke(
        runner, ws, "eval-extraction",
        "--gold", str(corpus_dir / "gold.jsonl"), config=config,
    )
    assert result.exit_code == 0, result.output
    assert "| 1 | 6 | 1.0000 |" in result.stdout
    assert "| 2 | 6 | 1.0000 |" in result.stdout
    assert "| 3 | 6 | 0.0000 |" in result.stdout

    # Resume on a finished workspace changes nothing and calls no agent.
    before = (ws / "report.md").read_bytes()
    result = invoke(runner, ws, "resume", config=config)
    assert result.exit_code == 0
    assert (ws / "report.md").read_bytes() == before


def test_stagewise_flow_matches_run(runner, tmp_path, initialized, corpus_dir):
    ws, config = initialized
    for args, expected in (
        (("pack",), "pack stage complete"),
        (("screen",), "kept 6 of 10 reviewed papers (0 review failures)"),
        (("extract",), "extract stage complete"),
        (("analyze",), "analyze stage complete"),
        (("report",), "report.md"),
    ):
        result = invoke(runner, ws, *args, config=config)
        assert result.exit_code == 0, (args, result.output)
        assert expected in result.stdout


def test_screen_threshold_override_is_what_later_commands_read(
    runner, initialized, corpus_dir
):
    # At the configured threshold of 8, d07 (final 5.6) would be dropped; the
    # override keeps it, and screen-eval and report must agree with the manifest.
    ws, config = initialized
    for args in (("pack",), ("screen", "--threshold", "5")):
        result = invoke(runner, ws, *args, config=config)
        assert result.exit_code == 0, (args, result.output)
    assert "kept 7 of 10 reviewed papers" in result.stdout
    docs = json.loads((ws / "manifest.json").read_text(encoding="utf-8"))["docs"]
    kept = {d for d, history in docs.items() if "screened_in" in history}
    assert "d07" in kept and len(kept) == 7
    screening = json.loads((ws / "reviews" / "screening.json").read_text(encoding="utf-8"))
    assert set(screening["kept"]) == kept

    gold_path = corpus_dir / "screening_gold.txt"
    result = invoke(runner, ws, "screen-eval", "--gold", str(gold_path), config=config)
    assert result.exit_code == 0, result.output
    gold = {d for d, keep in reviewer.load_screening_gold(gold_path).items() if keep}
    tp = len(kept & gold)
    assert f"tp={tp} fp={len(kept) - tp} " in result.stdout

    assert invoke(runner, ws, "report", config=config).exit_code == 0
    report = (ws / "report.md").read_text(encoding="utf-8")
    assert f"{len(kept)} papers passed screening." in report
    for doc_id in docs:
        row = next(line for line in report.splitlines() if line.startswith(f"| {doc_id} |"))
        assert row.endswith("| yes |" if doc_id in kept else "| no |"), row


def test_collect_without_script_fails_cleanly(runner, initialized):
    ws, config = initialized
    result = invoke(runner, ws, "collect", config=config)
    assert result.exit_code == 3
    assert "error:" in result.stderr


def test_bad_config_file(runner, tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("packer.budget = soon\n", encoding="utf-8")
    result = invoke(runner, tmp_path / "ws", "init", "--direction", "x", config=bad)
    assert result.exit_code == 2
    assert "bad value 'soon'" in result.stderr


@pytest.fixture
def missing_script_config(tmp_path):
    config = tmp_path / "missing.cfg"
    config.write_text("provider.kind = scripted\nprovider.script = missing.jsonl\n", encoding="utf-8")
    return config, f"error: provider.script {tmp_path / 'missing.jsonl'}: No such file or directory"


@pytest.mark.parametrize("template", [True, False], ids=["template", "no-template"])
def test_init_with_missing_provider_script_writes_nothing(runner, tmp_path, corpus_dir,
                                                          missing_script_config, template):
    config, message = missing_script_config
    ws = tmp_path / "ws"
    args = ["--template", str(corpus_dir / "template.txt")] if template else []
    result = invoke(runner, ws, "init", "--direction", "x", *args, config=config)
    assert result.exit_code == 2, result.output
    assert result.stderr.splitlines() == [message]
    assert not (ws / "manifest.json").exists()


@pytest.mark.parametrize("records, message", [
    (['{"tag": "bogus", "digest": "d", "response": "r"}'],
     "1: bad script record: unknown request tag 'bogus'"),
    (['{"tag": "plan", "digest": "d", "response": "r"}'] * 2,
     "2: bad script record: script key already registered: ('plan', 'd')"),
], ids=["unknown-tag", "repeated-key"])
def test_init_with_bad_script_record_names_file_and_line(runner, tmp_path, records, message):
    script = tmp_path / "s.jsonl"
    script.write_text("\n".join(records) + "\n", encoding="utf-8")
    config = tmp_path / "bad-script.cfg"
    config.write_text(f"provider.kind = scripted\nprovider.script = {script}\n", encoding="utf-8")
    result = invoke(runner, tmp_path / "ws", "init", "--direction", "x", config=config)
    assert result.exit_code == 2, result.output
    assert result.stderr.splitlines() == [f"error: {script}:{message}"]


def test_run_with_missing_provider_script_is_a_validation_error(runner, tmp_path,
                                                                missing_script_config):
    config, message = missing_script_config
    script = tmp_path / "missing.jsonl"
    script.write_text("", encoding="utf-8")
    ws = tmp_path / "ws"
    assert invoke(runner, ws, "init", "--direction", "x", config=config).exit_code == 0
    script.unlink()
    result = invoke(runner, ws, "run", config=config)
    assert result.exit_code == 2, result.output
    assert result.stderr.splitlines() == [message]


@pytest.mark.parametrize("direction, args, message", [
    (synth.DIRECTION, ("eval-extraction", "--gold", "{gold}", "--rel-tol", "-1"),
     "tolerances must be >= 0"),
    (" ", (), "research direction is empty"),
    (synth.DIRECTION, ("extract",), "no extraction template stored; pass --template"),
], ids=["negative-rel-tol", "blank-direction", "extract-without-template"])
def test_out_of_range_input_is_a_validation_error(
    runner, tmp_path, corpus_dir, direction, args, message
):
    # With no `args`, `init` itself is the command that must refuse.
    ws = tmp_path / "ws"
    result = invoke(runner, ws, "init", "--direction", direction)
    if args:
        assert result.exit_code == 0
        gold = str(corpus_dir / "gold.jsonl")
        result = invoke(runner, ws, *(arg.format(gold=gold) for arg in args))
    assert result.exit_code == 2, result.output
    assert result.stderr.splitlines() == [f"error: {message}"]
    assert "Traceback" not in result.output
    assert (ws / "manifest.json").exists() == bool(args)


def test_extract_with_a_differing_template_is_a_validation_error(runner, tmp_path, initialized):
    ws, config = initialized
    other = tmp_path / "other.txt"
    other.write_text("another column\n", encoding="utf-8")
    result = invoke(runner, ws, "extract", "--template", str(other), config=config)
    assert result.exit_code == 2, result.output
    assert result.stderr.startswith("error: extraction template differs")


def test_extract_topic_holds_for_that_command_only(runner, tmp_path, corpus_dir, monkeypatch):
    monkeypatch.setattr(
        "manalyzer.cli.build_provider", lambda config, base: synth.AnsweringProvider()
    )
    ws = tmp_path / "ws"
    for args in (
        ("init", "--direction", synth.DIRECTION, "--template", str(corpus_dir / "template.txt")),
        ("ingest", "--from", str(corpus_dir / "docs")),
        ("pack",),
        ("screen",),
        ("extract", "--topic", "another topic"),
    ):
        result = invoke(runner, ws, *args)
        assert result.exit_code == 0, (args, result.output)
    assert Workspace.load(ws).direction == synth.DIRECTION


def tree(root):
    return {
        path.relative_to(root).as_posix(): path.read_bytes()
        for path in sorted(root.rglob("*")) if path.is_file()
    }


def test_blank_topic_is_a_validation_error(runner, initialized, monkeypatch):
    ws, config = initialized
    for args in (("pack",), ("screen",)):
        assert invoke(runner, ws, *args, config=config).exit_code == 0
    before = tree(ws)
    providers = []
    build_provider = pipeline.build_provider

    def recording_provider(config, base):
        providers.append(build_provider(config, base))
        return providers[-1]

    monkeypatch.setattr("manalyzer.cli.build_provider", recording_provider)
    result = invoke(runner, ws, "extract", "--topic", " ", config=config)
    assert result.exit_code == 2, result.output
    assert result.stderr.splitlines() == ["error: --topic is empty"]
    assert [call for provider in providers for call in provider.calls] == []
    assert tree(ws) == before


class Killed(BaseException):
    """A kill of the process, raised where a write would happen."""


@pytest.mark.parametrize("name", ["parts.json", "trace.json", "table.json"])
def test_report_and_resume_after_a_kill_at_an_extract_write(
    runner, tmp_path, corpus_dir, initialized, monkeypatch, name
):
    ws, config = initialized
    clean = tmp_path / "clean"
    for args in (
        ("init", "--direction", synth.DIRECTION, "--template", str(corpus_dir / "template.txt")),
        ("ingest", "--from", str(corpus_dir / "docs")),
        ("run",),
    ):
        assert invoke(runner, clean, *args, config=config).exit_code == 0
    victim = synth.KEPT[0]
    write = pipeline.atomic_write_json

    def killing_write(path, payload):
        if path.parent.name == victim and path.name == name:
            raise Killed(path)
        write(path, payload)

    with monkeypatch.context() as patch:
        patch.setattr(pipeline, "atomic_write_json", killing_write)
        with pytest.raises(Killed):
            invoke(runner, ws, "run", config=config)
    assert not (ws / "extracted" / victim / "table.json").exists()
    result = invoke(runner, ws, "report", config=config)
    assert result.exit_code == 0, result.output
    result = invoke(runner, ws, "resume", config=config)
    assert result.exit_code == 0, result.output
    assert tree(ws) == tree(clean)


def test_a_failed_write_in_a_stage_is_a_stage_failure_and_resumes(
    runner, tmp_path, corpus_dir, initialized, monkeypatch
):
    ws, config = initialized
    clean = tmp_path / "clean"
    for args in (
        ("init", "--direction", synth.DIRECTION, "--template", str(corpus_dir / "template.txt")),
        ("ingest", "--from", str(corpus_dir / "docs")),
        ("run",),
    ):
        assert invoke(runner, clean, *args, config=config).exit_code == 0
    write = pipeline.atomic_write_json

    def full_disk_write(path, payload):
        if path.parent.name == "packed" and path.name == "d03.json":
            raise OSError(28, "No space left on device")
        write(path, payload)

    with monkeypatch.context() as patch:
        patch.setattr(pipeline, "atomic_write_json", full_disk_write)
        result = invoke(runner, ws, "run", config=config)
    assert result.exit_code == 3, result.output
    assert result.stderr.splitlines() == [
        "error: stage 'pack' failed: [Errno 28] No space left on device"
    ]
    assert not (ws / "packed" / "d03.json").exists()
    result = invoke(runner, ws, "resume", config=config)
    assert result.exit_code == 0, result.output
    assert tree(ws) == tree(clean)


def test_a_failed_write_outside_a_stage_exits_3(runner, tmp_path, corpus_dir, monkeypatch):
    ws = tmp_path / "ws"
    config = corpus_dir / "config.txt"
    assert invoke(runner, ws, "init", "--direction", "x", config=config).exit_code == 0

    def full_disk_save(doc, path):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(collector, "save_parsed", full_disk_save)
    result = invoke(runner, ws, "ingest", "--from", str(corpus_dir / "docs"), config=config)
    assert result.exit_code == 3, result.output
    assert result.stderr.splitlines() == ["error: [Errno 28] No space left on device"]


def test_eval_extraction_missing_gold(runner, initialized):
    ws, config = initialized
    result = invoke(
        runner, ws, "eval-extraction", "--gold", "/nonexistent/gold.jsonl",
        config=config,
    )
    # click validates the path itself before the command body runs
    assert result.exit_code == 2


def test_eval_extraction_reads_level3_tolerance_from_config(runner, tmp_path, corpus_dir):
    # Level-3 gold values are sums the scripted extractor never computes:
    # they read 0.0 at the default tolerance (test_full_run_and_evaluation)
    # and every one is within 100% of some extracted value.
    config = tmp_path / "wide.cfg"
    config.write_text(
        "provider.kind = scripted\n"
        f"provider.script = {corpus_dir / 'script.jsonl'}\n"
        "eval.level3_rel_tol = 1.0\n",
        encoding="utf-8",
    )
    ws = tmp_path / "ws"
    for args in (
        ("init", "--direction", synth.DIRECTION, "--template", str(corpus_dir / "template.txt")),
        ("ingest", "--from", str(corpus_dir / "docs")),
        ("run",),
    ):
        result = invoke(runner, ws, *args, config=config)
        assert result.exit_code == 0, (args, result.output)
    result = invoke(
        runner, ws, "eval-extraction", "--gold", str(corpus_dir / "gold.jsonl"), config=config
    )
    assert result.exit_code == 0, result.output
    assert "| 1 | 6 | 1.0000 |" in result.stdout
    assert "| 2 | 6 | 1.0000 |" in result.stdout
    assert "| 3 | 6 | 1.0000 |" in result.stdout


def run_python(code):
    """Run `code` in a fresh interpreter that imports manalyzer from this tree."""
    src = str(Path(manalyzer.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60,
    )


@pytest.mark.parametrize("module", ["requests", "numpy"])
def test_cli_import_does_not_load(module):
    result = run_python(f"import manalyzer.cli, sys; assert {module!r} not in sys.modules")
    assert result.returncode == 0, result.stderr


def test_each_module_imports_on_its_own():
    # In process, the modules are imported in one fixed order, which can
    # hide an import cycle; a fresh interpreter per module cannot.
    names = sorted(p.stem for p in Path(manalyzer.__file__).parent.glob("*.py"))
    with ThreadPoolExecutor(max_workers=2) as pool:
        results = dict(zip(names, pool.map(lambda n: run_python(f"import manalyzer.{n}"), names)))
    assert {n: r.stderr for n, r in results.items() if r.returncode} == {}


def test_collect_dedups_caps_and_skips_undownloadable(runner, tmp_path, monkeypatch):
    ws = tmp_path / "ws"
    assert invoke(runner, ws, "init", "--direction", "soil carbon").exit_code == 0

    def meta(doc_id, source, doi=None, title=None):
        return collector.PaperMeta(
            doc_id, title or f"Title {doc_id}", doi, source,
            pdf_url=f"https://example.org/{doc_id}.pdf",
        )

    results = {
        ("crossref", "soil carbon"): [meta("c1", "crossref", "10.1/A"), meta("c2", "crossref", "10.1/b")],
        ("arxiv", "soil carbon"): [meta("x1", "arxiv", "10.1/a"), meta("x2", "arxiv")],
        ("crossref", "tillage"): [meta("c2", "crossref", "10.1/b"), meta("c3", "crossref")],
        ("arxiv", "tillage"): [meta("x5", "arxiv", title="title  X2"), meta("x3", "arxiv"),
                               meta("x4", "arxiv")],
    }
    searched = []

    def search(source, query, max_results):
        searched.append((source, query))
        return results[(source, query)]

    def download_pdf(meta, papers_dir):
        if meta.doc_id == "x2":
            raise NotDownloadableError("x2: no pdf_url and no doi")
        return papers_dir / f"{meta.doc_id}.pdf"

    groups = [["soil", "carbon"], ["tillage"], ["never", "searched"]]
    monkeypatch.setattr(collector, "generate_keywords", lambda direction, gateway: groups)
    monkeypatch.setattr(collector, "search", search)
    monkeypatch.setattr(collector, "download_pdf", download_pdf)

    result = invoke(runner, ws, "collect", "--max-papers", "5")
    assert result.exit_code == 0, result.output
    # x1 repeats c1's DOI, c2 repeats itself across groups, x5 repeats x2's
    # title; x4 falls past the cap, which also stops the third group.
    assert searched == [
        ("crossref", "soil carbon"), ("arxiv", "soil carbon"),
        ("crossref", "tillage"), ("arxiv", "tillage"),
    ]
    assert result.stderr == "skipping x2: x2: no pdf_url and no doi\n"
    assert result.stdout.splitlines()[-1] == "collected 4 of 5 candidate papers"
    manifest = Workspace.load(ws)
    assert manifest.doc_ids() == ["c1", "c2", "c3", "x3"]
    assert all(manifest.status_of(d) == "collected" for d in manifest.doc_ids())
