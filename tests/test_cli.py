"""Command-line flows over the bundled corpus, including exit codes:
0 success, 2 validation problems, 3 stage failures."""

import json
import math
import re
import shutil
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import manalyzer
from manalyzer import analysis, collector, gateway, pipeline, reviewer, synth
from manalyzer.config import PipelineConfig
from manalyzer.errors import ManalyzerError
from manalyzer.workspace import SUBDIRS, Workspace

from helpers import Killed, run_cli, run_python, tree


def invoke(ws, *args, config=None):
    argv = ["--workspace", ws]
    if config is not None:
        argv += ["--config", config]
    return run_cli(argv + list(args))


@pytest.fixture
def initialized(tmp_path, corpus_dir):
    """Workspace initialized under the corpus config with docs ingested."""
    ws = tmp_path / "ws"
    config = corpus_dir / "config.txt"
    result = invoke(
        ws, "init", "--direction", synth.DIRECTION,
        "--template", str(corpus_dir / "template.txt"), config=config,
    )
    assert result.exit_code == 0, result.stderr
    result = invoke(
        ws, "ingest", "--from", str(corpus_dir / "docs"), config=config
    )
    assert result.exit_code == 0, result.stderr
    assert "ingested 10 documents" in result.stdout
    return ws, config


def test_init_reports_path(tmp_path):
    ws = tmp_path / "ws"
    result = invoke(ws, "init", "--direction", "anything")
    assert result.exit_code == 0
    assert f"initialized workspace at {ws}" in result.stdout


def test_init_twice_is_a_validation_error(tmp_path):
    ws = tmp_path / "ws"
    assert invoke(ws, "init", "--direction", "x").exit_code == 0
    result = invoke(ws, "init", "--direction", "x")
    assert result.exit_code == 2
    assert "already holds a workspace" in result.stderr


def test_status_without_workspace(tmp_path):
    result = invoke(tmp_path / "missing", "status")
    assert result.exit_code == 2
    assert "not a workspace" in result.stderr


def test_config_drift_refuses_resume(tmp_path, initialized):
    ws, _config = initialized
    drifted = tmp_path / "other.cfg"
    drifted.write_text("packer.budget = 64\n", encoding="utf-8")
    result = invoke(ws, "status", config=drifted)
    assert result.exit_code == 0  # status is read-only, no digest check
    result = invoke(ws, "resume", config=drifted)
    assert result.exit_code == 2
    assert "config digest mismatch" in result.stderr


def test_unscripted_review_is_a_stage_failure(tmp_path, corpus_dir):
    # No --config, so the provider has no script: packing succeeds without
    # agent calls (everything fits the budget) and review is the first
    # stage to need one.
    ws = tmp_path / "ws"
    invoke(ws, "init", "--direction", synth.DIRECTION)
    invoke(ws, "ingest", "--from", str(corpus_dir / "docs"))
    result = invoke(ws, "run", "--template", str(corpus_dir / "template.txt"))
    assert result.exit_code == 3
    assert "stage 'review' failed" in result.stderr


def test_pack_budget_override_needs_scores(tmp_path, corpus_dir):
    ws = tmp_path / "ws"
    invoke(ws, "init", "--direction", synth.DIRECTION)
    invoke(ws, "ingest", "--from", str(corpus_dir / "docs"))
    result = invoke(ws, "pack", "--budget", "1")
    assert result.exit_code == 3
    assert "stage 'pack' failed" in result.stderr


def test_full_run_and_evaluation(initialized, corpus_dir):
    ws, config = initialized
    result = invoke(ws, "run", config=config)
    assert result.exit_code == 0, result.stderr
    assert "documents:       10" in result.stdout
    assert "screened in:     6" in result.stdout
    assert "accepted tables: 6" in result.stdout
    assert "merged rows:     12" in result.stdout
    assert "report:" in result.stdout
    assert (ws / "report.md").exists()

    result = invoke(ws, "status", config=config)
    assert result.exit_code == 0
    assert "analyzed     6" in result.stdout
    assert "screened_out 4" in result.stdout

    result = invoke(
        ws, "screen-eval",
        "--gold", str(corpus_dir / "screening_gold.txt"), config=config,
    )
    assert result.exit_code == 0, result.stderr
    assert "f1:        1.0000" in result.stdout
    assert "tp=6 fp=0 tn=4 fn=0" in result.stdout

    result = invoke(
        ws, "eval-extraction",
        "--gold", str(corpus_dir / "gold.jsonl"), config=config,
    )
    assert result.exit_code == 0, result.stderr
    assert "| 1 | 6 | 1.0000 |" in result.stdout
    assert "| 2 | 6 | 1.0000 |" in result.stdout
    assert "| 3 | 6 | 0.0000 |" in result.stdout

    # Resume on a finished workspace changes nothing and calls no agent.
    before = (ws / "report.md").read_bytes()
    result = invoke(ws, "resume", config=config)
    assert result.exit_code == 0
    assert (ws / "report.md").read_bytes() == before


def test_each_command_derives_the_status_view_once_per_boundary(
    tmp_path, corpus_dir, monkeypatch
):
    """A command derives the statuses when it opens the workspace, and again
    only where it writes, at `ingest`'s end and each stage's, which also
    write the view."""
    counts = Counter()

    def counted(name, method):
        def count(*args, **kwargs):
            counts[name] += 1
            return method(*args, **kwargs)
        return count

    ws, config = tmp_path / "ws", corpus_dir / "config.txt"
    template = str(corpus_dir / "template.txt")
    assert invoke(ws, "init", "--direction", synth.DIRECTION, "--template", template,
                  config=config).exit_code == 0
    monkeypatch.setattr(pipeline.Pipeline, "statuses",
                        counted("derivations", pipeline.Pipeline.statuses))
    monkeypatch.setattr(Workspace, "save", counted("view writes", Workspace.save))
    seen = {}
    for args in (("ingest", "--from", str(corpus_dir / "docs")), ("run",), ("resume",),
                 ("status",)):
        counts.clear()
        result = invoke(ws, *args, config=config)
        assert result.exit_code == 0, (args, result.stderr)
        seen[args[0]] = counts["derivations"], counts["view writes"]
    assert seen == {"ingest": (2, 1), "run": (7, 6), "resume": (7, 6), "status": (1, 0)}


def test_a_reply_utf8_cannot_encode_is_refused_at_the_gateway(tmp_path, corpus_dir):
    """A `report` reply that ends in an unpaired surrogate fails its call:
    `run` exits 0 with the built-in discussion, and its report.md is byte
    for byte that of a run whose `report` call fails outright."""
    lines = (corpus_dir / "script.jsonl").read_text(encoding="utf-8").splitlines()
    entries = [json.loads(line) for line in lines if line.strip()]
    reports = {}
    for case in ("surrogate", "unscripted"):
        here = tmp_path / case
        here.mkdir()
        shutil.copy(corpus_dir / "config.txt", here / "config.txt")
        script = [dict(e, response=e["response"] + " \ud800") if e["tag"] == "report" else e
                  for e in entries if case == "surrogate" or e["tag"] != "report"]
        (here / "script.jsonl").write_text(
            "".join(json.dumps(e) + "\n" for e in script), encoding="utf-8"
        )
        ws, config = here / "ws", here / "config.txt"
        for args in (
            ("init", "--direction", synth.DIRECTION, "--template", corpus_dir / "template.txt"),
            ("ingest", "--from", corpus_dir / "docs"),
            ("run",),
        ):
            result = invoke(ws, *args, config=config)
            assert result.exit_code == 0, (case, args, result.stderr)
        reports[case] = (ws / "report.md").read_bytes()
    assert reports["surrogate"] == reports["unscripted"]


def test_an_empty_plan_reply_falls_back_to_the_default_steps(tmp_path, corpus_dir):
    """An empty `plan` reply is unusable like any other: `run` exits 0 and
    results.json holds one result per default step."""
    lines = (corpus_dir / "script.jsonl").read_text(encoding="utf-8").splitlines()
    script = [json.loads(line) for line in lines if line.strip()]
    shutil.copy(corpus_dir / "config.txt", tmp_path / "config.txt")
    (tmp_path / "script.jsonl").write_text("".join(
        json.dumps(dict(e, response="") if e["tag"] == "plan" else e) + "\n" for e in script
    ), encoding="utf-8")
    ws, config = tmp_path / "ws", tmp_path / "config.txt"
    for args in (
        ("init", "--direction", synth.DIRECTION, "--template", corpus_dir / "template.txt"),
        ("ingest", "--from", corpus_dir / "docs"),
        ("run",),
    ):
        result = invoke(ws, *args, config=config)
        assert result.exit_code == 0, (args, result.stderr)
    results = pipeline.read_artifact(ws / "analysis" / "results.json",
                                     pipeline.ARTIFACTS["results"][1])
    columns = pipeline.load_template(corpus_dir / "template.txt")
    assert [r.step for r in results] == analysis._default_steps(columns)


def test_stagewise_flow_matches_run(tmp_path, initialized, corpus_dir):
    ws, config = initialized
    for args, expected in (
        (("pack",), "pack stage complete"),
        (("screen",), "kept 6 of 10 reviewed papers (0 review failures)"),
        (("extract",), "extract stage complete"),
        (("analyze",), "analyze stage complete"),
        (("report",), "report.md"),
    ):
        result = invoke(ws, *args, config=config)
        assert result.exit_code == 0, (args, result.stderr)
        assert expected in result.stdout


def test_screen_threshold_override_is_what_later_commands_read(
    initialized, corpus_dir
):
    # At the configured threshold of 8, d07 (final 5.6) would be dropped; the
    # override keeps it, and screen-eval and report must agree with the manifest.
    ws, config = initialized
    for args in (("pack",), ("screen", "--threshold", "5")):
        result = invoke(ws, *args, config=config)
        assert result.exit_code == 0, (args, result.stderr)
    assert "kept 7 of 10 reviewed papers" in result.stdout
    docs = json.loads((ws / "manifest.json").read_text(encoding="utf-8"))["docs"]
    kept = {d for d, status in docs.items() if status == "screened_in"}
    assert "d07" in kept and len(kept) == 7
    screening = json.loads((ws / "reviews" / "screening.json").read_text(encoding="utf-8"))
    assert set(screening["kept"]) == kept

    gold_path = corpus_dir / "screening_gold.txt"
    result = invoke(ws, "screen-eval", "--gold", str(gold_path), config=config)
    assert result.exit_code == 0, result.stderr
    gold = {d for d, keep in reviewer.load_screening_gold(gold_path).items() if keep}
    tp = len(kept & gold)
    assert f"tp={tp} fp={len(kept) - tp} " in result.stdout

    assert invoke(ws, "report", config=config).exit_code == 0
    report = (ws / "report.md").read_text(encoding="utf-8")
    assert f"{len(kept)} papers passed screening." in report
    for doc_id in docs:
        row = next(line for line in report.splitlines() if line.startswith(f"| {doc_id} |"))
        assert row.endswith("| yes |" if doc_id in kept else "| no |"), row


def test_collect_without_script_fails_cleanly(initialized):
    ws, config = initialized
    result = invoke(ws, "collect", config=config)
    assert result.exit_code == 3
    assert "error:" in result.stderr


@pytest.mark.parametrize("seed", ["-1", "4294967296"])
def test_init_with_an_out_of_range_seed_exits_2_and_writes_nothing(tmp_path, seed):
    config = tmp_path / "seed.cfg"
    config.write_text(f"analysis.seed = {seed}\n", encoding="utf-8")
    ws = tmp_path / "ws"
    result = invoke(ws, "init", "--direction", "x", config=config)
    assert result.exit_code == 2, result.stderr
    assert result.stderr.splitlines() == ["error: analysis.seed must be in [0, 2**32)"]
    assert not ws.exists()


def test_bad_config_file(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("packer.budget = soon\n", encoding="utf-8")
    result = invoke(tmp_path / "ws", "init", "--direction", "x", config=bad)
    assert result.exit_code == 2
    assert "bad value 'soon'" in result.stderr


@pytest.fixture
def missing_script_config(tmp_path):
    config = tmp_path / "missing.cfg"
    config.write_text("provider.kind = scripted\nprovider.script = missing.jsonl\n", encoding="utf-8")
    return config, f"error: provider.script {tmp_path / 'missing.jsonl'}: No such file or directory"


@pytest.mark.parametrize("template", [True, False], ids=["template", "no-template"])
def test_init_with_missing_provider_script_writes_nothing(tmp_path, corpus_dir,
                                                          missing_script_config, template):
    config, message = missing_script_config
    ws = tmp_path / "ws"
    args = ["--template", str(corpus_dir / "template.txt")] if template else []
    result = invoke(ws, "init", "--direction", "x", *args, config=config)
    assert result.exit_code == 2, result.stderr
    assert result.stderr.splitlines() == [message]
    assert not (ws / "manifest.json").exists()


@pytest.mark.parametrize("records, message", [
    (['{"tag": "bogus", "digest": "d", "response": "r"}'],
     "1: bad script record: unknown request tag 'bogus'"),
    (['{"tag": "plan", "digest": "d", "response": "r"}'] * 2,
     "2: bad script record: script key already registered: ('plan', 'd')"),
], ids=["unknown-tag", "repeated-key"])
def test_init_with_bad_script_record_names_file_and_line(tmp_path, records, message):
    script = tmp_path / "s.jsonl"
    script.write_text("\n".join(records) + "\n", encoding="utf-8")
    config = tmp_path / "bad-script.cfg"
    config.write_text(f"provider.kind = scripted\nprovider.script = {script}\n", encoding="utf-8")
    result = invoke(tmp_path / "ws", "init", "--direction", "x", config=config)
    assert result.exit_code == 2, result.stderr
    assert result.stderr.splitlines() == [f"error: {script}:{message}"]


def test_run_with_missing_provider_script_is_a_validation_error(tmp_path,
                                                                missing_script_config):
    config, message = missing_script_config
    script = tmp_path / "missing.jsonl"
    script.write_text("", encoding="utf-8")
    ws = tmp_path / "ws"
    assert invoke(ws, "init", "--direction", "x", config=config).exit_code == 0
    script.unlink()
    result = invoke(ws, "run", config=config)
    assert result.exit_code == 2, result.stderr
    assert result.stderr.splitlines() == [message]


NO_TEMPLATE = (
    "no extraction template stored in {ws}/template.txt; pass --template to init, extract or run"
)


@pytest.mark.parametrize("direction, args, message", [
    (synth.DIRECTION, ("eval-extraction", "--gold", "{gold}", "--rel-tol", "-1"),
     "tolerances must be >= 0"),
    (synth.DIRECTION, ("eval-extraction", "--gold", "{gold}", "--abs-tol", "nan"),
     "tolerances must be finite"),
    (synth.DIRECTION, ("eval-extraction", "--gold", "{gold}", "--rel-tol", "nan"),
     "tolerances must be finite"),
    (synth.DIRECTION, ("eval-extraction", "--gold", "{gold}", "--abs-tol", "inf"),
     "tolerances must be finite"),
    (synth.DIRECTION, ("eval-extraction", "--gold", "{gold}", "--rel-tol", "inf"),
     "tolerances must be finite"),
    (" ", (), "research direction is empty"),
    (synth.DIRECTION, ("extract",), NO_TEMPLATE),
    (synth.DIRECTION, ("resume",), NO_TEMPLATE),
    (synth.DIRECTION, ("collect", "--max-papers", "0"), "--max-papers must be >= 1"),
    (synth.DIRECTION, ("collect", "--max-papers", "-3"), "--max-papers must be >= 1"),
], ids=["negative-rel-tol", "nan-abs-tol", "nan-rel-tol", "inf-abs-tol", "inf-rel-tol",
        "blank-direction", "extract-without-template", "resume-without-template",
        "zero-max-papers", "negative-max-papers"])
def test_out_of_range_input_is_a_validation_error(
    tmp_path, corpus_dir, direction, args, message
):
    # With no `args`, `init` itself is the command that must refuse.
    ws = tmp_path / "ws"
    result = invoke(ws, "init", "--direction", direction)
    if args:
        assert result.exit_code == 0
        gold = str(corpus_dir / "gold.jsonl")
        result = invoke(ws, *(arg.format(gold=gold) for arg in args))
    assert result.exit_code == 2, result.stderr
    assert result.stderr.splitlines() == [f"error: {message.format(ws=ws)}"]
    assert "Traceback" not in result.stdout + result.stderr
    assert result.stdout == ""  # refused before the results table
    assert (ws / "manifest.json").exists() == bool(args)


def test_extract_with_a_differing_template_is_a_validation_error(tmp_path, initialized):
    ws, config = initialized
    other = tmp_path / "other.txt"
    other.write_text("another column\n", encoding="utf-8")
    result = invoke(ws, "extract", "--template", str(other), config=config)
    assert result.exit_code == 2, result.stderr
    assert result.stderr.startswith("error: extraction template differs")


def test_extract_topic_holds_for_that_command_only(tmp_path, corpus_dir, monkeypatch):
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
        result = invoke(ws, *args)
        assert result.exit_code == 0, (args, result.stderr)
    assert Workspace.load(ws).direction == synth.DIRECTION


def test_a_table_whose_statistics_overflow_runs_through_analyze_and_report(
    tmp_path, corpus_dir, monkeypatch
):
    # Squares of values near ±1e200 overflow: the regression comes out NaN,
    # which `results.json` may not hold, so every step is skipped with a reason.
    monkeypatch.setattr(
        "manalyzer.cli.build_provider", lambda config, base: synth.AnsweringProvider()
    )
    ws = tmp_path / "ws"
    for args in (
        ("init", "--direction", synth.DIRECTION, "--template", str(corpus_dir / "template.txt")),
        ("ingest", "--from", str(corpus_dir / "docs")),
        ("pack",),
        ("screen",),
        ("extract",),
    ):
        assert invoke(ws, *args).exit_code == 0, args
    for k, path in enumerate(sorted((ws / "extracted").glob("*/table.json"))):
        table = json.loads(path.read_text(encoding="utf-8"))
        table["rows"] = [
            [row[0], (-1) ** (k + i) * (k + 1) * 1e200, (-1) ** i * (i + 2) * 1e200]
            for i, row in enumerate(table["rows"])
        ]
        path.write_text(json.dumps(table), encoding="utf-8")
    for args in (("analyze",), ("report",)):
        result = invoke(ws, *args)
        assert result.exit_code == 0, (args, result.stderr)
    results = json.loads((ws / "analysis" / "results.json").read_text(encoding="utf-8"))
    # Clustering and 1-NN would run on distances that overflow to inf, and
    # come out degenerate (one label predicted for every row): skipped too.
    assert {r["step"]["kind"] for r in results} == {"clustering", "classification", "regression"}
    assert [r["reason"] for r in results] == ["statistics overflow the float range"] * len(results)
    assert list((ws / "analysis").glob("step-*.json")) == []
    assert "statistics overflow the float range" in (ws / "report.md").read_text(encoding="utf-8")


def test_blank_topic_is_a_validation_error(initialized, monkeypatch):
    ws, config = initialized
    for args in (("pack",), ("screen",)):
        assert invoke(ws, *args, config=config).exit_code == 0
    before = tree(ws)
    providers = []
    build_provider = pipeline.build_provider

    def recording_provider(config, base):
        providers.append(build_provider(config, base))
        return providers[-1]

    monkeypatch.setattr("manalyzer.cli.build_provider", recording_provider)
    result = invoke(ws, "extract", "--topic", " ", config=config)
    assert result.exit_code == 2, result.stderr
    assert result.stderr.splitlines() == ["error: --topic is empty"]
    assert [call for provider in providers for call in provider.calls] == []
    assert tree(ws) == before


@pytest.mark.parametrize("name", ["parts.json", "trace.json", "table.json"])
def test_report_and_resume_after_a_kill_at_an_extract_write(
    tmp_path, corpus_dir, initialized, monkeypatch, name
):
    ws, config = initialized
    clean = tmp_path / "clean"
    for args in (
        ("init", "--direction", synth.DIRECTION, "--template", str(corpus_dir / "template.txt")),
        ("ingest", "--from", str(corpus_dir / "docs")),
        ("run",),
    ):
        assert invoke(clean, *args, config=config).exit_code == 0
    victim = synth.KEPT[0]
    write = pipeline.atomic_write_json

    def killing_write(path, payload):
        if path.parent.name == victim and path.name == name:
            raise Killed(path)
        write(path, payload)

    with monkeypatch.context() as patch:
        patch.setattr(pipeline, "atomic_write_json", killing_write)
        with pytest.raises(Killed):
            invoke(ws, "run", config=config)
    assert not (ws / "extracted" / victim / "table.json").exists()
    result = invoke(ws, "report", config=config)
    assert result.exit_code == 0, result.stderr
    result = invoke(ws, "resume", config=config)
    assert result.exit_code == 0, result.stderr
    assert tree(ws) == tree(clean)


def test_a_failed_write_in_a_stage_is_a_stage_failure_and_resumes(
    tmp_path, corpus_dir, initialized, monkeypatch
):
    ws, config = initialized
    clean = tmp_path / "clean"
    for args in (
        ("init", "--direction", synth.DIRECTION, "--template", str(corpus_dir / "template.txt")),
        ("ingest", "--from", str(corpus_dir / "docs")),
        ("run",),
    ):
        assert invoke(clean, *args, config=config).exit_code == 0
    write = pipeline.atomic_write_json

    def full_disk_write(path, payload):
        if path.parent.name == "packed" and path.name == "d03.json":
            raise OSError(28, "No space left on device")
        write(path, payload)

    with monkeypatch.context() as patch:
        patch.setattr(pipeline, "atomic_write_json", full_disk_write)
        result = invoke(ws, "run", config=config)
    assert result.exit_code == 3, result.stderr
    assert result.stderr.splitlines() == [
        "error: stage 'pack' failed: [Errno 28] No space left on device"
    ]
    assert not (ws / "packed" / "d03.json").exists()
    result = invoke(ws, "resume", config=config)
    assert result.exit_code == 0, result.stderr
    assert tree(ws) == tree(clean)


def test_a_failed_write_outside_a_stage_exits_3(tmp_path, corpus_dir, monkeypatch):
    ws = tmp_path / "ws"
    config = corpus_dir / "config.txt"
    assert invoke(ws, "init", "--direction", "x", config=config).exit_code == 0

    def full_disk_save(doc, path):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(collector, "save_parsed", full_disk_save)
    result = invoke(ws, "ingest", "--from", str(corpus_dir / "docs"), config=config)
    assert result.exit_code == 3, result.stderr
    assert result.stderr.splitlines() == ["error: [Errno 28] No space left on device"]


@pytest.fixture(scope="module")
def finished(tmp_path_factory, corpus_dir):
    """A workspace after a full corpus run, and its config; copy it to change it."""
    ws = tmp_path_factory.mktemp("finished") / "ws"
    config = corpus_dir / "config.txt"
    for args in (
        ("init", "--direction", synth.DIRECTION, "--template", str(corpus_dir / "template.txt")),
        ("ingest", "--from", str(corpus_dir / "docs")),
        ("run",),
    ):
        assert invoke(ws, *args, config=config).exit_code == 0
    return ws, config


def test_a_failed_record_write_in_review_marks_the_papers_with_records(
    initialized, finished, monkeypatch
):
    ws, config = initialized
    write = pipeline.atomic_write_json
    records = []

    def full_disk_write(path, payload):
        if path.parent.name == "reviews" and re.fullmatch(r"d\d\d\.json", path.name):
            records.append(path.name)
            if len(records) == 2:
                raise OSError(28, "No space left on device")
        write(path, payload)

    providers = []
    build_provider = pipeline.build_provider

    def recording_provider(config, base):
        providers.append(build_provider(config, base))
        return providers[-1]

    monkeypatch.setattr("manalyzer.cli.build_provider", recording_provider)
    with monkeypatch.context() as patch:
        patch.setattr(pipeline, "atomic_write_json", full_disk_write)
        result = invoke(ws, "run", config=config)
    assert result.exit_code == 3, result.stderr
    assert result.stderr.splitlines() == [
        "error: stage 'review' failed: [Errno 28] No space left on device"
    ]
    # The corpus's one comparative batch wrote d01's record, then failed.
    assert records == ["d01.json", "d02.json"]
    loaded = Workspace.load(ws)
    assert [d for d in loaded.doc_ids() if loaded.status_of(d) == "reviewed"] == ["d01"]
    assert sorted(p.stem for p in (ws / "reviews").glob("d??.json")) == ["d01"]

    result = invoke(ws, "resume", config=config)
    assert result.exit_code == 0, result.stderr
    killed, resumed = providers
    repeated = [key for key in resumed.calls if key in set(killed.calls)]
    assert [tag for tag, _ in repeated] == ["comparative_review"]
    assert tree(ws) == tree(finished[0])


WRONG_SHAPES = {
    "packed": "packed/d01.json",
    "review": "reviews/d01.json",
    "table": "extracted/d01/table.json",
    "trace": "extracted/d01/trace.json",
    "merged": "analysis/merged.json",
}


WRONG_TRACE_ENTRIES = {
    "attempt": b'{"trace": [[]], "violations": []}',
    "violation": b'{"trace": [], "violations": [[]]}',
}


def _string_cell(table):
    table["rows"][0][0] = "1.0"
    return table


def _string_final(record):
    record["final"] = "7.5"
    return record


# Wrong leaf types: `content` rewrites the file's JSON, and the error names
# the field too.
WRONG_LEAVES = {
    "screen-indep-string-score": (
        ("screen",), "reviews/d01.indep.json", b'{"s1": "7", "s2": 8}',
        "IndependentScores.s1: expected",
    ),
    "eval-extraction-string-cell": (
        ("eval-extraction", "--gold", "<corpus>/gold.jsonl"), "extracted/d01/table.json",
        _string_cell, "ExtractedTable.rows: expected",
    ),
    "report-string-final": (
        ("report",), "reviews/d01.json", _string_final, "ReviewRecord.final: expected"
    ),
    # A failure record is read as one, not as an unchecked dict.
    "screen-failure-without-doc-id": (
        ("screen",), "reviews/d01.json", b'{"failed": true}',
        "ReviewFailureRecord: missing field 'doc_id'",
    ),
    "report-failure-with-int-doc-id": (
        ("report",), "reviews/d01.json", b'{"failed": true, "doc_id": 5, "reason": "x"}',
        "ReviewFailureRecord.doc_id: expected str, got int",
    ),
    # A record's doc_id must name its file, or screening counts a paper that is not there.
    "screen-failure-under-another-name": (
        ("screen",), "reviews/d01.json", b'{"doc_id": "zz", "failed": true, "reason": "x"}',
        "doc_id 'zz' is not the file's name",
    ),
    # Read inside the pack stage, yet exit 2 and not the stage's exit 3.
    "pack-empty-parse-file": (
        ("pack",), "parsed/d01.json", b"{}", "ParsedDocument: missing field 'doc_id'"
    ),
    "pack-missing-parse-file": (("pack",), "parsed/d01.json", None, "no such file"),
    "pack-parse-file-under-another-name": (
        ("pack",), "parsed/d01.json", lambda doc: {**doc, "doc_id": "zz"},
        "doc_id 'zz' is not the file's name",
    ),
    "pack-image-outside-the-workspace": (
        ("pack",), "parsed/d01.json",
        lambda doc: {**doc, "figures": [{**doc["figures"][0], "image": "../x.png"}]},
        "figures[0].image: '../x.png' leaves the images directory",
    ),
}


@pytest.mark.parametrize("command, name, content, field", [
    (("report",), "packed/d01.json", b"", None),
    (("screen-eval", "--gold", "<corpus>/screening_gold.txt"), "reviews/d01.json", b"", None),
    *((("report",), name, content, None)
      for name in WRONG_SHAPES.values() for content in (b"[]", b"{}")),
    *((("report",), WRONG_SHAPES["trace"], content, None)
      for content in WRONG_TRACE_ENTRIES.values()),
    *((("screen",), "reviews/d01.indep.json", content, None) for content in (b"[]", b"{}")),
    *WRONG_LEAVES.values(),
], ids=[
    "report", "screen-eval",
    *(f"report-{key}-{kind}" for key in WRONG_SHAPES for kind in ("list", "object")),
    *(f"report-trace-{key}-list" for key in WRONG_TRACE_ENTRIES),
    "screen-indep-list", "screen-indep-object",
    *WRONG_LEAVES,
])
def test_an_undecodable_artifact_exits_2_and_names_the_file(
    request, tmp_path, corpus_dir, command, name, content, field
):
    if command in (("pack",), ("screen",)):
        ws, config = request.getfixturevalue("initialized")
        if command == ("screen",):  # `screen` runs review, which reads the scores back
            assert invoke(ws, "pack", config=config).exit_code == 0
            # d01's independent scores, as the corpus script replies: a
            # record alone would leave `screen` to refuse the missing scores.
            (ws / "reviews" / "d01.indep.json").write_bytes(b'{"s1": 7, "s2": 7}')
    else:
        finished = request.getfixturevalue("finished")
        ws, config = tmp_path / "ws", finished[1]
        shutil.copytree(finished[0], ws)
    if callable(content):
        content = json.dumps(content(json.loads((ws / name).read_text(encoding="utf-8"))))
        content = content.encode("utf-8")
    if content is None:
        (ws / name).unlink()
    else:
        (ws / name).write_bytes(content)
    argv = [arg.replace("<corpus>", str(corpus_dir)) for arg in command]
    result = invoke(ws, *argv, config=config)
    assert result.exit_code == 2, result.stderr
    [line] = result.stderr.splitlines()
    assert line.startswith(f"error: {ws / name}: ")
    if field is not None:
        assert f": {field}" in line, line


def test_an_image_deleted_after_ingest_exits_2_before_any_review_call(initialized):
    ws, config = initialized
    (ws / "images" / "d01-tbl.png").unlink()
    result = invoke(ws, "run", config=config)
    assert result.exit_code == 2, result.stderr
    assert result.stderr.splitlines() == [
        f"error: {ws / 'parsed' / 'd01.json'}: image 'images/d01-tbl.png' (d01-tbl) not found"
    ]
    assert list((ws / "reviews").iterdir()) == []


def test_a_missing_packed_file_exits_2_before_any_review_call(initialized):
    ws, config = initialized
    assert invoke(ws, "pack", config=config).exit_code == 0
    (ws / "packed" / "d01.json").unlink()
    result = invoke(ws, "screen", config=config)
    assert result.exit_code == 2, result.stderr
    assert result.stderr.splitlines() == [f"error: {ws / 'packed' / 'd01.json'}: no such file"]
    assert list((ws / "reviews").iterdir()) == []


@pytest.fixture(scope="module")
def packed_ws(tmp_path_factory, corpus_dir):
    """A corpus workspace after `pack`, and its config; copy it to change it."""
    ws = tmp_path_factory.mktemp("packed") / "ws"
    config = corpus_dir / "config.txt"
    for args in (
        ("init", "--direction", synth.DIRECTION, "--template", str(corpus_dir / "template.txt")),
        ("ingest", "--from", str(corpus_dir / "docs")),
        ("pack",),
    ):
        assert invoke(ws, *args, config=config).exit_code == 0
    return ws, config


@pytest.mark.parametrize("damage", ["empty", "first-half", "empty-object", "deleted"])
def test_a_damaged_packed_file_never_ends_in_a_traceback(tmp_path, packed_ws, damage):
    ws = tmp_path / "ws"
    shutil.copytree(packed_ws[0], ws)
    path = ws / "packed" / "d01.json"
    data = path.read_bytes()
    if damage == "deleted":
        path.unlink()
    else:
        path.write_bytes({"empty": b"", "first-half": data[: len(data) // 2],
                          "empty-object": b"{}"}[damage])
    for command in ("screen", "resume"):
        result = invoke(ws, command, config=packed_ws[1])
        assert result.exit_code in (0, 2), (command, result.stderr)
        if result.exit_code == 2:
            assert result.stderr.startswith(f"error: {path}: "), (command, result.stderr)
            # Refused before the first review call: no review file exists.
            assert list((ws / "reviews").iterdir()) == [], command


@pytest.mark.parametrize("name, refused_by", [
    ("extracted/<doc>/table.json", {"analyze", "report", "eval-extraction"}),
    ("extracted/<doc>/trace.json", {"report"}),
    ("reviews/<doc>.json", {"screen-eval", "report", "screen"}),
    # No command on a finished workspace reads the independent scores.
    ("reviews/<doc>.indep.json", set()),
], ids=["table.json-analyze", "trace.json-report", "record.json-screen", "indep.json-none"])
def test_a_missing_extraction_file_never_ends_in_a_traceback(
    tmp_path, finished, corpus_dir, name, refused_by
):
    """A file the document's status vouches for, deleted: each command
    either gives the intact workspace's output or exits 2 naming the file,
    with nothing printed and nothing written; `refused_by` must exit 2."""
    ws, config = tmp_path / "ws", finished[1]
    shutil.copytree(finished[0], ws)
    commands = [
        ("analyze",), ("report",), ("eval-extraction", "--gold", str(corpus_dir / "gold.jsonl")),
        ("screen-eval", "--gold", str(corpus_dir / "screening_gold.txt")), ("screen",),
        ("resume",),
    ]
    intact = {command: invoke(ws, *command, config=config) for command in commands}
    assert all(result.exit_code == 0 for result in intact.values()), intact
    docs = Workspace.load(ws).docs
    doc_id = next(d for d in sorted(docs) if docs[d] in ("accepted", "analyzed"))
    path = ws / name.replace("<doc>", doc_id)
    path.unlink()
    for command in commands:
        before = tree(ws)
        result = invoke(ws, *command, config=config)
        if command[0] in refused_by:
            assert result.exit_code == 2, (command, result.stderr)
        if result.exit_code == 2:
            assert result.stderr == f"error: {path}: no such file\n", (command, result.stderr)
            assert result.stdout == "", command
            assert tree(ws) == before, command
        else:
            assert result == intact[command], command


def test_opening_a_workspace_decodes_no_review_record(finished, monkeypatch):
    """A review record's listing records `reviewed`: building a `Pipeline`
    reads no `reviews/<doc>.json`, only the files that record later statuses."""
    reads = []
    read = pipeline.read_artifact

    def counting_read(path, cls):
        reads.append(path.relative_to(finished[0]).as_posix())
        return read(path, cls)

    monkeypatch.setattr(pipeline, "read_artifact", counting_read)
    pipeline.Pipeline(Workspace.load(finished[0]), PipelineConfig(), gateway.ScriptedProvider())
    tables = [p.relative_to(finished[0]).as_posix() for p in finished[0].glob("extracted/*/*")
              if p.name == "table.json"]
    assert sorted(reads) == sorted(["analysis/merged.json", "reviews/screening.json", *tables])


@pytest.mark.parametrize("command, expected", [
    (("resume",), "reviewed:        10 (0 failed)"),
    (("screen",), "kept 6 of 10 reviewed papers (0 review failures)"),
], ids=["resume", "screen"])
def test_a_command_with_nothing_to_screen_decodes_no_review_record(
    tmp_path, finished, monkeypatch, command, expected
):
    """`run`'s summary and `screen`'s line count off the status view and
    screening.json: on a finished workspace, neither reads a review record."""
    ws, config = tmp_path / "ws", finished[1]
    shutil.copytree(finished[0], ws)
    reads = []
    read = pipeline.read_artifact

    def counting_read(path, cls):
        reads.append(path.relative_to(ws).as_posix())
        return read(path, cls)

    monkeypatch.setattr(pipeline, "read_artifact", counting_read)
    result = invoke(ws, *command, config=config)
    assert result.exit_code == 0, result.stderr
    assert expected in result.stdout
    records = {f"reviews/{path.stem}.json" for path in ws.glob("parsed/*.json")}
    assert len(records) == 10 and "reviews/screening.json" in reads
    assert not records.intersection(reads), reads


@pytest.mark.parametrize("command, exit_code", [
    (("screen-eval", "--gold", "<corpus>/screening_gold.txt"), 2), (("report",), 2),
    (("screen",), 0), (("run",), 0), (("resume",), 0),
    (("status",), 0), (("pack",), 0), (("extract",), 0), (("analyze",), 0),
    (("eval-extraction", "--gold", "<corpus>/gold.jsonl"), 0),
], ids=lambda value: value[0] if isinstance(value, tuple) else None)
def test_only_the_commands_that_use_a_review_record_refuse_an_undecodable_one(
    tmp_path, finished, corpus_dir, command, exit_code
):
    ws, config = tmp_path / "ws", finished[1]
    shutil.copytree(finished[0], ws)
    path = ws / "reviews" / "d01.json"
    path.write_bytes(b"{")
    argv = [arg.replace("<corpus>", str(corpus_dir)) for arg in command]
    result = invoke(ws, *argv, config=config)
    assert result.exit_code == exit_code, result.stderr
    if exit_code == 2:
        [line] = result.stderr.splitlines()
        assert line.startswith(f"error: {path}: "), line
    else:
        assert result.stderr == ""


def test_a_tampered_status_view_changes_nothing(tmp_path, finished, monkeypatch):
    """No command takes its work from the manifest's `docs` view: with every
    document shown as parsed, `run` on a finished workspace calls no agent
    and leaves the finished tree, the view included, as it was."""
    ws, config = tmp_path / "ws", finished[1]
    shutil.copytree(finished[0], ws)
    manifest = ws / "manifest.json"
    raw = json.loads(manifest.read_text(encoding="utf-8"))
    raw["docs"] = dict.fromkeys(raw["docs"], ["parsed"])
    manifest.write_text(json.dumps(raw), encoding="utf-8")
    calls = []
    complete = gateway.ScriptedProvider.complete

    def counting_complete(self, request):
        calls.append(request.request_tag)
        return complete(self, request)

    monkeypatch.setattr(gateway.ScriptedProvider, "complete", counting_complete)
    result = invoke(ws, "run", config=config)
    assert result.exit_code == 0, result.stderr
    assert calls == []
    assert tree(ws) == tree(finished[0])


def _as_history(status):
    """The status history an older build wrote for a corpus document at `status`."""
    chain = ["parsed", "packed", "reviewed", "screened_in", "extracted", "accepted", "analyzed"]
    outcome_of = {"screened_out": "screened_in", "unaccepted": "accepted"}
    return chain[:chain.index(outcome_of.get(status, status))] + [status]


def test_an_older_builds_history_view_opens_vouches_and_resumes(tmp_path, finished, monkeypatch):
    """A finished workspace whose view an older build wrote as histories
    shows the same status, resumes with no agent call into the one-status
    view, and still vouches for its files."""
    ws, config = tmp_path / "ws", finished[1]
    shutil.copytree(finished[0], ws)
    manifest = ws / "manifest.json"
    shown = invoke(ws, "status", config=config)
    raw = json.loads(manifest.read_text(encoding="utf-8"))
    raw["docs"] = {doc_id: _as_history(status) for doc_id, status in raw["docs"].items()}
    assert raw["docs"]["d01"] == ["parsed", "packed", "reviewed", "screened_in", "extracted",
                                  "accepted", "analyzed"]
    old_form = json.dumps(raw, indent=2, sort_keys=True) + "\n"
    manifest.write_text(old_form, encoding="utf-8")
    assert invoke(ws, "status", config=config) == shown
    assert manifest.read_text(encoding="utf-8") == old_form

    calls = []
    complete = gateway.ScriptedProvider.complete
    monkeypatch.setattr(gateway.ScriptedProvider, "complete",
                        lambda self, request: calls.append(request) or complete(self, request))
    result = invoke(ws, "resume", config=config)
    assert (result.exit_code, result.stderr, calls) == (0, "", [])
    assert tree(ws) == tree(finished[0])

    manifest.write_text(old_form, encoding="utf-8")
    packed = ws / "packed" / "d01.json"
    packed.unlink()
    for command in ("status", "resume"):
        result = invoke(ws, command, config=config)
        assert (result.exit_code, result.stdout) == (2, ""), command
        assert result.stderr == f"error: {packed}: no such file\n", command
    assert calls == []


def test_a_corpus_run_reads_each_artifact_once(initialized, monkeypatch):
    """A read that finds its file happens once per path in a `run`; a parse
    file, which is not kept in memory, at most twice (pack and extract)."""
    ws, config = initialized
    reads = Counter()
    read = pipeline.read_artifact

    def counting_read(path, cls):
        found = read(path, cls)
        if found is not None:
            reads[path.relative_to(ws).as_posix()] += 1
        return found

    monkeypatch.setattr(pipeline, "read_artifact", counting_read)
    assert invoke(ws, "run", config=config).exit_code == 0
    assert reads["packed/d01.json"] == 1
    assert {
        path: count for path, count in reads.items()
        if count > (2 if path.startswith("parsed/") else 1)
    } == {}


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
def test_a_non_finite_threshold_exits_2_before_any_review_call(initialized, value):
    ws, config = initialized
    assert invoke(ws, "pack", config=config).exit_code == 0
    result = invoke(ws, "screen", f"--threshold={value}", config=config)
    assert result.exit_code == 2
    assert result.stderr == "error: reviewer.threshold must be finite\n"
    assert list((ws / "reviews").iterdir()) == []


@pytest.mark.parametrize("value", ["0", "-3"])
def test_collect_below_one_paper_exits_2_before_any_agent_call_or_write(
    initialized, monkeypatch, value
):
    ws, config = initialized
    before = tree(ws)
    calls = []
    complete = gateway.ScriptedProvider.complete
    monkeypatch.setattr(gateway.ScriptedProvider, "complete",
                        lambda self, request: calls.append(request) or complete(self, request))
    result = invoke(ws, "collect", "--max-papers", value, config=config)
    assert (result.exit_code, result.stdout, calls) == (2, "", [])
    assert result.stderr == "error: --max-papers must be >= 1\n"
    assert tree(ws) == before


@pytest.mark.parametrize("damage", ["header", "no-template"])
def test_analyze_refuses_a_table_it_cannot_check_before_any_agent_call_or_write(
    tmp_path, finished, monkeypatch, damage
):
    # A header that is not the template would fail the merge (exit 3).
    ws, config = tmp_path / "ws", finished[1]
    shutil.copytree(finished[0], ws)
    path = ws / "extracted" / "d03" / "table.json"
    if damage == "header":
        table = json.loads(path.read_text(encoding="utf-8"))
        assert table["accepted"] and table["header"][0] == "season"
        table["header"][0] = "Season"
        path.write_text(json.dumps(table), encoding="utf-8")
        expected = f"error: {path}: header ('Season', "
    else:
        (ws / "template.txt").unlink()
        expected = f"error: {NO_TEMPLATE.format(ws=ws)}"
    before = tree(ws)
    calls = []
    complete = gateway.ScriptedProvider.complete
    monkeypatch.setattr(gateway.ScriptedProvider, "complete",
                        lambda self, request: calls.append(request) or complete(self, request))
    result = invoke(ws, "analyze", config=config)
    assert (result.exit_code, result.stdout, calls) == (2, "", [])
    [line] = result.stderr.splitlines()
    assert line.startswith(expected), line
    assert tree(ws) == before


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_a_non_finite_cell_exits_2_and_names_the_file(tmp_path, finished, corpus_dir, value):
    # json.dumps writes NaN, Infinity or -Infinity, which json.loads would
    # read back as a float that passes the cell's type check.
    ws, config = tmp_path / "ws", finished[1]
    shutil.copytree(finished[0], ws)
    path = ws / "extracted" / "d01" / "table.json"
    table = json.loads(path.read_text(encoding="utf-8"))
    table["rows"][0][1] = value
    path.write_text(json.dumps(table), encoding="utf-8")
    result = invoke(
        ws, "eval-extraction", "--gold", str(corpus_dir / "gold.jsonl"), config=config
    )
    assert result.exit_code == 2, result.stderr
    [line] = result.stderr.splitlines()
    assert line.startswith(f"error: {path}: "), line
    assert "non-finite number" in line, line


def test_eval_extraction_missing_gold(initialized):
    ws, config = initialized
    result = invoke(
        ws, "eval-extraction", "--gold", "/nonexistent/gold.jsonl",
        config=config,
    )
    # argparse checks that the path exists before the command runs
    assert result.exit_code == 2


def test_eval_extraction_reads_level3_tolerance_from_config(tmp_path, corpus_dir):
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
        result = invoke(ws, *args, config=config)
        assert result.exit_code == 0, (args, result.stderr)
    result = invoke(
        ws, "eval-extraction", "--gold", str(corpus_dir / "gold.jsonl"), config=config
    )
    assert result.exit_code == 0, result.stderr
    assert "| 1 | 6 | 1.0000 |" in result.stdout
    assert "| 2 | 6 | 1.0000 |" in result.stdout
    assert "| 3 | 6 | 1.0000 |" in result.stdout


def test_python_dash_m_runs_the_command_line(tmp_path):
    argv = ["manalyzer", "--workspace", str(tmp_path / "absent"), "status"]
    result = run_python(
        f"import runpy, sys; sys.argv = {argv!r}; "
        "runpy.run_module('manalyzer.cli', run_name='__main__', alter_sys=True)"
    )
    assert result.returncode == 2, result
    assert result.stderr.startswith("error: ") and "no manifest.json" in result.stderr


# No module imports numpy; the XML parser and the HTTP client are imported
# only by `collect`.
@pytest.mark.parametrize(
    "module", ["requests", "numpy", "click", "xml.etree.ElementTree", "urllib.request"]
)
def test_cli_import_does_not_load(module):
    result = run_python(f"import manalyzer.cli, sys; assert {module!r} not in sys.modules")
    assert result.returncode == 0, result.stderr


def test_cli_import_does_not_load_openssl():
    # Digests come from the interpreter's built-in SHA-256; only `collect`'s
    # HTTPS fetch loads OpenSSL. -S keeps site's .pth imports out of the check.
    result = run_python(
        "import manalyzer.cli, sys\n"
        "print(sorted({'_hashlib', '_ssl', 'hashlib'} & set(sys.modules)))", "-S"
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def test_a_corpus_run_does_not_load_numpy(tmp_path, corpus_dir):
    # Nothing in the pipeline imports numpy, which the test extra installs
    # for the oracles only. The knapsack's own check is in test_packer.
    ws = tmp_path / "ws"
    common = ["--workspace", str(ws), "--config", str(corpus_dir / "config.txt")]
    commands = [
        [*common, "init", "--direction", synth.DIRECTION,
         "--template", str(corpus_dir / "template.txt")],
        [*common, "ingest", "--from", str(corpus_dir / "docs")],
        [*common, "run"],
    ]
    result = run_python(
        "import sys\n"
        "from manalyzer import cli\n"
        f"for argv in {commands!r}:\n"
        "    assert cli.main(argv) == 0, argv\n"
        "assert 'numpy' not in sys.modules, sorted(m for m in sys.modules if 'numpy' in m)\n"
    )
    assert result.returncode == 0, result.stderr
    assert (ws / "analysis" / "step-1-clustering.json").exists()


def test_each_module_imports_on_its_own():
    # In process, the modules are imported in one fixed order, which can
    # hide an import cycle; a fresh interpreter per module cannot.
    names = sorted(p.stem for p in Path(manalyzer.__file__).parent.glob("*.py"))
    with ThreadPoolExecutor(max_workers=2) as pool:
        results = dict(zip(names, pool.map(lambda n: run_python(f"import manalyzer.{n}"), names)))
    assert {n: r.stderr for n, r in results.items() if r.returncode} == {}


def test_collect_dedups_caps_and_skips_undownloadable(tmp_path, monkeypatch):
    ws = tmp_path / "ws"
    assert invoke(ws, "init", "--direction", "soil carbon").exit_code == 0

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
            raise ManalyzerError("x2: no pdf_url and no doi")
        path = papers_dir / f"{meta.doc_id}.pdf"
        path.write_bytes(b"%PDF-1.4")
        return path

    groups = [["soil", "carbon"], ["tillage"], ["never", "searched"]]
    monkeypatch.setattr(collector, "generate_keywords", lambda direction, gateway: groups)
    monkeypatch.setattr(collector, "search", search)
    monkeypatch.setattr(collector, "download_pdf", download_pdf)

    result = invoke(ws, "collect", "--max-papers", "5")
    assert result.exit_code == 0, result.stderr
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


USAGE_ERRORS = {
    "no-command": [],
    "unknown-option": ["status", "--bogus"],
    "abbreviated-option": ["init", "--dir", "x"],
    "abbreviated-global-option": ["--work", "ws", "init", "--direction", "x"],
    "missing-direction": ["init"],
    "max-iter-out-of-range": ["extract", "--max-iter", "4"],
    "unknown-source": ["collect", "--source", "web"],
    "non-integer-budget": ["pack", "--budget", "x"],
    "ingest-from-a-file": ["ingest", "--from", "file.txt"],
    "missing-config": ["--config", "missing.cfg", "init", "--direction", "x"],
    "init-on-a-file": ["--workspace", "file.txt", "init", "--direction", "x"],
}


@pytest.mark.parametrize("argv", USAGE_ERRORS.values(), ids=USAGE_ERRORS)
def test_usage_errors_exit_2_and_write_nothing(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "file.txt").write_text("x\n", encoding="utf-8")
    assert run_cli(argv).exit_code == 2
    assert tree(tmp_path) == {"file.txt": b"x\n"}


def test_ingest_from_a_file_exits_2_and_writes_nothing(tmp_path, corpus_dir):
    ws = tmp_path / "ws"
    assert invoke(ws, "init", "--direction", "x").exit_code == 0
    before = tree(ws)
    result = invoke(ws, "ingest", "--from", corpus_dir / "template.txt")
    assert result.exit_code == 2, result.stderr
    assert tree(ws) == before


def write_doc(source, name, doc_id, text):
    (source / name).write_text(json.dumps({
        "doc_id": doc_id, "title": "t", "paragraphs": [{"index": 0, "text": text}],
    }), encoding="utf-8")


@pytest.mark.parametrize("case", [
    "bad-file-last", "shared-doc-id", "packed", "packed-artifact", "nested-too-deeply", "surrogate",
])
def test_ingest_refuses_a_bad_source_before_writing_anything(tmp_path, case):
    source, ws = tmp_path / "docs", tmp_path / "ws"
    source.mkdir()
    write_doc(source, "a.json", "a", "Alpha.")
    assert invoke(ws, "init", "--direction", "x").exit_code == 0
    if case == "bad-file-last":
        (source / "b.json").write_text("{", encoding="utf-8")
    elif case == "nested-too-deeply":
        (source / "b.json").write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
    elif case == "surrogate":  # the escape decodes to a str that UTF-8 cannot encode
        write_doc(source, "b.json", "b", "Beta \ud800.")
    elif case == "shared-doc-id":
        write_doc(source, "b.json", "a", "Beta.")
    else:
        assert invoke(ws, "ingest", "--from", source).exit_code == 0
        if case == "packed":
            assert invoke(ws, "pack").exit_code == 0
        else:  # what a `pack` killed before its view write leaves
            (ws / "packed" / "a.json").write_text("{}\n", encoding="utf-8")
        write_doc(source, "a.json", "a", "Alpha, revised.")
    before = tree(ws)
    result = invoke(ws, "ingest", "--from", source)
    assert result.exit_code == 2, result.stderr
    assert result.stderr.startswith("error: ")
    if case in ("nested-too-deeply", "surrogate"):
        assert result.stderr.startswith(f"error: {source / 'b.json'}: unreadable parse file: ")
    assert tree(ws) == before


# Names that would alias a file the workspace keeps for something else:
# (doc_id, image path or None, what the error says).
ALIASING_NAMES = {
    # reviews/screening.json would be read as this paper's review record.
    "doc-id-screening": ("screening", None, "makes reviews/screening.json"),
    # reviews/a.indep.json would be read as the record of a paper `a.indep`.
    "doc-id-ending-in-indep": ("a.indep", None, "makes reviews/a.indep.json"),
    # <doc>.indep.json.tmp would not fit in 255 bytes.
    "doc-id-of-241-bytes": ("b" * 241, None, "doc_id is longer than 240 UTF-8 bytes"),
    "image-in-packed": ("b", "packed/a.json", "image 'packed/a.json' is where"),
    "image-at-a-temp-name": ("b", "report.md.tmp", "image 'report.md.tmp' is where"),
    "image-naming-a-directory": ("b", "images", "image 'images' (f1) not found"),
}


@pytest.mark.parametrize("doc_id, image, message", ALIASING_NAMES.values(), ids=ALIASING_NAMES)
def test_ingest_refuses_a_name_that_aliases_a_workspace_file(tmp_path, doc_id, image, message):
    source, ws = tmp_path / "docs", tmp_path / "ws"
    source.mkdir()
    write_doc(source, "a.json", "a", "Alpha.")
    write_doc(source, "b.json", doc_id, "Beta.")
    if image is not None:
        (source / "images").mkdir()
        if image != "images":
            (source / image).parent.mkdir(exist_ok=True)
            (source / image).write_bytes(b"image")
        doc = json.loads((source / "b.json").read_text(encoding="utf-8"))
        doc["figures"] = [{"id": "f1", "image": image}]
        (source / "b.json").write_text(json.dumps(doc), encoding="utf-8")
    assert invoke(ws, "init", "--direction", "x").exit_code == 0
    before = tree(ws)
    result = invoke(ws, "ingest", "--from", source)
    assert result.exit_code == 2, result.stderr
    [line] = result.stderr.splitlines()
    assert line.startswith(f"error: {source / 'b.json'}: ") and message in line, line
    assert tree(ws) == before


@pytest.mark.parametrize("sub", SUBDIRS)
def test_a_deleted_workspace_subdirectory_exits_2_and_names_it(tmp_path, finished, sub):
    ws, config = tmp_path / "ws", finished[1]
    shutil.copytree(finished[0], ws)
    shutil.rmtree(ws / sub)
    for command in ("status", "resume"):
        result = invoke(ws, command, config=config)
        assert result.exit_code == 2, (command, result.stderr)
        assert result.stderr.splitlines() == [f"error: {ws / sub}: no such directory"], command


def test_ingest_refuses_an_image_whose_workspace_path_holds_other_bytes(tmp_path):
    ws = tmp_path / "ws"
    assert invoke(ws, "init", "--direction", "x").exit_code == 0
    sources = {}
    for name, pixels in (("a", b"AAAA"), ("b", b"BBBB")):
        source = sources[name] = tmp_path / name
        (source / "images").mkdir(parents=True)
        (source / "images" / "fig.png").write_bytes(pixels)
        (source / f"{name}1.json").write_text(json.dumps({
            "doc_id": f"{name}1", "paragraphs": [{"index": 0, "text": "p"}],
            "figures": [{"id": "f1", "image": "images/fig.png"}],
        }), encoding="utf-8")
    assert invoke(ws, "ingest", "--from", sources["a"]).exit_code == 0
    # The same bytes again are the image already there: a redone ingest works.
    assert invoke(ws, "ingest", "--from", sources["a"]).exit_code == 0
    before = tree(ws)
    result = invoke(ws, "ingest", "--from", sources["b"])
    assert result.exit_code == 2, result.stderr
    assert result.stderr.splitlines() == [
        f"error: {sources['b'] / 'images/fig.png'}: {ws / 'images/fig.png'} holds another image"
    ]
    assert tree(ws) == before


OPTIONS = {
    "init": ["--direction", "--template"],
    "collect": ["--max-papers", "--source"],
    "ingest": ["--from"],
    "pack": ["--budget"],
    "screen": ["--threshold", "--batch-size"],
    "screen-eval": ["--gold"],
    "extract": ["--template", "--topic", "--max-iter"],
    "analyze": ["--seed"],
    "report": [],
    "eval-extraction": ["--gold", "--abs-tol", "--rel-tol"],
    "run": ["--template"],
    "resume": [],
    "status": [],
}


@pytest.mark.parametrize("argv, names", [
    (["--help"], ["--workspace", "--config", *OPTIONS]),
    *(([command, "--help"], options) for command, options in OPTIONS.items()),
], ids=["group", *OPTIONS])
def test_help_exits_0_and_names_every_option(argv, names):
    result = run_cli(argv)
    assert result.exit_code == 0, result
    assert [name for name in [*names, "--help"] if name not in result.stdout] == []


def test_an_option_value_starting_with_a_dash_is_given_after_an_equals_sign(tmp_path):
    ws = tmp_path / "ws"
    assert run_cli(["--workspace", ws, "init", "--direction=-omega3"]).exit_code == 0
    assert Workspace.load(ws).direction == "-omega3"


@pytest.mark.parametrize("doc_id, image", [
    ("../escaped", "fig.png"),
    ("../../x", "fig.png"),
    ("..", "fig.png"),
    ("d1", "../outside.png"),
    ("d1", "figs/../../outside.png"),
    ("d1", "{absolute}"),
], ids=["doc-id-up", "doc-id-up-twice", "doc-id-dot-dot", "image-up", "image-up-inside",
        "image-absolute"])
def test_ingest_keeps_every_path_inside_the_workspace(tmp_path, doc_id, image):
    source = tmp_path / "in" / "docs"
    (source / "figs").mkdir(parents=True)
    for path in (source / "fig.png", tmp_path / "in" / "outside.png"):
        path.write_bytes(b"png")
    (source / "d1.json").write_text(json.dumps({
        "doc_id": doc_id, "title": "t", "paragraphs": [{"index": 0, "text": "p"}],
        "figures": [{"id": "f1", "caption": "c",
                     "image": image.format(absolute=source / "fig.png")}],
    }), encoding="utf-8")
    # The workspace's parent holds nothing else, so any file written beside
    # the workspace, or anywhere up to one level above it, shows in `out`.
    out = tmp_path / "out"
    ws = out / "ws"
    assert invoke(ws, "init", "--direction", "x").exit_code == 0
    before = tree(out)
    result = invoke(ws, "ingest", "--from", source)
    assert result.exit_code == 2, result.stderr
    assert result.stderr.startswith("error: ")
    assert tree(out) == before


BAD_TEMPLATES = {
    "pipe": ("season | year\nrain\nrain\n", "column 'season | year' holds '|'"),
    "doc-id": ("doc_id\nrain\n", "column 'doc_id' clashes with the merged table's doc_id column"),
    "repeated": ("rain\nyield\n**Rain**\n", "column '**Rain**' clashes with 'rain'"),
}


@pytest.mark.parametrize("command", ["init", "run", "extract"])
@pytest.mark.parametrize("text, message", BAD_TEMPLATES.values(), ids=BAD_TEMPLATES)
def test_a_template_that_can_never_work_is_refused(tmp_path, command, text, message):
    template = tmp_path / "template.txt"
    template.write_text(text, encoding="utf-8")
    ws = tmp_path / "ws"
    if command != "init":
        assert invoke(ws, "init", "--direction", "x").exit_code == 0
    before = tree(tmp_path)
    args = ["--direction", "x"] if command == "init" else []
    result = invoke(ws, command, *args, "--template", template)
    assert result.exit_code == 2, result.stderr
    assert result.stderr.splitlines() == [f"error: template {template}: {message}"]
    assert tree(tmp_path) == before
