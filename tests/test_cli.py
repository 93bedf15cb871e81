"""Command-line flows over the bundled corpus, including exit codes:
0 success, 2 validation problems, 3 stage failures."""

import json
import math
import re
import shutil
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import manalyzer
from manalyzer import collector, pipeline, reviewer, synth
from manalyzer.errors import NotDownloadableError
from manalyzer.workspace import Workspace

from helpers import run_cli, run_python, tree


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
    kept = {d for d, history in docs.items() if "screened_in" in history}
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


@pytest.mark.parametrize("direction, args, message", [
    (synth.DIRECTION, ("eval-extraction", "--gold", "{gold}", "--rel-tol", "-1"),
     "tolerances must be >= 0"),
    (" ", (), "research direction is empty"),
    (synth.DIRECTION, ("extract",), "no extraction template stored; pass --template"),
], ids=["negative-rel-tol", "blank-direction", "extract-without-template"])
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
    assert result.stderr.splitlines() == [f"error: {message}"]
    assert "Traceback" not in result.stdout + result.stderr
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
    # which `results.json` may not hold, so the step is skipped with a reason.
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
    assert "statistics overflow the float range" in json.dumps(results)
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


class Killed(BaseException):
    """A kill of the process, raised where a write would happen."""


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
        ("screen",), "reviews/d01.indep.json", b'{"s1": "7", "s2": 8}', "IndependentScores.s1"
    ),
    "eval-extraction-string-cell": (
        ("eval-extraction", "--gold", "<corpus>/gold.jsonl"), "extracted/d01/table.json",
        _string_cell, "ExtractedTable.rows",
    ),
    "report-string-final": (("report",), "reviews/d01.json", _string_final, "ReviewRecord.final"),
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
    if command == ("screen",):  # `screen` runs review, which reads the scores back
        ws, config = request.getfixturevalue("initialized")
        assert invoke(ws, "pack", config=config).exit_code == 0
    else:
        finished = request.getfixturevalue("finished")
        ws, config = tmp_path / "ws", finished[1]
        shutil.copytree(finished[0], ws)
    if callable(content):
        content = json.dumps(content(json.loads((ws / name).read_text(encoding="utf-8"))))
        content = content.encode("utf-8")
    (ws / name).write_bytes(content)
    argv = [arg.replace("<corpus>", str(corpus_dir)) for arg in command]
    result = invoke(ws, *argv, config=config)
    assert result.exit_code == 2, result.stderr
    [line] = result.stderr.splitlines()
    assert line.startswith(f"error: {ws / name}: ")
    if field is not None:
        assert f": {field}: expected " in line, line


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


# No module imports numpy; the XML parser and the HTTP client are imported
# only by `collect`.
@pytest.mark.parametrize(
    "module", ["requests", "numpy", "click", "xml.etree.ElementTree", "urllib.request"]
)
def test_cli_import_does_not_load(module):
    result = run_python(f"import manalyzer.cli, sys; assert {module!r} not in sys.modules")
    assert result.returncode == 0, result.stderr


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
            raise NotDownloadableError("x2: no pdf_url and no doi")
        return papers_dir / f"{meta.doc_id}.pdf"

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


@pytest.mark.parametrize("case", ["bad-file-last", "shared-doc-id", "packed", "packed-artifact"])
def test_ingest_refuses_a_bad_source_before_writing_anything(tmp_path, case):
    source, ws = tmp_path / "docs", tmp_path / "ws"
    source.mkdir()
    write_doc(source, "a.json", "a", "Alpha.")
    assert invoke(ws, "init", "--direction", "x").exit_code == 0
    if case == "bad-file-last":
        (source / "b.json").write_text("{", encoding="utf-8")
    elif case == "shared-doc-id":
        write_doc(source, "b.json", "a", "Beta.")
    else:
        assert invoke(ws, "ingest", "--from", source).exit_code == 0
        if case == "packed":
            assert invoke(ws, "pack").exit_code == 0
        else:  # what a `pack` killed before its mark leaves
            (ws / "packed" / "a.json").write_text("{}\n", encoding="utf-8")
        write_doc(source, "a.json", "a", "Alpha, revised.")
    before = tree(ws)
    result = invoke(ws, "ingest", "--from", source)
    assert result.exit_code == 2, result.stderr
    assert result.stderr.startswith("error: ")
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
