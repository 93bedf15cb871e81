"""Workspace lifecycle: manifest round-trips, status monotonicity, config
digest enforcement, and crash-safe writes."""

import json
import re

import pytest

from manalyzer import workspace
from manalyzer.config import PipelineConfig, config_digest
from manalyzer.errors import CorruptManifestError, RefuseResumeError, WorkspaceError
from manalyzer.workspace import (
    MANIFEST_VERSION,
    STATUS_RANK,
    SUBDIRS,
    Workspace,
    atomic_write_json,
    atomic_write_text,
)

from helpers import run_cli, tree


@pytest.fixture
def ws(tmp_path):
    return Workspace.init(tmp_path / "run", "test direction", PipelineConfig())


def test_init_lays_out_directories(tmp_path):
    root = tmp_path / "run"
    ws = Workspace.init(root, "dir", PipelineConfig())
    assert ws.manifest_path.exists()
    assert (root / "config.snapshot").exists()
    for sub in SUBDIRS:
        assert (root / sub).is_dir()


def test_init_refuses_existing_workspace(ws):
    with pytest.raises(WorkspaceError, match="already holds"):
        Workspace.init(ws.root, "other", PipelineConfig())


def test_load_round_trip(ws):
    ws.mark("d01", "collected")
    ws.mark("d01", "parsed")
    ws.mark("d02", "collected")
    ws.compact()
    loaded = Workspace.load(ws.root)
    assert loaded.direction == "test direction"
    assert loaded.digest == ws.digest
    assert loaded.docs == {"d01": ["collected", "parsed"], "d02": ["collected"]}


def test_load_requires_manifest(tmp_path):
    with pytest.raises(WorkspaceError, match="not a workspace"):
        Workspace.load(tmp_path)


def test_load_rejects_unparseable_json(ws):
    ws.manifest_path.write_text("{not json", encoding="utf-8")
    with pytest.raises(CorruptManifestError, match="manifest.json: unreadable"):
        Workspace.load(ws.root)


def test_load_rejects_a_non_finite_number(ws):
    ws.manifest_path.write_text('{"version": NaN}', encoding="utf-8")
    with pytest.raises(CorruptManifestError, match="manifest.json: unreadable.*non-finite"):
        Workspace.load(ws.root)


def _rewrite_manifest(ws, mutate):
    raw = json.loads(ws.manifest_path.read_text(encoding="utf-8"))
    mutate(raw)
    ws.manifest_path.write_text(json.dumps(raw), encoding="utf-8")


def test_load_rejects_wrong_version(ws):
    _rewrite_manifest(ws, lambda raw: raw.__setitem__("version", MANIFEST_VERSION + 1))
    with pytest.raises(CorruptManifestError, match="version"):
        Workspace.load(ws.root)


@pytest.mark.parametrize("field", ["docs", "direction", "config_digest"])
def test_load_rejects_mistyped_fields(ws, field):
    _rewrite_manifest(ws, lambda raw: raw.__setitem__(field, 17))
    with pytest.raises(CorruptManifestError, match="missing or mistyped"):
        Workspace.load(ws.root)


def test_load_rejects_empty_history(ws):
    _rewrite_manifest(ws, lambda raw: raw["docs"].__setitem__("d01", []))
    with pytest.raises(CorruptManifestError, match="empty status history"):
        Workspace.load(ws.root)


def test_load_rejects_unknown_status(ws):
    _rewrite_manifest(ws, lambda raw: raw["docs"].__setitem__("d01", ["zapped"]))
    with pytest.raises(CorruptManifestError, match="unknown status"):
        Workspace.load(ws.root)


@pytest.mark.parametrize(
    "history",
    [
        ["parsed", "collected"],  # backwards
        ["collected", "collected"],  # stalled
        ["screened_in", "screened_out"],  # flip between equal-rank outcomes
    ],
)
def test_load_rejects_non_advancing_history(ws, history):
    _rewrite_manifest(ws, lambda raw: raw["docs"].__setitem__("d01", history))
    with pytest.raises(CorruptManifestError, match="regressed"):
        Workspace.load(ws.root)


def test_mark_appends_and_persists(ws):
    ws.mark("d01", "collected")
    ws.compact()
    assert Workspace.load(ws.root).status_of("d01") == "collected"


def test_mark_same_status_is_noop(ws):
    ws.mark("d01", "collected")
    ws.mark("d01", "collected")
    assert ws.docs["d01"] == ["collected"]


def test_mark_conflicting_outcome_fails(ws):
    ws.mark("d01", "screened_in")
    with pytest.raises(CorruptManifestError, match="conflicting outcomes"):
        ws.mark("d01", "screened_out")


def test_mark_regression_fails(ws):
    ws.mark("d01", "packed")
    with pytest.raises(CorruptManifestError, match="regress"):
        ws.mark("d01", "collected")


def test_mark_unknown_status_fails(ws):
    with pytest.raises(WorkspaceError, match="unknown status"):
        ws.mark("d01", "polished")


def test_mark_may_skip_stages(ws):
    # A resumed run can legitimately jump a document several stages ahead
    # in one mark; only regressions are forbidden.
    ws.mark("d01", "collected")
    ws.mark("d01", "screened_out")
    assert ws.docs["d01"] == ["collected", "screened_out"]


def test_check_config_accepts_matching(ws):
    ws.check_config(PipelineConfig())


def test_check_config_rejects_drift(ws):
    with pytest.raises(RefuseResumeError, match="config digest mismatch"):
        ws.check_config(PipelineConfig(packer_budget=64))


def test_digest_recorded_at_init(ws):
    assert ws.digest == config_digest(PipelineConfig())


def test_dir_rejects_unknown_name(ws):
    with pytest.raises(WorkspaceError, match="unknown workspace subdirectory"):
        ws.dir("scratch")
    assert ws.dir("parsed") == ws.root / "parsed"


def test_status_queries(ws):
    assert ws.status_of("ghost") is None
    assert ws.rank_of("ghost") == -1
    ws.mark("d01", "reviewed")
    assert ws.at_least("d01", "packed")
    assert ws.at_least("d01", "reviewed")
    assert not ws.at_least("d01", "screened_in")


def test_status_counts_uses_latest_status(ws):
    ws.mark("d01", "collected")
    ws.mark("d01", "parsed")
    ws.mark("d02", "parsed")
    ws.mark("d03", "screened_out")
    counts = ws.status_counts()
    assert counts["parsed"] == 2
    assert counts["collected"] == 0
    assert counts["screened_out"] == 1
    assert sum(counts.values()) == 3
    assert set(counts) == set(STATUS_RANK)


def test_doc_ids_sorted(ws):
    for doc_id in ("d09", "d01", "d05"):
        ws.mark(doc_id, "collected")
    assert ws.doc_ids() == ["d01", "d05", "d09"]


def test_docs_at_lists_exactly_the_documents_at_that_status(ws):
    # Two documents at each status, each marked through one status of every
    # earlier rank, so earlier statuses are in its history but not current.
    first_of_rank = {}
    for status, rank in STATUS_RANK.items():
        first_of_rank.setdefault(rank, status)
    at = {status: [f"{status}-b", f"{status}-a"] for status in STATUS_RANK}
    for status, doc_ids in at.items():
        for doc_id in doc_ids:
            for rank in range(STATUS_RANK[status]):
                ws.mark(doc_id, first_of_rank[rank])
            ws.mark(doc_id, status)
    for status, doc_ids in at.items():
        assert ws.docs_at(status) == sorted(doc_ids), status
    assert ws.docs_at("packed") == ["packed-a", "packed-b"]  # not "reviewed-*" or later
    assert ws.docs_at("screened_in") == ["screened_in-a", "screened_in-b"]  # not "screened_out-*"


def test_atomic_write_leaves_no_tmp(tmp_path):
    target = tmp_path / "out.txt"
    atomic_write_text(target, "first")
    atomic_write_text(target, "second")
    assert target.read_text(encoding="utf-8") == "second"
    assert list(tmp_path.iterdir()) == [target]


def test_atomic_write_json_is_stable(tmp_path):
    target = tmp_path / "out.json"
    atomic_write_json(target, {"b": 1, "a": [2, 3]})
    first = target.read_bytes()
    atomic_write_json(target, {"a": [2, 3], "b": 1})
    assert target.read_bytes() == first
    assert first.endswith(b"\n")


# -- the manifest write --------------------------------------------------------


def test_mark_writes_nothing_and_compact_writes_the_manifest_once(ws, monkeypatch):
    written = []
    write = workspace.atomic_write_bytes

    def counting_write(path, data):
        written.append(path.name)
        write(path, data)

    monkeypatch.setattr(workspace, "atomic_write_bytes", counting_write)
    before = tree(ws.root)
    ws.mark("d01", "collected")
    ws.mark("d01", "collected")  # no-op
    ws.mark("d01", "parsed")
    assert written == []
    assert tree(ws.root) == before
    ws.compact()
    assert written == ["manifest.json"]
    assert json.loads(ws.manifest_path.read_text(encoding="utf-8"))["docs"] == {
        "d01": ["collected", "parsed"]
    }
    ws.compact()  # nothing pending: no write
    assert written == ["manifest.json"]


def test_status_ignores_an_old_builds_log_and_writes_nothing(ws):
    ws.mark("d01", "collected")
    ws.compact()
    (ws.root / "manifest.log").write_bytes(b'["d01", "parsed"]\n["d02", "reviewed"]\ngarb')
    before = tree(ws.root)
    result = run_cli(["--workspace", ws.root, "status"])
    assert result.exit_code == 0, result.stderr
    assert re.sub(r" +", " ", result.stdout.splitlines()[-1]) == " d01 collected"
    assert tree(ws.root) == before
