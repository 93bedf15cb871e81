"""Workspace lifecycle: manifest round-trips, status monotonicity, config
digest enforcement, and crash-safe writes."""

import json
import re

import pytest

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
    loaded = Workspace.load(ws.root)
    assert loaded.direction == "test direction"
    assert loaded.digest == ws.digest
    assert loaded.docs == {"d01": ["collected", "parsed"], "d02": ["collected"]}


def test_load_requires_manifest(tmp_path):
    with pytest.raises(WorkspaceError, match="not a workspace"):
        Workspace.load(tmp_path)


def test_load_rejects_unparseable_json(ws):
    ws.manifest_path.write_text("{not json", encoding="utf-8")
    with pytest.raises(CorruptManifestError, match="unreadable"):
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
    # Every mark hits disk; a crash right after must not lose the status.
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


# -- the status log ------------------------------------------------------------


def test_mark_appends_one_log_line_and_compact_folds_it(ws):
    snapshot = ws.manifest_path.read_bytes()
    ws.mark("d01", "collected")
    ws.mark("d01", "collected")  # no-op: nothing logged
    ws.mark("d01", "parsed")
    assert ws.manifest_path.read_bytes() == snapshot
    assert ws.log_path.read_text(encoding="utf-8") == (
        '["d01", "collected"]\n["d01", "parsed"]\n'
    )
    ws.compact()
    assert not ws.log_path.exists()
    assert json.loads(ws.manifest_path.read_text(encoding="utf-8"))["docs"] == {
        "d01": ["collected", "parsed"]
    }
    ws.compact()  # nothing pending: no write
    assert not ws.log_path.exists()


@pytest.mark.parametrize("torn", [b'["d02", "pars', b'["d02", "parsed"]', b'["d02", "pars\n'],
                         ids=["no-newline", "unterminated", "undecodable"])
def test_replay_ignores_torn_last_line(ws, torn):
    ws.mark("d01", "collected")
    ws.mark("d01", "parsed")
    with ws.log_path.open("ab") as log:
        log.write(torn)
    loaded = Workspace.load(ws.root)
    assert loaded.docs == {"d01": ["collected", "parsed"]}
    # The next mark folds the torn log into the snapshot instead of
    # appending after the torn line.
    loaded.mark("d02", "parsed")
    assert not loaded.log_path.exists()
    assert Workspace.load(ws.root).docs == {"d01": ["collected", "parsed"], "d02": ["parsed"]}


@pytest.mark.parametrize("bad, message", [
    (b"garbage\n", "does not decode"),
    (b'["d01"]\n', "not a \\[doc_id, status\\] pair"),
    (b'["d01", "polished"]\n', "not a \\[doc_id, status\\] pair"),
    (b'["d01", "collected"]\n', "regress"),
], ids=["undecodable", "short", "unknown-status", "regression"])
def test_replay_rejects_a_bad_line_before_the_last(ws, bad, message):
    ws.mark("d01", "parsed")
    with ws.log_path.open("ab") as log:
        log.write(bad + b'["d02", "parsed"]\n')
    with pytest.raises(CorruptManifestError, match=message):
        Workspace.load(ws.root)


def test_bad_log_line_exits_2_through_the_cli(ws):
    ws.mark("d01", "parsed")
    with ws.log_path.open("ab") as log:
        log.write(b'garbage\n["d02", "parsed"]\n')
    result = run_cli(["--workspace", ws.root, "status"])
    assert result.exit_code == 2
    assert len(result.stderr.splitlines()) == 1
    assert result.stderr.startswith("error: ") and "line 2 does not decode" in result.stderr


def test_log_beside_compacted_manifest_replays_as_no_op(ws):
    # A kill between the snapshot's rename and the log's unlink.
    for doc_id, status in (("d01", "collected"), ("d01", "parsed"), ("d02", "screened_out")):
        ws.mark(doc_id, status)
    log = ws.log_path.read_bytes()
    ws.compact()
    snapshot = ws.manifest_path.read_bytes()
    ws.log_path.write_bytes(log)
    loaded = Workspace.load(ws.root)
    assert loaded.docs == ws.docs
    loaded.compact()
    assert ws.manifest_path.read_bytes() == snapshot
    assert not ws.log_path.exists()


def test_status_replays_a_pending_log_and_writes_nothing(ws):
    ws.mark("d01", "collected")
    ws.compact()
    ws.mark("d01", "parsed")
    ws.mark("d02", "reviewed")
    before = tree(ws.root)
    result = run_cli(["--workspace", ws.root, "status"])
    assert result.exit_code == 0, result.stderr
    lines = result.stdout.splitlines()
    assert re.sub(r" +", " ", lines[-2]) == " d01 parsed"
    assert re.sub(r" +", " ", lines[-1]) == " d02 reviewed"
    assert tree(ws.root) == before
