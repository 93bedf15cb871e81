"""Workspace lifecycle: manifest round-trips, status monotonicity, config
digest enforcement, and crash-safe writes."""

import dataclasses
import json
import math
import re
from pathlib import Path
from types import UnionType
from typing import Union, get_args, get_origin, get_type_hints

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from manalyzer import workspace
from manalyzer.analysis import AnalysisPlan, AnalysisResult, MergedTable, PlotData
from manalyzer.collector import ImageRef, Paragraph, ParsedDocument
from manalyzer.config import PipelineConfig, config_digest
from manalyzer.extraction import ORIGIN_LABELS, ConvertedPart, ExtractedTable
from manalyzer.packer import PackedDocument
from manalyzer.pipeline import (
    ExtractionParts, ExtractionTrace, IndependentFailure, ReviewFailureRecord, Screening,
)
from manalyzer.reviewer import IndependentScores, ReviewRecord
from manalyzer.workspace import (
    MANIFEST_VERSION,
    STATUS_RANK,
    SUBDIRS,
    Workspace,
    atomic_write_json,
    atomic_write_text,
    read_artifact,
    read_json,
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
    with pytest.raises(ValueError, match="already holds"):
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
    with pytest.raises(ValueError, match="not a workspace"):
        Workspace.load(tmp_path)


def test_load_rejects_unparseable_json(ws):
    ws.manifest_path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ValueError, match="manifest.json: unreadable"):
        Workspace.load(ws.root)


def test_load_rejects_a_non_finite_number(ws):
    ws.manifest_path.write_text('{"version": NaN}', encoding="utf-8")
    with pytest.raises(ValueError, match="manifest.json: unreadable.*non-finite"):
        Workspace.load(ws.root)


def _rewrite_manifest(ws, mutate):
    raw = json.loads(ws.manifest_path.read_text(encoding="utf-8"))
    mutate(raw)
    ws.manifest_path.write_text(json.dumps(raw), encoding="utf-8")


def test_load_rejects_wrong_version(ws):
    _rewrite_manifest(ws, lambda raw: raw.__setitem__("version", MANIFEST_VERSION + 1))
    with pytest.raises(ValueError, match="version"):
        Workspace.load(ws.root)


@pytest.mark.parametrize("field", ["docs", "direction", "config_digest"])
def test_load_rejects_mistyped_fields(ws, field):
    _rewrite_manifest(ws, lambda raw: raw.__setitem__(field, 17))
    with pytest.raises(ValueError, match="missing or mistyped"):
        Workspace.load(ws.root)


def test_load_rejects_empty_history(ws):
    _rewrite_manifest(ws, lambda raw: raw["docs"].__setitem__("d01", []))
    with pytest.raises(ValueError, match="empty status history"):
        Workspace.load(ws.root)


def test_load_rejects_unknown_status(ws):
    _rewrite_manifest(ws, lambda raw: raw["docs"].__setitem__("d01", ["zapped"]))
    with pytest.raises(ValueError, match="unknown status"):
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
    with pytest.raises(ValueError, match="regressed"):
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
    with pytest.raises(ValueError, match="conflicting outcomes"):
        ws.mark("d01", "screened_out")


def test_mark_regression_fails(ws):
    ws.mark("d01", "packed")
    with pytest.raises(ValueError, match="regress"):
        ws.mark("d01", "collected")


def test_mark_unknown_status_fails(ws):
    with pytest.raises(ValueError, match="unknown status"):
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
    with pytest.raises(ValueError, match="config digest mismatch"):
        ws.check_config(PipelineConfig(packer_budget=64))


def test_digest_recorded_at_init(ws):
    assert ws.digest == config_digest(PipelineConfig())


def test_dir_rejects_unknown_name(ws):
    with pytest.raises(ValueError, match="unknown workspace subdirectory"):
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


# -- the artifact codec --------------------------------------------------------

# What each artifact file is read back as; a union is a file that holds
# either member.
ARTIFACTS = [
    PackedDocument, IndependentScores | IndependentFailure, ReviewRecord | ReviewFailureRecord,
    Screening, ExtractionParts, ExtractionTrace, ExtractedTable, MergedTable, AnalysisPlan,
    tuple[AnalysisResult, ...], PlotData, ParsedDocument,
]
FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [1e-300, -1e-300, 1e308, -1e308, -0.0, 5e-324]
)
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | FLOATS | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8,
)
LEAVES = {int: st.integers(), float: FLOATS, str: st.text(), bool: st.booleans(),
          type(None): st.none(), object: JSON}


# Unique non-empty ids, and image paths that stay inside the images directory.
IMAGE_REFS = st.lists(
    st.builds(
        ImageRef, st.text(min_size=1),
        st.text(min_size=1).filter(lambda s: not Path(s).is_absolute() and ".." not in Path(s).parts),
        st.text(),
    ),
    max_size=3, unique_by=lambda ref: ref.id,
).map(tuple)

# Dataclasses whose constructor admits less than their field types.
CHECKED = {
    IndependentScores: st.builds(IndependentScores, st.integers(1, 10), st.integers(1, 10)),
    ConvertedPart: st.builds(
        ConvertedPart, st.text(), st.sampled_from(sorted(ORIGIN_LABELS)), st.text(),
        st.text(min_size=1), st.text(min_size=1),
    ),
    ParsedDocument: st.builds(
        ParsedDocument,
        doc_id=st.text(min_size=1).filter(lambda s: "/" not in s and s not in (".", "..")),
        paragraphs=st.lists(st.text(), max_size=3).map(
            lambda texts: tuple(Paragraph(i, text) for i, text in enumerate(texts))
        ),
        title=st.text(), doi=st.none() | st.text(), figures=IMAGE_REFS, tables=IMAGE_REFS,
    ),
}


def values_of(hint):
    """The values of type `hint` that an artifact may hold: finite floats,
    stored fields only, and JSON values where the hint admits anything."""
    if hint in CHECKED:
        return CHECKED[hint]
    if dataclasses.is_dataclass(hint):
        hints = get_type_hints(hint)
        return st.builds(hint, **{
            f.name: values_of(hints[f.name])
            for f in dataclasses.fields(hint) if not f.metadata.get("transient")
        })
    origin, args = get_origin(hint), get_args(hint)
    if origin is tuple:
        return st.lists(values_of(args[0]), max_size=3).map(tuple)
    if origin in (Union, UnionType):
        return st.one_of(*map(values_of, args))
    if origin is dict:
        return st.dictionaries(st.text(), JSON, max_size=3)
    return LEAVES[hint]


@pytest.mark.parametrize(
    "cls", ARTIFACTS, ids=lambda hint: re.sub(r"<class '|'>|\w+\.", "", str(hint))
)
def test_every_artifact_reads_back_as_written(tmp_path, cls):
    path = tmp_path / "artifact.json"

    @settings(max_examples=60, deadline=None)
    @given(values_of(cls))
    def round_trip(value):
        atomic_write_json(path, value)
        assert read_artifact(path, cls) == value

    round_trip()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_the_writer_refuses_a_non_finite_number_and_names_the_file(tmp_path, value):
    path = tmp_path / "table.json"
    table = ExtractedTable("d01", ("x",), ((1.0,), (value,)), (), iteration=1)
    with pytest.raises(ValueError, match=re.escape(f"{path}: Out of range float")):
        atomic_write_json(path, table)
    with pytest.raises(ValueError, match=re.escape(f"{path}: Out of range float")):
        atomic_write_json(path, {"stats": [value]})
    assert list(tmp_path.iterdir()) == []


def test_kept_stays_out_of_the_review_record_file(tmp_path):
    path = tmp_path / "d01.json"
    record = ReviewRecord("d01", 7, 7, 0.5, 7.0, 0, kept=True)
    atomic_write_json(path, record)
    assert "kept" not in read_json(path)
    assert read_artifact(path, ReviewRecord) == dataclasses.replace(record, kept=False)
    path.write_text(json.dumps({**read_json(path), "kept": True}), encoding="utf-8")
    with pytest.raises(ValueError, match="ReviewRecord: unknown field 'kept'"):
        read_artifact(path, ReviewRecord)


def test_a_union_reads_the_member_that_declares_every_key(tmp_path):
    path = tmp_path / "d01.json"
    for raw, message in (
        ({"failed": True}, "ReviewFailureRecord: missing field 'doc_id'"),
        ({"doc_id": 5, "failed": True, "reason": "x"},
         "ReviewFailureRecord.doc_id: expected str, got int"),
        ({"s1": 7, "failed": True}, "ReviewRecord: unknown field 'failed'"),
        ([], "ReviewRecord: expected an object, got list"),
    ):
        path.write_text(json.dumps(raw), encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            read_artifact(path, ReviewRecord | ReviewFailureRecord)
    assert read_artifact(tmp_path / "absent.json", ReviewRecord | ReviewFailureRecord) is None


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
