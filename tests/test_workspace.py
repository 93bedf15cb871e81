"""Workspace lifecycle: manifest round-trips, the status view's queries,
config digest enforcement, and crash-safe writes."""

import dataclasses
import json
import math
import re
import tracemalloc
from pathlib import Path
from types import UnionType
from typing import Union, get_args, get_origin, get_type_hints

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from manalyzer import workspace
from manalyzer.analysis import AnalysisPlan, AnalysisResult, MergedTable, PlotData
from manalyzer.collector import ImageRef, Paragraph, ParsedDocument, save_parsed
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
    encode,
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
    ws.mark("d01", ["collected", "parsed"])
    ws.mark("d02", ["collected"])
    ws.save()
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


@pytest.mark.parametrize("history", ["parsed", ["parsed", 3]])
def test_load_rejects_a_history_that_is_not_a_list_of_strings(ws, history):
    _rewrite_manifest(ws, lambda raw: raw["docs"].__setitem__("d01", history))
    with pytest.raises(ValueError, match="missing or mistyped"):
        Workspace.load(ws.root)


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
    ws.mark("d01", ["parsed", "packed", "reviewed"])
    assert ws.at_least("d01", "packed")
    assert ws.at_least("d01", "reviewed")
    assert not ws.at_least("d01", "screened_in")


def test_status_counts_uses_latest_status(ws):
    ws.mark("d01", ["collected", "parsed"])
    ws.mark("d02", ["parsed"])
    ws.mark("d03", ["parsed", "packed", "reviewed", "screened_out"])
    counts = ws.status_counts()
    assert counts["parsed"] == 2
    assert counts["collected"] == 0
    assert counts["screened_out"] == 1
    assert sum(counts.values()) == 3
    assert set(counts) == set(STATUS_RANK)


def test_doc_ids_sorted(ws):
    for doc_id in ("d09", "d01", "d05"):
        ws.mark(doc_id, ["collected"])
    assert ws.doc_ids() == ["d01", "d05", "d09"]


def test_docs_at_lists_exactly_the_documents_at_that_status(ws):
    # Two documents at each status, each with one status of every earlier
    # rank in its history, so earlier statuses are in it but not current.
    first_of_rank = {}
    for status, rank in STATUS_RANK.items():
        first_of_rank.setdefault(rank, status)
    at = {status: [f"{status}-b", f"{status}-a"] for status in STATUS_RANK}
    for status, doc_ids in at.items():
        for doc_id in doc_ids:
            ws.mark(doc_id, [first_of_rank[r] for r in range(STATUS_RANK[status])] + [status])
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
        assert path.read_bytes() == (encode(value) + "\n").encode("utf-8")
        assert read_artifact(path, cls) == value
        if cls is ParsedDocument:
            save_parsed(value, path)
            assert path.read_bytes() == encode(value).encode("utf-8")

    round_trip()


def many_parts(last_score=1.0):
    """An `extracted/<doc>/parts.json` of 4,000 parts, over 1 MB encoded,
    whose last part has the mask score `last_score`."""
    parts = tuple(
        ConvertedPart(f"p{i}", "text-paragraph", f"paragraph {i}: " + "words " * 40)
        for i in range(4000)
    )
    mask = tuple(i / 4000 for i in range(3999)) + (last_score,)
    return ExtractionParts(parts, mask, tuple(p.part_id for p in parts), ())


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_the_writer_refuses_a_non_finite_number_and_names_the_file(tmp_path, value):
    path = tmp_path / "table.json"
    table = ExtractedTable("d01", ("x",), ((1.0,), (value,)), (), iteration=1)
    with pytest.raises(ValueError, match=re.escape(f"{path}: Out of range float")):
        atomic_write_json(path, table)
    with pytest.raises(ValueError, match=re.escape(f"{path}: Out of range float")):
        atomic_write_json(path, {"stats": [value]})
    # Refused after tens of KB reached the temp file: that file goes too.
    with pytest.raises(ValueError, match=re.escape(f"{path}: Out of range float")):
        atomic_write_json(path, many_parts(value))
    assert list(tmp_path.iterdir()) == []


def test_a_json_write_never_holds_the_whole_encoding(tmp_path):
    path = tmp_path / "parts.json"
    parts = many_parts()
    tracemalloc.start()
    try:
        atomic_write_json(path, parts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size > 1_000_000
    assert peak < size / 4, f"peak {peak} B for a {size} B file"


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


def test_status_ignores_an_old_builds_log_and_writes_nothing(ws):
    (ws.dir("papers") / "d01.pdf").write_bytes(b"%PDF-1.4")  # records "collected"
    (ws.root / "manifest.log").write_bytes(b'["d01", "parsed"]\n["d02", "reviewed"]\ngarb')
    before = tree(ws.root)
    result = run_cli(["--workspace", ws.root, "status"])
    assert result.exit_code == 0, result.stderr
    assert re.sub(r" +", " ", result.stdout.splitlines()[-1]) == " d01 collected"
    assert tree(ws.root) == before
