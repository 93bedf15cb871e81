"""Workspace lifecycle: manifest round-trips, the status view's queries,
config digest enforcement, crash-safe writes, and the artifact codec
against the stdlib's pure-Python encoder."""

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

from manalyzer.analysis import AnalysisResult, MergedTable, PlotData
from manalyzer.collector import ImageRef, Paragraph, ParsedDocument, save_parsed
from manalyzer.config import PipelineConfig, config_digest
from manalyzer.extraction import ORIGIN_LABELS, ConvertedPart, ExtractedTable, ProvenanceEntry
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
    from_json,
    read_artifact,
    read_json,
)

from helpers import run_cli, run_python, tree

TESTS = Path(__file__).resolve().parent


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
    ws.mark("d01", "parsed")
    ws.mark("d02", "collected")
    ws.save()
    loaded = Workspace.load(ws.root)
    assert loaded.direction == "test direction"
    assert loaded.digest == ws.digest
    assert loaded.docs == {"d01": "parsed", "d02": "collected"}
    assert json.loads(ws.manifest_path.read_text(encoding="utf-8"))["docs"] == loaded.docs


def test_load_reads_an_older_builds_history_as_its_last_status(ws):
    _rewrite_manifest(ws, lambda raw: raw.__setitem__(
        "docs", {"d01": ["collected", "parsed"], "d02": ["parsed"], "d03": "packed"}
    ))
    loaded = Workspace.load(ws.root)
    assert loaded.docs == {"d01": "parsed", "d02": "parsed", "d03": "packed"}
    loaded.save()
    assert Workspace.load(ws.root).docs == loaded.docs
    assert json.loads(ws.manifest_path.read_text(encoding="utf-8"))["docs"] == loaded.docs


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


@pytest.mark.parametrize("version", [MANIFEST_VERSION + 1, True, 1.0, "1"])
def test_load_rejects_wrong_version(ws, version):
    _rewrite_manifest(ws, lambda raw: raw.__setitem__("version", version))
    with pytest.raises(ValueError, match="unsupported manifest version in"):
        Workspace.load(ws.root)


@pytest.mark.parametrize("field", ["docs", "direction", "config_digest"])
def test_load_rejects_mistyped_fields(ws, field):
    _rewrite_manifest(ws, lambda raw: raw.__setitem__(field, 17))
    with pytest.raises(ValueError, match="missing or mistyped"):
        Workspace.load(ws.root)


@pytest.mark.parametrize("entry", [3, None, [], ["parsed", 3], [3, "parsed"], {"s": "parsed"}])
def test_load_rejects_a_status_that_is_neither_a_string_nor_a_history(ws, entry):
    _rewrite_manifest(ws, lambda raw: raw["docs"].__setitem__("d01", entry))
    with pytest.raises(ValueError, match="manifest.json: manifest fields missing or mistyped"):
        Workspace.load(ws.root)


def test_any_json_manifest_loads_or_is_a_value_error_naming_it(ws):
    """A manifest.json holding any JSON, the history form an older build
    wrote among it, loads as one string status per document, or is a
    ValueError naming the file: never a TypeError, KeyError or the like."""
    status = st.sampled_from(sorted(STATUS_RANK)) | st.text(max_size=3)
    view = st.dictionaries(st.text(max_size=3), status | st.lists(status, max_size=3) | JSON,
                           max_size=4)
    well_typed = st.fixed_dictionaries({"version": st.just(MANIFEST_VERSION),
                                        "direction": st.text(), "config_digest": st.text(),
                                        "docs": view})
    fields = {"version": st.just(MANIFEST_VERSION) | JSON, "direction": st.text() | JSON,
              "config_digest": st.text() | JSON, "docs": view | JSON}
    manifest = st.one_of(well_typed, well_typed, st.fixed_dictionaries({}, optional=fields), JSON)

    @settings(max_examples=300, deadline=None)
    @given(manifest)
    def loads_or_names_the_file(raw):
        ws.manifest_path.write_text(json.dumps(raw), encoding="utf-8")
        try:
            loaded = Workspace.load(ws.root)
        except ValueError as exc:
            assert str(ws.manifest_path) in str(exc), exc
            return
        assert loaded.docs == {d: e if isinstance(e, str) else e[-1] for d, e in raw["docs"].items()}
        assert all(isinstance(s, str) and loaded.status_of(d) == s for d, s in loaded.docs.items())

    loads_or_names_the_file()


@pytest.mark.parametrize("text, refusal", [
    ('{"a": [1, 2.5, "\\u00e9"], "b": null}', None),
    ("\ufeff{}", None),
    ("{", None),
    ('{"a": 1} x', None),
    ('{"a": NaN}', "non-finite number NaN"),
    ("-Infinity", "non-finite number -Infinity"),
    ("[" * 100_000 + "]" * 100_000, "JSON nested too deeply to decode"),
])
def test_read_json_decodes_as_json_loads_with_a_decoder_built_once(
    tmp_path, monkeypatch, text, refusal
):
    """`read_json` is `json.loads`, with its messages, less the non-finite
    numbers and the RecursionError, and it builds no decoder per call."""
    path = tmp_path / "file.json"
    path.write_text(text, encoding="utf-8")
    built = []
    init = json.JSONDecoder.__init__
    monkeypatch.setattr(json.JSONDecoder, "__init__",
                        lambda self, *a, **k: built.append(k) or init(self, *a, **k))
    if refusal is None:
        try:
            expected = json.loads(text)
        except ValueError as exc:
            refusal = str(exc)
        else:
            assert read_json(path) == expected
    if refusal is not None:
        with pytest.raises(ValueError) as refused:
            read_json(path)
        assert str(refused.value) == refusal
    assert built == []


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
    assert ws.status_of("d01") == "reviewed"
    assert ws.at_least("d01", "packed")
    assert ws.at_least("d01", "reviewed")
    assert not ws.at_least("d01", "screened_in")


def test_status_counts_uses_latest_status(ws):
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
    # Two documents at each status, so every earlier status is some other
    # document's current one.
    at = {status: [f"{status}-b", f"{status}-a"] for status in STATUS_RANK}
    for status, doc_ids in at.items():
        for doc_id in doc_ids:
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

def oracle(obj):
    """The artifact format as the stdlib's pure-Python encoder writes it (it
    takes that path whenever `indent` is set): the writer's reference."""
    return json.dumps(
        obj, indent=2, sort_keys=True, allow_nan=False,
        default=lambda d: {
            f.name: getattr(d, f.name) for f in dataclasses.fields(d)
            if not f.metadata.get("transient")
        },
    )


# What each artifact file is read back as; a union is a file that holds
# either member.
ARTIFACTS = [
    PackedDocument, IndependentScores | IndependentFailure, ReviewRecord | ReviewFailureRecord,
    Screening, ExtractionParts, ExtractionTrace, ExtractedTable, MergedTable,
    tuple[AnalysisResult, ...], PlotData, ParsedDocument,
]
FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [1e-300, -1e-300, 1e308, -1e308, -0.0, 5e-324, 1e-7, 1e16]
)
INTS = st.integers() | st.sampled_from([2**63, -(2**64) - 1, 10**40])
SCALARS = st.none() | st.booleans() | INTS | FLOATS | st.text()
JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8,
)
LEAVES = {int: INTS, float: FLOATS, str: st.text(), bool: st.booleans(),
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


def as_wide_as_header(cls):
    """Tables of type `cls` whose every row has one cell per header column."""
    hints = get_type_hints(cls)
    cell = values_of(get_args(get_args(hints["rows"])[0])[0])
    others = {f.name: values_of(hints[f.name]) for f in dataclasses.fields(cls)
              if f.name not in ("header", "rows")}
    return st.lists(st.text(), max_size=3).map(tuple).flatmap(lambda header: st.builds(
        cls, header=st.just(header), **others,
        rows=st.lists(st.lists(cell, min_size=len(header), max_size=len(header)).map(tuple),
                      max_size=3).map(tuple),
    ))


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


CHECKED.update({cls: as_wide_as_header(cls) for cls in (ExtractedTable, MergedTable)})


@pytest.mark.parametrize(
    "cls", ARTIFACTS, ids=lambda hint: re.sub(r"<class '|'>|\w+\.", "", str(hint))
)
def test_every_artifact_reads_back_as_written(tmp_path, cls):
    path = tmp_path / "artifact.json"

    @settings(max_examples=60, deadline=None)
    @given(values_of(cls))
    def round_trip(value):
        atomic_write_json(path, value)
        assert path.read_bytes() == (oracle(value) + "\n").encode("utf-8")
        assert read_artifact(path, cls) == value
        if cls is ParsedDocument:
            save_parsed(value, path)
            assert path.read_bytes() == oracle(value).encode("utf-8")

    round_trip()


@dataclasses.dataclass(frozen=True)
class Record:
    """A flat record while its values are scalars; `hidden` never reaches the file."""

    b: object
    a: object = None
    hidden: object = dataclasses.field(default=None, metadata={"transient": True})


@dataclasses.dataclass(frozen=True)
class Single:
    only: object


@dataclasses.dataclass(frozen=True)
class Bare:
    hidden: object = dataclasses.field(default=None, metadata={"transient": True})


# Trees of dataclasses, tuples, lists and dicts: flat and nested records,
# long runs of flat records, empty containers, keys that are not strings.
TREES = st.recursive(
    SCALARS | st.builds(Bare, SCALARS),
    lambda inner: (
        st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(st.text(), inner, max_size=4)
        | st.dictionaries(INTS, inner, max_size=3)
        | st.builds(Record, inner, inner, inner) | st.builds(Single, inner)
        | st.lists(st.builds(Record, SCALARS, SCALARS), max_size=140).map(tuple)
        | st.lists(SCALARS, max_size=140)
    ),
    max_leaves=12,
)


def test_the_writer_writes_the_bytes_of_the_pure_python_encoder(tmp_path):
    path = tmp_path / "tree.json"

    @settings(max_examples=150, deadline=None)
    @given(TREES)
    def same_bytes(value):
        assert encode(value) == oracle(value)
        atomic_write_json(path, value)
        assert path.read_bytes() == (oracle(value) + "\n").encode("ascii")

    same_bytes()


def assert_written_as_the_oracle_writes(ws):
    """Every JSON file under `ws` holds the reference encoding of what it
    decodes to (a newline after it or not: the pins hold which)."""
    checked = []
    for path in sorted(ws.rglob("*.json")):
        text = path.read_text(encoding="utf-8")
        assert text.removesuffix("\n") == oracle(json.loads(text)), path
        checked.append(path.relative_to(ws).as_posix())
    assert {"manifest.json", "parsed/d01.json", "extracted/d01/parts.json",
            "analysis/results.json"} <= set(checked)


@pytest.mark.parametrize("encoder", ["c", "python"])
def test_every_file_of_a_finished_corpus_workspace_is_written_as_the_oracle_writes(
    tmp_path, encoder
):
    # The readme flow matches its pin, byte for byte, with `_json` blocked
    # too, as in an interpreter built without it.
    block = 'sys.modules["_json"] = None' if encoder == "python" else ""
    result = run_python(f"""
import sys
{block}
sys.path.insert(0, {str(TESTS)!r})
from json import encoder
assert (encoder.c_make_encoder is None) == {encoder == "python"}
from pathlib import Path
import test_golden, test_workspace
ws = Path({str(tmp_path / "demo")!r})
test_golden._assert_matches_pin("readme", ws)
test_workspace.assert_written_as_the_oracle_writes(ws)
""")
    assert result.returncode == 0, result.stderr


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
    refusal = re.escape(f"{path}: Out of range float values are not JSON compliant: {value!r}")
    table = ExtractedTable("d01", ("x",), ((1.0,), (value,)), (), iteration=1)
    with pytest.raises(ValueError, match=refusal):
        atomic_write_json(path, table)
    with pytest.raises(ValueError, match=refusal):
        atomic_write_json(path, {"stats": [value]})
    with pytest.raises(ValueError, match=refusal):  # in a flat record
        atomic_write_json(path, dataclasses.replace(table, rows=(), provenance=(
            ProvenanceEntry(1.0, "p1", 0, 0), ProvenanceEntry(value, "p1", 1, 0),
        )))
    # Refused after tens of KB reached the temp file: that file goes too.
    with pytest.raises(ValueError, match=refusal):
        atomic_write_json(path, many_parts(value))
    assert list(tmp_path.iterdir()) == []


def many_paragraphs():
    """A parse file of 4,000 paragraphs, over 1 MB encoded."""
    paragraphs = tuple(Paragraph(i, f"paragraph {i}: " + "words " * 40) for i in range(4000))
    return ParsedDocument("d01", paragraphs, title="Many paragraphs")


@pytest.mark.parametrize("write, build", [
    (atomic_write_json, many_parts),
    (lambda path, doc: save_parsed(doc, path), many_paragraphs),  # no trailing newline
], ids=["parts", "parse_file"])
def test_a_json_write_never_holds_the_whole_encoding(tmp_path, write, build):
    path, value = tmp_path / "artifact.json", build()
    tracemalloc.start()
    try:
        write(path, value)
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


REVIEW = ReviewRecord | ReviewFailureRecord
PACKED = {"doc_id": "d01", "selected_indices": [0, 2], "total_weight": 3,
          "total_importance": 9, "budget": 5}
SCREENING = {"threshold": 6.5, "kept": ["d01"], "excluded": [], "failures": []}
PARTS = {"parts": [], "mask": [], "retained": [], "warnings": []}
TABLE = {"doc_id": "d01", "header": ["x"], "rows": [[1.0]], "provenance": [], "iteration": 1}
STEP = {"kind": "regression", "features": ["x"]}

# A malformed record of each artifact type, and the message it is refused
# with: a wrong leaf type, an unknown field, a missing field, a non-list
# tuple, a non-object dataclass, a union with no fitting member.
MALFORMED = [
    (PackedDocument, {**PACKED, "doc_id": 5}, "PackedDocument.doc_id: expected str, got int"),
    (PackedDocument, {**PACKED, "budget": 5.0}, "PackedDocument.budget: expected int, got float"),
    (PackedDocument, {**PACKED, "extra": 1}, "PackedDocument: unknown field 'extra'"),
    (PackedDocument, {k: v for k, v in PACKED.items() if k != "budget"},
     "PackedDocument: missing field 'budget'"),
    (PackedDocument, {**PACKED, "selected_indices": "0,2"},
     "PackedDocument.selected_indices: expected a list, got str"),
    (PackedDocument, {**PACKED, "selected_indices": [0, True]},
     "PackedDocument.selected_indices: expected int, got bool"),
    (PackedDocument, [PACKED], "PackedDocument: expected an object, got list"),
    (IndependentScores | IndependentFailure, {"s1": 7, "s2": "8"},
     "IndependentScores.s2: expected int, got str"),
    (IndependentScores | IndependentFailure, {"s1": 7, "failed": True},
     "IndependentScores: unknown field 'failed'"),
    (IndependentScores | IndependentFailure, {"failed": True},
     "IndependentFailure: missing field 'reason'"),
    (IndependentScores | IndependentFailure, {"s1": 11, "s2": 8}, "s1=11 outside [1, 10]"),
    (IndependentScores | IndependentFailure, None,
     "IndependentScores: expected an object, got NoneType"),
    (REVIEW, {"failed": True}, "ReviewFailureRecord: missing field 'doc_id'"),
    (REVIEW, {"doc_id": 5, "failed": True, "reason": "x"},
     "ReviewFailureRecord.doc_id: expected str, got int"),
    (REVIEW, {"s1": 7, "failed": True}, "ReviewRecord: unknown field 'failed'"),
    (REVIEW, [], "ReviewRecord: expected an object, got list"),
    (Screening, {**SCREENING, "kept": ["d01", 1]}, "Screening.kept: expected str, got int"),
    (Screening, {**SCREENING, "threshold": "6.5"}, "Screening.threshold: expected float, got str"),
    (ExtractionParts, {**PARTS, "parts": [1]},
     "ExtractionParts.parts: ConvertedPart: expected an object, got int"),
    (ExtractionParts, {**PARTS, "parts": [{"part_id": "p1", "origin": "text-paragraph"}]},
     "ExtractionParts.parts: ConvertedPart: missing field 'body'"),
    (ExtractionParts, {**PARTS, "mask": [0.5, None]},
     "ExtractionParts.mask: expected float, got NoneType"),
    (ExtractionTrace, {"trace": [{"iteration": 1}], "violations": []},
     "ExtractionTrace.trace: TraceEntry: missing field 'data_accuracy'"),
    (ExtractionTrace, {"trace": [], "violations": {}},
     "ExtractionTrace.violations: expected a list, got dict"),
    (ExtractedTable, {**TABLE, "rows": [[1.0, "x"]]},
     "ExtractedTable.rows: expected float | None, got str"),
    (ExtractedTable, {**TABLE, "rows": [1.0]}, "ExtractedTable.rows: expected a list, got float"),
    (ExtractedTable, {**TABLE, "provenance": [{"value": "1", "part_id": "p", "row": 0, "column": 0}]},
     "ExtractedTable.provenance: ProvenanceEntry.value: expected float, got str"),
    (ExtractedTable, {**TABLE, "accepted": 1}, "ExtractedTable.accepted: expected bool, got int"),
    (ExtractedTable, {**TABLE, "rows": [[1.0], [1.0, 2.0]]}, "rows[1]: expected 1 cells, got 2"),
    (MergedTable, {"header": ["doc_id"], "rows": [5], "row_count": 1, "missing_count": 0},
     "MergedTable.rows: expected a list, got int"),
    (MergedTable, {"header": ["doc_id", "x"], "rows": [["d01"]], "row_count": 1, "missing_count": 0},
     "rows[0]: expected 2 cells, got 1"),
    (tuple[AnalysisResult, ...], [{"step": {**STEP, "features": "x"}}],
     "AnalysisResult.step: AnalysisStep.features: expected a list, got str"),
    (tuple[AnalysisResult, ...], [{"step": {**STEP, "k": "2"}}],
     "AnalysisResult.step: AnalysisStep.k: expected int, got str"),
    (tuple[AnalysisResult, ...], {}, "expected a list, got dict"),
    (tuple[AnalysisResult, ...], [{"step": 5}],
     "AnalysisResult.step: AnalysisStep: expected an object, got int"),
    (PlotData, {"step": STEP, "stats": {}, "excluded_rows": 0, "x": 1}, "PlotData: unknown field 'x'"),
    (ParsedDocument, {"doc_id": "d01", "paragraphs": {}},
     "ParsedDocument.paragraphs: expected a list, got dict"),
    (ParsedDocument, {"doc_id": "d01", "paragraphs": [], "doi": 5},
     "ParsedDocument.doi: expected str | None, got int"),
    (ParsedDocument, {"doc_id": "d01", "paragraphs": [{"index": 0}]},
     "ParsedDocument.paragraphs: Paragraph: missing field 'text'"),
]


@pytest.mark.parametrize("cls, raw, message", MALFORMED, ids=[row[2] for row in MALFORMED])
def test_a_malformed_artifact_is_refused_naming_the_field_it_is_in(cls, raw, message):
    with pytest.raises(ValueError) as refused:
        from_json(cls, raw)
    assert str(refused.value) == message


def test_a_union_reads_the_member_that_declares_every_key(tmp_path):
    path = tmp_path / "d01.json"
    for _, raw, message in (row for row in MALFORMED if row[0] == REVIEW):
        path.write_text(json.dumps(raw), encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            read_artifact(path, REVIEW)
    assert read_artifact(tmp_path / "absent.json", REVIEW) is None


def test_status_ignores_an_old_builds_log_and_writes_nothing(ws):
    (ws.dir("papers") / "d01.pdf").write_bytes(b"%PDF-1.4")  # records "collected"
    (ws.root / "manifest.log").write_bytes(b'["d01", "parsed"]\n["d02", "reviewed"]\ngarb')
    before = tree(ws.root)
    result = run_cli(["--workspace", ws.root, "status"])
    assert result.exit_code == 0, result.stderr
    assert re.sub(r" +", " ", result.stdout.splitlines()[-1]) == " d01 collected"
    assert tree(ws.root) == before
