"""Persistent workspace for one pipeline run.

Layout under the root: manifest.json, config.snapshot, papers/, parsed/,
packed/, reviews/, extracted/, analysis/, report.md. The manifest keeps an
append-only status history per document; statuses only ever advance along
the pipeline order, and the recorded config digest must match the active
config or resuming is refused.

Status marks stay in memory: a mark checks the transition and appends to
the history. `compact` writes manifest.json once per stage, when a stage,
`ingest_dir` or `collect` returns. After a kill, the manifest (and so
`status`) shows the last finished stage until the next command runs; that
command recovers the killed stage's progress from the artifacts on disk
(see the pipeline module). A status log that an older build left beside
the manifest is ignored.

Every write fills `<path>.tmp` and renames it over the target in
`_commit`, so a killed process never leaves a half-written artifact. The
bytes and text writers write their data whole; JSON artifacts are encoded
straight into the temp file, chunk by chunk, and then renamed, so no write
holds an artifact's whole encoding in memory. Every artifact is a
dataclass with one format, `_ENCODER`'s: sorted-key, indent-2 JSON with
finite numbers only. `atomic_write_json` is its one writer and
`read_artifact` its one checked reader; both name the file in an error.
Its rebuilder, `from_json`, also reads the inputs that come from outside
the program: parse files, gold points and provider script lines.
Manifest mutation is single-writer: only the orchestrator thread marks
statuses. `STATUS_RANK` is the one list of statuses.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
from collections.abc import Iterable, Iterator
from pathlib import Path
from types import UnionType
from typing import Any, Union, get_args, get_origin, get_type_hints

from .config import PipelineConfig, config_digest, render_config

MANIFEST_VERSION = 1

# Rank along the pipeline; equal-rank statuses are mutually exclusive
# outcomes of the same stage.
STATUS_RANK = {
    "collected": 0,
    "parsed": 1,
    "packed": 2,
    "reviewed": 3,
    "screened_in": 4,
    "screened_out": 4,
    "extracted": 5,
    "accepted": 6,
    "unaccepted": 6,
    "analyzed": 7,
}

SUBDIRS = ("papers", "parsed", "packed", "reviews", "extracted", "analysis")


def _commit(tmp: Path, path: Path) -> None:
    """The last step of every write: rename the finished temp file over `path`."""
    tmp.replace(path)


@contextlib.contextmanager
def _replacing(path: Path) -> Iterator[Path]:
    """`path`'s temp file, to be written in the block; committed over `path`
    when the block returns, deleted when it raises."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        yield tmp
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    _commit(tmp, path)


def atomic_write_bytes(path: Path, data: bytes) -> None:
    with _replacing(path) as tmp:
        tmp.write_bytes(data)


def atomic_write_text(path: Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


@functools.cache
def _stored(cls: Any) -> tuple[str, ...]:
    """A dataclass's fields that reach the file: all but those whose
    metadata marks them "transient", which stay in memory."""
    return tuple(f.name for f in dataclasses.fields(cls) if not f.metadata.get("transient"))


# The artifact format. Its `iterencode` yields the encoding in small chunks;
# it holds no state between calls, so threads share it.
_ENCODER = json.JSONEncoder(
    indent=2, sort_keys=True, allow_nan=False,
    default=lambda d: {name: getattr(d, name) for name in _stored(type(d))},
)


def encode(obj: object) -> str:
    """The artifact format: `obj` as sorted-key, indent-2 JSON, a dataclass
    as its stored fields (shallow, with no copy). NaN or an infinity is a
    ValueError."""
    return _ENCODER.encode(obj)


def write_encoded(path: Path, obj: object, end: str) -> None:
    """Write `obj`'s encoding, then `end`, to `path`, chunk by chunk. A
    value the encoder refuses is a ValueError naming `path`; `path` keeps
    what it held, and the partial temp file is deleted."""
    try:
        with _replacing(path) as tmp, tmp.open("w", encoding="utf-8", newline="") as f:
            f.writelines(_ENCODER.iterencode(obj))
            f.write(end)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def atomic_write_json(path: Path, obj: object) -> None:
    """Write `obj`'s encoding and a newline to `path`. A value the encoder
    refuses is a ValueError naming `path`, and nothing is written."""
    write_encoded(path, obj, "\n")


def _refuse_constant(token: str) -> float:
    raise ValueError(f"non-finite number {token}")


def read_json(path: Path) -> Any:
    """The JSON in `path`. The NaN, Infinity and -Infinity tokens, which
    `json.loads` accepts but JSON does not define, are a ValueError."""
    return json.loads(path.read_text(encoding="utf-8"), parse_constant=_refuse_constant)


def read_artifact(path: Path, cls: Any) -> Any:
    """The artifact at `path` rebuilt as `cls`; None when the file is
    absent. A file that does not decode, holds NaN or an infinity, or does
    not fit `cls`, is a ValueError naming it (exit 2, inside a stage too)."""
    if not path.exists():
        return None
    try:
        return from_json(cls, read_json(path))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


@functools.cache
def _fields(cls: Any) -> tuple[dict[str, Any], frozenset[str]]:
    """A dataclass's stored field types by name, and the names of the fields
    with no default. Resolved once per class: a table holds many entries,
    and resolving the hints costs ten times the rest of the rebuild."""
    required = frozenset(
        f.name for f in dataclasses.fields(cls)
        if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
    )
    hints = get_type_hints(cls)
    return {name: hints[name] for name in _stored(cls)}, required


@functools.cache
def _leaf_types(hint: Any) -> frozenset[type] | None:
    """The value types a hint that names only int, float, str, bool or None
    admits (an int passes for a float, a bool for neither); None for any
    other hint."""
    named = frozenset(get_args(hint) if get_origin(hint) in (Union, UnionType) else (hint,))
    if not named <= {int, float, str, bool, type(None)}:
        return None
    return named | {int} if float in named else named


def _check_leaves(hint: Any, values: Iterable[Any]) -> None:
    """A ValueError for the first of `values` of a type that `hint`, a leaf
    hint, does not admit; any other hint checks nothing."""
    allowed = _leaf_types(hint)
    if allowed is not None:
        for value in values:
            if type(value) not in allowed:
                name = getattr(hint, "__name__", hint)
                raise ValueError(f"expected {name}, got {type(value).__name__}")


def from_json(cls: Any, raw: Any) -> Any:
    """Rebuild a value of type `cls` from the JSON that `encode` writes.

    Dataclasses and `tuple[X, ...]` fields are rebuilt by their type hints;
    fields absent from `raw` take their defaults. A union of dataclasses is
    read as its first member that declares every key of `raw`, or else as
    its first member, which then names the key it lacks. A value whose hint
    names only int, float, str, bool or None (alone, in a union or as a
    tuple's items) is checked against it; every other value (dicts, say)
    is taken as read. A ValueError names what does not fit and the field
    it is in, as in `IndependentScores.s1: expected int, got str`: a
    non-object where a dataclass is expected, a missing required field or
    an unknown one, a non-list for a tuple, a leaf of another type.
    """
    if dataclasses.is_dataclass(cls):
        if not isinstance(raw, dict):
            raise ValueError(f"{cls.__name__}: expected an object, got {type(raw).__name__}")
        hints, required = _fields(cls)
        if unknown := raw.keys() - hints.keys():
            raise ValueError(f"{cls.__name__}: unknown field {sorted(unknown)[0]!r}")
        if missing := required - raw.keys():
            raise ValueError(f"{cls.__name__}: missing field {sorted(missing)[0]!r}")
        values = {}
        for name, value in raw.items():
            try:
                values[name] = from_json(hints[name], value)
            except ValueError as exc:
                raise ValueError(f"{cls.__name__}.{name}: {exc}") from None
        return cls(**values)
    origin = get_origin(cls)
    if origin is tuple:
        if not isinstance(raw, list):
            raise ValueError(f"expected a list, got {type(raw).__name__}")
        item_type = get_args(cls)[0]
        if not (dataclasses.is_dataclass(item_type) or get_origin(item_type) is tuple):
            _check_leaves(item_type, raw)
            return tuple(raw)
        return tuple(from_json(item_type, value) for value in raw)
    members = get_args(cls) if origin in (Union, UnionType) else ()
    if members and all(map(dataclasses.is_dataclass, members)):
        fits = [m for m in members if isinstance(raw, dict) and raw.keys() <= _fields(m)[0].keys()]
        return from_json((fits or members)[0], raw)
    _check_leaves(cls, (raw,))
    return raw


class Workspace:
    def __init__(self, root: Path, direction: str, digest: str, docs: dict[str, list[str]]):
        self.root = root
        self.direction = direction
        self.digest = digest
        self.docs = docs
        self._dirty = False  # `docs` holds marks that manifest.json lacks

    # -- paths ---------------------------------------------------------

    @property
    def manifest_path(self) -> Path:
        return self.root / "manifest.json"

    @property
    def report_path(self) -> Path:
        return self.root / "report.md"

    def dir(self, name: str) -> Path:
        if name not in SUBDIRS:
            raise ValueError(f"unknown workspace subdirectory {name!r}")
        return self.root / name

    # -- lifecycle -----------------------------------------------------

    @classmethod
    def init(cls, root: Path, direction: str, config: PipelineConfig) -> "Workspace":
        if not direction.strip():
            raise ValueError("research direction is empty")
        if (root / "manifest.json").exists():
            raise ValueError(f"{root} already holds a workspace")
        root.mkdir(parents=True, exist_ok=True)
        for sub in SUBDIRS:
            (root / sub).mkdir(exist_ok=True)
        ws = cls(root, direction, config_digest(config), {})
        atomic_write_text(root / "config.snapshot", render_config(config))
        ws.save()
        return ws

    @classmethod
    def load(cls, root: Path) -> "Workspace":
        path = root / "manifest.json"
        if not path.exists():
            raise ValueError(f"{root} is not a workspace (no manifest.json)")
        try:
            raw = read_json(path)
        except (OSError, ValueError) as exc:
            raise ValueError(f"{path}: unreadable manifest: {exc}") from exc
        if not isinstance(raw, dict) or raw.get("version") != MANIFEST_VERSION:
            raise ValueError(f"unsupported manifest version in {path}")
        docs = raw.get("docs")
        direction = raw.get("direction")
        digest = raw.get("config_digest")
        if not isinstance(docs, dict) or not isinstance(direction, str) or not isinstance(digest, str):
            raise ValueError("manifest fields missing or mistyped")
        for doc_id, history in docs.items():
            if not isinstance(history, list) or not history:
                raise ValueError(f"{doc_id}: empty status history")
            ranks = []
            for status in history:
                if status not in STATUS_RANK:
                    raise ValueError(f"{doc_id}: unknown status {status!r}")
                ranks.append(STATUS_RANK[status])
            if any(b <= a for a, b in zip(ranks, ranks[1:])):
                raise ValueError(f"{doc_id}: status history regressed: {history}")
        return cls(root, direction, digest, docs)

    def save(self) -> None:
        atomic_write_json(
            self.manifest_path,
            {
                "version": MANIFEST_VERSION,
                "direction": self.direction,
                "config_digest": self.digest,
                "docs": self.docs,
            },
        )

    def compact(self) -> None:
        """Write manifest.json once if a mark changed `docs` since the last
        write; a no-op otherwise."""
        if self._dirty:
            self.save()
            self._dirty = False

    def check_config(self, config: PipelineConfig) -> None:
        active = config_digest(config)
        if active != self.digest:
            raise ValueError(
                "config digest mismatch: the workspace was created under a "
                "different configuration; rerun with the original config "
                "file (see config.snapshot) or start a fresh workspace"
            )

    # -- status tracking -----------------------------------------------

    def status_of(self, doc_id: str) -> str | None:
        history = self.docs.get(doc_id)
        return history[-1] if history else None

    def rank_of(self, doc_id: str) -> int:
        status = self.status_of(doc_id)
        return -1 if status is None else STATUS_RANK[status]

    def mark(self, doc_id: str, status: str) -> None:
        """Append `status` to the document's history in memory; a no-op when
        it is the current status already, an error when it would regress.
        Nothing reaches disk until `compact`."""
        if status not in STATUS_RANK:
            raise ValueError(f"unknown status {status!r}")
        history = self.docs.setdefault(doc_id, [])
        if history:
            current = STATUS_RANK[history[-1]]
            if STATUS_RANK[status] == current:
                if history[-1] != status:
                    raise ValueError(
                        f"{doc_id}: conflicting outcomes {history[-1]!r} vs {status!r}"
                    )
                return
            if STATUS_RANK[status] < current:
                raise ValueError(
                    f"{doc_id}: status would regress from {history[-1]!r} to {status!r}"
                )
        history.append(status)
        self._dirty = True

    def doc_ids(self) -> list[str]:
        return sorted(self.docs)

    def docs_at(self, status: str) -> list[str]:
        """Sorted ids of the documents whose current status is `status`."""
        return sorted(d for d, history in self.docs.items() if history[-1] == status)

    def at_least(self, doc_id: str, status: str) -> bool:
        return self.rank_of(doc_id) >= STATUS_RANK[status]

    def status_counts(self) -> dict[str, int]:
        counts = {status: 0 for status in STATUS_RANK}
        for doc_id in self.docs:
            status = self.status_of(doc_id)
            if status:
                counts[status] += 1
        return counts
