"""Persistent workspace for one pipeline run.

Layout under the root: the `ROOT_FILES` manifest.json, config.snapshot,
template.txt and report.md, the `SUBDIRS` (`load` refuses a missing one),
and ingested images anywhere else. The artifacts are the
record of progress: each document's status is read off them (see
`pipeline.ARTIFACTS`). The manifest holds the research direction, the
config digest, which must match the active config or resuming is refused,
and `docs`, a view of each document's status that the pipeline sets with
`mark` and writes with `save` at the end of each stage, `ingest` and
`collect`. No command takes its work from the view it loads; it only
vouches that the artifacts of the statuses it shows still exist. `load`
reads a status history an older build wrote as its last entry, and
ignores a status log it left beside the manifest. Only the orchestrator
thread sets the view. `STATUS_RANK` is the one list of statuses.

Every write fills `<path>.tmp` and renames it over the target in
`_commit`, so a killed process never leaves a half-written artifact. The
bytes and text writers write their data whole; JSON artifacts are encoded
straight into the temp file, piece by piece, and then renamed, so no write
holds an artifact's whole encoding in memory. Every artifact is a
dataclass with one format, `_ENCODER`'s: sorted-key, indent-2, ASCII
JSON with finite numbers only, the stored fields of each dataclass.
`atomic_write_json` is its one writer and `read_artifact` its one
checked reader; both name the file in an error.

The reader, `from_json`, calls a reader built once per type hint. It
also reads the inputs that come from outside the program: parse files,
gold points and provider script lines, which `decode_json` decodes;
nesting too deep to decode is a ValueError there, not a RecursionError.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
from collections.abc import Callable, Iterator
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
# The files beside them at the root.
ROOT_FILES = ("manifest.json", "config.snapshot", "template.txt", "report.md")


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


# -- the writer ----------------------------------------------------------------

# The artifact format. With `indent` set, the stdlib encodes in pure Python
# whether or not `_json` is available; `iterencode` yields the encoding in
# small pieces and holds no state between calls, so threads share it.
_ENCODER = json.JSONEncoder(
    indent=2, sort_keys=True, allow_nan=False,
    default=lambda d: {name: getattr(d, name) for name in _stored(type(d))},
)


def encode(obj: object) -> str:
    """The artifact format: `obj` as sorted-key, indent-2, ASCII JSON, a
    dataclass as its stored fields. NaN or an infinity is a ValueError."""
    return _ENCODER.encode(obj)


def write_encoded(path: Path, obj: object, end: str) -> None:
    """Write `obj`'s encoding, then `end`, to `path`, piece by piece. A
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


# -- the reader ----------------------------------------------------------------

_SCALARS = frozenset({str, int, float, bool, type(None)})


def _refuse_constant(token: str) -> float:
    raise ValueError(f"non-finite number {token}")


# `json.loads`' decoder, and `read_json`'s, which refuses the NaN, Infinity
# and -Infinity tokens that `json.loads` accepts but JSON does not define.
# Each is built once: `json.loads` builds one per call when given options.
_DECODER = json.JSONDecoder()
_STRICT_DECODER = json.JSONDecoder(parse_constant=_refuse_constant)


def decode_json(text: str, decoder: json.JSONDecoder = _DECODER) -> Any:
    """`text` decoded as `json.loads` decodes it, by `decoder`. Nesting too
    deep for the decoder is a ValueError too, not a RecursionError."""
    if text.startswith("\ufeff"):
        raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
    try:
        return decoder.decode(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply to decode") from None


def read_json(path: Path) -> Any:
    """The JSON in `path`; NaN or an infinity is a ValueError."""
    return decode_json(path.read_text(encoding="utf-8"), _STRICT_DECODER)


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
    if not named <= _SCALARS:
        return None
    return named | {int} if float in named else named


def _leaf_error(hint: Any, value: Any) -> ValueError:
    return ValueError(f"expected {getattr(hint, '__name__', hint)}, got {type(value).__name__}")


def _as_read(raw: Any) -> Any:
    return raw


@functools.cache
def _reader(hint: Any) -> Callable[[Any], Any]:
    """The function that rebuilds a value of type `hint` from its JSON,
    built once per hint: see `from_json`."""
    if dataclasses.is_dataclass(hint):
        return _dataclass_reader(hint)
    origin = get_origin(hint)
    if origin is tuple:
        return _tuple_reader(get_args(hint)[0])
    members = get_args(hint) if origin in (Union, UnionType) else ()
    if members and all(map(dataclasses.is_dataclass, members)):
        return _union_reader(members)
    allowed = _leaf_types(hint)
    if allowed is None:
        return _as_read

    def read_leaf(raw: Any) -> Any:
        if type(raw) not in allowed:
            raise _leaf_error(hint, raw)
        return raw

    return read_leaf


def _dataclass_reader(cls: Any) -> Callable[[Any], Any]:
    hints, required = _fields(cls)
    names = frozenset(hints)
    readers = {name: _reader(hint) for name, hint in hints.items()}

    def read_dataclass(raw: Any) -> Any:
        if not isinstance(raw, dict):
            raise ValueError(f"{cls.__name__}: expected an object, got {type(raw).__name__}")
        if raw.keys() != names:
            if unknown := raw.keys() - names:
                raise ValueError(f"{cls.__name__}: unknown field {sorted(unknown)[0]!r}")
            if missing := required - raw.keys():
                raise ValueError(f"{cls.__name__}: missing field {sorted(missing)[0]!r}")
        values = {}
        for name, value in raw.items():
            try:
                values[name] = readers[name](value)
            except ValueError as exc:
                raise ValueError(f"{cls.__name__}.{name}: {exc}") from None
        return cls(**values)

    return read_dataclass


def _tuple_reader(item: Any) -> Callable[[Any], Any]:
    allowed, read = _leaf_types(item), _reader(item)

    def read_tuple(raw: Any) -> Any:
        if not isinstance(raw, list):
            raise ValueError(f"expected a list, got {type(raw).__name__}")
        if allowed is not None:
            if not allowed.issuperset(map(type, raw)):
                raise _leaf_error(item, next(v for v in raw if type(v) not in allowed))
            return tuple(raw)
        return tuple(map(read, raw))

    return read_tuple


def _union_reader(members: tuple[Any, ...]) -> Callable[[Any], Any]:
    readers = [(frozenset(_fields(m)[0]), _reader(m)) for m in members]

    def read_union(raw: Any) -> Any:
        if isinstance(raw, dict):
            for names, read in readers:
                if raw.keys() <= names:
                    return read(raw)
        return readers[0][1](raw)

    return read_union


def from_json(cls: Any, raw: Any) -> Any:
    """Rebuild a value of type `cls` from the JSON that `encode` writes,
    with the reader built for `cls` the first time it is asked for.

    Dataclasses and `tuple[X, ...]` fields are rebuilt by their type hints;
    fields absent from `raw` take their defaults, and `__post_init__`
    checks run. A union of dataclasses is read as its first member that
    declares every key of `raw`, or else as its first member, which then
    names the key it lacks. A value whose hint names only int, float, str,
    bool or None (alone, in a union or as a tuple's items) is checked
    against it; every other value (dicts, say) is taken as read. A
    ValueError names what does not fit and the field it is in, as in
    `IndependentScores.s1: expected int, got str`: a non-object where a
    dataclass is expected, a missing required field or an unknown one, a
    non-list for a tuple, a leaf of another type.
    """
    return _reader(cls)(raw)


class Workspace:
    def __init__(self, root: Path, direction: str, digest: str, docs: dict[str, str]):
        self.root = root
        self.direction = direction
        self.digest = digest
        self.docs = docs  # the status view: each document's current status

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
        if root.exists() and not root.is_dir():
            raise ValueError(f"{root}: not a directory")
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
        version = raw.get("version") if isinstance(raw, dict) else None
        if type(version) is not int or version != MANIFEST_VERSION:  # not True, 1.0 or "1"
            raise ValueError(f"unsupported manifest version in {path}")
        docs = raw.get("docs")
        direction = raw.get("direction")
        digest = raw.get("config_digest")
        view_ok = isinstance(docs, dict) and all(  # a list: the history an older build wrote
            isinstance(s, str) or isinstance(s, list) and s and all(isinstance(t, str) for t in s)
            for s in docs.values()
        )
        if not (view_ok and isinstance(direction, str) and isinstance(digest, str)):
            raise ValueError(f"{path}: manifest fields missing or mistyped")
        for sub in SUBDIRS:
            if not (root / sub).is_dir():
                raise ValueError(f"{root / sub}: no such directory")
        return cls(root, direction, digest, {d: s if isinstance(s, str) else s[-1] for d, s in docs.items()})

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
        return self.docs.get(doc_id)

    def rank_of(self, doc_id: str) -> int:
        return STATUS_RANK.get(self.status_of(doc_id), -1)

    def mark(self, doc_id: str, status: str) -> None:
        """Set the document's status in the view that `save` writes."""
        self.docs[doc_id] = status

    def doc_ids(self) -> list[str]:
        return sorted(self.docs)

    def docs_at(self, status: str) -> list[str]:
        """Sorted ids of the documents whose current status is `status`."""
        return sorted(d for d, current in self.docs.items() if current == status)

    def at_least(self, doc_id: str, status: str) -> bool:
        return self.rank_of(doc_id) >= STATUS_RANK[status]

    def status_counts(self) -> dict[str, int]:
        counts = {status: 0 for status in STATUS_RANK}
        for status in self.docs.values():
            counts[status] += 1
        return counts
