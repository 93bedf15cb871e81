"""Document collection: keyword generation, literature search, PDF download,
and ingestion of externally parsed documents.

OCR and PDF parsing are out of process. The pipeline consumes one parsed
file per paper holding three lists (paragraphs, figures, tables); this
module validates those files into ParsedDocument records.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable
from urllib.parse import urlencode

from . import prompts
from .errors import (
    ApiError,
    ChecksumMismatchError,
    DanglingImageError,
    NotDownloadableError,
    SchemaViolationError,
    UnparseableReplyError,
)
from .gateway import Gateway
from .parsing import parse_string_groups
from .workspace import atomic_write_bytes, atomic_write_text

CROSSREF_URL = "https://api.crossref.org/works"
ARXIV_URL = "http://export.arxiv.org/api/query"
_ATOM = "{http://www.w3.org/2005/Atom}"


@dataclass(frozen=True)
class PaperMeta:
    doc_id: str
    title: str
    doi: str | None
    source: str
    pdf_url: str | None = None
    fetched_at: str = ""

    def __post_init__(self) -> None:
        if self.source not in ("crossref", "arxiv", "local"):
            raise ValueError(f"unknown source {self.source!r}")
        if self.source == "arxiv" and not self.pdf_url:
            raise ValueError("arxiv records must carry a pdf_url")


@dataclass(frozen=True)
class Paragraph:
    index: int
    text: str


@dataclass(frozen=True)
class ImageRef:
    """A figure or table rendered as an image file, plus its caption."""

    ref_id: str
    caption: str
    image: str


@dataclass(frozen=True)
class ParsedDocument:
    meta: PaperMeta
    paragraphs: tuple[Paragraph, ...]
    figures: tuple[ImageRef, ...] = ()
    tables: tuple[ImageRef, ...] = ()

    @property
    def doc_id(self) -> str:
        return self.meta.doc_id

    def captions(self) -> list[str]:
        return [r.caption for r in self.figures] + [r.caption for r in self.tables]


def generate_keywords(direction: str, gateway: Gateway) -> list[list[str]]:
    """Keyword groups for the research direction, in the agent's order.

    Accepts a bare list-of-lists or one wrapped in prose or code fences.
    Up to two re-asks before giving up.
    """
    if not direction.strip():
        raise ValueError("research direction is empty")
    request = prompts.keyword_request(direction)
    groups = gateway.ask(request, parse_string_groups, prompts.REASK_LIST, attempts=3)
    if groups is None:
        raise UnparseableReplyError("keyword reply unparseable after re-asks")
    return groups


def _norm_title(title: str) -> str:
    return re.sub(r"[^a-z0-9]+", " ", title.lower()).strip()


def dedup_key(doi: str | None, title: str) -> str:
    return doi.lower() if doi else _norm_title(title)


def _hit(source: str, title: str, doi: str | None, pdf_url: str | None = None) -> PaperMeta:
    """A search result, named by a digest of its de-dup key."""
    # Imported here, as urllib.request is in `_get`: only `collect` needs it.
    from datetime import datetime, timezone

    key = dedup_key(doi, title)
    doc_id = f"{source}-{hashlib.sha256(key.encode('utf-8')).hexdigest()[:12]}"
    return PaperMeta(doc_id, title, doi, source, pdf_url, datetime.now(timezone.utc).isoformat())


def _search_crossref(query: str, max_results: int, fetch: Callable[[str], str]) -> list[PaperMeta]:
    url = CROSSREF_URL + "?" + urlencode({"query": query, "rows": max_results})
    body = fetch(url)
    try:
        items = json.loads(body)["message"]["items"]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise ApiError(f"malformed crossref response: {exc}") from exc
    metas = []
    for item in items:
        if not isinstance(item, dict):
            raise ApiError("malformed crossref item")
        titles = item.get("title") or []
        title = titles[0] if titles else ""
        doi = item.get("DOI")
        if not title and not doi:
            continue
        metas.append(_hit("crossref", title, doi))
    return metas


def _search_arxiv(query: str, max_results: int, fetch: Callable[[str], str]) -> list[PaperMeta]:
    # Imported here, as urllib.request is in `_get`: only `collect` needs it.
    import xml.etree.ElementTree as ET

    url = ARXIV_URL + "?" + urlencode(
        {"search_query": f"all:{query}", "start": 0, "max_results": max_results}
    )
    body = fetch(url)
    try:
        root = ET.fromstring(body)
    except ET.ParseError as exc:
        raise ApiError(f"malformed arxiv response: {exc}") from exc
    metas = []
    for entry in root.findall(f"{_ATOM}entry"):
        title = (entry.findtext(f"{_ATOM}title") or "").strip()
        entry_id = (entry.findtext(f"{_ATOM}id") or "").strip()
        pdf_url = None
        for link in entry.findall(f"{_ATOM}link"):
            if link.get("title") == "pdf" or link.get("type") == "application/pdf":
                pdf_url = link.get("href")
        if pdf_url is None and "/abs/" in entry_id:
            pdf_url = entry_id.replace("/abs/", "/pdf/")
        if not pdf_url:
            continue
        doi = entry.findtext("{http://arxiv.org/schemas/atom}doi")
        metas.append(_hit("arxiv", title, doi, pdf_url))
    return metas


def _get(url: str, timeout: float) -> bytes:
    """The body of a GET; 4xx/5xx replies raise HTTPError, an OSError."""
    # Imported here: it costs about 45 ms, and only `collect` goes online.
    import urllib.request

    with urllib.request.urlopen(url, timeout=timeout) as resp:
        return resp.read()


def _default_fetch(url: str) -> str:
    try:
        body = _get(url, timeout=30)
    except OSError as exc:
        raise ApiError(f"search API unreachable: {exc}") from exc
    return body.decode("utf-8", errors="replace")


def search(
    source: str,
    query: str,
    max_results: int,
    fetch: Callable[[str], str] | None = None,
) -> list[PaperMeta]:
    """Query one search API, de-duplicated, capped at max_results.

    The de-dup key is the DOI when present, else the normalized title.
    `fetch` takes a full URL and returns the body; tests inject recorded
    fixtures through it.
    """
    if max_results < 1:
        raise ValueError("max_results must be >= 1")
    fetch = fetch or _default_fetch
    if source == "crossref":
        metas = _search_crossref(query, max_results, fetch)
    elif source == "arxiv":
        metas = _search_arxiv(query, max_results, fetch)
    else:
        raise ValueError(f"unknown search source {source!r}")
    seen: set[str] = set()
    unique = []
    for meta in metas:
        key = dedup_key(meta.doi, meta.title)
        if key in seen:
            continue
        seen.add(key)
        unique.append(meta)
    return unique[:max_results]


def download_pdf(
    meta: PaperMeta,
    papers_dir: Path,
    fetch_bytes: Callable[[str], bytes] | None = None,
) -> Path:
    """Store the paper's PDF under papers_dir, once.

    A file whose recorded digest still matches is reused without any
    network traffic. Papers with no usable URL raise NotDownloadableError;
    callers log and skip them.
    """
    target = papers_dir / f"{meta.doc_id}.pdf"
    sidecar = papers_dir / f"{meta.doc_id}.pdf.sha256"
    if target.exists() and sidecar.exists():
        digest = hashlib.sha256(target.read_bytes()).hexdigest()
        if digest != sidecar.read_text().strip():
            raise ChecksumMismatchError(f"{target} does not match its recorded digest")
        return target

    url = meta.pdf_url or (f"https://doi.org/{meta.doi}" if meta.doi else None)
    if not url:
        raise NotDownloadableError(f"{meta.doc_id}: no pdf_url and no doi")

    if fetch_bytes is None:
        def fetch_bytes(u: str) -> bytes:
            try:
                return _get(u, timeout=60)
            except OSError as exc:
                raise NotDownloadableError(f"{meta.doc_id}: download failed: {exc}") from exc

    data = fetch_bytes(url)
    papers_dir.mkdir(parents=True, exist_ok=True)
    atomic_write_bytes(target, data)
    atomic_write_text(sidecar, hashlib.sha256(data).hexdigest())
    return target


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SchemaViolationError(message)


def ingest_parsed(parse_file: Path, images_root: Path) -> ParsedDocument:
    """Validate one parsed-document file into a ParsedDocument.

    Schema: doc_id, title, doi, paragraphs:[{index,text}],
    figures:[{id,caption,image}], tables:[{id,caption,image}]. Both name
    workspace files: doc_id must be a plain file name, and image paths must
    be relative to images_root, with no `..` part, and exist.
    """
    try:
        raw = json.loads(parse_file.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaViolationError(f"{parse_file}: unreadable parse file: {exc}") from exc
    _require(isinstance(raw, dict), f"{parse_file}: top level must be an object")
    doc_id = raw.get("doc_id")
    _require(isinstance(doc_id, str) and bool(doc_id), "doc_id: missing or empty")
    _require("/" not in doc_id and doc_id not in (".", ".."), f"doc_id: {doc_id!r} is not a file name")
    title = raw.get("title", "")
    _require(isinstance(title, str), "title: must be a string")
    doi = raw.get("doi")
    _require(doi is None or isinstance(doi, str), "doi: must be a string or null")

    paragraphs_raw = raw.get("paragraphs")
    _require(isinstance(paragraphs_raw, list), "paragraphs: missing or not a list")
    paragraphs = []
    for pos, entry in enumerate(paragraphs_raw):
        _require(isinstance(entry, dict), f"paragraphs[{pos}]: must be an object")
        index = entry.get("index")
        text = entry.get("text")
        _require(isinstance(index, int), f"paragraphs[{pos}].index: must be an integer")
        _require(isinstance(text, str), f"paragraphs[{pos}].text: must be a string")
        _require(index == pos, f"paragraphs[{pos}].index: expected {pos}, got {index}")
        paragraphs.append(Paragraph(index=index, text=text))

    def read_refs(field_name: str) -> tuple[ImageRef, ...]:
        entries = raw.get(field_name, [])
        _require(isinstance(entries, list), f"{field_name}: must be a list")
        refs = []
        seen_ids: set[str] = set()
        for pos, entry in enumerate(entries):
            _require(isinstance(entry, dict), f"{field_name}[{pos}]: must be an object")
            ref_id = entry.get("id")
            caption = entry.get("caption", "")
            image = entry.get("image")
            _require(isinstance(ref_id, str) and bool(ref_id), f"{field_name}[{pos}].id: missing")
            _require(isinstance(caption, str), f"{field_name}[{pos}].caption: must be a string")
            _require(isinstance(image, str) and bool(image), f"{field_name}[{pos}].image: missing")
            _require(ref_id not in seen_ids, f"{field_name}[{pos}].id: duplicate id {ref_id!r}")
            _require(not Path(image).is_absolute() and ".." not in Path(image).parts,
                     f"{field_name}[{pos}].image: {image!r} leaves the images directory")
            seen_ids.add(ref_id)
            if not (images_root / image).exists():
                raise DanglingImageError(f"{field_name}[{pos}].image: {image!r} not found")
            refs.append(ImageRef(ref_id=ref_id, caption=caption, image=image))
        return tuple(refs)

    meta = PaperMeta(doc_id=doc_id, title=title, doi=doi, source="local")
    return ParsedDocument(
        meta=meta,
        paragraphs=tuple(paragraphs),
        figures=read_refs("figures"),
        tables=read_refs("tables"),
    )


def parsed_to_json(doc: ParsedDocument) -> dict:
    return {
        "doc_id": doc.doc_id,
        "title": doc.meta.title,
        "doi": doc.meta.doi,
        "paragraphs": [{"index": p.index, "text": p.text} for p in doc.paragraphs],
        "figures": [{"id": r.ref_id, "caption": r.caption, "image": r.image} for r in doc.figures],
        "tables": [{"id": r.ref_id, "caption": r.caption, "image": r.image} for r in doc.tables],
    }


def save_parsed(doc: ParsedDocument, path: Path) -> None:
    atomic_write_text(path, json.dumps(parsed_to_json(doc), indent=2, sort_keys=True))
