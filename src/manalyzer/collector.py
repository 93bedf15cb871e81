"""Document collection: keyword generation, literature search, PDF download,
and ingestion of externally parsed documents.

OCR and PDF parsing are out of process. The pipeline consumes one parsed
file per paper holding three lists (paragraphs, figures, tables); this
module reads those files into ParsedDocument records with the workspace's
one checked reader, `from_json`, as the workspace's own artifacts are read.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable
from urllib.parse import urlencode

from . import prompts
from .config import sha256_hex
from .errors import ManalyzerError, UnparseableReplyError
from .gateway import Gateway
from .parsing import parse_string_groups
from .workspace import atomic_write_bytes, atomic_write_text, from_json, read_json, write_encoded

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

    id: str
    image: str
    caption: str = ""


@dataclass(frozen=True)
class ParsedDocument:
    """A parsed-document file, as `ingest_parsed` reads it and `save_parsed`
    writes it. Its id and image paths name workspace files, so the id must
    be a plain file name and an image path relative, with no `..` part;
    paragraph i has index i, and figure and table ids are unique per list."""

    doc_id: str
    paragraphs: tuple[Paragraph, ...]
    title: str = ""
    doi: str | None = None
    figures: tuple[ImageRef, ...] = ()
    tables: tuple[ImageRef, ...] = ()

    def __post_init__(self) -> None:
        if not self.doc_id or "/" in self.doc_id or self.doc_id in (".", ".."):
            raise ValueError(f"doc_id: {self.doc_id!r} is not a file name")
        for pos, paragraph in enumerate(self.paragraphs):
            if paragraph.index != pos:
                raise ValueError(f"paragraphs[{pos}].index: expected {pos}, got {paragraph.index}")
        for name in ("figures", "tables"):
            seen: set[str] = set()
            for pos, ref in enumerate(getattr(self, name)):
                if not ref.id or ref.id in seen:
                    raise ValueError(f"{name}[{pos}].id: empty or duplicate id {ref.id!r}")
                seen.add(ref.id)
                image = Path(ref.image)
                if not ref.image or image.is_absolute() or ".." in image.parts:
                    raise ValueError(f"{name}[{pos}].image: {ref.image!r} leaves the images directory")

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
    doc_id = f"{source}-{sha256_hex(key.encode('utf-8'))[:12]}"
    return PaperMeta(doc_id, title, doi, source, pdf_url, datetime.now(timezone.utc).isoformat())


def _search_crossref(query: str, max_results: int, fetch: Callable[[str], str]) -> list[PaperMeta]:
    url = CROSSREF_URL + "?" + urlencode({"query": query, "rows": max_results})
    body = fetch(url)
    try:
        items = json.loads(body)["message"]["items"]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise ManalyzerError(f"malformed crossref response: {exc}") from exc
    metas = []
    for item in items:
        if not isinstance(item, dict):
            raise ManalyzerError("malformed crossref item")
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
        raise ManalyzerError(f"malformed arxiv response: {exc}") from exc
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
        raise ManalyzerError(f"search API unreachable: {exc}") from exc
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
    network traffic. Papers with no usable URL raise ManalyzerError;
    callers log and skip them.
    """
    target = papers_dir / f"{meta.doc_id}.pdf"
    sidecar = papers_dir / f"{meta.doc_id}.pdf.sha256"
    if target.exists() and sidecar.exists():
        digest = sha256_hex(target.read_bytes())
        if digest != sidecar.read_text().strip():
            raise ManalyzerError(f"{target} does not match its recorded digest")
        return target

    url = meta.pdf_url or (f"https://doi.org/{meta.doi}" if meta.doi else None)
    if not url:
        raise ManalyzerError(f"{meta.doc_id}: no pdf_url and no doi")

    if fetch_bytes is None:
        def fetch_bytes(u: str) -> bytes:
            try:
                return _get(u, timeout=60)
            except OSError as exc:
                raise ManalyzerError(f"{meta.doc_id}: download failed: {exc}") from exc

    data = fetch_bytes(url)
    papers_dir.mkdir(parents=True, exist_ok=True)
    atomic_write_bytes(target, data)
    atomic_write_text(sidecar, sha256_hex(data))
    return target


def ingest_parsed(parse_file: Path, images_root: Path) -> ParsedDocument:
    """Read one outside parse file into a ParsedDocument, through the
    artifact reader, and check that its images exist under `images_root`.
    A file that does not decode or does not fit ParsedDocument (a missing
    or unknown field, a leaf of the wrong type, a failed check of
    `ParsedDocument`) is a ValueError naming the file."""
    try:
        doc = from_json(ParsedDocument, read_json(parse_file))
    except (OSError, ValueError) as exc:
        raise ValueError(f"{parse_file}: unreadable parse file: {exc}") from exc
    if ref := missing_image(doc, images_root):
        raise ValueError(f"{parse_file}: image {ref.image!r} ({ref.id}) not found")
    return doc


def missing_image(doc: ParsedDocument, images_root: Path) -> ImageRef | None:
    """The first figure or table of `doc` whose image is not under `images_root`."""
    return next((r for r in doc.figures + doc.tables if not (images_root / r.image).exists()), None)


def save_parsed(doc: ParsedDocument, path: Path) -> None:
    write_encoded(path, doc, "")
