import json
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from manalyzer import prompts
from manalyzer.collector import (
    PaperMeta,
    dedup_key,
    download_pdf,
    generate_keywords,
    ingest_parsed,
    parsed_to_json,
    save_parsed,
    search,
)
from manalyzer.errors import (
    ApiError,
    ChecksumMismatchError,
    DanglingImageError,
    NotDownloadableError,
    SchemaViolationError,
    UnparseableReplyError,
)

from helpers import register_for

CROSSREF_BODY = json.dumps(
    {
        "message": {
            "items": [
                {"title": ["Cover Crops and Nitrogen"], "DOI": "10.1000/ab12"},
                {"title": ["The Same Paper Again"], "DOI": "10.1000/AB12"},
                {"title": ["A Different Study"], "DOI": "10.1000/cd34"},
                {"title": [], "DOI": None},
            ]
        }
    }
)

ARXIV_BODY = """<?xml version="1.0" encoding="UTF-8"?>
<feed xmlns="http://www.w3.org/2005/Atom">
  <entry>
    <id>http://arxiv.org/abs/2401.00001v1</id>
    <title>Learning Soil Dynamics</title>
    <link title="pdf" href="http://arxiv.org/pdf/2401.00001v1" type="application/pdf"/>
  </entry>
  <entry>
    <id>http://arxiv.org/abs/2401.00002v1</id>
    <title>No Explicit PDF Link</title>
  </entry>
</feed>
"""


def make_parse_payload(**overrides):
    payload = {
        "doc_id": "docA",
        "title": "A Title",
        "doi": None,
        "paragraphs": [
            {"index": 0, "text": "first"},
            {"index": 1, "text": "second"},
        ],
        "figures": [{"id": "fig-1", "caption": "Figure 1", "image": "images/fig1.png"}],
        "tables": [],
    }
    payload.update(overrides)
    return payload


def write_parse_file(tmp_path, payload, with_image=True):
    if with_image:
        (tmp_path / "images").mkdir(exist_ok=True)
        (tmp_path / "images" / "fig1.png").write_bytes(b"img")
    path = tmp_path / "docA.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def test_ingest_parsed_round_trip(tmp_path):
    path = write_parse_file(tmp_path, make_parse_payload())
    doc = ingest_parsed(path, tmp_path)
    assert doc.doc_id == "docA"
    assert [p.text for p in doc.paragraphs] == ["first", "second"]
    assert doc.figures[0].ref_id == "fig-1"
    assert doc.captions() == ["Figure 1"]

    out = tmp_path / "roundtrip.json"
    save_parsed(doc, out)
    again = ingest_parsed(out, tmp_path)
    assert parsed_to_json(again) == parsed_to_json(doc)


def test_ingest_parsed_missing_doc_id(tmp_path):
    payload = make_parse_payload()
    del payload["doc_id"]
    path = write_parse_file(tmp_path, payload)
    with pytest.raises(SchemaViolationError, match="doc_id"):
        ingest_parsed(path, tmp_path)


def test_ingest_parsed_requires_contiguous_indices(tmp_path):
    payload = make_parse_payload(
        paragraphs=[{"index": 0, "text": "a"}, {"index": 2, "text": "b"}]
    )
    path = write_parse_file(tmp_path, payload)
    with pytest.raises(SchemaViolationError, match=r"paragraphs\[1\].index"):
        ingest_parsed(path, tmp_path)


def test_ingest_parsed_rejects_duplicate_image_ids(tmp_path):
    payload = make_parse_payload(
        figures=[
            {"id": "fig-1", "caption": "a", "image": "images/fig1.png"},
            {"id": "fig-1", "caption": "b", "image": "images/fig1.png"},
        ]
    )
    path = write_parse_file(tmp_path, payload)
    with pytest.raises(SchemaViolationError, match="duplicate"):
        ingest_parsed(path, tmp_path)


def test_ingest_parsed_dangling_image(tmp_path):
    path = write_parse_file(tmp_path, make_parse_payload(), with_image=False)
    with pytest.raises(DanglingImageError, match="fig1.png"):
        ingest_parsed(path, tmp_path)


def test_ingest_parsed_rejects_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(SchemaViolationError, match="unreadable"):
        ingest_parsed(path, tmp_path)


def test_dedup_key_prefers_doi_case_insensitively():
    assert dedup_key("10.1000/AB12", "whatever") == "10.1000/ab12"
    assert dedup_key(None, "Cover  Crops,  and Nitrogen!") == dedup_key(
        None, "cover crops and nitrogen"
    )


def test_paper_meta_validation():
    with pytest.raises(ValueError):
        PaperMeta(doc_id="x", title="t", doi=None, source="scihub")
    with pytest.raises(ValueError):
        PaperMeta(doc_id="x", title="t", doi=None, source="arxiv", pdf_url=None)


def test_search_crossref_dedups_on_doi():
    urls = []

    def fetch(url):
        urls.append(url)
        return CROSSREF_BODY

    metas = search("crossref", "cover crops", 10, fetch=fetch)
    assert [m.doi for m in metas] == ["10.1000/ab12", "10.1000/cd34"]
    assert len(urls) == 1
    assert "rows=10" in urls[0]


def test_search_caps_results():
    metas = search("crossref", "q", 1, fetch=lambda url: CROSSREF_BODY)
    assert len(metas) == 1


def test_search_crossref_malformed_body():
    with pytest.raises(ApiError):
        search("crossref", "q", 5, fetch=lambda url: "<html>rate limited</html>")


def test_search_arxiv_parses_feed():
    metas = search("arxiv", "soil", 10, fetch=lambda url: ARXIV_BODY)
    assert len(metas) == 2
    assert metas[0].pdf_url == "http://arxiv.org/pdf/2401.00001v1"
    # The second entry has no pdf link, so the id URL is rewritten.
    assert metas[1].pdf_url == "http://arxiv.org/pdf/2401.00002v1"
    assert all(m.source == "arxiv" for m in metas)


def test_search_rejects_unknown_source():
    with pytest.raises(ValueError):
        search("scholar", "q", 5, fetch=lambda url: "")


def test_download_pdf_writes_once(tmp_path):
    meta = PaperMeta(
        doc_id="arxiv-abc",
        title="t",
        doi=None,
        source="arxiv",
        pdf_url="http://example.invalid/p.pdf",
    )
    fetched = []

    def fetch_bytes(url):
        fetched.append(url)
        return b"%PDF-fake"

    target = download_pdf(meta, tmp_path, fetch_bytes=fetch_bytes)
    assert target.read_bytes() == b"%PDF-fake"
    assert fetched == ["http://example.invalid/p.pdf"]

    again = download_pdf(meta, tmp_path, fetch_bytes=fetch_bytes)
    assert again == target
    assert fetched == ["http://example.invalid/p.pdf"]  # no second fetch


def test_download_pdf_detects_corruption(tmp_path):
    meta = PaperMeta(
        doc_id="arxiv-abc", title="t", doi=None, source="arxiv", pdf_url="http://x/p.pdf"
    )
    download_pdf(meta, tmp_path, fetch_bytes=lambda url: b"original")
    (tmp_path / "arxiv-abc.pdf").write_bytes(b"tampered")
    with pytest.raises(ChecksumMismatchError):
        download_pdf(meta, tmp_path, fetch_bytes=lambda url: b"original")


def test_download_pdf_recovers_from_a_digest_write_cut_short(tmp_path, monkeypatch):
    # A kill while the digest is written must leave no torn sidecar: one
    # would fail every later collect of the paper with ChecksumMismatchError.
    class Killed(BaseException):
        pass

    meta = PaperMeta(
        doc_id="arxiv-abc", title="t", doi=None, source="arxiv", pdf_url="http://x/p.pdf"
    )
    write_bytes = Path.write_bytes

    def cut_short(path, data):
        if ".sha256" in path.name:
            write_bytes(path, data[:7])
            raise Killed
        return write_bytes(path, data)

    monkeypatch.setattr(Path, "write_bytes", cut_short)
    with pytest.raises(Killed):
        download_pdf(meta, tmp_path, fetch_bytes=lambda url: b"original")
    monkeypatch.undo()
    for _ in range(2):
        target = download_pdf(meta, tmp_path, fetch_bytes=lambda url: b"original")
        assert target.read_bytes() == b"original"


def test_download_pdf_needs_a_url(tmp_path):
    meta = PaperMeta(doc_id="crossref-x", title="t", doi=None, source="crossref")
    with pytest.raises(NotDownloadableError):
        download_pdf(meta, tmp_path, fetch_bytes=lambda url: b"")


def test_download_pdf_falls_back_to_doi(tmp_path):
    meta = PaperMeta(
        doc_id="crossref-x", title="t", doi="10.1/xyz", source="crossref"
    )
    urls = []
    download_pdf(meta, tmp_path, fetch_bytes=lambda url: urls.append(url) or b"pdf")
    assert urls == ["https://doi.org/10.1/xyz"]


def test_generate_keywords(scripted):
    provider, gateway = scripted()
    direction = "cover crops and soil nitrogen"
    req = prompts.keyword_request(direction)
    register_for(provider, req, '[["cover crop", "nitrogen"], ["legume", "meta-analysis"]]')
    groups = generate_keywords(direction, gateway)
    assert groups == [["cover crop", "nitrogen"], ["legume", "meta-analysis"]]


def test_generate_keywords_reasks(scripted):
    provider, gateway = scripted()
    direction = "topic"
    req = prompts.keyword_request(direction)
    register_for(provider, req, "Sure! Here are some ideas but no list.")
    register_for(provider, req.with_addendum(prompts.REASK_LIST), '[["a", "b"]]')
    assert generate_keywords(direction, gateway) == [["a", "b"]]
    assert len(provider.calls) == 2


def test_generate_keywords_gives_up(scripted):
    provider, gateway = scripted()
    req = prompts.keyword_request("topic")
    register_for(provider, req, "no")
    register_for(provider, req.with_addendum(prompts.REASK_LIST), "still no")
    register_for(
        provider,
        req.with_addendum(prompts.REASK_LIST).with_addendum(prompts.REASK_LIST), "nope"
    )
    with pytest.raises(UnparseableReplyError):
        generate_keywords("topic", gateway)


def test_generate_keywords_rejects_empty_direction(scripted):
    _, gateway = scripted()
    with pytest.raises(ValueError):
        generate_keywords("   ", gateway)


class FakeResponse:
    def __init__(self, body):
        self.body = body

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def read(self):
        return self.body


def test_default_fetch_decodes_body_and_download_keeps_bytes(tmp_path, monkeypatch):
    opened = []

    def urlopen(url, timeout):
        opened.append((url, timeout))
        return FakeResponse(CROSSREF_BODY.encode("utf-8") if "crossref" in url else b"%PDF\xff")

    monkeypatch.setattr(urllib.request, "urlopen", urlopen)
    metas = search("crossref", "cover crops", 10)
    assert [m.doi for m in metas] == ["10.1000/ab12", "10.1000/cd34"]
    meta = PaperMeta("p1", "T", None, "arxiv", pdf_url="http://example.invalid/p.pdf")
    assert download_pdf(meta, tmp_path).read_bytes() == b"%PDF\xff"
    assert [timeout for _, timeout in opened] == [30, 60]
    assert opened[1][0] == "http://example.invalid/p.pdf"


def test_default_fetch_maps_url_error_to_api_error(monkeypatch):
    def urlopen(url, timeout):
        raise urllib.error.URLError("no route to host")

    monkeypatch.setattr(urllib.request, "urlopen", urlopen)
    with pytest.raises(ApiError, match="search API unreachable"):
        search("arxiv", "soil", 5)


def test_default_download_maps_http_error(tmp_path, monkeypatch):
    def urlopen(url, timeout):
        raise urllib.error.HTTPError(url, 404, "Not Found", None, None)

    monkeypatch.setattr(urllib.request, "urlopen", urlopen)
    meta = PaperMeta("p1", "T", None, "arxiv", pdf_url="http://example.invalid/p.pdf")
    with pytest.raises(NotDownloadableError, match="p1: download failed: HTTP Error 404"):
        download_pdf(meta, tmp_path)
    assert list(tmp_path.iterdir()) == []
