"""Generator for the bundled synthetic corpus.

Builds a 10-document corpus with planted values, then runs the real
pipeline once against an answering provider whose replies are computed
from the request content. Every (tag, digest) -> reply pair served during
that run is recorded into a script file, so the corpus replays through the
scripted provider with no model and no network:

    python -m manalyzer.synth --out corpus

Outputs under --out: docs/ (parse files + images), script.jsonl,
config.txt, template.txt, gold.jsonl, screening_gold.txt.

Planted values per document i (1-based): prose carries y1 = 10.5 + i
(yield, t/ha) and r1 = 400 + 10i (rainfall, mm); the table image carries
y2 = 9.25 + i and r2 = 380 + 10i. Gold level 1 covers (y1, r1), level 2
covers (y2, r2), and level 3 plants y1 + y2, which the pipeline never
extracts, so its hit rate stays 0 by construction.
"""

from __future__ import annotations

import argparse
import json
import re
import tempfile
from pathlib import Path

from .collector import ImageRef, Paragraph, ParsedDocument, save_parsed
from .config import DEFAULTS, PipelineConfig
from .errors import DuplicateScriptKeyError
from .evaluation import GoldDataPoint, save_gold
from .gateway import AgentRequest, AgentResponse, ImagePart, ScriptedProvider, TextPart, digest_request
from .pipeline import Pipeline
from .workspace import Workspace

DIRECTION = "impact of seasonal rainfall on wheat yield in irrigated field trials"
TEMPLATE = ["season", "rainfall mm", "yield t per ha"]
DOC_IDS = [f"d{i:02d}" for i in range(1, 11)]

# Comparative scores per document, in sorted doc order. With s1 = s2 = 7
# the final score is 14 * s_r, so values above 4/7 clear the default
# threshold of 8.0.
S_R = [0.8, 0.3, 0.9, 0.2, 0.7, 0.75, 0.4, 0.85, 0.1, 0.95]
KEPT = [d for d, s in zip(DOC_IDS, S_R) if s * 14 >= DEFAULTS.reviewer_threshold]

MASK_REPLY = "[0.9, 0.2, 0.8, 0.3, 0.9, 0.7]"

_DOC_TOKEN = re.compile(r"\bd\d{2}\b")


def planted_values(doc_id: str) -> dict[str, float]:
    i = int(doc_id[1:])
    return {
        "y1": 10.5 + i,
        "r1": float(400 + 10 * i),
        "y2": 9.25 + i,
        "r2": float(380 + 10 * i),
        "f1": 5.0 + 0.1 * i,
    }


def _num(value: float) -> str:
    return str(int(value)) if value == int(value) else str(value)


def doc_paragraphs(doc_id: str) -> list[str]:
    v = planted_values(doc_id)
    return [
        f"Field trial {doc_id} followed irrigated winter wheat across two "
        f"seasons. The mean grain yield reached {_num(v['y1'])} t/ha under "
        "full irrigation in season one.",
        f"Trial {doc_id} used a randomized block design with four replicates "
        "per treatment arm; soil cores were sampled to 90 cm.",
        f"Seasonal rainfall at site {doc_id} totaled {_num(v['r1'])} mm in "
        "the first season and fell sharply in the second; irrigation closed "
        "the deficit.",
        f"We conclude that water availability dominated yield formation in "
        f"trial {doc_id}.",
    ]


def conversion_reply(doc_id: str) -> str:
    v = planted_values(doc_id)
    return (
        "| Season | Rainfall (mm) | Yield (t/ha) |\n"
        "| --- | --- | --- |\n"
        f"| 1 | NaN | {_num(v['y1'])} |\n"
        f"| 2 | {_num(v['r2'])} | {_num(v['y2'])} |\n"
        "\n"
        "[The Start of Title]\n"
        f"Seasonal rainfall and wheat yield in trial {doc_id}.\n"
        "[The End of Title]\n"
        "[The Start of Footnote]\n"
        "Rows are growing seasons one and two; columns give the season "
        "number, total in-season rainfall in millimetres, and grain yield "
        "in tonnes per hectare. Season-one rainfall was reported in the "
        "text only.\n"
        "[The End of Footnote]\n"
    )


def figure_reply(doc_id: str) -> str:
    v = planted_values(doc_id)
    return (
        f"- Yield tracked water supply across both seasons of trial {doc_id}.\n"
        f"- Total irrigation depth was {_num(v['f1'])} cm.\n"
        "- The response flattened at the highest water levels.\n"
    )


def extract_reply(doc_id: str) -> str:
    v = planted_values(doc_id)
    return (
        "| season | rainfall mm | yield t per ha |\n"
        "| --- | --- | --- |\n"
        f"| 1 | {_num(v['r1'])} | {_num(v['y1'])} |\n"
        f"| 2 | {_num(v['r2'])} | {_num(v['y2'])} |\n"
        "\n"
        "[The Start of Explanation]\n"
        "1. The number 1: Comes from Part 3, Row 1, Column 1.\n"
        f"2. The number {_num(v['r1'])}: Comes from Part 2, Row 1, Column 1.\n"
        f"3. The number {_num(v['y1'])}: Comes from Part 1, Row 1, Column 1.\n"
        "4. The number 2: Comes from Part 3, Row 2, Column 1.\n"
        f"5. The number {_num(v['r2'])}: Comes from Part 3, Row 2, Column 2.\n"
        f"6. The number {_num(v['y2'])}: Comes from Part 3, Row 2, Column 3.\n"
        "[The End of Explanation]\n"
    )


CHECK_REPLY = str(
    {
        "Data Accuracy": 9,
        "Semantic Consistency": 8,
        "Data Completeness": 8,
        "Overall Score": 8,
        "Suggestion": "None needed; every value is carried over and cited.",
    }
)

PLAN_REPLY = json.dumps(
    [
        {"kind": "clustering", "features": ["rainfall mm", "yield t per ha"], "k": 2},
        {"kind": "classification", "label": "season", "features": ["rainfall mm", "yield t per ha"]},
        {"kind": "regression", "response": "yield t per ha", "features": ["rainfall mm"]},
    ]
)

NARRATIVE_REPLY = (
    "Across the pooled trials, grain yield rose steadily with seasonal "
    "rainfall, and the two growing seasons separate cleanly in the merged "
    "table: season one pairs higher rainfall with higher yields at every "
    "site. The regression slope is consistent with the per-site prose, and "
    "the two k-means clusters recover the season split without supervision.\n"
    "\n"
    "These documents are synthetic, so the pooled numbers exercise the "
    "pipeline rather than describe real agronomy; treat the fitted "
    "coefficients as plumbing checks, not findings."
)


def _doc_of(request: AgentRequest) -> str:
    for part in request.user_parts:
        text = part.caption if isinstance(part, ImagePart) else part.text
        match = _DOC_TOKEN.search(text)
        if match:
            return match.group(0)
    raise ValueError(f"no document token in {request.request_tag} request")


def _answer(request: AgentRequest) -> str:
    tag = request.request_tag
    if tag == "independent_review":
        return "Topic Relevance: 7\nFeasibility: 7"
    if tag == "comparative_review":
        docs = []
        for part in request.user_parts[1:]:
            assert isinstance(part, TextPart)
            match = _DOC_TOKEN.search(part.text)
            assert match is not None
            docs.append(match.group(0))
        return "[" + ", ".join(str(S_R[DOC_IDS.index(d)]) for d in docs) + "]"
    if tag == "table_convert":
        return conversion_reply(_doc_of(request))
    if tag == "figure_summary":
        return figure_reply(_doc_of(request))
    if tag == "mask":
        return MASK_REPLY
    if tag == "extract":
        return extract_reply(_doc_of(request))
    if tag == "check":
        return CHECK_REPLY
    if tag == "plan":
        return PLAN_REPLY
    if tag == "report":
        return NARRATIVE_REPLY
    raise ValueError(f"unexpected request tag {tag!r} in synthetic run")


class AnsweringProvider:
    """Computes replies from request content and records every pair served."""

    provider_id = "synthetic"

    def __init__(self) -> None:
        self.recorded = ScriptedProvider()

    def complete(self, request: AgentRequest) -> AgentResponse:
        text = _answer(request)
        try:
            self.recorded.register_script(request.request_tag, digest_request(request), text)
        except DuplicateScriptKeyError:
            pass
        return AgentResponse(raw_text=text, provider_id=self.provider_id)


def write_docs(docs_dir: Path) -> None:
    images = docs_dir / "images"
    images.mkdir(parents=True, exist_ok=True)
    for doc_id in DOC_IDS:
        table_image = f"images/{doc_id}-tbl.png"
        figure_image = f"images/{doc_id}-fig.png"
        (docs_dir / table_image).write_bytes(f"synthetic-table-image:{doc_id}".encode() * 4)
        (docs_dir / figure_image).write_bytes(f"synthetic-figure-image:{doc_id}".encode() * 4)
        doc = ParsedDocument(
            doc_id,
            paragraphs=tuple(Paragraph(i, text) for i, text in enumerate(doc_paragraphs(doc_id))),
            title=f"Rainfall and wheat yield: field trial {doc_id}",
            figures=(ImageRef(
                f"{doc_id}-fig", figure_image,
                f"Figure 1 ({doc_id}): yield response to water supply",
            ),),
            tables=(ImageRef(
                f"{doc_id}-tbl", table_image, f"Table 1 ({doc_id}): seasonal rainfall and yield"
            ),),
        )
        save_parsed(doc, docs_dir / f"{doc_id}.json")


def write_gold(path: Path) -> None:
    points = []
    for doc_id in KEPT:
        v = planted_values(doc_id)
        points.extend(
            [
                GoldDataPoint(doc_id, 1, v["y1"], "t/ha", "season-one yield, prose"),
                GoldDataPoint(doc_id, 1, v["r1"], "mm", "season-one rainfall, prose"),
                GoldDataPoint(doc_id, 2, v["y2"], "t/ha", "season-two yield, table"),
                GoldDataPoint(doc_id, 2, v["r2"], "mm", "season-two rainfall, table"),
                GoldDataPoint(doc_id, 3, v["y1"] + v["y2"], "t/ha", "summed two-season yield"),
            ]
        )
    save_gold(points, path)


def write_screening_gold(path: Path) -> None:
    lines = [f"{doc_id} {1 if doc_id in KEPT else 0}" for doc_id in DOC_IDS]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def build_corpus(out_dir: Path) -> Path:
    """Build the corpus and record the replay script by running the
    pipeline once in a throwaway workspace."""
    out_dir.mkdir(parents=True, exist_ok=True)
    docs_dir = out_dir / "docs"
    write_docs(docs_dir)
    (out_dir / "template.txt").write_text("\n".join(TEMPLATE) + "\n", encoding="utf-8")
    (out_dir / "config.txt").write_text(
        "provider.kind = scripted\nprovider.script = script.jsonl\n", encoding="utf-8"
    )
    write_gold(out_dir / "gold.jsonl")
    write_screening_gold(out_dir / "screening_gold.txt")

    provider = AnsweringProvider()
    config = PipelineConfig(provider_script="script.jsonl")
    with tempfile.TemporaryDirectory() as tmp:
        ws = Workspace.init(Path(tmp) / "ws", DIRECTION, config)
        pipe = Pipeline(ws, config, provider)
        pipe.ingest_dir(docs_dir)
        summary = pipe.run(TEMPLATE)
        if summary.screened_in != len(KEPT) or summary.accepted != len(KEPT):
            raise RuntimeError(f"synthetic run came out wrong: {summary}")
    provider.recorded.save_script(out_dir / "script.jsonl")
    return out_dir


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=Path("corpus"), help="output directory")
    args = parser.parse_args(argv)
    build_corpus(args.out)
    print(f"corpus written to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
