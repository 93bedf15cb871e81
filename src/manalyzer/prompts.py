"""Every agent role: its request tag, system prompt and request builder.

`SYSTEM` maps each request tag to its role's system prompt; its keys are
the one list of tags (`gateway.REQUEST_TAGS`). The request types live here
too, so that building a request needs nothing from the gateway; the
gateway imports them from this module.

Layout rule: instructions and examples live in the system prompt; only the
dynamic content (direction, paragraph text, document text, images, tables)
goes into user parts. Script digests cover user parts alone, so recorded
mock scripts survive prompt-template edits.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from .errors import InvalidRequestError

SYSTEM = {
    "keyword": """\
You are an academic search specialist. Given a research direction, produce
groups of literature-search keywords.

- Cover the direction's core concepts, common synonyms, and standard
  technical terms; mix broader and narrower terms.
- Arrange the keywords in thematic groups, most central terms first.
- Aim for 15 to 30 keywords in total.
- Reply with a bare list of lists of strings and nothing else.

Example reply for "soil carbon under no-till farming":
[["Soil Organic Carbon", "SOC Stocks", "Carbon Sequestration"],
 ["No-Till", "Conservation Tillage", "Reduced Tillage"],
 ["Cropland Management", "Agricultural Soils"]]
""",
    "paragraph_score": """\
Rate how much reusable analytical substance the following paragraph carries.
Generic connective or descriptive prose scores low; dense data, methods, or
results score high. Reply with a single integer from 0 to 10 and nothing
else.
""",
    "independent_review": """\
You are reviewing one paper against a stated research direction. Grade two
dimensions, each an integer from 1 to 10:

- Topic Relevance: how well the paper matches the direction, honoring every
  stated constraint (region, period, method). 1-2 unrelated; 5-6 same area
  but misses specific constraints; 9-10 meets all of them.
- Feasibility: whether the paper's data and experiments are complete and
  reliable enough to reuse. 1-2 no supporting data; 5-6 partial; 9-10 full
  experimental detail and data descriptions.

Your reply must contain the lines "Topic Relevance: <score>" and
"Feasibility: <score>".
""",
    "comparative_review": """\
You will see a research direction followed by several papers. For each
paper, in order, give one real number between 0 and 1 for its relevance to
the direction (1 fully relevant, 0 unrelated), honoring every constraint in
the direction such as location and time period. Reply with a bare list like
[0.8, 0.4, ...], one value per paper, and nothing else.
""",
    "table_convert": """\
Transcribe the table in the attached image into Markdown, using the caption
for context. Keep every value and unit exactly as printed, and state units
in the column names. If the image holds several tables, transcribe each one
separately. After each table add a short title wrapped in
[The Start of Title] / [The End of Title] and a footnote wrapped in
[The Start of Footnote] / [The End of Footnote] spelling out the full
meaning of each row and column (expand abbreviations).
""",
    "figure_summary": """\
Summarize the key quantitative information in the attached figure as
Markdown bullet points, one finding per bullet. Include concrete numbers
wherever the caption or axes provide them.
""",
    "mask": """\
You will see a research topic and several numbered first-level parts of a
paper (paragraphs, transcribed tables, figure summaries). For each part, in
order, output one real number between 0 and 1: how likely the part holds
data useful for the topic. Assign a value above 0.5 whenever any portion of
a part looks useful, even a small one - losing data is worse than keeping
noise. Reply with a bare list like [0.8, 0.3, ...], exactly one value per
part, and nothing else.
""",
    "extract": """\
Collect the numeric data relevant to the topic from the numbered parts into
one integrated Markdown table whose columns are exactly the given template
columns.

- Carry over every relevant value from every part, including repeats,
  statistics, and per-case values; rows need not be complete.
- Write NaN for anything missing.
- Cells must be bare numbers: no symbols such as ">", "<", "~", "=", "+",
  parentheses, percent signs, or thousands separators.
- After the table, add a block wrapped in [The Start of Explanation] /
  [The End of Explanation] with one line per number in the form:
  "N. The number <value>: Comes from Part <p>, Row <r>, Column <c>."
  Rows count from 1 starting below the header row.

Reply with only the table and the explanation block.
""",
    "check": """\
You will see the source parts of a paper and a table a student integrated
from them. The student's goal is comprehensive transfer, so duplicated
values and NaN placeholders are normal and must not be penalized. Grade
three dimensions, each an integer from 1 to 10:

- Data Accuracy: the integrated values match the sources exactly.
- Semantic Consistency: the meaning of each value is preserved.
- Data Completeness: as much relevant source data as possible was carried
  over; for omissions, say exactly where the missing data lives.

Reply with a Python-style dict carrying integer scores under the keys
'Data Accuracy', 'Semantic Consistency', 'Data Completeness' and
'Overall Score', plus a 'Suggestion' string with concrete fixes ("You
should ...") naming the exact parts, rows, and columns to revisit. Award
the minimum score to an empty submission.
""",
    "plan": """\
You will see the research topic, the column names, and the first rows of a
merged data table. Propose analysis steps as a bare JSON list. Each step is
one of:
  {"kind": "clustering", "features": [<columns>], "k": <int >= 2>}
  {"kind": "classification", "label": <column>, "features": [<columns>]}
  {"kind": "regression", "response": <column>, "features": [<column>]}
Use only existing column names. Include one step of each kind when the
columns allow it. Reply with only the JSON list.
""",
    "report": """\
Write a short narrative discussion (two to four Markdown paragraphs, no
headings) interpreting the merged data and analysis results for the given
topic: what the pooled data shows, notable patterns, and limitations.
""",
}


@dataclass(frozen=True)
class TextPart:
    text: str


@dataclass(frozen=True)
class ImagePart:
    path: str  # workspace-relative or absolute path to the image file
    caption: str = ""


Part = TextPart | ImagePart


@dataclass(frozen=True)
class AgentRequest:
    """One agent call: fixed role tag, system prompt, and ordered content parts.

    A request with an ImagePart among its parts is a vision call; every other
    request is a text call. Providers call the model at temperature 0.
    """

    system_prompt: str
    user_parts: tuple[Part, ...]
    request_tag: str

    def __post_init__(self) -> None:
        if self.request_tag not in SYSTEM:
            raise InvalidRequestError(f"unknown request tag {self.request_tag!r}")
        if not self.user_parts:
            raise InvalidRequestError("user_parts must be non-empty")

    def with_addendum(self, text: str) -> "AgentRequest":
        """Return a copy with one more text part (used for re-asks).

        The extra part changes the content digest, so a script can hold a
        distinct reply for the re-ask.
        """
        return replace(self, user_parts=self.user_parts + (TextPart(text),))


# Re-ask addenda. Appending one changes the request digest, so scripted
# providers can hold a distinct reply for the retry.
REASK_LIST = "Reply with only the list."
REASK_INTEGER = "Reply with only a single integer."
REASK_SCORES = "Reply with only the two labeled scores."
REASK_TABLE = "Reply with only the Markdown table and the delimited blocks."
REASK_BULLETS = "Reply with only the bullet points."
REASK_CHECK = "Reply with only the dict of scores and suggestion."


def reask_count(count: int) -> str:
    return f"{REASK_LIST} It must hold exactly {count} values."


def _request(tag: str, *parts: Part) -> AgentRequest:
    return AgentRequest(system_prompt=SYSTEM[tag], user_parts=parts, request_tag=tag)


def keyword_request(direction: str) -> AgentRequest:
    return _request("keyword", TextPart(f"Research direction: {direction}"))


def paragraph_score_request(text: str) -> AgentRequest:
    return _request("paragraph_score", TextPart(text))


def independent_review_request(
    direction: str, text: str, captions: Sequence[str] = ()
) -> AgentRequest:
    parts: list[TextPart] = [TextPart(f"Research direction: {direction}")]
    parts.append(TextPart(text))
    if captions:
        parts.append(TextPart("Figure and table captions:\n" + "\n".join(captions)))
    return _request("independent_review", *parts)


def comparative_review_request(direction: str, texts: Sequence[str]) -> AgentRequest:
    parts: list[TextPart] = [TextPart(f"Research direction: {direction}")]
    for i, text in enumerate(texts, start=1):
        parts.append(TextPart(f"Paper {i}:\n{text}"))
    return _request("comparative_review", *parts)


def table_convert_request(image_path: str, caption: str) -> AgentRequest:
    return _request("table_convert", ImagePart(image_path, caption))


def figure_summary_request(image_path: str, caption: str) -> AgentRequest:
    return _request("figure_summary", ImagePart(image_path, caption))


def mask_request(topic: str, rendered_parts: Sequence[str]) -> AgentRequest:
    return _request("mask", TextPart(f"Topic: {topic}"), *map(TextPart, rendered_parts))


def extract_request(
    topic: str,
    template_columns: Sequence[str],
    rendered_parts: Sequence[str],
    prior_suggestion: str | None = None,
) -> AgentRequest:
    parts: list[TextPart] = [
        TextPart(f"Topic: {topic}"),
        TextPart("Template columns: " + " | ".join(template_columns)),
    ]
    parts.extend(TextPart(text) for text in rendered_parts)
    if prior_suggestion:
        parts.append(TextPart(f"Revision feedback on your previous attempt:\n{prior_suggestion}"))
    return _request("extract", *parts)


def check_request(
    topic: str, rendered_parts: Sequence[str], table_markdown: str
) -> AgentRequest:
    parts: list[TextPart] = [TextPart(f"Topic: {topic}")]
    parts.extend(TextPart(text) for text in rendered_parts)
    parts.append(TextPart(f"Integrated table:\n{table_markdown}"))
    return _request("check", *parts)


def plan_request(topic: str, header: Sequence[str], preview_rows: Sequence[str]) -> AgentRequest:
    return _request(
        "plan",
        TextPart(f"Topic: {topic}"),
        TextPart("Columns: " + " | ".join(header)),
        TextPart("First rows:\n" + "\n".join(preview_rows)),
    )


def report_request(topic: str, summary: str) -> AgentRequest:
    return _request("report", TextPart(f"Topic: {topic}"), TextPart(summary))
