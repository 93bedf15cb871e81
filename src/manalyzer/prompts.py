"""Request builders for every agent role in the pipeline.

Layout rule: instructions and examples live in the system prompt; only the
dynamic content (direction, paragraph text, document text, images, tables)
goes into user parts. Script digests cover user parts alone, so recorded
mock scripts survive prompt-template edits.
"""

from __future__ import annotations

from typing import Sequence

from .gateway import AgentRequest, ImagePart, TextPart

KEYWORD_SYSTEM = """\
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
"""

PARAGRAPH_SCORE_SYSTEM = """\
Rate how much reusable analytical substance the following paragraph carries.
Generic connective or descriptive prose scores low; dense data, methods, or
results score high. Reply with a single integer from 0 to 10 and nothing
else.
"""

INDEPENDENT_REVIEW_SYSTEM = """\
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
"""

COMPARATIVE_REVIEW_SYSTEM = """\
You will see a research direction followed by several papers. For each
paper, in order, give one real number between 0 and 1 for its relevance to
the direction (1 fully relevant, 0 unrelated), honoring every constraint in
the direction such as location and time period. Reply with a bare list like
[0.8, 0.4, ...], one value per paper, and nothing else.
"""

TABLE_CONVERT_SYSTEM = """\
Transcribe the table in the attached image into Markdown, using the caption
for context. Keep every value and unit exactly as printed, and state units
in the column names. If the image holds several tables, transcribe each one
separately. After each table add a short title wrapped in
[The Start of Title] / [The End of Title] and a footnote wrapped in
[The Start of Footnote] / [The End of Footnote] spelling out the full
meaning of each row and column (expand abbreviations).
"""

FIGURE_SUMMARY_SYSTEM = """\
Summarize the key quantitative information in the attached figure as
Markdown bullet points, one finding per bullet. Include concrete numbers
wherever the caption or axes provide them.
"""

MASK_SYSTEM = """\
You will see a research topic and several numbered first-level parts of a
paper (paragraphs, transcribed tables, figure summaries). For each part, in
order, output one real number between 0 and 1: how likely the part holds
data useful for the topic. Assign a value above 0.5 whenever any portion of
a part looks useful, even a small one - losing data is worse than keeping
noise. Reply with a bare list like [0.8, 0.3, ...], exactly one value per
part, and nothing else.
"""

EXTRACT_SYSTEM = """\
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
"""

CHECK_SYSTEM = """\
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
"""

PLAN_SYSTEM = """\
You will see the research topic, the column names, and the first rows of a
merged data table. Propose analysis steps as a bare JSON list. Each step is
one of:
  {"kind": "clustering", "features": [<columns>], "k": <int >= 2>}
  {"kind": "classification", "label": <column>, "features": [<columns>]}
  {"kind": "regression", "response": <column>, "features": [<column>]}
Use only existing column names. Include one step of each kind when the
columns allow it. Reply with only the JSON list.
"""

REPORT_SYSTEM = """\
Write a short narrative discussion (two to four Markdown paragraphs, no
headings) interpreting the merged data and analysis results for the given
topic: what the pooled data shows, notable patterns, and limitations.
"""

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


def keyword_request(direction: str) -> AgentRequest:
    return AgentRequest(
        system_prompt=KEYWORD_SYSTEM,
        user_parts=(TextPart(f"Research direction: {direction}"),),
        request_tag="keyword",
    )


def paragraph_score_request(text: str) -> AgentRequest:
    return AgentRequest(
        system_prompt=PARAGRAPH_SCORE_SYSTEM,
        user_parts=(TextPart(text),),
        request_tag="paragraph_score",
    )


def independent_review_request(
    direction: str, text: str, captions: Sequence[str] = ()
) -> AgentRequest:
    parts: list[TextPart] = [TextPart(f"Research direction: {direction}")]
    parts.append(TextPart(text))
    if captions:
        parts.append(TextPart("Figure and table captions:\n" + "\n".join(captions)))
    return AgentRequest(
        system_prompt=INDEPENDENT_REVIEW_SYSTEM,
        user_parts=tuple(parts),
        request_tag="independent_review",
    )


def comparative_review_request(direction: str, texts: Sequence[str]) -> AgentRequest:
    parts: list[TextPart] = [TextPart(f"Research direction: {direction}")]
    for i, text in enumerate(texts, start=1):
        parts.append(TextPart(f"Paper {i}:\n{text}"))
    return AgentRequest(
        system_prompt=COMPARATIVE_REVIEW_SYSTEM,
        user_parts=tuple(parts),
        request_tag="comparative_review",
    )


def table_convert_request(image_path: str, caption: str) -> AgentRequest:
    return AgentRequest(
        system_prompt=TABLE_CONVERT_SYSTEM,
        user_parts=(ImagePart(image_path, caption),),
        request_tag="table_convert",
    )


def figure_summary_request(image_path: str, caption: str) -> AgentRequest:
    return AgentRequest(
        system_prompt=FIGURE_SUMMARY_SYSTEM,
        user_parts=(ImagePart(image_path, caption),),
        request_tag="figure_summary",
    )


def mask_request(topic: str, rendered_parts: Sequence[str]) -> AgentRequest:
    parts: list[TextPart] = [TextPart(f"Topic: {topic}")]
    parts.extend(TextPart(text) for text in rendered_parts)
    return AgentRequest(
        system_prompt=MASK_SYSTEM,
        user_parts=tuple(parts),
        request_tag="mask",
    )


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
    return AgentRequest(
        system_prompt=EXTRACT_SYSTEM,
        user_parts=tuple(parts),
        request_tag="extract",
    )


def check_request(
    topic: str, rendered_parts: Sequence[str], table_markdown: str
) -> AgentRequest:
    parts: list[TextPart] = [TextPart(f"Topic: {topic}")]
    parts.extend(TextPart(text) for text in rendered_parts)
    parts.append(TextPart(f"Integrated table:\n{table_markdown}"))
    return AgentRequest(
        system_prompt=CHECK_SYSTEM,
        user_parts=tuple(parts),
        request_tag="check",
    )


def plan_request(topic: str, header: Sequence[str], preview_rows: Sequence[str]) -> AgentRequest:
    parts = [
        TextPart(f"Topic: {topic}"),
        TextPart("Columns: " + " | ".join(header)),
        TextPart("First rows:\n" + "\n".join(preview_rows)),
    ]
    return AgentRequest(
        system_prompt=PLAN_SYSTEM,
        user_parts=tuple(parts),
        request_tag="plan",
    )


def report_request(topic: str, summary: str) -> AgentRequest:
    return AgentRequest(
        system_prompt=REPORT_SYSTEM,
        user_parts=(TextPart(f"Topic: {topic}"), TextPart(summary)),
        request_tag="report",
    )
