"""Parsers for agent reply wire formats.

Everything the pipeline reads back from an agent funnels through here:
Markdown tables, bare numeric lists, labeled scores, delimited blocks, and
the checker's dict reply. Parsers are tolerant of surrounding prose but
strict about the payload itself.
"""

from __future__ import annotations

import ast
import math
import re
import sys
import threading
from collections.abc import Sequence

from .errors import ExtractionError, UnparseableNumericError, UnparseableReplyError

_SEPARATOR_CELL = re.compile(r"^:?-+:?$")
_MINUS_VARIANTS = str.maketrans({"−": "-", "‒": "-", "–": "-"})
_STRIP_CHARS = set("><~=+()%,")
# CPython 3.11 keeps the AST builder's recursion depth in interpreter-wide
# state, so literal_eval on two threads at once can raise SystemError.
_AST_LOCK = threading.Lock()


def _split_row(line: str) -> list[str]:
    body = line.strip()
    if body.startswith("|"):
        body = body[1:]
    if body.endswith("|"):
        body = body[:-1]
    return [cell.strip() for cell in body.split("|")]


def _is_separator(cells: list[str]) -> bool:
    return all(_SEPARATOR_CELL.match(c) for c in cells if c) and any(cells)


def parse_all_markdown_tables(text: str) -> list[tuple[list[str], list[list[str]]]]:
    """Find every pipe table in *text*.

    A table is a contiguous run of lines containing "|"; the first line is
    the header, an optional dash row is skipped, the rest are data rows.
    Ragged rows are padded with "NaN" (or truncated) to the header width.
    """
    tables: list[tuple[list[str], list[list[str]]]] = []
    run: list[str] = []
    for line in text.splitlines() + [""]:
        if "|" in line:
            run.append(line)
            continue
        if len(run) >= 2:
            header = _split_row(run[0])
            body = run[1:]
            if body and _is_separator(_split_row(body[0])):
                body = body[1:]
            rows = []
            for raw in body:
                cells = _split_row(raw)
                if len(cells) < len(header):
                    cells = cells + ["NaN"] * (len(header) - len(cells))
                rows.append(cells[: len(header)])
            if header:
                tables.append((header, rows))
        run = []
    return tables


def parse_markdown_table(text: str) -> tuple[list[str], list[list[str]]]:
    """First pipe table in *text*, or ExtractionError."""
    tables = parse_all_markdown_tables(text)
    if not tables:
        raise ExtractionError("no Markdown table found in reply")
    return tables[0]


def render_markdown_table(header: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render a grid back to a pipe table.

    Cells that are floats or None go through render_numeric so that
    parse(render(t)) reproduces the numeric grid.
    """
    def cell_text(cell: object) -> str:
        if cell is None or isinstance(cell, float):
            return render_numeric(cell)  # type: ignore[arg-type]
        return str(cell)

    lines = ["| " + " | ".join(header) + " |"]
    lines.append("| " + " | ".join("---" for _ in header) + " |")
    for row in rows:
        lines.append("| " + " | ".join(cell_text(c) for c in row) + " |")
    return "\n".join(lines)


def normalize_numeric(cell_text: str) -> float | None:
    """Canonicalize one table cell to a float, or None for a missing value.

    Handles the junk that survives table transcription: comparison and
    approximation symbols, parenthesized asides like "(±0.4)", uncertainty
    suffixes, percent signs, thousands separators, and Unicode minus
    variants. "NaN" (any case) is the missing-value marker.
    """
    s = cell_text.strip()
    if s.lower() == "nan":
        return None
    s = s.translate(_MINUS_VARIANTS)
    # A parenthesized group is an aside (uncertainty, count) unless it IS
    # the whole cell, as in "(12)"; then the parens are mere decoration and
    # the character strip below uncovers the value.
    while True:
        match = re.search(r"\([^()]*\)", s)
        if not match or match.group(0) == s.strip():
            break
        s = s[: match.start()] + s[match.end() :]
    # "12.3 ± 0.4": the value is what precedes the uncertainty.
    s = s.split("±")[0]
    # Only surrounding whitespace goes; interior whitespace means the cell
    # held two tokens and must not silently fuse into one number.
    s = "".join(ch for ch in s if ch not in _STRIP_CHARS).strip()
    if not s:
        raise UnparseableNumericError(f"no numeric content in cell {cell_text!r}")
    try:
        value = float(s)
    except ValueError:
        raise UnparseableNumericError(f"cannot parse cell {cell_text!r} (reduced to {s!r})") from None
    if math.isnan(value) or math.isinf(value):
        raise UnparseableNumericError(f"non-finite value in cell {cell_text!r}")
    return value


def render_numeric(value: float | None) -> str:
    """Canonical text for a cell value; inverse of normalize_numeric."""
    if value is None:
        return "NaN"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _literal(text: str, malformed: str) -> object:
    """`ast.literal_eval(text)` under the lock, or UnparseableReplyError(malformed)."""
    try:
        with _AST_LOCK:
            return ast.literal_eval(text)
    except (ValueError, SyntaxError, TypeError):  # TypeError: an unhashable dict key
        raise UnparseableReplyError(malformed) from None


def _real(value: object, what: str) -> float:
    """`value` as a finite float; UnparseableReplyError when it is not a
    number, or when it is one outside the float range (`1e400` or a
    400-digit integer)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise UnparseableReplyError(f"{what} is not a number: {value!r}")
    if isinstance(value, int) and abs(value) > sys.float_info.max or not math.isfinite(value):
        raise UnparseableReplyError(f"{what} is outside the float range")
    return float(value)


def parse_real_list(text: str, count: int) -> list[float]:
    """Parse a bare bracketed list of `count` reals like "[0.8, 0.3, 0.9]".

    Takes the first balanced bracket group in the reply; prose around it is
    ignored. Raises UnparseableReplyError when there is no such group, it
    holds anything but finite numbers, or it does not hold `count` values.
    """
    match = re.search(r"\[[^\[\]]*\]", text)
    if not match:
        raise UnparseableReplyError("no bracketed list in reply")
    parsed = _literal(match.group(0), f"malformed list: {match.group(0)!r}")
    values = [_real(item, "list item") for item in parsed]
    if len(values) != count:
        raise UnparseableReplyError(f"expected {count} values, got {len(values)}")
    return values


def parse_string_groups(text: str) -> list[list[str]]:
    """Parse a list of lists of strings (the keyword-group reply shape)."""
    start = text.find("[")
    end = text.rfind("]")
    if start < 0 or end <= start:
        raise UnparseableReplyError("no bracketed groups in reply")
    parsed = _literal(text[start : end + 1], "malformed keyword groups")
    if not isinstance(parsed, list):
        raise UnparseableReplyError("keyword reply is not a list")
    groups: list[list[str]] = []
    for group in parsed:
        if not isinstance(group, list) or not all(isinstance(k, str) for k in group):
            raise UnparseableReplyError(f"bad keyword group: {group!r}")
        groups.append(list(group))
    return groups


def _int(digits: str) -> int:
    """`digits` as an int; UnparseableReplyError for a run longer than the
    interpreter converts (4,300 digits by default)."""
    try:
        return int(digits)
    except ValueError:
        raise UnparseableReplyError(f"integer of {len(digits)} characters in reply") from None


def parse_int_reply(text: str) -> int:
    """First integer token in the reply (scores come back as bare digits)."""
    match = re.search(r"-?\d+", text)
    if not match:
        raise UnparseableReplyError(f"no integer in reply: {text!r}")
    return _int(match.group(0))


def parse_labeled_score(text: str, label: str) -> int:
    """Extract "<label>: <int>" from a reply, tolerating markdown emphasis."""
    pattern = re.compile(re.escape(label) + r"\**\s*[:=]\s*\**\s*(-?\d+)", re.IGNORECASE)
    match = pattern.search(text)
    if not match:
        raise UnparseableReplyError(f"no {label!r} score in reply")
    return _int(match.group(1))


def parse_delimited_blocks(text: str, name: str) -> list[str]:
    """Contents of every [The Start of <name>] ... [The End of <name>] block."""
    pattern = re.compile(
        re.escape(f"[The Start of {name}]") + r"(.*?)" + re.escape(f"[The End of {name}]"),
        re.DOTALL,
    )
    return [m.group(1).strip() for m in pattern.finditer(text)]


CHECK_KEYS = ("Data Accuracy", "Semantic Consistency", "Data Completeness", "Overall Score")


def parse_check_reply(text: str) -> dict[str, object]:
    """Parse the checker's dict-style reply.

    Expects a Python-literal dict with the four integer score keys and a
    'Suggestion' string. Missing keys or non-integer scores are reply
    defects, not data.
    """
    start = text.find("{")
    end = text.rfind("}")
    if start < 0 or end <= start:
        raise UnparseableReplyError("no dict in checker reply")
    parsed = _literal(text[start : end + 1], "malformed checker dict")
    if not isinstance(parsed, dict):
        raise UnparseableReplyError("checker reply is not a dict")
    out: dict[str, object] = {}
    for key in CHECK_KEYS:
        if key not in parsed:
            raise UnparseableReplyError(f"checker reply missing {key!r}")
        out[key] = int(_real(parsed[key], f"checker score {key!r}"))
    out["Suggestion"] = str(parsed.get("Suggestion", ""))
    return out
