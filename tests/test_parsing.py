import gc
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given
from hypothesis import strategies as st

from manalyzer.errors import ExtractionError, UnparseableNumericError, UnparseableReplyError
from manalyzer.parsing import (
    normalize_numeric,
    parse_all_markdown_tables,
    parse_check_reply,
    parse_delimited_blocks,
    parse_int_reply,
    parse_labeled_score,
    parse_markdown_table,
    parse_real_list,
    parse_string_groups,
    render_markdown_table,
    render_numeric,
)

# Hand-built oracle: raw cell text -> expected canonical value. Frozen by
# working each case on paper, not by running the implementation.
NORMALIZATION_CASES = [
    ("5", 5.0),
    ("5.0", 5.0),
    ("  42  ", 42.0),
    ("-3.5", -3.5),
    ("−0.5", -0.5),  # U+2212 minus
    ("–7", -7.0),  # en dash as minus
    ("‒2.25", -2.25),  # figure dash as minus
    (">5.0", 5.0),
    ("<0.001", 0.001),
    ("~12", 12.0),
    ("=9", 9.0),
    ("+4.5", 4.5),
    ("12.3 (±0.4)", 12.3),
    ("12.3 ± 0.4", 12.3),
    ("7±1", 7.0),
    ("1,234", 1234.0),
    ("1,234,567.5", 1234567.5),
    ("45%", 45.0),
    ("(12)", 12.0),
    ("3.1 (2.9, 3.3)", 3.1),
    ("18.2 (n=30)", 18.2),
    ("0.03 (0.01 (adj))", 0.03),
    ("NaN", None),
    ("nan", None),
    ("NAN", None),
    ("  NaN  ", None),
    ("1e3", 1000.0),
    ("2.5E-2", 0.025),
    ("-1,000 (95% CI)", -1000.0),
    (".5", 0.5),
]

UNPARSEABLE_CASES = ["", "   ", "n/a", "abc", "--", "1.2.3", "12 34", "inf", "-inf", "four"]


@pytest.mark.parametrize("raw,expected", NORMALIZATION_CASES)
def test_normalize_numeric_table(raw, expected):
    got = normalize_numeric(raw)
    if expected is None:
        assert got is None
    else:
        assert got == pytest.approx(expected, abs=0.0)


@pytest.mark.parametrize("raw", UNPARSEABLE_CASES)
def test_normalize_numeric_rejects(raw):
    with pytest.raises(UnparseableNumericError):
        normalize_numeric(raw)


@pytest.mark.parametrize("raw,expected", NORMALIZATION_CASES)
def test_normalize_render_idempotent(raw, expected):
    """normalize(render(normalize(x))) == normalize(x) for every oracle row."""
    value = normalize_numeric(raw)
    rendered = render_numeric(value)
    assert normalize_numeric(rendered) == value


@given(st.floats(allow_nan=False, allow_infinity=False, width=64))
def test_render_round_trips_floats(value):
    got = normalize_numeric(render_numeric(value))
    assert got is not None
    assert got == pytest.approx(value, rel=0, abs=0) or math.isclose(got, value, rel_tol=0, abs_tol=0)


def test_render_numeric_forms():
    assert render_numeric(None) == "NaN"
    assert render_numeric(5.0) == "5"
    assert render_numeric(-3.0) == "-3"
    assert render_numeric(2.5) == "2.5"
    assert render_numeric(0.0) == "0"


def test_parse_markdown_table_basic():
    text = (
        "Some preamble\n"
        "| a | b |\n"
        "| --- | --- |\n"
        "| 1 | 2 |\n"
        "| 3 | 4 |\n"
        "trailing prose\n"
    )
    header, rows = parse_markdown_table(text)
    assert header == ["a", "b"]
    assert rows == [["1", "2"], ["3", "4"]]


def test_parse_markdown_table_without_separator_row():
    header, rows = parse_markdown_table("| x | y |\n| 1 | 2 |\n")
    assert header == ["x", "y"]
    assert rows == [["1", "2"]]


def test_parse_markdown_table_pads_and_truncates_ragged_rows():
    text = "| a | b | c |\n| --- | --- | --- |\n| 1 | 2 |\n| 1 | 2 | 3 | 4 |\n"
    header, rows = parse_markdown_table(text)
    assert rows[0] == ["1", "2", "NaN"]
    assert rows[1] == ["1", "2", "3"]


def test_parse_all_markdown_tables_finds_each_block():
    text = (
        "| a |\n| --- |\n| 1 |\n"
        "\nbetween\n\n"
        "| b | c |\n| --- | --- |\n| 2 | 3 |\n"
    )
    tables = parse_all_markdown_tables(text)
    assert len(tables) == 2
    assert tables[0][0] == ["a"]
    assert tables[1][0] == ["b", "c"]


def test_parse_markdown_table_requires_a_table():
    with pytest.raises(ExtractionError, match="no Markdown table found in reply"):
        parse_markdown_table("no pipes here at all")


def test_markdown_table_round_trip():
    header = ["doc", "value", "note"]
    rows = [["d1", 1.5, None], ["d2", -2.0, 7.25]]
    rendered = render_markdown_table(header, rows)
    parsed_header, parsed_rows = parse_markdown_table(rendered)
    assert parsed_header == header
    assert [[normalize_numeric(c) if c != "d1" and c != "d2" else c for c in row] for row in parsed_rows] == [
        ["d1", 1.5, None],
        ["d2", -2.0, 7.25],
    ]


def test_parse_real_list_plain():
    assert parse_real_list("[0.5, 1, 0.25]", 3) == [0.5, 1.0, 0.25]


def test_parse_real_list_with_prose_around():
    reply = "Sure, here you go: [1, 2, 3]. Hope that helps!"
    assert parse_real_list(reply, 3) == [1.0, 2.0, 3.0]


def test_parse_real_list_rejects_non_numeric():
    for bad in ("[1, 'a']", "[True, 1]", "no list"):
        with pytest.raises(UnparseableReplyError):
            parse_real_list(bad, 2)
    assert parse_real_list("[]", 0) == []


@pytest.mark.parametrize("reply", ["[" + "9" * 400 + "]", "[1e400]", "[0.5, -1e400]"])
def test_parse_real_list_rejects_values_outside_the_float_range(reply):
    # A re-ask follows only an UnparseableReplyError, not an OverflowError.
    with pytest.raises(UnparseableReplyError, match="outside the float range"):
        parse_real_list(reply, reply.count(",") + 1)


def test_parse_real_list_enforces_the_count():
    with pytest.raises(UnparseableReplyError, match="expected 3 values, got 2"):
        parse_real_list("[0.5, 1]", 3)


def test_parse_real_list_is_thread_safe():
    # Cyclic garbage with a finalizer makes the collector run Python code, and
    # so lets another thread in, while a thread is inside the AST builder.
    class Cycle:
        def __del__(self):
            sum(range(50))

    values = [i / 8 for i in range(64)]

    def parse_many(_):
        for _ in range(200):
            cycle = Cycle()
            cycle.self = cycle
            del cycle
            assert parse_real_list(str(values), len(values)) == values

    interval, threshold = sys.getswitchinterval(), gc.get_threshold()
    sys.setswitchinterval(1e-6)
    gc.set_threshold(50)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            list(pool.map(parse_many, range(4)))
    finally:
        sys.setswitchinterval(interval)
        gc.set_threshold(*threshold)


def test_parse_string_groups():
    reply = 'Keywords: [["soil carbon", "sequestration"], ["no-till", "meta-analysis"]]'
    assert parse_string_groups(reply) == [
        ["soil carbon", "sequestration"],
        ["no-till", "meta-analysis"],
    ]


def test_parse_int_reply():
    assert parse_int_reply("7") == 7
    assert parse_int_reply("Score: 9 out of 10") == 9
    assert parse_int_reply("-2") == -2
    with pytest.raises(UnparseableReplyError):
        parse_int_reply("no digits")


def test_parse_labeled_score_variants():
    reply = "**Topic Relevance:** 8\nFeasibility = 6"
    assert parse_labeled_score(reply, "Topic Relevance") == 8
    assert parse_labeled_score(reply, "Feasibility") == 6
    with pytest.raises(UnparseableReplyError):
        parse_labeled_score(reply, "Novelty")


def test_parse_delimited_blocks():
    text = (
        "[The Start of Title]\nA caption.\n[The End of Title]\n"
        "noise\n"
        "[The Start of Title]\nSecond one.\n[The End of Title]\n"
    )
    assert parse_delimited_blocks(text, "Title") == ["A caption.", "Second one."]
    assert parse_delimited_blocks(text, "Footnote") == []


def test_parse_check_reply_happy_path():
    reply = (
        "Here is my assessment:\n"
        "{'Data Accuracy': 9, 'Semantic Consistency': 8, "
        "'Data Completeness': 7, 'Overall Score': 8, 'Suggestion': 'Fine.'}"
    )
    got = parse_check_reply(reply)
    assert got["Overall Score"] == 8
    assert got["Suggestion"] == "Fine."


@pytest.mark.parametrize("score", ["1e400", "-1e400", "9" * 400])
def test_parse_check_reply_rejects_scores_outside_the_float_range(score):
    reply = ("{'Data Accuracy': 9, 'Semantic Consistency': 8, "
             f"'Data Completeness': 7, 'Overall Score': {score}, 'Suggestion': 'x'}}")
    with pytest.raises(UnparseableReplyError, match="outside the float range"):
        parse_check_reply(reply)


def test_parse_check_reply_rejects_an_unhashable_key():
    with pytest.raises(UnparseableReplyError, match="malformed"):
        parse_check_reply("{[1]: 2, 'Overall Score': 8}")


def test_parse_check_reply_rejects_missing_keys():
    with pytest.raises(UnparseableReplyError):
        parse_check_reply("{'Overall Score': 8, 'Suggestion': 'x'}")
    with pytest.raises(UnparseableReplyError):
        parse_check_reply("not a dict at all")
