"""Config parsing, validation, rendering, and digest stability."""

import dataclasses
import hashlib
import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from manalyzer.config import (
    FIELD_MAP,
    KEY_MAP,
    PipelineConfig,
    config_digest,
    load_config,
    parse_config,
    render_config,
    sha256_hex,
)

from helpers import run_cli, run_python

# b"", ASCII, non-ASCII UTF-8, then 1 MiB of every byte value.
SHORT_INPUTS = [b"", b"soil organic carbon", "Bodenkohlenstoff: Δ 10 °C, 土壌".encode("utf-8")]
DIGEST_INPUTS = [*SHORT_INPUTS, bytes(range(256)) * 4096]


def test_defaults():
    cfg = PipelineConfig()
    assert cfg.provider_kind == "scripted"
    assert cfg.packer_budget == 131072
    assert cfg.reviewer_threshold == 8.0
    assert cfg.reviewer_batch_size == 20
    assert cfg.extraction_accept_overall == 7
    assert cfg.extraction_max_iter == 3
    assert cfg.eval_rel_tol == 1e-4
    assert cfg.eval_level3_rel_tol == 1e-2


def test_parse_happy_path():
    cfg = parse_config(
        """
        # run settings
        packer.budget = 2048   # tokens
        reviewer.threshold = 7.5
        provider.script = script.jsonl

        analysis.seed = 7
        """
    )
    assert cfg.packer_budget == 2048
    assert cfg.reviewer_threshold == 7.5
    assert cfg.provider_script == "script.jsonl"
    assert cfg.analysis_seed == 7
    # Everything unmentioned keeps its default.
    assert cfg.reviewer_batch_size == 20


def test_a_hash_inside_a_value_is_part_of_it():
    """A `#` starts a comment only at the start of a line or after
    whitespace, so a script path holding one loads whole and round-trips
    through the rendering that config.snapshot holds."""
    cfg = parse_config("provider.script = runs#2/script.jsonl\n\t# a comment\n")
    assert cfg.provider_script == "runs#2/script.jsonl"
    assert parse_config(render_config(cfg)) == cfg


def test_parse_unknown_key():
    with pytest.raises(ValueError, match=r"<config>:2: unknown config key 'packer\.depth'"):
        parse_config("packer.budget = 1\npacker.depth = 2\n")


def test_parse_missing_equals():
    with pytest.raises(ValueError, match="<config>:1: expected 'key = value'"):
        parse_config("packer.budget 1\n")


def test_parse_bad_int():
    with pytest.raises(ValueError, match="bad value 'many'"):
        parse_config("packer.budget = many\n")


def test_parse_bad_float():
    with pytest.raises(ValueError, match="bad value"):
        parse_config("reviewer.threshold = high\n")


def test_parse_refuses_a_key_set_twice():
    with pytest.raises(ValueError) as refused:
        parse_config("packer.budget = 100\nreviewer.threshold = 7\npacker.budget = 200\n")
    assert str(refused.value) == "<config>:3: key 'packer.budget' set twice (first on line 1)"


def test_parse_reports_source_name():
    with pytest.raises(ValueError, match="my.cfg:1"):
        parse_config("nope = 1\n", source="my.cfg")


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"reviewer_batch_size": 0}, "reviewer.batch_size"),
        ({"extraction_max_iter": 0}, "extraction.max_iter"),
        ({"extraction_max_iter": 4}, "extraction.max_iter"),
        ({"extraction_mask_batch": 0}, "extraction.mask_batch"),
        ({"eval_abs_tol": -1.0}, "eval.abs_tol"),
        ({"eval_rel_tol": -0.1}, "eval.rel_tol"),
        ({"eval_level3_rel_tol": -0.1}, "eval.level3_rel_tol"),
        ({"packer_budget": -1}, "packer.budget"),
        ({"packer_default_importance": 11}, "packer.default_importance"),
        ({"max_concurrency": 0}, "max_concurrency"),
        ({"provider_max_in_flight": 0}, "provider.max_in_flight"),
        ({"provider_retries": 0}, "provider.retries"),
        ({"analysis_seed": -1}, "analysis.seed"),
        ({"analysis_seed": 2**32}, "analysis.seed"),
        ({"extraction_accept_overall": 0}, r"extraction\.accept_overall must be in \[1, 10\]"),
        ({"extraction_accept_overall": 11}, r"extraction\.accept_overall must be in \[1, 10\]"),
        ({"collect_per_query_cap": 0}, r"collect\.per_query_cap must be >= 1"),
    ],
)
def test_validation(kwargs, message):
    with pytest.raises(ValueError, match=message):
        PipelineConfig(**kwargs)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize(
    "field", [f.name for f in dataclasses.fields(PipelineConfig) if f.type == "float"]
)
def test_a_non_finite_float_is_refused(field, value):
    message = f"{FIELD_MAP[field]} must be finite"
    with pytest.raises(ValueError, match=message):
        PipelineConfig(**{field: value})
    with pytest.raises(ValueError, match=message):
        parse_config(f"{FIELD_MAP[field]} = {value}")


TEXT_FIELDS = [f.name for f in dataclasses.fields(PipelineConfig) if f.type == "str"]


@pytest.mark.parametrize("field", TEXT_FIELDS)
@pytest.mark.parametrize(
    "value", ["runs #2.jsonl", "#x", "a\nb", "a\rb", "a\u2028b", " a", "a ", "a\t", "\n"]
)
def test_a_text_value_config_snapshot_cannot_hold_is_refused(field, value):
    with pytest.raises(ValueError) as refused:
        PipelineConfig(**{field: value})
    assert str(refused.value).startswith(f"{FIELD_MAP[field]} must not start or end with")


def test_a_config_file_value_that_would_not_read_back_exits_2_naming_the_key(tmp_path):
    # `=#x` holds no comment, so the value is `#x`; rendered as `= #x` it
    # would read back empty.
    config = tmp_path / "pipeline.cfg"
    config.write_text("provider.script =#x\n", encoding="utf-8")
    result = run_cli(["--workspace", tmp_path / "ws", "--config", config,
                      "init", "--direction", "d"])
    assert result.exit_code == 2
    assert result.stderr.startswith("error: provider.script must not start or end with")
    assert not (tmp_path / "ws").exists()


@given(field=st.sampled_from(TEXT_FIELDS), value=st.text())
def test_every_accepted_text_value_reads_back_from_its_rendering(field, value):
    """Each text value the config accepts round-trips through the text that
    config.snapshot holds, and each one it refuses would not."""
    try:
        config = PipelineConfig(**{field: value})
    except ValueError:
        try:
            read_back = getattr(parse_config(f"{FIELD_MAP[field]} = {value}\n"), field)
        except ValueError:
            return
        assert read_back != value
    else:
        assert parse_config(render_config(config)) == config


def test_render_parse_round_trip():
    cfg = PipelineConfig(
        packer_budget=999,
        reviewer_threshold=6.25,
        provider_script="s.jsonl",
        analysis_seed=3,
    )
    assert parse_config(render_config(cfg)) == cfg


def test_render_covers_every_key():
    text = render_config(PipelineConfig())
    for key in KEY_MAP:
        assert f"{key} = " in text


def test_digest_stable_and_sensitive():
    base = PipelineConfig()
    assert config_digest(base) == config_digest(PipelineConfig())
    # Any single field change must change the digest, or resume checking
    # would silently accept a drifted config.
    for field in dataclasses.fields(PipelineConfig):
        current = getattr(base, field.name)
        if field.type == "int":
            deltas = [current + 1, current - 1]
        elif field.type == "float":
            deltas = [current + 0.5]
        else:
            deltas = [current + "x"]
        for value in deltas:
            try:
                changed = dataclasses.replace(base, **{field.name: value})
            except ValueError:
                continue  # the default sits at a validation boundary
            break
        else:
            pytest.fail(f"no valid perturbation for {field.name}")
        assert config_digest(changed) != config_digest(base), field.name


def test_load_config_none_gives_defaults():
    assert load_config(None) == PipelineConfig()


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ValueError, match="cannot read config"):
        load_config(tmp_path / "absent.txt")


def test_load_config_reads_file(tmp_path):
    path = tmp_path / "pipeline.cfg"
    path.write_text("max_concurrency = 2\n", encoding="utf-8")
    assert load_config(path).max_concurrency == 2


@pytest.mark.parametrize("data", DIGEST_INPUTS, ids=["empty", "ascii", "utf-8", "1mib"])
def test_sha256_hex_equals_hashlib(data):
    assert sha256_hex(data) == hashlib.sha256(data).hexdigest()


def test_sha256_hex_equals_hashlib_on_every_corpus_file(corpus_dir):
    files = [path for path in sorted(corpus_dir.rglob("*")) if path.is_file()]
    assert files
    for path in files:
        data = path.read_bytes()
        assert sha256_hex(data) == hashlib.sha256(data).hexdigest(), path


def test_the_hashlib_fallback_gives_the_same_digests():
    # An interpreter built with no built-in hashes: both module names are blocked.
    result = run_python(
        "import hashlib, json, sys\n"
        "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
        "from manalyzer import config\n"
        "assert config._sha256 is hashlib.sha256\n"
        f"inputs = {SHORT_INPUTS!r} + [bytes(range(256)) * 4096]\n"
        "print(json.dumps([config.sha256_hex(data) for data in inputs]"
        " + [config.config_digest(config.DEFAULTS)]))"
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == [
        *(hashlib.sha256(data).hexdigest() for data in DIGEST_INPUTS),
        config_digest(PipelineConfig()),
    ]
