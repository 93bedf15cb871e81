"""Config parsing, validation, rendering, and digest stability."""

import dataclasses

import pytest

from manalyzer.config import (
    KEY_MAP,
    PipelineConfig,
    config_digest,
    load_config,
    parse_config,
    render_config,
)
from manalyzer.errors import ConfigError


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


def test_parse_unknown_key():
    with pytest.raises(ConfigError, match=r"<config>:2: unknown config key 'packer\.depth'"):
        parse_config("packer.budget = 1\npacker.depth = 2\n")


def test_parse_missing_equals():
    with pytest.raises(ConfigError, match="<config>:1: expected 'key = value'"):
        parse_config("packer.budget 1\n")


def test_parse_bad_int():
    with pytest.raises(ConfigError, match="bad value 'many'"):
        parse_config("packer.budget = many\n")


def test_parse_bad_float():
    with pytest.raises(ConfigError, match="bad value"):
        parse_config("reviewer.threshold = high\n")


def test_parse_reports_source_name():
    with pytest.raises(ConfigError, match="my.cfg:1"):
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
    ],
)
def test_validation(kwargs, message):
    with pytest.raises(ConfigError, match=message):
        PipelineConfig(**kwargs)


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
            except ConfigError:
                continue  # the default sits at a validation boundary
            break
        else:
            pytest.fail(f"no valid perturbation for {field.name}")
        assert config_digest(changed) != config_digest(base), field.name


def test_load_config_none_gives_defaults():
    assert load_config(None) == PipelineConfig()


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(tmp_path / "absent.txt")


def test_load_config_reads_file(tmp_path):
    path = tmp_path / "pipeline.cfg"
    path.write_text("max_concurrency = 2\n", encoding="utf-8")
    assert load_config(path).max_concurrency == 2
