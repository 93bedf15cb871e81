"""Pipeline configuration: a flat key = value file mapped onto one
dataclass, plus a stable digest so a workspace can refuse to resume under a
different configuration.

The config-file keys come from the dataclass fields. A field's first word
names its section when it is one of SECTIONS, and the key puts a dot
after it: `eval_level3_rel_tol` is `eval.level3_rel_tol`. Any other field
is its own key, as `max_concurrency` is.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import ConfigError

# The packer clamps every budget to this cap; the default budget is the cap.
MAX_BUDGET = 131072
# analysis.seed seeds a 32-bit Mersenne Twister: it must lie in [0, SEED_LIMIT).
SEED_LIMIT = 2**32


@dataclass(frozen=True)
class PipelineConfig:
    provider_kind: str = "scripted"
    provider_script: str = ""
    provider_max_in_flight: int = 4
    provider_retries: int = 3
    packer_budget: int = MAX_BUDGET
    packer_default_importance: int = 5
    reviewer_threshold: float = 8.0
    reviewer_batch_size: int = 20
    extraction_accept_overall: int = 7
    extraction_max_iter: int = 3
    extraction_mask_batch: int = 10
    eval_abs_tol: float = 1e-9
    eval_rel_tol: float = 1e-4
    eval_level3_rel_tol: float = 1e-2
    analysis_seed: int = 42
    max_concurrency: int = 4
    collect_per_query_cap: int = 50

    def __post_init__(self) -> None:
        if self.reviewer_batch_size < 1:
            raise ConfigError("reviewer.batch_size must be >= 1")
        if not 1 <= self.extraction_max_iter <= 3:
            raise ConfigError("extraction.max_iter must be in [1, 3]")
        if self.extraction_mask_batch < 1:
            raise ConfigError("extraction.mask_batch must be >= 1")
        for key in ("eval_abs_tol", "eval_rel_tol", "eval_level3_rel_tol"):
            if getattr(self, key) < 0:
                raise ConfigError(f"{FIELD_MAP[key]} must be >= 0")
        if self.packer_budget < 0:
            raise ConfigError("packer.budget must be >= 0")
        if not 0 <= self.packer_default_importance <= 10:
            raise ConfigError("packer.default_importance must be in [0, 10]")
        if self.max_concurrency < 1:
            raise ConfigError("max_concurrency must be >= 1")
        if self.provider_max_in_flight < 1:
            raise ConfigError("provider.max_in_flight must be >= 1")
        if self.provider_retries < 1:
            raise ConfigError("provider.retries must be >= 1")
        if not 0 <= self.analysis_seed < SEED_LIMIT:
            raise ConfigError("analysis.seed must be in [0, 2**32)")


SECTIONS = ("provider", "packer", "reviewer", "extraction", "eval", "analysis", "collect")
# Config-file key -> dataclass field.
KEY_MAP = {
    (f.name.replace("_", ".", 1) if f.name.split("_", 1)[0] in SECTIONS else f.name): f.name
    for f in fields(PipelineConfig)
}
FIELD_MAP = {v: k for k, v in KEY_MAP.items()}

# The one home of every default: library functions take theirs from here.
DEFAULTS = PipelineConfig()


def parse_config(text: str, source: str = "<config>") -> PipelineConfig:
    """Parse the flat config format: one `key = value` per line, `#`
    comments, blank lines ignored."""
    field_types = {f.name: f.type for f in fields(PipelineConfig)}
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value_text = line.partition("=")
        key = key.strip()
        value_text = value_text.strip()
        if key not in KEY_MAP:
            raise ConfigError(f"{source}:{lineno}: unknown config key {key!r}")
        field_name = KEY_MAP[key]
        type_name = field_types[field_name]
        try:
            if type_name == "int":
                values[field_name] = int(value_text)
            elif type_name == "float":
                values[field_name] = float(value_text)
            else:
                values[field_name] = value_text
        except ValueError:
            raise ConfigError(
                f"{source}:{lineno}: bad value {value_text!r} for {key}"
            ) from None
    return PipelineConfig(**values)  # type: ignore[arg-type]


def load_config(path: Path | None) -> PipelineConfig:
    if path is None:
        return PipelineConfig()
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text, source=str(path))


def render_config(config: PipelineConfig) -> str:
    lines = []
    for key in sorted(KEY_MAP):
        value = getattr(config, KEY_MAP[key])
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def config_digest(config: PipelineConfig) -> str:
    return hashlib.sha256(render_config(config).encode("utf-8")).hexdigest()
