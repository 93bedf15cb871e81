"""Pipeline configuration: a flat key = value file mapped onto one
dataclass, plus a stable digest so a workspace can refuse to resume under a
different configuration.

The config-file keys come from the dataclass fields. A field's first word
names its section when it is one of SECTIONS, and the key puts a dot
after it: `eval_level3_rel_tol` is `eval.level3_rel_tol`. Any other field
is its own key, as `max_concurrency` is.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields
from pathlib import Path


# The interpreter's built-in SHA-256 (`_sha2` on 3.12+, `_sha256` before):
# hashlib would map OpenSSL's libcrypto into every process for the same
# digest. hashlib stays the fallback for builds that ship no built-in hashes.
try:
    from _sha2 import sha256 as _sha256
except ImportError:
    try:
        from _sha256 import sha256 as _sha256
    except ImportError:
        from hashlib import sha256 as _sha256

# The packer clamps every budget to this cap; the default budget is the cap.
MAX_BUDGET = 131072
# analysis.seed seeds a 32-bit Mersenne Twister: it must lie in [0, SEED_LIMIT).
SEED_LIMIT = 2**32
# A comment: a `#` at the start of a line or after whitespace, to the line's end.
_COMMENT = re.compile(r"(?:^|\s)#.*")


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
        for f in fields(self):  # first: nan passes every `x < bound` check below
            value = getattr(self, f.name)
            if f.type == "float" and not math.isfinite(value):
                raise ValueError(f"{FIELD_MAP[f.name]} must be finite")
            # A text value must read back from config.snapshot as it is.
            if f.type == "str" and (value != value.strip() or len(value.splitlines()) > 1
                                    or _COMMENT.search(value)):
                raise ValueError(
                    f"{FIELD_MAP[f.name]} must not start or end with whitespace, hold a "
                    "line break, or hold a '#' at its start or after whitespace"
                )
        if self.reviewer_batch_size < 1:
            raise ValueError("reviewer.batch_size must be >= 1")
        if not 1 <= self.extraction_max_iter <= 3:
            raise ValueError("extraction.max_iter must be in [1, 3]")
        if not 1 <= self.extraction_accept_overall <= 10:  # the check scores' range
            raise ValueError("extraction.accept_overall must be in [1, 10]")
        if self.extraction_mask_batch < 1:
            raise ValueError("extraction.mask_batch must be >= 1")
        for key in ("eval_abs_tol", "eval_rel_tol", "eval_level3_rel_tol"):
            if getattr(self, key) < 0:
                raise ValueError(f"{FIELD_MAP[key]} must be >= 0")
        if self.packer_budget < 0:
            raise ValueError("packer.budget must be >= 0")
        if not 0 <= self.packer_default_importance <= 10:
            raise ValueError("packer.default_importance must be in [0, 10]")
        if self.max_concurrency < 1:
            raise ValueError("max_concurrency must be >= 1")
        if self.provider_max_in_flight < 1:
            raise ValueError("provider.max_in_flight must be >= 1")
        if self.provider_retries < 1:
            raise ValueError("provider.retries must be >= 1")
        if not 0 <= self.analysis_seed < SEED_LIMIT:
            raise ValueError("analysis.seed must be in [0, 2**32)")
        if self.collect_per_query_cap < 1:
            raise ValueError("collect.per_query_cap must be >= 1")


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
    comments (a `#` inside a value, as in `runs#2`, is the value's), blank
    lines ignored, each key set at most once."""
    field_types = {f.name: f.type for f in fields(PipelineConfig)}
    values: dict[str, object] = {}
    first_line: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _COMMENT.sub("", raw, 1).strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value_text = line.partition("=")
        key = key.strip()
        value_text = value_text.strip()
        if key not in KEY_MAP:
            raise ValueError(f"{source}:{lineno}: unknown config key {key!r}")
        if key in first_line:
            raise ValueError(
                f"{source}:{lineno}: key {key!r} set twice (first on line {first_line[key]})"
            )
        first_line[key] = lineno
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
            raise ValueError(
                f"{source}:{lineno}: bad value {value_text!r} for {key}"
            ) from None
    return PipelineConfig(**values)  # type: ignore[arg-type]


def load_config(path: Path | None) -> PipelineConfig:
    if path is None:
        return PipelineConfig()
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text, source=str(path))


def render_config(config: PipelineConfig) -> str:
    lines = []
    for key in sorted(KEY_MAP):
        value = getattr(config, KEY_MAP[key])
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def sha256_hex(data: bytes) -> str:
    """The hex SHA-256 of `data`, as hashlib.sha256(data).hexdigest()."""
    return _sha256(data).hexdigest()


def config_digest(config: PipelineConfig) -> str:
    return sha256_hex(render_config(config).encode("utf-8"))
