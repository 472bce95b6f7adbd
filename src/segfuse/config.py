"""Run configuration: built-in defaults, optional config file, CLI overrides.

Config files are line-based `key = value` UTF-8 text; '#' starts a comment.
Precedence is defaults < config file < explicit CLI flags.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import SegfuseError
from .fusion import check_lambda_prior, check_tau_s
from .prior import AGGREGATION_KINDS, NORMALIZE_ORDERS


@dataclass
class RunConfig:
    lambda_prior: float = 0.7
    tau_s: float = 0.10
    aggregation: str = "lse"
    background_threshold: float | None = None
    normalize_order: str = "both"

    def __post_init__(self):
        check_lambda_prior(self.lambda_prior)
        check_tau_s(self.tau_s)
        if self.aggregation not in AGGREGATION_KINDS:
            raise SegfuseError(
                "bad_config_value",
                f"aggregation must be one of {AGGREGATION_KINDS}")
        if self.normalize_order not in NORMALIZE_ORDERS:
            raise SegfuseError(
                "bad_config_value",
                f"normalize_order must be one of {NORMALIZE_ORDERS}")


_PARSERS = {
    "lambda_prior": float,
    "tau_s": float,
    "aggregation": str,
    "background_threshold": float,
    "normalize_order": str,
}


def parse_config_text(text: str) -> dict:
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise SegfuseError("bad_config_line", f"line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _PARSERS:
            raise SegfuseError("unknown_config_key", f"line {lineno}: '{key}'")
        try:
            values[key] = _PARSERS[key](value)
        except ValueError:
            raise SegfuseError(
                "bad_config_value", f"line {lineno}: cannot parse '{value}' for {key}")
    return values


def load_config_file(path) -> dict:
    with open(path, encoding="utf-8") as f:
        return parse_config_text(f.read())


def build_run_config(file_values: dict | None = None, **overrides) -> RunConfig:
    """Merge config-file values and CLI overrides (None means not given)."""
    merged = dict(file_values or {})
    for key, value in overrides.items():
        if value is not None:
            merged[key] = value
    return RunConfig(**merged)
