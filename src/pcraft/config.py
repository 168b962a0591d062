"""Scenario configuration files.

Scenarios are flat ``key = value`` text files (``#`` starts a comment).
Units are fixed by the key name: crash rates per year, repair rates per
hour, recovery times in seconds, horizons in hours.  Unknown keys are
rejected by name so typos cannot silently fall back to defaults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

from .availability import ARA, CLOUD, ON_PREMISES, PF, AvailRates
from .integrity import (
    CRASH_RECOVERY_SECONDS,
    RETRY_SECONDS,
    SDC_RECOVERY_SECONDS,
    IntegrityRates,
    derive_integrity_rates,
)
from .planner import PlanRequest, required_base_nodes
from .units import HOUR, MONTH
from .variants import NODE_VARIANTS, TransientSplit, throughput_ratio

__all__ = ["ScenarioConfig", "ConfigError", "load_config", "parse_config"]


class ConfigError(ValueError):
    """A scenario file violated the configuration contract."""


@dataclass
class ScenarioConfig:
    """One planning scenario; every field has a ``key = value`` spelling."""

    technique: str | None = None
    deployment: str | None = None
    node_variant: str | None = None
    sert_multiplier: float = 10.0
    target_nines: float = 3.0
    horizon_hours: float = 8766.0
    hw_crash_per_year: float = 1.0
    crash_recovery_seconds: float = CRASH_RECOVERY_SECONDS
    pool_repair_per_hour: float | None = None
    transient_rate_per_month: float | None = None
    latency_threshold_ms: float | None = None
    # Per-variant outcome fractions, in percent, overriding the shipped table.
    corrupt_pct: float | None = None
    crash_pct: float | None = None
    retry_pct: float | None = None
    sdc_recovery_hours: float = SDC_RECOVERY_SECONDS / HOUR
    retry_tx_us: float = RETRY_SECONDS * 1e6
    retry_crash_per_hour: float = 0.0
    throughput_ratio: float | None = None
    extra_nodes: int = 0
    search_cap: int = 1000
    parallel_recovery: bool = True
    seed: int = 0
    replications: int = 10000

    @property
    def horizon_s(self) -> float:
        return self.horizon_hours * HOUR

    def set_value(self, key: str, text: str) -> None:
        """Set ``key`` from its text spelling, by the rules of a config file line."""
        setattr(self, key, _parse_value(key, text))

    def require(self, *keys: str) -> None:
        for key in keys:
            if getattr(self, key) is None:
                raise ConfigError(f"configuration key {key!r} is required here")

    def avail_rates(self) -> AvailRates:
        repair = self.pool_repair_per_hour
        return AvailRates(
            hw_crash_per_year=self.hw_crash_per_year,
            crash_recovery_per_s=1.0 / self.crash_recovery_seconds,
            pool_repair_per_s=None if repair is None else repair / HOUR,
        )

    def base_nodes(self, variant: str) -> int:
        """Nodes serving ``sert_multiplier`` at the variant's (or the set) ratio."""
        return required_base_nodes(
            self.sert_multiplier, throughput_ratio(variant, self.throughput_ratio))

    def plan_request(self, variant: str | None = None) -> PlanRequest:
        self.require("technique", "deployment")
        variant = variant or self.node_variant
        if variant is None:
            raise ConfigError("configuration key 'node_variant' is required here")
        return PlanRequest(
            technique=self.technique,
            deployment=self.deployment,
            node_variant=variant,
            sert_multiplier=self.sert_multiplier,
            target_nines=self.target_nines,
            horizon_s=self.horizon_s,
            rates=self.avail_rates(),
            ratio=self.throughput_ratio,
            search_cap=self.search_cap,
            parallel_recovery=self.parallel_recovery,
        )

    def transient_split(self, variant: str | None = None) -> TransientSplit:
        variant = variant or self.node_variant
        overrides = (self.corrupt_pct, self.crash_pct, self.retry_pct)
        if variant not in NODE_VARIANTS and None in overrides:
            raise ConfigError(
                "configuration key 'node_variant' must name a known variant, "
                "or corrupt_pct/crash_pct/retry_pct must all be set")
        split = NODE_VARIANTS[variant].split if variant in NODE_VARIANTS else TransientSplit(0.0, 0.0)
        fractions = [table if pct is None else pct / 100.0
                     for table, pct in zip((split.corrupt, split.crash, split.retried), overrides)]
        try:
            return TransientSplit(*fractions)
        except ValueError as err:   # only an override can break the shipped table
            raise ConfigError(
                f"configuration keys corrupt_pct/crash_pct/retry_pct: {err}, got "
                "corrupt {:g}, crash {:g}, retried {:g}".format(*fractions)) from None

    def integrity_rates(self, variant: str | None = None) -> IntegrityRates:
        self.require("transient_rate_per_month")
        # Crashed nodes are only replaced automatically in the cloud.
        crash_recovery = (
            self.crash_recovery_seconds if self.deployment != ON_PREMISES else None)
        return derive_integrity_rates(
            self.transient_rate_per_month / MONTH,
            self.transient_split(variant),
            crash_recovery,
            sdc_recovery_s=self.sdc_recovery_hours * HOUR,
            retry_s=self.retry_tx_us * 1e-6,
            retry_crash_per_s=self.retry_crash_per_hour / HOUR,
        )


_STRING_CHOICES = {
    "technique": (PF, ARA),
    "deployment": (CLOUD, ON_PREMISES),
    "node_variant": tuple(NODE_VARIANTS),
}
_BOOL_WORDS = {"true": True, "yes": True, "on": True, "1": True,
               "false": False, "no": False, "off": False, "0": False}
_FIELD_TYPES = {f.name: f.type for f in fields(ScenarioConfig)}
# Least value of each integer key: a simulation's confidence interval
# needs two replications.
_INT_MINIMUM = {"extra_nodes": 0, "search_cap": 0, "seed": 0, "replications": 2}
# Every float key must be finite, and positive unless it has a range here.
_POSITIVE = ("a positive finite number", lambda value: value > 0.0)
_PERCENT = ("a percentage from 0 to 100", lambda value: 0.0 <= value <= 100.0)
_FLOAT_RANGE = {
    "corrupt_pct": _PERCENT, "crash_pct": _PERCENT, "retry_pct": _PERCENT,
    "retry_crash_per_hour": ("a nonnegative finite number", lambda value: value >= 0.0),
}


def _parse_value(key: str, text: str):
    declared = _FIELD_TYPES[key]
    if key in _STRING_CHOICES:
        if text not in _STRING_CHOICES[key]:
            raise ConfigError(
                f"configuration key {key!r}: expected one of "
                f"{', '.join(_STRING_CHOICES[key])}, got {text!r}")
        return text
    if declared.startswith("bool"):
        word = text.lower()
        if word not in _BOOL_WORDS:
            raise ConfigError(f"configuration key {key!r}: expected a boolean, got {text!r}")
        return _BOOL_WORDS[word]
    if declared.startswith("int"):
        try:
            value = int(text)
        except ValueError:
            raise ConfigError(
                f"configuration key {key!r}: expected an integer, got {text!r}") from None
        least = _INT_MINIMUM[key]
        if value < least:
            raise ConfigError(
                f"configuration key {key!r}: expected an integer of at least "
                f"{least}, got {text!r}")
        return value
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(
            f"configuration key {key!r}: expected a number, got {text!r}") from None
    expected, in_range = _FLOAT_RANGE.get(key, _POSITIVE)
    if not (math.isfinite(value) and in_range(value)):
        raise ConfigError(f"configuration key {key!r}: expected {expected}, got {text!r}")
    return value


def parse_config(text: str) -> ScenarioConfig:
    config = ScenarioConfig()
    seen: set[str] = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in _FIELD_TYPES:
            raise ConfigError(f"line {line_no}: unknown configuration key {key!r}")
        if key in seen:
            raise ConfigError(f"line {line_no}: duplicate configuration key {key!r}")
        seen.add(key)
        config.set_value(key, value)
    return config


def load_config(path: str | Path) -> ScenarioConfig:
    return parse_config(Path(path).read_text(encoding="utf-8"))
