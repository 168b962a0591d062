"""Transient-fault integrity models.

A node cycles between Correct, Corrupt (undetected bad output), Crash,
and, for transactional nodes, a Retry state for detected faults that are
rolled back.  Transient faults strike at a configured rate and split
three ways by node variant (see ``pcraft.variants``): silently
corrupting, crashing, or detected (retried).  The remaining fraction is
masked and leaves no trace.  Crash recovery is deployment-dependent:
cloud nodes re-provision in seconds, on-premises nodes without spares
stay down, which the model expresses as an absorbing Crash state.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ctmc import Ctmc, _check_number, build_ctmc, cumulative_occupancy, indicator_reward
from .variants import TransientSplit

__all__ = [
    "CRASH_RECOVERY_SECONDS",
    "RETRY_SECONDS",
    "SDC_RECOVERY_SECONDS",
    "IntegrityRates",
    "IntegrityReport",
    "build_integrity_model",
    "derive_integrity_rates",
    "integrity_breakdown",
]

# Default recovery times, in seconds.
CRASH_RECOVERY_SECONDS = 15.0
SDC_RECOVERY_SECONDS = 6 * 3600.0
RETRY_SECONDS = 2.5e-6


@dataclass(frozen=True)
class IntegrityRates:
    """Per-second transition rates of the integrity chain."""

    sdc_per_s: float
    crash_per_s: float
    detected_per_s: float
    sdc_recovery_per_s: float
    crash_recovery_per_s: float | None
    retry_recovery_per_s: float
    retry_crash_per_s: float = 0.0


def derive_integrity_rates(transient_rate_per_s: float, split: TransientSplit,
                           crash_recovery_s: float | None, *,
                           sdc_recovery_s: float = SDC_RECOVERY_SECONDS,
                           retry_s: float = RETRY_SECONDS,
                           retry_crash_per_s: float = 0.0) -> IntegrityRates:
    """Turn a fault arrival rate and an outcome split into chain rates.

    Recovery knobs are quoted as times in seconds; ``crash_recovery_s``
    of ``None`` marks a deployment with no way to bring a crashed node
    back (absorbing Crash).
    """
    _check_number("transient fault rate", transient_rate_per_s)
    _check_number("sdc_recovery_s", sdc_recovery_s)
    _check_number("retry_s", retry_s)
    if crash_recovery_s is not None:
        _check_number("crash_recovery_s", crash_recovery_s)
    _check_number("retry_crash_per_s", retry_crash_per_s, above=False)
    return IntegrityRates(
        sdc_per_s=transient_rate_per_s * split.corrupt,
        crash_per_s=transient_rate_per_s * split.crash,
        detected_per_s=transient_rate_per_s * split.retried,
        sdc_recovery_per_s=1.0 / sdc_recovery_s,
        crash_recovery_per_s=None if crash_recovery_s is None else 1.0 / crash_recovery_s,
        retry_recovery_per_s=1.0 / retry_s,
        retry_crash_per_s=retry_crash_per_s,
    )


def build_integrity_model(rates: IntegrityRates) -> Ctmc:
    """Single-node integrity chain started in Correct.

    The Retry state exists only when some faults are detected, and the
    Crash state is absorbing unless a crash recovery rate is configured.
    """
    states = ["Correct", "Corrupt", "Crash"]
    if rates.detected_per_s > 0:
        states.append("Retry")
    transitions = []
    if rates.sdc_per_s > 0:
        transitions.append(("Correct", "Corrupt", rates.sdc_per_s))
    if rates.crash_per_s > 0:
        transitions.append(("Correct", "Crash", rates.crash_per_s))
    if rates.detected_per_s > 0:
        transitions.append(("Correct", "Retry", rates.detected_per_s))
        transitions.append(("Retry", "Correct", rates.retry_recovery_per_s))
        if rates.retry_crash_per_s > 0:
            transitions.append(("Retry", "Crash", rates.retry_crash_per_s))
    transitions.append(("Corrupt", "Correct", rates.sdc_recovery_per_s))
    if rates.crash_recovery_per_s is not None:
        transitions.append(("Crash", "Correct", rates.crash_recovery_per_s))
    initial = {s: (1.0 if s == "Correct" else 0.0) for s in states}
    return build_ctmc(transitions, initial)


@dataclass(frozen=True)
class IntegrityReport:
    """Fractions of the horizon spent correct, silently corrupt, or down.

    Down pools the Crash and Retry states: in both the node produces no
    output.  The three fractions sum to one.
    """

    correct: float
    corrupt: float
    down: float
    horizon_s: float


def integrity_breakdown(model: Ctmc, horizon_s: float) -> IntegrityReport:
    corrupt_frac = cumulative_occupancy(
        model, indicator_reward(model, lambda s: s == "Corrupt"), horizon_s) / horizon_s
    down_frac = cumulative_occupancy(
        model, indicator_reward(model, lambda s: s in ("Crash", "Retry")),
        horizon_s) / horizon_s
    return IntegrityReport(
        correct=max(0.0, 1.0 - corrupt_frac - down_frac),   # can round to -1e-16
        corrupt=corrupt_frac,
        down=down_frac,
        horizon_s=horizon_s,
    )
