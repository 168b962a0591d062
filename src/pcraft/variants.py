"""Node variants: the measured facts that planning and integrity read.

Each variant carries two facts.  Its throughput ratio against a native
build sets how many base nodes serve a load; its transient-fault split
says how faults divide between silently corrupting, crashing, and
detected (retried).  The remaining fraction is masked and leaves no
trace.

========  ==========  ========  =======  ========
variant   throughput  corrupt   crash    retried
========  ==========  ========  =======  ========
native    1.00        26.19%    12.49%   --
ft_ilr    0.92        0.80%     75.00%   --
ft_tx     0.71        1.17%     7.72%    66.99%
========  ==========  ========  =======  ========

ft_ilr is instruction-level redundancy (most faults turn into detected
crashes), ft_tx is transactional replay (most faults are absorbed by a
microsecond-scale retry).
"""

from __future__ import annotations

from dataclasses import dataclass

from .ctmc import _check_number

__all__ = ["NODE_VARIANTS", "NodeVariant", "TransientSplit", "throughput_ratio"]


@dataclass(frozen=True)
class TransientSplit:
    """How transient faults divide among outcomes (fractions of faults)."""

    corrupt: float
    crash: float
    retried: float = 0.0

    def __post_init__(self) -> None:
        for name in ("corrupt", "crash", "retried"):
            _check_number(f"{name} fraction", getattr(self, name), above=False, most=1.0)
        if self.corrupt + self.crash + self.retried > 1.0 + 1e-12:
            raise ValueError("outcome fractions must sum to at most 1")

    @property
    def masked(self) -> float:
        return max(1.0 - self.corrupt - self.crash - self.retried, 0.0)


@dataclass(frozen=True)
class NodeVariant:
    """Node throughput relative to native, and its transient-fault split."""

    throughput_ratio: float
    split: TransientSplit


NODE_VARIANTS: dict[str, NodeVariant] = {
    "native": NodeVariant(1.00, TransientSplit(corrupt=0.2619, crash=0.1249)),
    "ft_ilr": NodeVariant(0.92, TransientSplit(corrupt=0.0080, crash=0.7500)),
    "ft_tx": NodeVariant(0.71, TransientSplit(corrupt=0.0117, crash=0.0772,
                                              retried=0.6699)),
}


def throughput_ratio(variant: str, explicit: float | None = None) -> float:
    """The explicit ratio when one is given, else the variant's table ratio."""
    return explicit if explicit is not None else NODE_VARIANTS[variant].throughput_ratio
