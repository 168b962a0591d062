"""Discrete-event simulation of the same chains the analytic engine solves.

Kept deliberately independent of the transient solver: trajectories are
generated by competing exponential clocks, so agreement between the two
routes cross-checks both.  Replications draw from independent
``default_rng([seed, rep])`` streams, which makes every estimate
reproducible bit for bit and insensitive to scheduling order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ctmc import Ctmc, indicator_reward

__all__ = ["SimEstimate", "simulate_ctmc"]

# Two-sided 99% normal quantile.
_Z99 = 2.5758293035489004


@dataclass(frozen=True)
class SimEstimate:
    """Time-averaged reward estimate with a 99% confidence half-width."""

    mean: float
    ci_half_width: float
    replications: int
    seed: int

    @property
    def low(self) -> float:
        return self.mean - self.ci_half_width

    @property
    def high(self) -> float:
        return self.mean + self.ci_half_width

    def covers(self, value: float) -> bool:
        return self.low <= value <= self.high


def simulate_ctmc(ctmc: Ctmc, reward, horizon_s: float, replications: int,
                  seed: int = 0) -> SimEstimate:
    """Estimate the time-averaged reward over ``[0, horizon_s]``.

    ``reward`` is a per-state vector or a predicate over state labels.
    The mean is taken over ``replications`` independent trajectories,
    each started from the chain's initial distribution.
    """
    if callable(reward):
        reward = indicator_reward(ctmc, reward)
    reward = np.asarray(reward, dtype=float)
    if reward.shape != (ctmc.n,):
        raise ValueError(f"reward must have one entry per state ({ctmc.n}), "
                         f"got shape {reward.shape}")
    if not math.isfinite(horizon_s) or horizon_s <= 0:
        raise ValueError(f"horizon must be positive and finite, got {horizon_s!r}")
    if replications < 2:
        raise ValueError(f"need at least 2 replications for a confidence "
                         f"interval, got {replications}")

    exit_rates = ctmc.exit_rates
    initial_cum = np.cumsum(ctmc.initial)
    successors, jump_cum = _jump_tables(ctmc)
    rewards = reward.tolist()
    exits = exit_rates.tolist()

    averages = np.empty(replications)
    for rep in range(replications):
        rng = np.random.default_rng([seed, rep])
        state = int(np.searchsorted(initial_cum, rng.random(), side="right"))
        state = min(state, ctmc.n - 1)
        t = 0.0
        acc = 0.0
        while True:
            rate = exits[state]
            if rate <= 0.0:
                acc += rewards[state] * (horizon_s - t)
                break
            dt = rng.standard_exponential() / rate
            if t + dt >= horizon_s:
                acc += rewards[state] * (horizon_s - t)
                break
            acc += rewards[state] * dt
            t += dt
            row_cum = jump_cum[state]
            j = int(np.searchsorted(row_cum, rng.random(), side="right"))
            state = successors[state][min(j, len(row_cum) - 1)]
        averages[rep] = acc / horizon_s

    mean = float(np.mean(averages))
    half = _Z99 * float(np.std(averages, ddof=1)) / math.sqrt(replications)
    return SimEstimate(mean=mean, ci_half_width=half,
                       replications=replications, seed=seed)


def _jump_tables(ctmc: Ctmc) -> tuple[list[list[int]], list[np.ndarray]]:
    """Per-state successor lists and cumulative jump probabilities."""
    gen = ctmc.generator
    successors: list[list[int]] = []
    jump_cum: list[np.ndarray] = []
    for i in range(ctmc.n):
        row = gen.getrow(i)
        mask = row.indices != i
        targets = row.indices[mask]
        rates = row.data[mask]
        order = np.argsort(targets)
        targets = targets[order]
        rates = rates[order]
        total = rates.sum()
        if total > 0:
            cum = np.cumsum(rates) / total
            cum[-1] = 1.0
        else:
            cum = np.empty(0)
        successors.append(targets.tolist())
        jump_cum.append(cum)
    return successors, jump_cum
