"""Discrete-event simulation of the same chains the analytic engine solves.

Kept deliberately independent of the transient solver: trajectories are
generated by competing exponential clocks, so agreement between the two
routes cross-checks both.  All replications advance together, one jump
per step, drawing from a single ``default_rng(seed)`` stream: start
states first, then one exponential holding time and one uniform
successor draw for each replication still running.  The estimate is
therefore a deterministic function of ``(seed, replications)``; the same
seed with another replication count gives a different stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ctmc import (Ctmc, _check_number, _check_reward, _check_time, _physical_memory,
                   indicator_reward)

__all__ = ["SimEstimate", "simulate_ctmc"]

# Two-sided 99% normal quantile.
_Z99 = 2.5758293035489004

# Arrays of one 8-byte word per replication the batched loop holds at
# once (start draws, state, clock, accumulator, index, averages, the two
# draws, exit rate, holding time, masks), on top of the gathered row of
# ``width`` cumulative probabilities per live replication.
_WORDS_PER_REPLICATION = 12
# Padded n x width tables held while building: rates, cumulative
# probabilities and successors.
_TABLE_WORDS = 3


@dataclass(frozen=True)
class SimEstimate:
    """Time-averaged reward estimate with a 99% confidence half-width.

    ``events`` counts the jumps simulated, summed over replications.
    """

    mean: float
    ci_half_width: float
    replications: int
    seed: int
    events: int

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

    ``reward`` is a per-state vector or a predicate over state labels;
    like ``horizon_s``, it is checked by the analytic solvers' own rules,
    so a vector needs one finite, nonnegative entry per state.
    The mean is taken over ``replications`` (an integer, at least 2)
    independent trajectories, each started from the chain's initial
    distribution.  ``seed`` is a nonnegative integer; bools are refused,
    and so is a call whose batched arrays would exceed physical memory.
    """
    if callable(reward):
        reward = indicator_reward(ctmc, reward)
    reward = _check_reward(ctmc, reward)
    _check_time(horizon_s, allow_zero=False)
    _check_number("replications", replications, 2, above=False, integer=True)
    _check_number("seed", seed, above=False, integer=True)

    successors, jump_cum = _jump_tables(ctmc, replications)
    exit_rates = ctmc.exit_rates
    rng = np.random.default_rng(seed)

    initial_cum = np.cumsum(ctmc.initial)
    state = np.searchsorted(initial_cum, rng.random(replications), side="right")
    state = np.minimum(state, np.flatnonzero(ctmc.initial)[-1])
    clock = np.zeros(replications)
    acc = np.zeros(replications)
    index = np.arange(replications)     # replications still running
    averages = np.empty(replications)
    events = 0

    while index.size:
        rate = exit_rates[state]
        holding = rng.standard_exponential(index.size)
        u = rng.random(index.size)
        # Absorption is decided by the exit rate, never by the holding
        # time, so a zero draw over a zero rate cannot leak a NaN.
        moving = rate > 0.0
        np.divide(holding, rate, out=holding, where=moving)
        moving &= clock + holding < horizon_s

        done = ~moving
        averages[index[done]] = (acc[done] + reward[state[done]]
                                 * (horizon_s - clock[done])) / horizon_s

        index, state, clock, acc = index[moving], state[moving], clock[moving], acc[moving]
        holding, u = holding[moving], u[moving]
        acc += reward[state] * holding
        clock += holding
        column = np.argmax(jump_cum[state] > u[:, None], axis=1)
        state = successors[state, column]
        events += index.size

    mean = float(np.mean(averages))
    half = _Z99 * float(np.std(averages, ddof=1)) / math.sqrt(replications)
    return SimEstimate(mean=mean, ci_half_width=half, replications=replications,
                       seed=seed, events=events)


def _jump_tables(ctmc: Ctmc, replications: int) -> tuple[np.ndarray, np.ndarray]:
    """Padded ``(n, max out-degree)`` successor and cumulative-probability tables.

    Row ``i`` lists state ``i``'s successors in index order.  Its
    cumulative jump rates are divided by their own last entry, so the
    last real entry and the padding after it are exactly 1.0 and the
    first entry above a uniform draw in ``[0, 1)`` is a real successor.
    Refuses, before building them, a batch whose tables or
    per-replication arrays would not fit in memory.
    """
    n = ctmc.n
    rows, cols, rates = ctmc.rows, ctmc.cols, ctmc.rates   # sorted by (row, col)
    width = max(int(np.bincount(rows, minlength=n).max()), 1)
    _check_batch_fits(replications, n, width)

    column = np.arange(rows.size) - np.searchsorted(rows, rows)
    successors = np.zeros((n, width), dtype=np.intp)
    successors[rows, column] = cols
    padded_rates = np.zeros((n, width))
    padded_rates[rows, column] = rates
    jump_cum = np.cumsum(padded_rates, axis=1)
    total = jump_cum[:, -1:].copy()
    np.divide(jump_cum, total, out=jump_cum, where=total > 0.0)
    return successors, jump_cum


def _check_batch_fits(replications: int, n: int, width: int) -> None:
    """Refuse a simulation whose batched arrays exceed physical memory; ``width``
    may be a lower bound on the out-degree, for a chain not yet built."""
    physical = _physical_memory()
    if physical is None:
        return
    table = _TABLE_WORDS * 8 * n * width
    if table > physical:
        raise ValueError(
            f"a {n}-state chain needs at least {table // 10**9} GB for its jump "
            f"table of at least {width} entries a state, more than the "
            f"{physical / 1e9:.0f} GB of physical memory")
    batch = 8 * (_WORDS_PER_REPLICATION + width) * replications
    if batch > physical:
        raise ValueError(
            f"replications={replications} needs about {batch // 10**9} GB "
            f"for the batched simulation, more than the {physical / 1e9:.0f} "
            f"GB of physical memory; lower replications")
