"""Discrete-event simulation of the same chains the analytic engine solves.

Kept deliberately independent of the transient solver: trajectories are
generated by competing exponential clocks, so agreement between the two
routes cross-checks both.  All replications advance together, one jump
per step, drawing from a single ``default_rng(seed)`` stream: start
states first, then one exponential holding time and one uniform
successor draw for each replication still running.  The estimate is
therefore a deterministic function of ``(seed, replications)``; the same
seed with another replication count gives a different stream.

Each successor is found by sequential-search inversion: its column is
the number of the state's cumulative jump probabilities at or below the
uniform draw.  Finished replications are retired, and the live arrays
compacted, only on steps where at least one finishes.  A call whose jump
table and batch together exceed physical memory is refused unbuilt."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ctmc import (Ctmc, _check_memory, _check_number, _check_reward, _check_time,
                   indicator_reward)

__all__ = ["SimEstimate", "simulate_ctmc"]

# Two-sided 99% normal quantile.
_Z99 = 2.5758293035489004

# Arrays of one 8-byte word per replication the batched loop holds at
# once: state, clock, accumulator, index and averages throughout, a step's
# two draws and trajectory ends, up to four temporaries while replications
# retire, and two to spare for masks (tracemalloc peaks at about 11 words
# for a chain of out-degree 1).
_WORDS_PER_REPLICATION = 14
# Bytes per replication for each successor column past the first: the
# gathered 8-byte threshold and its 1-byte comparison.
_BYTES_PER_THRESHOLD = 9
# Padded n x width tables held while building: successors, cumulative
# probabilities and their transposed thresholds.
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
    and so is a call whose jump table and batch together would exceed
    physical memory.
    """
    if callable(reward):
        reward = indicator_reward(ctmc, reward)
    reward = _check_reward(ctmc, reward)
    _check_time(horizon_s, allow_zero=False)
    _check_number("replications", replications, 2, above=False, integer=True)
    _check_number("seed", seed, above=False, integer=True)

    successors, thresholds = _jump_tables(ctmc, replications)
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

    # An absorbing state has exit rate zero, so its holding time comes out
    # inf (or NaN for a zero draw); either fails the horizon test and
    # retires the replication, whose average never reads the holding time.
    with np.errstate(divide="ignore", invalid="ignore"):
        while index.size:
            holding = rng.standard_exponential(index.size)
            u = rng.random(index.size)
            holding /= exit_rates[state]
            ends = clock + holding
            moving = ends < horizon_s
            if not moving.all():
                done = ~moving
                averages[index[done]] = (acc[done] + reward[state[done]]
                                         * (horizon_s - clock[done])) / horizon_s
                index, state, acc = index[moving], state[moving], acc[moving]
                holding, u, ends = holding[moving], u[moving], ends[moving]
            acc += reward[state] * holding
            clock = ends
            state = _successors_of(successors, thresholds, state, u)
            events += index.size

    mean = float(np.mean(averages))
    half = _Z99 * float(np.std(averages, ddof=1)) / math.sqrt(replications)
    return SimEstimate(mean=mean, ci_half_width=half, replications=replications,
                       seed=seed, events=events)


def _jump_tables(ctmc: Ctmc, replications: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat successor table and ``(width - 1, n)`` threshold table, for
    ``width`` the largest out-degree.

    ``successors[i * width + k]`` is state ``i``'s ``k``-th successor in
    index order, and ``thresholds[k, i]`` the probability of its first
    ``k + 1``: cumulative jump rates over their own last entry, so the
    last real entry and the padding after it, dropped here, are exactly
    1.0, and a draw in ``[0, 1)`` is at or above ``k`` thresholds exactly
    when its first cumulative entry above it, a real successor, is ``k``.
    Refuses, before building them, tables and a batch that would not fit
    in memory together.
    """
    n = ctmc.n
    rows, cols, rates = ctmc.rows, ctmc.cols, ctmc.rates   # sorted by (row, col)
    width = max(int(np.bincount(rows, minlength=n).max()), 1)
    _check_memory("simulating", n, *_footprint(replications, n, width))

    column = np.arange(rows.size) - np.searchsorted(rows, rows)
    successors = np.zeros((n, width), dtype=np.intp)
    successors[rows, column] = cols
    jump_cum = np.zeros((n, width))
    jump_cum[rows, column] = rates
    np.cumsum(jump_cum, axis=1, out=jump_cum)
    total = jump_cum[:, -1:].copy()
    np.divide(jump_cum, total, out=jump_cum, where=total > 0.0)
    return successors.ravel(), np.ascontiguousarray(jump_cum[:, :-1].T)


def _successors_of(successors: np.ndarray, thresholds: np.ndarray, state: np.ndarray,
                   u: np.ndarray) -> np.ndarray:
    """The successor of each ``state`` for its uniform draw ``u``, from the
    tables of :func:`_jump_tables`: its column is the number of the state's
    thresholds at or below the draw."""
    column = np.add.reduce(thresholds.take(state, axis=1) <= u, axis=0, dtype=np.intp)
    return successors[state * (thresholds.shape[0] + 1) + column]


def _footprint(replications: int, n: int, width: int) -> tuple[tuple[str, int, str], ...]:
    """Memory stages of a simulation on a chain of ``n`` states and out-degree
    ``width``: its jump tables and its batched loop's per-replication arrays."""
    batch = (8 * _WORDS_PER_REPLICATION + _BYTES_PER_THRESHOLD * (width - 1)) * replications
    return ((f"the jump table of {width} entries a state", _TABLE_WORDS * 8 * n * width,
             "extra_nodes or sert_multiplier"),
            (f"replications={replications} in one batch", batch, "replications"))
