"""Reference values computed apart from pcraft.

Nothing here imports pcraft.  Every chain is rebuilt from the model
definitions in the project README, and solved by a route pcraft does not
use:

* closed forms for chains that factor into independent nodes: cloud PF
  and cloud ARA with parallel recovery (each node alternates up/down on
  its own), on-premises ARA (a pure death process, so binomial
  survival), and on-premises PF with an empty pool (up until the first
  crash);
* the exponential of the Van Loan block ``[[Q T, R], [0, 0]]`` for
  every other chain (on-premises PF with a pool, the integrity
  chain, random chains).  Its top-right block is the time average
  ``(1/T) int_0^T exp(Q s) ds R`` for every start state at once.

``TOL`` is the accepted gap to pcraft; see ``bench/README.md``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, stats

HOUR = 3600.0
YEAR = 8766 * HOUR
MONTH = YEAR / 12.0

# Largest accepted gap between pcraft and an oracle, absolute on a time
# average: ten times pcraft's default truncation bound (1e-10 of the
# horizon).  The oracles agree with each other within 1e-11
# (``test_oracles.py``).
TOL = 1e-9

# Node throughput relative to native, and transient-fault outcome splits
# (corrupt, crash, retried), as the README and the model docstrings
# define them.
THROUGHPUT_RATIOS = {"native": 1.00, "ft_ilr": 0.92, "ft_tx": 0.71}
TRANSIENT_SPLITS = {
    "native": (0.2619, 0.1249, 0.0),
    "ft_ilr": (0.0080, 0.7500, 0.0),
    "ft_tx": (0.0117, 0.0772, 0.6699),
}


def base_nodes(sert_multiplier: float, ratio: float) -> int:
    """Nodes needed for throughput alone: ceil(multiplier / ratio)."""
    return max(math.ceil(sert_multiplier / ratio - 1e-9), 1)


def nines(avail: float) -> float:
    return 12.0 if avail >= 1.0 else min(-math.log10(1.0 - avail), 12.0)


# ---------------------------------------------------------------- closed forms

def _node_constants(lam: float, rho: float) -> tuple[float, float, float]:
    """One node alternating up (rate lam out) and down (rate rho out).

    Started up, P(up at s) = a + b exp(-c s) with a = rho/c, b = lam/c,
    c = lam + rho.
    """
    c = lam + rho
    return rho / c, lam / c, c


def cloud_pf_availability(num: int, lam: float, rho: float, horizon: float) -> float:
    """All ``num`` independent nodes up, averaged over the horizon.

    Exact series: (a + b x)^num expanded in x = exp(-c s); every term is
    nonnegative, so nothing cancels.
    """
    a, b, c = _node_constants(lam, rho)
    total = 0.0
    for k in range(num + 1):
        weight = math.comb(num, k) * a ** (num - k) * b ** k
        if k == 0:
            total += weight * horizon
        else:
            total += weight * -math.expm1(-k * c * horizon) / (k * c)
    return total / horizon


def _time_average(down, horizon: float, settle: float) -> float:
    """(1/T) int_0^T down(s) ds for ``down`` constant after ``settle``."""
    edge = min(horizon, settle)
    head, _ = integrate.quad(down, 0.0, edge, epsabs=1e-16 * edge,
                             epsrel=1e-12, limit=400)
    return (head + (horizon - edge) * down(edge)) / horizon


def cloud_ara_availability(num: int, op: int, lam: float, rho: float,
                           horizon: float) -> float:
    """At most ``op`` of ``num + op`` independent nodes down.

    The down probability of a node settles to ``b`` with rate ``c``; 60/c
    later it is within exp(-60) of it.
    """
    _, b, c = _node_constants(lam, rho)
    top = num + op

    def down(s: float) -> float:
        return float(stats.binom.sf(op, top, -b * math.expm1(-c * s)))

    return 1.0 - _time_average(down, horizon, 60.0 / c)


def onprem_ara_availability(num: int, op: int, lam: float, horizon: float) -> float:
    """At least ``num`` of ``num + op`` nodes alive; no node comes back."""
    top = num + op

    def down(s: float) -> float:
        return float(stats.binom.cdf(num - 1, top, math.exp(-lam * s)))

    return 1.0 - _time_average(down, horizon, horizon)


def onprem_pf_pool0_availability(num: int, lam: float, horizon: float) -> float:
    """Up until the first of ``num`` crashes: (1 - e^{-x}) / x, x = num lam T."""
    x = num * lam * horizon
    return -math.expm1(-x) / x


def cloud_expected_jumps(nodes: int, lam: float, rho: float, horizon: float) -> float:
    """Expected crashes plus recoveries of ``nodes`` independent nodes."""
    a, b, c = _node_constants(lam, rho)
    up_time = a * horizon + b * -math.expm1(-c * horizon) / c
    return nodes * (lam * up_time + rho * (horizon - up_time))


def onprem_ara_expected_jumps(nodes: int, lam: float, horizon: float) -> float:
    """Expected crashes of ``nodes`` nodes that never come back."""
    return nodes * -math.expm1(-lam * horizon)


# ---------------------------------------------------------------- Van Loan

def van_loan_average(generator: np.ndarray, rewards: np.ndarray,
                     horizon: float) -> np.ndarray:
    """``(1/T) int_0^T exp(Q s) ds R`` for every start state (rows).

    ``rewards`` is one column per reward, shape (n,) or (n, k).  This is
    the top-right block of ``exp([[Q T, R], [0, 0]])`` (Van Loan 1978),
    evaluated by scaling and squaring on ``A = exp(Q dt) - I`` rather
    than on ``exp(Q dt)``:

        A(2t) = 2 A(t) + A(t)^2        C(2t) = 2 C(t) + A(t) C(t)

    with ``C(t) = int_0^t exp(Q s) ds R``.  Working on ``exp - I`` keeps
    rates far below the fastest one at full relative precision; squaring
    ``exp(Q dt)`` itself rounds them against 1 (``scipy.linalg.expm``
    loses 2e-6 this way on the ft_tx integrity chain, where retries run
    at 4e5/s and faults at 1e-5/s).
    """
    q = np.asarray(generator, dtype=float)
    r = np.asarray(rewards, dtype=float)
    column = r.ndim == 1
    r = r.reshape(q.shape[0], -1)
    norm = float(np.abs(q).sum(axis=1).max()) * horizon
    levels = max(0, math.ceil(math.log2(norm / 0.5))) if norm > 0 else 0
    dt = horizon / 2.0 ** levels
    x = q * dt
    # Taylor series: A = sum_{k>=1} X^k / k!, C = dt sum_{k>=0} X^k R / (k+1)!;
    # with |X| <= 0.5 the terms past k = 15 add less than 1e-18.
    a = np.zeros_like(x)
    c = r * dt
    power = np.eye(len(x))
    for k in range(1, 16):
        power = power @ x / k
        a += power
        c += (power @ r) * (dt / (k + 1))
    for _ in range(levels):
        c = 2.0 * c + a @ c
        a = 2.0 * a + a @ a
    averages = c / horizon
    return averages[:, 0] if column else averages


def generator_from(transitions, size: int) -> np.ndarray:
    """Dense generator from (source index, target index, rate) triples."""
    q = np.zeros((size, size))
    for i, j, rate in transitions:
        q[i, j] += rate
    q[np.diag_indices(size)] = -q.sum(axis=1)
    return q


def onprem_pf_chain(num: int, pool: int, lam: float, rho: float,
                    repair: float | None = None):
    """On-premises passive failover over all (up, pool) pairs.

    Returns ``(index, Q, up)``.  Active nodes crash at ``lam`` each; each
    missing active node is replaced from the pool at ``rho`` (at most
    ``pool`` at once); with ``repair`` every broken node rejoins the pool
    at that rate.  Pairs unreachable from a start do not change its
    averages, so the chain keeps every pair the model allows, and without
    repair its starts (num, p) serve every smaller pool p.
    """
    total = num + pool
    # Without repair the pool only shrinks; with it, repaired nodes can
    # push it past its starting size, up to every node not active.
    states = [(u, p) for u in range(num + 1)
              for p in range((total - u if repair is not None else pool) + 1)]
    index = {s: i for i, s in enumerate(states)}
    moves = []
    for (u, p), i in index.items():
        if u > 0:
            moves.append((i, index[(u - 1, p)], u * lam))
        if u < num and p > 0:
            moves.append((i, index[(u + 1, p - 1)], min(num - u, p) * rho))
        broken = total - u - p
        if repair is not None and broken > 0:
            moves.append((i, index[(u, p + 1)], broken * repair))
    up = np.array([1.0 if u == num else 0.0 for u, _ in states])
    return index, generator_from(moves, len(states)), up


def count_chain(top: int, lam: float, rho: float | None):
    """Live-node count 0..top: crashes at u lam, repairs at (top-u) rho.

    ``rho=None`` leaves crashed nodes down (on-premises ARA).  The start
    is ``top`` (index ``top``).
    """
    moves = []
    for u in range(top + 1):
        if u > 0:
            moves.append((u, u - 1, u * lam))
        if rho is not None and u < top:
            moves.append((u, u + 1, (top - u) * rho))
    return generator_from(moves, top + 1)


def onprem_pf_availability(num: int, pools, lam: float, rho: float,
                           horizon: float, repair: float | None = None) -> dict:
    """Van Loan availability of on-premises PF at each pool in ``pools``.

    Without repair the chains nest, so one chain at the largest pool
    answers every start (num, p).  With repair each pool needs its own
    chain, because repaired nodes refill the pool up to its size.
    """
    pools = sorted(set(pools))
    if repair is None:
        index, q, up = onprem_pf_chain(num, pools[-1], lam, rho)
        avg = van_loan_average(q, up, horizon)
        return {p: float(avg[index[(num, p)]]) for p in pools}
    out = {}
    for p in pools:
        index, q, up = onprem_pf_chain(num, p, lam, rho, repair)
        out[p] = float(van_loan_average(q, up, horizon)[index[(num, p)]])
    return out


def integrity_chain(transient_per_s: float, split, crash_recovery_s: float | None,
                    sdc_recovery_s: float, retry_s: float,
                    retry_crash_per_s: float = 0.0):
    """Single-node integrity chain; returns (labels, Q), start Correct.

    Faults arrive at ``transient_per_s`` and split into corrupt, crash
    and retried; the rest are masked.  Corrupt state is repaired after
    ``sdc_recovery_s``, a crash after ``crash_recovery_s`` (never, when
    None), a retry after ``retry_s``.
    """
    corrupt, crash, retried = split
    labels = ["Correct", "Corrupt", "Crash", "Retry"]
    c, s, x, r = range(4)
    moves = [(c, s, transient_per_s * corrupt), (s, c, 1.0 / sdc_recovery_s)]
    if crash > 0:
        moves.append((c, x, transient_per_s * crash))
    if crash_recovery_s is not None:
        moves.append((x, c, 1.0 / crash_recovery_s))
    if retried > 0:
        moves.append((c, r, transient_per_s * retried))
        moves.append((r, c, 1.0 / retry_s))
        if retry_crash_per_s > 0:
            moves.append((r, x, retry_crash_per_s))
    moves = [m for m in moves if m[2] > 0]
    return labels, generator_from(moves, 4)


def integrity_shares(transient_per_s: float, split, crash_recovery_s: float | None,
                     horizon: float, sdc_recovery_s: float = 6 * HOUR,
                     retry_s: float = 2.5e-6,
                     retry_crash_per_s: float = 0.0) -> tuple[float, float, float]:
    """(correct, corrupt, down) time shares; down pools Crash and Retry."""
    _, q = integrity_chain(transient_per_s, split, crash_recovery_s,
                           sdc_recovery_s, retry_s, retry_crash_per_s)
    rewards = np.array([[1.0, 0.0, 0.0],
                        [0.0, 1.0, 0.0],
                        [0.0, 0.0, 1.0],
                        [0.0, 0.0, 1.0]])
    correct, corrupt, down = van_loan_average(q, rewards, horizon)[0]
    return float(correct), float(corrupt), float(down)


def expected_jumps(generator: np.ndarray, horizon: float) -> np.ndarray:
    """Expected transitions over the horizon from every start state."""
    exits = -np.diag(generator)
    return van_loan_average(generator, exits, horizon) * horizon


# ---------------------------------------------------------------- Monte Carlo

def allowed_misses(chains: int, miss_rate: float = 0.01, tail: float = 1e-3) -> int:
    """Most 99%-interval misses a correct simulator shows, at tail ``tail``.

    The smallest k with P(Binomial(chains, miss_rate) > k) <= tail.
    """
    return int(stats.binom.isf(tail, chains, miss_rate))
