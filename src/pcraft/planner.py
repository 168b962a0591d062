"""Cluster sizing: smallest node counts meeting throughput and availability.

Planning runs in two steps.  Throughput first: fault-tolerant node
variants run slower than native builds, so serving the same load takes
``ceil(multiplier / ratio)`` base nodes, where the ratio is the
variant's relative node throughput.  Availability second: extra nodes
(standby pool for passive failover, over-provisioned active nodes for
active redundancy) are added until the interval availability over the
planning horizon reaches the target number of nines.

Availability is monotone in the number of extras, so a search that
builds one chain per extra count probes exponentially and bisects.
Three shortcuts keep large searches cheap without changing any answer:

* On-premises chains without pool repair never revisit higher pool
  levels, so the chain built for the largest pool contains every
  smaller pool's chain as a sub-lattice.  One accumulated-occupancy
  solve of the big chain therefore yields the availability of every
  pool size up to its cap at once, and the answer is the first of them
  that meets the target.
* A finite standby pool can never beat the unbounded (cloud) pool, so
  when the unbounded-pool availability already misses the target the
  on-premises search is declared infeasible without climbing to the cap.
* A cheap lower bound on the availability gives the family's first cap,
  so the family is solved once instead of at every doubling cap.  For
  PF without pool repair, the pooled chain moves like the unbounded one
  until the ``pool + 1``-th crash and is down for good after it; crashes
  come at most at ``base * lambda``, so with ``N ~ Poisson(base * lambda
  * T)`` the unavailability is at most the unbounded pool's plus
  ``E[(N - pool - 1)^+] / E[N]``.  For on-premises ARA, a node's
  survival ``exp(-lambda t)`` only falls, so the availability is at
  least ``P(Binomial(base + op, exp(-lambda T)) >= base)``.  The first
  cap is the smallest extra count whose bound meets the target (at most
  the search cap).  The family solve is exact for every smaller count,
  so any cap at or above the answer gives the answer, and a cap that
  undershoots (rounding, or a tail sum cut short) only costs more
  solves, each at double the cap.  The bound changes the cost, never an
  answer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .availability import (
    ARA,
    CLOUD,
    ON_PREMISES,
    PF,
    AvailRates,
    ClusterSpec,
    availability,
    build_availability_model,
    nines,
)
from .ctmc import _is_integer, occupancy_from_each_start
from .variants import NODE_VARIANTS, throughput_ratio

__all__ = [
    "PlanRequest",
    "PlanResult",
    "plan_capacity",
    "required_base_nodes",
]

# Guards against float quotients landing epsilon above an exact integer.
_CEIL_GUARD = 1e-9
# The first-cap bounds' tail sums: relative size of a remainder that no
# longer counts, and a term budget so no sum grows with the crash count.
_BOUND_TOL = 2.0 ** -60
_BOUND_TERMS = 4096


def required_base_nodes(sert_multiplier: float, ratio: float) -> int:
    """Base nodes needed to serve ``sert_multiplier`` units of load."""
    if not math.isfinite(sert_multiplier) or sert_multiplier <= 0:
        raise ValueError(f"sert_multiplier must be positive, got {sert_multiplier!r}")
    if not math.isfinite(ratio) or ratio <= 0:
        raise ValueError(f"throughput ratio must be positive, got {ratio!r}")
    return max(math.ceil(sert_multiplier / ratio - _CEIL_GUARD), 1)


@dataclass(frozen=True)
class PlanRequest:
    """One sizing question: cluster style, load, rates, and the target."""

    technique: str
    deployment: str
    node_variant: str
    sert_multiplier: float
    target_nines: float
    horizon_s: float
    rates: AvailRates
    ratio: float | None = None
    search_cap: int = 1000
    parallel_recovery: bool = True

    def __post_init__(self) -> None:
        if self.ratio is None and self.node_variant not in NODE_VARIANTS:
            raise ValueError(
                f"unknown node variant {self.node_variant!r}; "
                f"known: {sorted(NODE_VARIANTS)} (or pass an explicit ratio)")
        if not math.isfinite(self.target_nines) or self.target_nines <= 0:
            raise ValueError(f"target_nines must be positive, got {self.target_nines!r}")
        if not math.isfinite(self.horizon_s) or self.horizon_s <= 0:
            raise ValueError(f"horizon_s must be positive, got {self.horizon_s!r}")
        if not _is_integer(self.search_cap):
            raise ValueError(f"search_cap must be an integer, got {self.search_cap!r}")
        if self.search_cap < 0:
            raise ValueError(f"search_cap must be nonnegative, got {self.search_cap}")

    @property
    def effective_ratio(self) -> float:
        return throughput_ratio(self.node_variant, self.ratio)

    @property
    def target_availability(self) -> float:
        return 1.0 - 10.0 ** (-self.target_nines)


@dataclass(frozen=True)
class PlanResult:
    """Outcome of a sizing search.

    ``extra`` is the standby pool (PF) or over-provisioned node count
    (ARA).  When no extra count within the search cap reaches the
    target, ``feasible`` is False, ``extra`` reports the cap, and
    ``availability`` the best availability bound established.
    ``evaluations`` counts chain solves: the unbounded-pool ceiling for
    PF, then one per extra count probed, or, for on-premises families,
    one per family cap solved (one when the bound-derived first cap
    reaches the answer, as it does unless rounding undercuts it).
    """

    technique: str
    deployment: str
    node_variant: str
    base: int
    extra: int
    availability: float
    nines: float
    feasible: bool
    evaluations: int

    @property
    def total_nodes(self) -> int:
        return self.base + self.extra


def plan_capacity(request: PlanRequest, strategy: str = "auto") -> PlanResult:
    """Smallest extra-node count meeting the availability target.

    ``strategy`` is ``"auto"`` (exponential probe plus bisection, with
    the structural shortcuts described in the module docstring) or
    ``"linear"`` (scan every extra count with an independently built
    chain each time; slow, used to validate the fast path).
    """
    if strategy not in ("auto", "linear"):
        raise ValueError(f"unknown strategy {strategy!r}; use 'auto' or 'linear'")
    base = required_base_nodes(request.sert_multiplier, request.effective_ratio)
    target = request.target_availability

    if request.technique == PF and request.deployment == CLOUD:
        # The cloud pool is unbounded; there is nothing to size.
        avail = _unbounded_pool_availability(request, base)
        return _result(request, base, 0, avail, avail >= target, 1)

    if strategy == "linear":
        evaluator = _PerExtraEvaluator(request, base)
        extra, avail, feasible = _linear_scan(evaluator, target, request.search_cap)
        return _result(request, base, extra, avail, feasible, evaluator.evaluations)

    evaluations = 0
    ceiling = 1.0
    if request.technique == PF and request.deployment == ON_PREMISES:
        ceiling = _unbounded_pool_availability(request, base)
        evaluations += 1
        if ceiling < target:
            return _result(request, base, request.search_cap, ceiling, False, evaluations)

    if not _has_family(request):
        evaluator = _PerExtraEvaluator(request, base)
        extra, avail, feasible = _doubling_search(evaluator, target, request.search_cap)
        return _result(request, base, extra, avail, feasible,
                       evaluator.evaluations + evaluations)

    cap = _first_family_cap(request, base, ceiling)
    while True:
        avails = _family_availabilities(request, base, cap)
        evaluations += 1
        met = np.flatnonzero(avails >= target)
        if met.size or cap == request.search_cap:
            extra = int(met[0]) if met.size else cap
            return _result(request, base, extra, float(avails[extra]), bool(met.size),
                           evaluations)
        cap = min(max(2 * cap, 1), request.search_cap)


def _result(request: PlanRequest, base: int, extra: int, avail: float,
            feasible: bool, evaluations: int) -> PlanResult:
    return PlanResult(
        technique=request.technique,
        deployment=request.deployment,
        node_variant=request.node_variant,
        base=base,
        extra=extra,
        availability=avail,
        nines=nines(avail),
        feasible=feasible,
        evaluations=evaluations,
    )


class _PerExtraEvaluator:
    """Builds and solves an independent chain for each queried extra count."""

    def __init__(self, request: PlanRequest, base: int) -> None:
        self._request = request
        self._base = base
        self._cache: dict[int, float] = {}
        self.evaluations = 0

    def __call__(self, extra: int) -> float:
        if extra not in self._cache:
            request = self._request
            spec = ClusterSpec.with_extra(request.technique, request.deployment,
                                          self._base, extra)
            model = build_availability_model(spec, request.rates,
                                             request.parallel_recovery)
            report = availability(model, request.horizon_s)
            self._cache[extra] = report.availability
            self.evaluations += 1
        return self._cache[extra]


def _family_availabilities(request: PlanRequest, base: int, cap: int) -> np.ndarray:
    """Availability of every extra count ``e = 0..cap`` from one solve.

    Valid only for on-premises chains without pool repair: their state
    lattices nest, so the availability for ``extra = e`` is the
    normalized accumulated up-time of the cap chain started from the
    fully-up state with ``e`` spares.
    """
    spec = ClusterSpec.with_extra(request.technique, request.deployment, base, cap)
    model = build_availability_model(spec, request.rates, request.parallel_recovery)
    occupancy = occupancy_from_each_start(model.ctmc, model.up_reward, request.horizon_s)
    starts = [model.ctmc.index_of(base + e if request.technique == ARA else (base, e))
              for e in range(cap + 1)]
    return occupancy[starts] / request.horizon_s


def _has_family(request: PlanRequest) -> bool:
    """On-premises chains whose lattices nest: ARA, and PF without pool repair."""
    return request.deployment == ON_PREMISES and (
        request.technique == ARA or request.rates.pool_repair_per_s is None)


def _first_family_cap(request: PlanRequest, base: int, ceiling: float) -> int:
    """Smallest extra count whose availability lower bound meets the target.

    Capped at ``request.search_cap``; 0 where no bound applies (crash
    counts too small or too large for the tail sums' logarithms), which
    leaves the family to double its cap from 0.  PF reads the
    unbounded-pool availability ``ceiling``.
    """
    lam_t = request.rates.hw_crash_per_s * request.horizon_s
    if not 0.0 < base * lam_t < math.inf:
        return 0
    if request.technique == ARA:
        log_dead, log_alive = math.log(-math.expm1(-lam_t)), -lam_t

        def bound(op: int) -> float:
            # Fewer than base of base + op nodes alive at T: op + 1 or more dead.
            return 1.0 - _binomial_tail(base + op, op + 1, log_dead, log_alive)
    else:
        mean = base * lam_t

        def bound(pool: int) -> float:
            return ceiling - _poisson_excess(mean, pool + 1) / mean

    return _doubling_search(bound, request.target_availability, request.search_cap)[0]


def _poisson_excess(mean: float, k: int) -> float:
    """``E[(N - k)^+]`` for ``N ~ Poisson(mean)`` and ``k >= 1``.

    At or above the mean it sums ``(i - k) P(N = i)`` upward from
    ``i = k + 1``; below it, ``mean - k`` plus ``(k - i) P(N = i)``
    downward from ``i = k - 1``.  Either way the pmf falls geometrically
    away from ``k``, so the sum stops once a geometric bound on the
    remainder is below ``_BOUND_TOL`` of the total, or after
    ``_BOUND_TERMS`` terms.  A sum cut short is too small, which can
    only lower the first cap.
    """
    up = k >= mean
    total = 0.0 if up else mean - k
    i = k + 1 if up else k - 1
    log_term = -mean + i * math.log(mean) - math.lgamma(i + 1)   # log P(N = i)
    for weight in range(1, _BOUND_TERMS + 1):
        term = math.exp(log_term)
        total += weight * term
        ratio = mean / (i + 1) if up else i / mean   # P(N = next i) / P(N = i), < 1
        if ratio == 0.0 or (term * ratio * (weight + 1.0 / (1.0 - ratio))
                            <= _BOUND_TOL * total * (1.0 - ratio)):
            break
        log_term += math.log(ratio)
        i += 1 if up else -1
    return total


def _binomial_tail(n: int, a: int, log_p: float, log_1mp: float) -> float:
    """``P(X >= a)`` for ``X ~ Binomial(n, p)`` and ``1 <= a <= n``, given
    ``log(p)`` and ``log(1 - p)``.

    Sums upward from ``a``; once the terms fall, a geometric bound on
    the remainder below ``_BOUND_TOL`` of the total ends the sum, as do
    ``_BOUND_TERMS`` terms.
    """
    log_term = (math.lgamma(n + 1) - math.lgamma(a + 1) - math.lgamma(n - a + 1)
                + a * log_p + (n - a) * log_1mp)
    total = 0.0
    for x in range(a, min(n, a + _BOUND_TERMS - 1) + 1):
        term = math.exp(log_term)
        total += term
        log_ratio = math.log((n - x) / (x + 1)) + log_p - log_1mp if x < n else -math.inf
        if log_ratio < 0.0:
            ratio = math.exp(log_ratio)
            if term * ratio <= _BOUND_TOL * total * (1.0 - ratio):
                break
        log_term += log_ratio
    return total


def _unbounded_pool_availability(request: PlanRequest, base: int) -> float:
    model = build_availability_model(
        ClusterSpec(PF, CLOUD, num=base), request.rates, request.parallel_recovery)
    return availability(model, request.horizon_s).availability


def _doubling_search(evaluator, target: float, cap: int) -> tuple[int, float, bool]:
    """Probe 0, then 1, doubling to ``cap``; bisect the last gap."""
    avail = evaluator(0)
    if avail >= target:
        return 0, avail, True
    if cap == 0:
        return 0, avail, False
    lo, hi = 0, 1
    while evaluator(hi) < target:
        if hi >= cap:
            return cap, evaluator(cap), False
        lo, hi = hi, min(2 * hi, cap)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if evaluator(mid) >= target:
            hi = mid
        else:
            lo = mid
    return hi, evaluator(hi), True


def _linear_scan(evaluator, target: float, cap: int) -> tuple[int, float, bool]:
    for extra in range(cap + 1):
        avail = evaluator(extra)
        if avail >= target:
            return extra, avail, True
    return cap, evaluator(cap), False
