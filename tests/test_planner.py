"""Capacity planning: base sizing, extras search, and shortcuts."""

import itertools
import math
import time
import tracemalloc
from dataclasses import replace

import pytest
from scipy import integrate, stats

import pcraft.planner
import pcraft.suites
from pcraft import (
    ARA,
    CLOUD,
    ON_PREMISES,
    NODE_VARIANTS,
    PF,
    AvailRates,
    PlanRequest,
    plan_capacity,
    required_base_nodes,
)
from pcraft.config import ScenarioConfig
from pcraft.planner import (
    _family_availabilities,
    _first_family_cap,
    _unbounded_pool_availability,
)
from pcraft.suites import run_suite
from pcraft.units import HOUR, YEAR

# Quadrature of P(Binomial(11, p(t)) >= 10) at 12 crashes/year, 30-minute
# recovery: the availability the planner must report for its one extra.
ARA_CLOUD_10_PLUS_1_12PY = 0.9999743759062438


def ara_downtime_by_quadrature(base, extra, crashes_per_year, horizon_s=YEAR):
    """Downtime share of on-premises ARA: the time average of
    P(Bin(base + extra, e^{-lam s}) < base), no node coming back."""
    lam = crashes_per_year / YEAR
    value, _ = integrate.quad(
        lambda s: stats.binom.cdf(base - 1, base + extra, math.exp(-lam * s)),
        0.0, horizon_s, epsabs=0.0, epsrel=1e-12, limit=400)
    return value / horizon_s


def request(technique=ARA, deployment=CLOUD, variant="native", sert=10.0,
            target=3.0, crashes=1.0, recovery_s=15.0, repair_per_s=None,
            **kwargs):
    return PlanRequest(
        technique=technique,
        deployment=deployment,
        node_variant=variant,
        sert_multiplier=sert,
        target_nines=target,
        horizon_s=YEAR,
        rates=AvailRates(crashes, 1.0 / recovery_s, repair_per_s),
        **kwargs,
    )


class TestBaseSizing:
    def test_shipped_ratios(self):
        ratios = {name: v.throughput_ratio for name, v in NODE_VARIANTS.items()}
        assert ratios == {"native": 1.00, "ft_ilr": 0.92, "ft_tx": 0.71}

    @pytest.mark.parametrize("ratio,expected", [(1.00, 10), (0.92, 11), (0.71, 15)])
    def test_ten_units_of_load(self, ratio, expected):
        assert required_base_nodes(10.0, ratio) == expected

    def test_exact_quotient_is_not_rounded_up(self):
        # 9.2 / 0.92 is exactly 10 but lands a float ulp above it.
        assert required_base_nodes(9.2, 0.92) == 10

    def test_fractional_load_needs_one_node(self):
        assert required_base_nodes(0.3, 1.0) == 1

    @pytest.mark.parametrize("sert,ratio", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0),
                                            (math.inf, 1.0), (1.0, -0.5)])
    def test_rejects_bad_inputs(self, sert, ratio):
        with pytest.raises(ValueError):
            required_base_nodes(sert, ratio)


class TestRequestValidation:
    def test_unknown_variant_without_ratio(self):
        with pytest.raises(ValueError, match="node variant"):
            request(variant="exotic")

    def test_unknown_variant_with_explicit_ratio(self):
        req = request(variant="exotic", ratio=0.5)
        assert req.effective_ratio == 0.5

    def test_explicit_ratio_overrides_table(self):
        assert request(variant="ft_tx", ratio=0.9).effective_ratio == 0.9
        assert request(variant="ft_tx").effective_ratio == 0.71

    def test_target_availability(self):
        assert request(target=3.0).target_availability == pytest.approx(0.999, abs=1e-15)

    @pytest.mark.parametrize("kwargs", [
        {"target": 0.0}, {"target": -1.0}, {"search_cap": -1},
    ])
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            request(**kwargs)

    @pytest.mark.parametrize("search_cap", [40.5, 8.0, True])
    def test_rejects_a_search_cap_that_is_not_an_integer(self, search_cap):
        with pytest.raises(ValueError, match="search_cap must be an integer"):
            request(search_cap=search_cap)

    @pytest.mark.parametrize("horizon_s", [0.0, math.nan])
    def test_rejects_bad_horizon(self, horizon_s):
        with pytest.raises(ValueError, match="horizon_s must be positive"):
            replace(request(), horizon_s=horizon_s)


class TestCloudAra:
    def test_slow_failures_need_no_extras(self):
        result = plan_capacity(request(crashes=1.0, recovery_s=15.0))
        assert result.base == 10
        assert result.extra == 0
        assert result.feasible

    def test_frequent_failures_need_one_extra(self):
        result = plan_capacity(request(crashes=12.0, recovery_s=1800.0))
        assert result.extra == 1
        assert result.feasible
        assert result.availability == pytest.approx(ARA_CLOUD_10_PLUS_1_12PY, rel=1e-12)
        assert result.nines >= 3.0

    def test_minimality_against_linear_scan(self):
        req = request(crashes=12.0, recovery_s=1800.0)
        fast = plan_capacity(req)
        slow = plan_capacity(req, strategy="linear")
        assert fast.extra == slow.extra
        assert fast.availability == pytest.approx(slow.availability, rel=1e-12)

    def test_variant_changes_base_not_much_else(self):
        result = plan_capacity(request(variant="ft_tx", crashes=1.0))
        assert result.base == 15
        assert result.node_variant == "ft_tx"
        assert result.total_nodes == result.base + result.extra


class TestOnPremFamilies:
    def test_ara_family_matches_linear(self):
        req = request(deployment=ON_PREMISES, sert=10.0, crashes=1.0,
                      target=3.0, search_cap=64)
        fast = plan_capacity(req)
        slow = plan_capacity(req, strategy="linear")
        assert fast.feasible and slow.feasible
        assert fast.extra == slow.extra == 35
        assert fast.availability == pytest.approx(slow.availability, rel=1e-12)
        # One family solve replaces the whole ladder of chain builds.
        assert fast.evaluations < slow.evaluations

    def test_pf_family_matches_linear(self):
        req = request(technique=PF, deployment=ON_PREMISES, sert=3.0,
                      crashes=20.0, recovery_s=60.0, target=3.0, search_cap=64)
        fast = plan_capacity(req)
        slow = plan_capacity(req, strategy="linear")
        assert fast.extra == slow.extra
        assert fast.availability == pytest.approx(slow.availability, rel=1e-12)

    def test_ara_ten_nines_at_two_crashes_per_year(self):
        # The family chains (n = 313 to 339) hold starts whose downtime
        # shares fall to 1e-12, below what the implicit route resolves to
        # 1e-10 of itself; it must settle them at its rounding floor.
        target = 1e-10
        for variant, base, extra in (("native", 10, 265), ("ft_ilr", 11, 277),
                                     ("ft_tx", 15, 323)):
            result = plan_capacity(request(deployment=ON_PREMISES, variant=variant,
                                           crashes=2.0, target=10.0))
            assert (result.base, result.extra, result.feasible) == (base, extra, True)
            assert (ara_downtime_by_quadrature(base, extra, 2.0) <= target
                    < ara_downtime_by_quadrature(base, extra - 1, 2.0))
            assert 1.0 - result.availability == pytest.approx(
                ara_downtime_by_quadrature(base, extra, 2.0), rel=1e-5)

    def test_ara_twelve_nines_matches_linear(self):
        req = request(deployment=ON_PREMISES, crashes=1.5, target=12.0)
        fast = plan_capacity(req)
        slow = plan_capacity(req, strategy="linear")
        assert fast.extra == slow.extra == 174 and fast.feasible and slow.feasible
        assert 1.0 - fast.availability == pytest.approx(1.0 - slow.availability, rel=1e-4)
        assert (ara_downtime_by_quadrature(10, 174, 1.5) <= 1e-12
                < ara_downtime_by_quadrature(10, 173, 1.5))

    def test_repair_takes_the_per_pool_route(self):
        req = request(technique=PF, deployment=ON_PREMISES, sert=10.0,
                      crashes=1.0, recovery_s=1800.0, repair_per_s=1.0 / 3600.0,
                      search_cap=64)
        result = plan_capacity(req)
        assert result.feasible
        assert result.extra == 1
        slow = plan_capacity(req, strategy="linear")
        assert slow.extra == 1

    def test_repair_beats_no_repair(self):
        base = dict(technique=PF, deployment=ON_PREMISES, sert=10.0,
                    crashes=1.0, recovery_s=60.0, search_cap=64)
        without = plan_capacity(request(**base))
        with_repair = plan_capacity(request(repair_per_s=1.0 / 3600.0, **base))
        assert with_repair.extra <= without.extra

    @pytest.mark.parametrize("technique", [PF, ARA])
    def test_family_availabilities_stay_within_zero_and_one(self, technique):
        # Squaring can leave an occupancy an ulp above the elapsed time;
        # an availability above 1 made nines() fail the plan.
        outside = []
        for horizon_s, crashes, recovery_s, sert in itertools.product(
                (1e-3, 0.1, 1.0, 10.0, 3600.0, 86400.0), (0.01, 1.0, 6.0, 100.0, 1000.0),
                (1.0, 15.0, 1800.0), (1.0, 2.0, 10.0, 40.0)):
            req = replace(request(technique=technique, deployment=ON_PREMISES, sert=sert,
                                  crashes=crashes, recovery_s=recovery_s, search_cap=8),
                          horizon_s=horizon_s)
            avails = _family_availabilities(
                req, required_base_nodes(sert, req.effective_ratio), 8)
            outside += [(horizon_s, crashes, recovery_s, sert, extra, avail)
                        for extra, avail in enumerate(avails)
                        if not 0.0 <= avail <= 1.0]
        assert not outside


class TestFirstFamilyCap:
    """The bound-derived first cap: never below the answer, cheap to find,
    and never more than a cost when it undershoots."""

    # crashes/yr x recovery (s) x horizon (h) x load x target nines
    GRID = list(itertools.product((1.0, 6.0, 20.0), (15.0, 1800.0), (720.0, 8766.0),
                                  (1.0, 3.0), (2.0, 4.0)))

    @pytest.mark.parametrize("technique", [PF, ARA])
    def test_bound_is_at_least_the_linear_answer(self, technique):
        below, checked, overshoot = [], 0, 0
        for crashes, recovery_s, hours, sert, target in self.GRID:
            if technique == ARA and recovery_s != 15.0:
                continue    # on-premises ARA never recovers a node
            req = replace(request(technique=technique, deployment=ON_PREMISES, sert=sert,
                                  target=target, crashes=crashes, recovery_s=recovery_s,
                                  search_cap=32),
                          horizon_s=hours * HOUR)
            base = required_base_nodes(sert, req.effective_ratio)
            ceiling = _unbounded_pool_availability(req, base) if technique == PF else 1.0
            if ceiling < req.target_availability:
                continue    # infeasible before any bound is drawn
            linear = plan_capacity(req, strategy="linear")
            if not linear.feasible:
                continue
            checked += 1
            first = _first_family_cap(req, base, ceiling)
            if first < linear.extra:
                below.append((crashes, recovery_s, hours, sert, target, first, linear.extra))
            overshoot = max(overshoot, first - linear.extra)
        assert checked >= 15
        assert not below
        if technique == PF:
            # Tight on this grid: a looser bound would cost a bigger chain.
            assert overshoot == 0

    @pytest.mark.parametrize("technique,sert,crashes", [(PF, 3.0, 2.0), (ARA, 10.0, 1.0)])
    @pytest.mark.parametrize("short_by", ["all", "one"])
    def test_first_cap_below_the_answer_changes_no_answer(self, monkeypatch, technique,
                                                         sert, crashes, short_by):
        req = request(technique=technique, deployment=ON_PREMISES, sert=sert,
                      crashes=crashes, recovery_s=60.0, search_cap=64)
        linear = plan_capacity(req, strategy="linear")
        assert linear.feasible and linear.extra > 1
        once = plan_capacity(req)
        first = 0 if short_by == "all" else linear.extra - 1
        monkeypatch.setattr(pcraft.planner, "_first_family_cap", lambda *args: first)
        result = plan_capacity(req)
        assert (result.extra, result.feasible) == (linear.extra, True)
        assert result.availability == pytest.approx(linear.availability, rel=1e-12)
        assert result.evaluations > once.evaluations    # the doubling went on

    @pytest.mark.parametrize("technique", [PF, ARA])
    def test_undershooting_ladder_ends_at_the_search_cap(self, monkeypatch, technique):
        # Pools of 30 (PF) and 114 (ARA) extras meet the target: the
        # ladder from a first cap of 3 doubles to a search cap that is
        # not a power of two, and stops there infeasible.
        req = request(technique=technique, deployment=ON_PREMISES, crashes=2.0,
                      recovery_s=15.0, search_cap=20)
        caps = []
        family = pcraft.planner._family_availabilities

        def recording(req, base, cap):
            caps.append(cap)
            return family(req, base, cap)

        monkeypatch.setattr(pcraft.planner, "_first_family_cap", lambda *args: 3)
        monkeypatch.setattr(pcraft.planner, "_family_availabilities", recording)
        result = plan_capacity(req)
        assert caps == [3, 6, 12, 20]
        assert (result.extra, result.feasible) == (20, False)
        assert result.evaluations == len(caps) + (technique == PF)
        linear = plan_capacity(req, strategy="linear")
        assert (linear.extra, linear.feasible) == (20, False)
        assert result.availability == pytest.approx(linear.availability, rel=1e-12)

    @pytest.mark.parametrize("suite", ["onprem-pf-pool", "onprem-ara-extras"])
    def test_suite_family_plans_solve_once(self, monkeypatch, suite):
        plans = []

        def recording(req, strategy="auto"):
            result = plan_capacity(req, strategy)
            plans.append((req, result))
            return result

        monkeypatch.setattr(pcraft.suites, "plan_capacity", recording)
        # The benchmark's on-premises scenario: 2700 h, pools up to 64.
        run_suite(suite, ScenarioConfig(horizon_hours=2700.0, search_cap=64))
        family = [(req.technique, result.evaluations) for req, result in plans
                  if result.feasible and req.rates.pool_repair_per_s is None]
        assert len(family) >= 3
        # PF: the unbounded-pool ceiling, then the family; ARA: the family.
        assert family == [(t, 2 if t == PF else 1) for t, _ in family]

    @pytest.mark.parametrize("technique", [PF, ARA])
    @pytest.mark.parametrize("cap", [1000, 10**9])
    def test_cost_does_not_grow_with_crashes_or_cap(self, technique, cap):
        # About 1e9 crashes expected over the horizon: a sum or array sized
        # by the crash count or by the cap would show in time or memory.
        req = replace(request(technique=technique, deployment=ON_PREMISES,
                              crashes=1e6, search_cap=cap),
                      horizon_s=1e6 * HOUR)
        tracemalloc.start()
        try:
            start = time.perf_counter()
            first = _first_family_cap(req, 10, 1.0)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert first == cap
        assert peak < 64 * 1024
        assert elapsed < 0.5


class TestReferenceTablesAtTwoCrashesPerYear:
    """The reference tables' 6 crashes/yr columns are this model's answers
    at 2 crashes/yr (README, deviation notes); pinned so the finding holds."""

    @pytest.mark.parametrize("recovery_s", [15.0, 60.0])
    def test_no_repair_pf_pools(self, recovery_s):
        pools = [plan_capacity(request(technique=PF, deployment=ON_PREMISES, variant=v,
                                       crashes=2.0, recovery_s=recovery_s,
                                       search_cap=64)).extra
                 for v in NODE_VARIANTS]
        assert pools == [30, 33, 42]

    def test_ara_extras(self):
        extras = [plan_capacity(request(deployment=ON_PREMISES, variant=v, crashes=2.0,
                                        recovery_s=15.0)).extra
                  for v in NODE_VARIANTS]
        assert extras == [114, 122, 153]


class TestInfeasible:
    def test_unbounded_pool_ceiling_short_circuits(self):
        # 6 crashes/year with 30-minute failover misses 3 nines even
        # with infinite spares, so no pool chain is ever solved.
        req = request(technique=PF, deployment=ON_PREMISES, sert=10.0,
                      crashes=6.0, recovery_s=1800.0)
        result = plan_capacity(req)
        assert not result.feasible
        assert result.extra == req.search_cap
        assert result.evaluations == 1
        assert result.availability < req.target_availability

    def test_ceiling_short_circuit_with_repair(self):
        req = request(technique=PF, deployment=ON_PREMISES, sert=10.0,
                      crashes=6.0, recovery_s=1800.0, repair_per_s=1.0 / 3600.0)
        result = plan_capacity(req)
        assert not result.feasible
        assert result.evaluations == 1

    def test_cap_exhaustion_reports_best_found(self):
        req = request(deployment=ON_PREMISES, sert=2.0, crashes=100.0,
                      target=5.0, search_cap=8)
        result = plan_capacity(req)
        assert not result.feasible
        assert result.extra == 8
        assert result.availability < req.target_availability

    def test_cloud_pf_has_nothing_to_size(self):
        ok = plan_capacity(request(technique=PF, crashes=1.0, recovery_s=15.0))
        assert ok.feasible and ok.extra == 0
        hopeless = plan_capacity(request(technique=PF, crashes=2000.0,
                                         recovery_s=1800.0))
        assert not hopeless.feasible
        assert hopeless.extra == 0


class TestSearchMechanics:
    def test_strategy_name_is_checked(self):
        with pytest.raises(ValueError, match="strategy"):
            plan_capacity(request(), strategy="bisect")

    def test_solution_is_minimal(self):
        req = request(crashes=12.0, recovery_s=1800.0, target=4.0)
        result = plan_capacity(req)
        assert result.feasible
        target = req.target_availability
        below = plan_capacity(replace(req, search_cap=result.extra - 1))
        assert not below.feasible
        assert below.availability < target <= result.availability

    def test_search_cap_zero_checks_only_the_base(self):
        # Cloud ARA probes extra 0; on premises the family is solved at
        # cap 0, after the unbounded-pool ceiling for PF.
        for technique, deployment, crashes, recovery_s, evaluations in (
                (ARA, CLOUD, 12.0, 1800.0, 1), (PF, ON_PREMISES, 1.0, 15.0, 2),
                (ARA, ON_PREMISES, 1.0, 15.0, 1)):
            req = request(technique=technique, deployment=deployment, crashes=crashes,
                          recovery_s=recovery_s, search_cap=0)
            result = plan_capacity(req)
            assert not result.feasible
            assert (result.extra, result.evaluations) == (0, evaluations)
            linear = plan_capacity(req, strategy="linear")
            assert result.availability == pytest.approx(linear.availability, rel=1e-12)
