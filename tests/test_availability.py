"""Availability models: state spaces, closed forms, and monotonicity."""

import math
import sys

import numpy as np
import pytest

from pcraft import (
    ARA,
    CLOUD,
    ON_PREMISES,
    PF,
    AvailRates,
    ClusterSpec,
    availability,
    build_ara_model,
    build_availability_model,
    build_pf_model,
    nines,
)
from pcraft.availability import DOWN, SINK, _chain_shape, _model_to_solve
from pcraft.units import YEAR

# (1 - exp(-1)): one-node on-premises interval availability at 1 crash/year.
ONE_MINUS_EXP_MINUS_1 = 0.6321205588285577
# (1 - exp(-10)) / 10: ten independent no-repair nodes, all needed, 1 crash/year.
ARA_ONPREM_10_OF_10 = 0.09999546000702375
# Quadrature of P(Binomial(5, exp(-lambda t)) >= 3) over a year at 5 crashes/year.
ARA_ONPREM_3_OF_5_5PY = 0.1566664642743185
# Exact (3/2 - 2/3) / (lambda T) for 2-of-3 at 50 crashes/year (horizon >> MTTF).
ARA_ONPREM_2_OF_3_50PY = 1.0 / 60.0
# Quadrature of P(Binomial(11, p(t)) >= 10) with p(t) the one-node
# transient up-probability, at 12 crashes/year and 30-minute recovery.
ARA_CLOUD_10_PLUS_1_12PY = 0.9999743759062438

FIFTEEN_S = AvailRates(hw_crash_per_year=1.0, crash_recovery_per_s=1.0 / 15.0)


class TestClusterSpec:
    def test_rejects_unknown_technique(self):
        with pytest.raises(ValueError, match="technique"):
            ClusterSpec("AR", CLOUD, num=1)

    def test_rejects_unknown_deployment(self):
        with pytest.raises(ValueError, match="deployment"):
            ClusterSpec(PF, "edge", num=1)

    def test_rejects_empty_cluster(self):
        with pytest.raises(ValueError, match="num"):
            ClusterSpec(PF, CLOUD, num=0)

    def test_rejects_negative_extras(self):
        with pytest.raises(ValueError, match="nonnegative"):
            ClusterSpec(ARA, CLOUD, num=1, op=-1)

    @pytest.mark.parametrize("field,value", [
        ("num", 2.5), ("num", 3.0), ("num", True), ("op", 1.5), ("op", True), ("pool", 0.5),
    ])
    def test_rejects_counts_that_are_not_integers(self, field, value):
        # A fractional count would build states with fractional, even
        # negative, node counts; a bool is not a node count either.
        counts = {"num": 2, field: value}
        technique = PF if field == "pool" else ARA
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            ClusterSpec(technique, ON_PREMISES, **counts)

    def test_pf_has_no_overprovisioning(self):
        with pytest.raises(ValueError, match="over-provisioned"):
            ClusterSpec(PF, CLOUD, num=1, op=1)

    def test_ara_has_no_pool(self):
        with pytest.raises(ValueError, match="standby pool"):
            ClusterSpec(ARA, ON_PREMISES, num=1, pool=1)

    def test_extra_is_op_for_ara_and_pool_for_pf(self):
        assert ClusterSpec.with_extra(ARA, CLOUD, 10, 3) == ClusterSpec(ARA, CLOUD, num=10, op=3)
        assert (ClusterSpec.with_extra(PF, ON_PREMISES, 10, 3)
                == ClusterSpec(PF, ON_PREMISES, num=10, pool=3))


class TestAvailRates:
    @pytest.mark.parametrize("crash", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_crash_rate(self, crash):
        with pytest.raises(ValueError, match="hw_crash_per_year"):
            AvailRates(crash, 1.0)

    def test_rejects_zero_pool_repair(self):
        with pytest.raises(ValueError, match="pool_repair"):
            AvailRates(1.0, 1.0, pool_repair_per_s=0.0)

    def test_per_second_conversion(self):
        rates = AvailRates(12.0, 1.0)
        assert rates.hw_crash_per_s == pytest.approx(12.0 / YEAR, rel=1e-15)


class TestPfStateSpaces:
    def test_cloud_single_node_generator(self):
        model = build_pf_model(ClusterSpec(PF, CLOUD, num=1), FIFTEEN_S)
        assert model.ctmc.states == (0, 1)
        lam = FIFTEEN_S.hw_crash_per_s
        expected = np.array([[-1.0 / 15.0, 1.0 / 15.0], [lam, -lam]])
        np.testing.assert_allclose(model.ctmc.generator.toarray(), expected, rtol=1e-15)

    def test_onprem_pool_without_repair(self):
        spec = ClusterSpec(PF, ON_PREMISES, num=10, pool=18)
        model = build_pf_model(spec, FIFTEEN_S)
        # (up, pool) with up <= 10 and pool <= 18: 11 * 19 states.
        assert model.ctmc.n == 209
        assert model.up_reward.sum() == 19.0

    def test_onprem_pool_with_repair(self):
        rates = AvailRates(1.0, 1.0 / 15.0, pool_repair_per_s=1.0 / 3600.0)
        spec = ClusterSpec(PF, ON_PREMISES, num=10, pool=18)
        model = build_pf_model(spec, rates)
        # Repair lets the pool grow past its initial size while nodes are
        # down, up to the conserved total of 28: all (u, p) with u + p <= 28.
        assert model.ctmc.n == sum(29 - u for u in range(11))

    def test_cut_chain_without_repair(self):
        spec = ClusterSpec(PF, ON_PREMISES, num=15, pool=40)
        model = build_pf_model(spec, AvailRates(6.0, 1.0 / 15.0), depth=4)
        # (up, pool) with up >= 11 and pool >= 1, the all-up (15, 0), DOWN, SINK.
        assert model.ctmc.n == 5 * 40 + 1 + 2 == 203
        assert model.ctmc.states[-2:] == (DOWN, SINK)
        assert model.ctmc.exit_rates[-2:].tolist() == [0.0, 0.0]
        assert model.up_reward.sum() == 41.0 and model.up_reward[-2:].tolist() == [0.0, 0.0]
        labels = [s for s in model.ctmc.states if s not in (DOWN, SINK)]
        assert min(u for u, _ in labels) == 11
        assert [s for s in labels if s[1] == 0] == [(15, 0)]

    def test_cut_chain_with_repair(self):
        rates = AvailRates(6.0, 1.0 / 15.0, pool_repair_per_s=1.0 / 3600.0)
        model = build_pf_model(ClusterSpec(PF, ON_PREMISES, num=15, pool=1), rates, depth=6)
        # u = 9..15, pool up to 16 - u: pool-exhausted states stay, and no DOWN.
        assert model.ctmc.n == sum(17 - u for u in range(9, 16)) + 1 == 36
        assert model.ctmc.states[-1] == SINK and DOWN not in model.ctmc.states
        assert build_pf_model(ClusterSpec(PF, ON_PREMISES, num=15, pool=0), rates).ctmc.n == 136

    def test_cloud_pool_is_ignored(self):
        a = build_pf_model(ClusterSpec(PF, CLOUD, num=3, pool=0), FIFTEEN_S)
        b = build_pf_model(ClusterSpec(PF, CLOUD, num=3, pool=7), FIFTEEN_S)
        assert a.ctmc.states == b.ctmc.states
        assert (a.ctmc.generator != b.ctmc.generator).nnz == 0

    def test_rejects_wrong_technique(self):
        with pytest.raises(ValueError, match="PF"):
            build_pf_model(ClusterSpec(ARA, CLOUD, num=1), FIFTEEN_S)
        with pytest.raises(ValueError, match="ARA"):
            build_ara_model(ClusterSpec(PF, CLOUD, num=1), FIFTEEN_S)


class TestAraStateSpaces:
    def test_cloud_state_count(self):
        model = build_ara_model(ClusterSpec(ARA, CLOUD, num=10, op=1), FIFTEEN_S)
        assert model.ctmc.n == 12
        assert model.up_reward.sum() == 2.0  # states 10 and 11 are up

    def test_onprem_all_down_is_absorbing(self):
        model = build_ara_model(ClusterSpec(ARA, ON_PREMISES, num=2, op=1), FIFTEEN_S)
        zero = model.ctmc.index_of(0)
        assert model.ctmc.exit_rates[zero] == 0.0


class TestClosedForms:
    def test_single_onprem_node_over_a_year(self):
        model = build_ara_model(ClusterSpec(ARA, ON_PREMISES, num=1), FIFTEEN_S)
        report = availability(model, YEAR)
        assert report.availability == pytest.approx(ONE_MINUS_EXP_MINUS_1, rel=1e-11)

    def test_ten_of_ten_onprem(self):
        model = build_ara_model(ClusterSpec(ARA, ON_PREMISES, num=10), FIFTEEN_S)
        report = availability(model, YEAR)
        assert report.availability == pytest.approx(ARA_ONPREM_10_OF_10, rel=1e-11)

    def test_three_of_five_onprem(self):
        rates = AvailRates(5.0, 1.0 / 15.0)
        model = build_ara_model(ClusterSpec(ARA, ON_PREMISES, num=3, op=2), rates)
        report = availability(model, YEAR)
        assert report.availability == pytest.approx(ARA_ONPREM_3_OF_5_5PY, rel=1e-9)

    def test_two_of_three_onprem_fast_failures(self):
        rates = AvailRates(50.0, 1.0 / 15.0)
        model = build_ara_model(ClusterSpec(ARA, ON_PREMISES, num=2, op=1), rates)
        report = availability(model, YEAR)
        assert report.availability == pytest.approx(ARA_ONPREM_2_OF_3_50PY, rel=1e-9)

    def test_cloud_ara_with_one_spare(self):
        rates = AvailRates(12.0, 1.0 / 1800.0)
        model = build_ara_model(ClusterSpec(ARA, CLOUD, num=10, op=1), rates)
        report = availability(model, YEAR)
        assert report.availability == pytest.approx(ARA_CLOUD_10_PLUS_1_12PY, rel=1e-12)

    def test_cloud_pf_equals_cloud_ara_for_one_node(self):
        # With num = 1 and no extras the two techniques build the same
        # two-state chain, just with different labels.
        rates = AvailRates(12.0, 1.0 / 1800.0)
        pf = availability(build_pf_model(ClusterSpec(PF, CLOUD, num=1), rates), YEAR)
        ara = availability(build_ara_model(ClusterSpec(ARA, CLOUD, num=1), rates), YEAR)
        assert pf.availability == pytest.approx(ara.availability, abs=1e-15)


class TestNines:
    def test_three_nines_is_8_77_hours_per_year(self):
        assert nines(0.999) == pytest.approx(3.0, abs=1e-12)
        downtime_h = (1 - 0.999) * YEAR / 3600.0
        assert downtime_h == pytest.approx(8.766, abs=1e-12)

    def test_five_nines_is_5_26_minutes_per_year(self):
        assert nines(0.99999) == pytest.approx(5.0, abs=1e-10)
        downtime_min = (1 - 0.99999) * YEAR / 60.0
        assert downtime_min == pytest.approx(5.2596, abs=1e-10)

    def test_perfect_availability_caps_at_12(self):
        assert nines(1.0) == 12.0
        assert nines(1.0 - 1e-15) == 12.0

    def test_zero_availability(self):
        assert nines(0.0) == 0.0
        assert math.copysign(1.0, nines(0.0)) == 1.0   # +0.0: the CLI prints -0.0 as is

    @pytest.mark.parametrize("bad", [-0.1, 1.0001, math.nan])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError, match="availability"):
            nines(bad)

    def test_report_carries_downtime(self):
        model = build_pf_model(ClusterSpec(PF, CLOUD, num=1), FIFTEEN_S)
        report = availability(model, YEAR)
        assert report.downtime_hours == pytest.approx(
            (1 - report.availability) * 8766.0, rel=1e-12)
        assert report.horizon_s == YEAR


class TestMonotonicity:
    def test_more_pool_never_hurts(self):
        rates = AvailRates(6.0, 1.0 / 1800.0)
        values = []
        for pool in (0, 1, 2, 4):
            model = build_pf_model(ClusterSpec(PF, ON_PREMISES, num=3, pool=pool), rates)
            values.append(availability(model, YEAR).availability)
        assert values == sorted(values)

    def test_more_active_spares_never_hurt(self):
        rates = AvailRates(6.0, 1.0 / 1800.0)
        values = []
        for op in (0, 1, 2, 4):
            model = build_ara_model(ClusterSpec(ARA, CLOUD, num=3, op=op), rates)
            values.append(availability(model, YEAR).availability)
        assert values == sorted(values)

    def test_higher_crash_rate_hurts(self):
        values = []
        for crashes in (1.0, 6.0, 12.0):
            rates = AvailRates(crashes, 1.0 / 1800.0)
            model = build_pf_model(ClusterSpec(PF, CLOUD, num=5), rates)
            values.append(availability(model, YEAR).availability)
        assert values == sorted(values, reverse=True)

    def test_finite_pool_below_unbounded_pool(self):
        rates = AvailRates(6.0, 1.0 / 1800.0)
        cloud = availability(build_pf_model(ClusterSpec(PF, CLOUD, num=5), rates), YEAR)
        for pool in (0, 3, 10):
            onprem = availability(
                build_pf_model(ClusterSpec(PF, ON_PREMISES, num=5, pool=pool), rates), YEAR)
            assert onprem.availability <= cloud.availability + 1e-12

    def test_single_recovery_below_parallel(self):
        rates = AvailRates(200.0, 1.0 / 1800.0)
        spec = ClusterSpec(PF, CLOUD, num=8)
        parallel = availability(build_pf_model(spec, rates, parallel_recovery=True), YEAR)
        single = availability(build_pf_model(spec, rates, parallel_recovery=False), YEAR)
        assert single.availability < parallel.availability


class TestValidation:
    @pytest.mark.parametrize("spec", [ClusterSpec(ARA, CLOUD, num=10**5),
                                      ClusterSpec(PF, ON_PREMISES, num=3, pool=10**4)])
    def test_refuses_a_chain_past_the_memory_guard_before_building_it(self, spec, monkeypatch):
        # 24 * 100**2 bytes hold the dense arrays of a 100-state solve.
        monkeypatch.setattr("pcraft.ctmc._physical_memory", lambda: 24 * 100**2)

        def build_ctmc(*args):
            raise AssertionError("the chain was built")

        monkeypatch.setattr(sys.modules["pcraft.availability"], "build_ctmc", build_ctmc)
        with pytest.raises(ValueError, match=r"\d{5}-state chain.*sert_multiplier"):
            _model_to_solve(spec, FIFTEEN_S)

    def test_a_cut_chain_is_charged_at_its_whole_size(self, monkeypatch):
        # Room for a 200-state solve: the cut chain fits, the whole one does not.
        monkeypatch.setattr("pcraft.ctmc._physical_memory", lambda: 24 * 200**2)
        spec = ClusterSpec(PF, ON_PREMISES, num=10, pool=60)
        assert build_pf_model(spec, FIFTEEN_S, depth=1).ctmc.n == 123
        with pytest.raises(ValueError, match=r"671-state chain"):
            _model_to_solve(spec, FIFTEEN_S, depth=1)

    def test_builds_a_chain_too_large_to_solve(self, monkeypatch):
        # The public builder serves the simulator too, which has its own guard.
        monkeypatch.setattr("pcraft.ctmc._physical_memory", lambda: 24 * 100**2)
        model = build_availability_model(ClusterSpec(ARA, CLOUD, num=200), FIFTEEN_S)
        assert model.ctmc.n == 201
        with pytest.raises(ValueError, match="201-state chain"):
            availability(model, YEAR)

    @pytest.mark.parametrize("repair", [None, 1.0 / 3600.0])
    @pytest.mark.parametrize("deployment", [CLOUD, ON_PREMISES])
    @pytest.mark.parametrize("technique", [PF, ARA])
    def test_chain_size_is_known_before_building(self, technique, deployment, repair):
        # The solving and simulating paths refuse an oversized chain from its
        # state count and out-degree bound alone; the bound is reached.
        rates = AvailRates(2.0, 1.0 / 15.0, repair)
        widths = set()
        for num in range(1, 6):
            for extra in range(5):
                spec = ClusterSpec.with_extra(technique, deployment, num, extra)
                states, width = _chain_shape(spec, rates)
                for parallel in (True, False):
                    built = build_availability_model(spec, rates, parallel).ctmc
                    assert states == built.n, (spec, parallel)
                    widths.add(int(np.bincount(built.rows, minlength=built.n).max()))
        assert max(widths) == width

    @pytest.mark.parametrize("horizon", [0.0, -5.0, math.inf])
    def test_rejects_bad_horizon(self, horizon):
        model = build_pf_model(ClusterSpec(PF, CLOUD, num=1), FIFTEEN_S)
        with pytest.raises(ValueError, match="horizon"):
            availability(model, horizon)

    def test_generic_builder_dispatches(self):
        pf = build_availability_model(ClusterSpec(PF, CLOUD, num=2), FIFTEEN_S)
        ara = build_availability_model(ClusterSpec(ARA, CLOUD, num=2), FIFTEEN_S)
        assert pf.spec.technique == PF
        assert ara.spec.technique == ARA
