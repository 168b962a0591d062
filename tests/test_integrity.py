"""Integrity chains: construction, outcome splits, and horizon breakdowns."""

import math

import numpy as np
import pytest
from scipy import linalg

from pcraft import (
    NODE_VARIANTS,
    TransientSplit,
    build_integrity_model,
    derive_integrity_rates,
    integrity_breakdown,
)
from pcraft.integrity import (
    CRASH_RECOVERY_SECONDS,
    RETRY_SECONDS,
    SDC_RECOVERY_SECONDS,
)
from pcraft.units import DAY, MONTH, YEAR

# Frozen from an eigendecomposition of the generator (independent of the
# uniformization engine): fractions of a month spent in each condition.
NATIVE_MONTHLY_CORRUPT = 0.002128917781012805
NATIVE_MONTHLY_DOWN = 7.108903633208423e-07
FT_TX_DAILY_CORRUPT = 0.002892545962368546
FT_TX_DAILY_DOWN = 1.3363773627407421e-05
FT_ILR_MONTHLY_CORRUPT = 6.516419421240388e-05
FT_ILR_DAILY_CORRUPT = 0.001979389169828268


def eigen_occupancy(generator: np.ndarray, initial: np.ndarray,
                    reward: np.ndarray, horizon: float) -> float:
    """Accumulated reward via the spectral form of the occupancy integral."""
    w, v = linalg.eig(generator)
    phi = np.empty_like(w)
    for k, eigval in enumerate(w):
        x = eigval * horizon
        if abs(x) < 1e-8:
            phi[k] = horizon * (1.0 + x / 2.0 + x * x / 6.0)
        else:
            phi[k] = (np.exp(x) - 1.0) / eigval
    integral = (v * phi) @ linalg.inv(v)
    return float(np.real(initial @ integral @ reward))


def cloud_model(variant: str, rate_per_s: float):
    rates = derive_integrity_rates(
        rate_per_s, NODE_VARIANTS[variant].split, CRASH_RECOVERY_SECONDS)
    return build_integrity_model(rates)


class TestTransientSplit:
    def test_shipped_splits(self):
        assert NODE_VARIANTS["native"].split == TransientSplit(0.2619, 0.1249, 0.0)
        assert NODE_VARIANTS["ft_ilr"].split == TransientSplit(0.0080, 0.7500, 0.0)
        assert NODE_VARIANTS["ft_tx"].split == TransientSplit(0.0117, 0.0772, 0.6699)
        assert list(NODE_VARIANTS) == ["native", "ft_ilr", "ft_tx"]

    def test_masked_remainder(self):
        split = NODE_VARIANTS["native"].split
        assert split.masked == pytest.approx(1.0 - 0.2619 - 0.1249, abs=1e-15)

    @pytest.mark.parametrize("bad", [
        {"corrupt": -0.1, "crash": 0.1},
        {"corrupt": 1.2, "crash": 0.0},
        {"corrupt": 0.6, "crash": 0.6},
    ])
    def test_rejects_bad_fractions(self, bad):
        with pytest.raises(ValueError):
            TransientSplit(**bad)


class TestDeriveRates:
    def test_rates_scale_with_split(self):
        rates = derive_integrity_rates(1.0 / DAY, NODE_VARIANTS["ft_tx"].split, 15.0)
        assert rates.sdc_per_s == pytest.approx(0.0117 / DAY, rel=1e-15)
        assert rates.crash_per_s == pytest.approx(0.0772 / DAY, rel=1e-15)
        assert rates.detected_per_s == pytest.approx(0.6699 / DAY, rel=1e-15)
        assert rates.sdc_recovery_per_s == pytest.approx(1.0 / SDC_RECOVERY_SECONDS)
        assert rates.retry_recovery_per_s == pytest.approx(1.0 / RETRY_SECONDS)
        assert rates.crash_recovery_per_s == pytest.approx(1.0 / 15.0)

    def test_no_crash_recovery_marks_absorbing(self):
        rates = derive_integrity_rates(1.0 / DAY, NODE_VARIANTS["native"].split, None)
        assert rates.crash_recovery_per_s is None

    @pytest.mark.parametrize("rate", [0.0, -1.0, math.inf])
    def test_rejects_bad_fault_rate(self, rate):
        with pytest.raises(ValueError, match="fault rate"):
            derive_integrity_rates(rate, NODE_VARIANTS["native"].split, 15.0)

    def test_rejects_bad_recovery_times(self):
        with pytest.raises(ValueError, match="sdc_recovery_s"):
            derive_integrity_rates(1.0, NODE_VARIANTS["native"].split, 15.0,
                                   sdc_recovery_s=0.0)
        with pytest.raises(ValueError, match="crash_recovery_s"):
            derive_integrity_rates(1.0, NODE_VARIANTS["native"].split, -2.0)
        with pytest.raises(ValueError, match="retry_crash"):
            derive_integrity_rates(1.0, NODE_VARIANTS["ft_tx"].split, 15.0,
                                   retry_crash_per_s=-1.0)


class TestModelShape:
    def test_native_cloud_is_three_states_four_edges(self):
        model = cloud_model("native", 1.0 / MONTH)
        assert model.states == ("Correct", "Corrupt", "Crash")
        off_diagonal = model.generator.nnz - np.count_nonzero(model.generator.diagonal())
        assert off_diagonal == 4

    def test_ft_tx_cloud_gains_retry_state(self):
        model = cloud_model("ft_tx", 1.0 / DAY)
        assert model.states == ("Correct", "Corrupt", "Crash", "Retry")
        off_diagonal = model.generator.nnz - np.count_nonzero(model.generator.diagonal())
        assert off_diagonal == 6

    def test_retry_crash_adds_an_edge(self):
        rates = derive_integrity_rates(
            1.0 / DAY, NODE_VARIANTS["ft_tx"].split, 15.0,
            retry_crash_per_s=1.0 / 3600.0)
        model = build_integrity_model(rates)
        retry, crash = model.index_of("Retry"), model.index_of("Crash")
        assert model.generator[retry, crash] == pytest.approx(1.0 / 3600.0)

    def test_onprem_crash_is_absorbing(self):
        rates = derive_integrity_rates(1.0 / MONTH, NODE_VARIANTS["native"].split, None)
        model = build_integrity_model(rates)
        assert model.exit_rates[model.index_of("Crash")] == 0.0

    def test_starts_correct(self):
        model = cloud_model("native", 1.0 / MONTH)
        assert model.initial[model.index_of("Correct")] == 1.0


class TestBreakdown:
    def test_native_monthly_fractions(self):
        report = integrity_breakdown(cloud_model("native", 1.0 / MONTH), MONTH)
        assert report.corrupt == pytest.approx(NATIVE_MONTHLY_CORRUPT, rel=1e-10)
        assert report.down == pytest.approx(NATIVE_MONTHLY_DOWN, rel=1e-9)

    def test_ft_tx_daily_fractions(self):
        report = integrity_breakdown(cloud_model("ft_tx", 1.0 / DAY), MONTH)
        assert report.corrupt == pytest.approx(FT_TX_DAILY_CORRUPT, rel=1e-8)
        assert report.down == pytest.approx(FT_TX_DAILY_DOWN, rel=1e-6)

    def test_ft_ilr_monthly_corruption(self):
        report = integrity_breakdown(cloud_model("ft_ilr", 1.0 / MONTH), MONTH)
        assert report.corrupt == pytest.approx(FT_ILR_MONTHLY_CORRUPT, rel=1e-9)

    def test_ft_ilr_daily_corruption(self):
        report = integrity_breakdown(cloud_model("ft_ilr", 1.0 / DAY), MONTH)
        assert report.corrupt == pytest.approx(FT_ILR_DAILY_CORRUPT, rel=1e-9)

    @pytest.mark.parametrize("rate", [1.0 / MONTH, 1.0 / DAY], ids=["month", "day"])
    @pytest.mark.parametrize("variant", tuple(NODE_VARIANTS))
    def test_corruption_below_first_order_product(self, variant, rate):
        # Corruptions only start from Correct, so the corrupt share is at
        # most rate * p * tau * (share of time in Correct) < rate * p * tau.
        report = integrity_breakdown(cloud_model(variant, rate), MONTH)
        first_order = rate * NODE_VARIANTS[variant].split.corrupt * SDC_RECOVERY_SECONDS
        assert report.corrupt < first_order

    def test_fractions_partition_the_horizon(self):
        for variant in NODE_VARIANTS:
            report = integrity_breakdown(cloud_model(variant, 1.0 / DAY), MONTH)
            assert report.correct + report.corrupt + report.down == pytest.approx(1.0, abs=1e-14)
            assert 0.0 <= report.corrupt < 0.1
            assert 0.0 <= report.down < 0.01
            assert report.correct > 0.9

    @pytest.mark.parametrize("variant", sorted(NODE_VARIANTS))
    def test_shares_stay_in_range_at_an_extreme_fault_rate(self, variant):
        # At 1e300 faults a month over a year, 1 - corrupt - down rounds
        # to -1.1e-16 for native and ft_ilr.
        report = integrity_breakdown(cloud_model(variant, 1e300 / MONTH), YEAR)
        shares = (report.correct, report.corrupt, report.down)
        assert all(0.0 <= share <= 1.0 for share in shares)
        assert sum(shares) == pytest.approx(1.0, abs=1e-12)

    def test_matches_eigen_oracle_on_random_rates(self):
        rng = np.random.default_rng(20260825)
        for _ in range(10):
            rate = 10.0 ** rng.uniform(-7, -4)
            split = TransientSplit(*rng.dirichlet([1.0, 1.0, 1.0, 1.0])[:3])
            rates = derive_integrity_rates(
                rate, split, float(rng.uniform(5.0, 50.0)),
                sdc_recovery_s=float(rng.uniform(600.0, 1e5)))
            model = build_integrity_model(rates)
            reward = np.array([1.0 if s == "Corrupt" else 0.0 for s in model.states])
            expected = eigen_occupancy(
                model.generator.toarray(), model.initial, reward, MONTH) / MONTH
            report = integrity_breakdown(model, MONTH)
            assert report.corrupt == pytest.approx(expected, rel=1e-7, abs=1e-14)

    def test_corruption_tracks_the_split_ordering(self):
        # ft_ilr corrupts least, native most, at any common fault rate.
        corrupt = {
            v: integrity_breakdown(cloud_model(v, 1.0 / DAY), MONTH).corrupt
            for v in NODE_VARIANTS
        }
        assert corrupt["ft_ilr"] < corrupt["ft_tx"] < corrupt["native"]

    def test_microsecond_retries_beat_crash_recovery(self):
        # At a high fault rate ft_ilr turns 75% of faults into 15 s
        # crash recoveries while ft_tx retries 67% in microseconds.
        rate = 1.0 / 60.0
        ilr = integrity_breakdown(cloud_model("ft_ilr", rate), MONTH)
        tx = integrity_breakdown(cloud_model("ft_tx", rate), MONTH)
        assert tx.down < ilr.down

    def test_absorbing_crash_accumulates_downtime(self):
        cloud = integrity_breakdown(cloud_model("native", 1.0 / DAY), MONTH)
        onprem_rates = derive_integrity_rates(
            1.0 / DAY, NODE_VARIANTS["native"].split, None)
        onprem = integrity_breakdown(build_integrity_model(onprem_rates), MONTH)
        assert onprem.down > 100 * cloud.down

    @pytest.mark.parametrize("horizon", [0.0, -1.0, math.nan])
    def test_rejects_bad_horizon(self, horizon):
        with pytest.raises(ValueError, match="horizon"):
            integrity_breakdown(cloud_model("native", 1.0 / DAY), horizon)
