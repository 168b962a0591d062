"""Simulation oracle: determinism, edge cases, and statistical behaviour."""

import math
import tracemalloc

import numpy as np
import pytest

from pcraft import build_ctmc, simulate_ctmc
from pcraft.availability import (ARA, CLOUD, ON_PREMISES, PF, _BUILD_BYTES, AvailRates,
                                 ClusterSpec, _chain_shape, _model_to_simulate,
                                 build_availability_model)
from pcraft.ctmc import Ctmc, _check_memory
from pcraft.simulate import _footprint, _jump_tables, _successors_of
from pcraft.units import YEAR

LAMBDA_PER_S = 12.0 / YEAR
RHO_PER_S = 1.0 / 1800.0
# Stationary up-probability rho / (lambda + rho) of the chain below.
PI_UP = 0.9993160054719562


def absorb_chain(rate=1.0):
    """``a -> b`` with ``b`` absorbing and last, so its jump-table row is
    all padding."""
    return build_ctmc([("a", "b", rate)], {"a": 1.0, "b": 0.0})


def two_state():
    return build_ctmc(
        [("up", "down", LAMBDA_PER_S), ("down", "up", RHO_PER_S)],
        {"up": 1.0, "down": 0.0},
    )


def up_reward(label):
    return label == "up"


def absorbed_share(rate, horizon):
    """Time-averaged probability of having left a state of exit rate
    ``rate`` by then, over ``[0, horizon]``: 1 - (1 - e^{-rate T}) / (rate T)."""
    x = rate * horizon
    return 1.0 + math.expm1(-x) / x


class TestDeterminism:
    def test_same_seed_bit_identical(self):
        chain = two_state()
        a = simulate_ctmc(chain, up_reward, YEAR, replications=200, seed=42)
        b = simulate_ctmc(chain, up_reward, YEAR, replications=200, seed=42)
        assert a == b

    def test_no_hidden_state_between_calls(self):
        chain = two_state()
        first = simulate_ctmc(chain, up_reward, YEAR, replications=300, seed=4)
        simulate_ctmc(chain, up_reward, YEAR, replications=77, seed=4)
        simulate_ctmc(absorb_chain(), np.array([0.0, 1.0]), 1.0, replications=50, seed=0)
        again = simulate_ctmc(chain, up_reward, YEAR, replications=300, seed=4)
        assert again == first

    def test_estimate_is_pinned(self):
        # States of out-degree 3 to 8, so exit rates are sums of several
        # rates; the estimate of the generator-based jump tables, frozen.
        rng = np.random.default_rng(11)
        n = 12
        transitions = [(i, j, float(rng.uniform(0.1, 3.0)))
                       for i in range(n) for j in range(n) if i != j and rng.random() < 0.4]
        chain = build_ctmc(transitions, {i: float(i == 0) for i in range(n)})
        reward = rng.uniform(0.0, 1.0, size=n)
        est = simulate_ctmc(chain, reward, 20.0, replications=4000, seed=7)
        assert est.mean == pytest.approx(0.5796753475098427, rel=1e-12, abs=0)
        assert est.ci_half_width == pytest.approx(0.0011795265912919264, rel=1e-9, abs=0)
        assert est.events == 567625

    def test_different_seeds_differ(self):
        chain = two_state()
        a = simulate_ctmc(chain, up_reward, YEAR, replications=200, seed=1)
        b = simulate_ctmc(chain, up_reward, YEAR, replications=200, seed=2)
        assert a.mean != b.mean

    def test_result_records_inputs(self):
        chain = two_state()
        est = simulate_ctmc(chain, up_reward, YEAR, replications=64, seed=9)
        assert est.replications == 64
        assert est.seed == 9


def random_chain(seed, n, dense):
    """A ring through ``n`` states plus random edges (about half of all
    pairs when dense, two a state otherwise), started in state 0."""
    rng = np.random.default_rng(seed)
    edges = {(i, (i + 1) % n): float(rng.uniform(0.5, 1.5)) for i in range(n)}
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < (0.5 if dense else 2.0 / n):
                edges[(i, j)] = float(rng.uniform(0.5, 1.5))
    chain = build_ctmc([(i, j, r) for (i, j), r in edges.items()],
                       {i: float(i == 0) for i in range(n)})
    return chain, rng.random(n)


def cluster_chain(spec, rates):
    model = build_availability_model(spec, rates)
    return model.ctmc, model.up_reward


def pinned_cases():
    """(chain, reward, horizon, replications, seed) for each pinned estimate."""
    spread = build_ctmc([("a", "b", 2.0), ("b", "c", 1.0), ("c", "a", 0.5), ("b", "a", 1.5)],
                        {"a": 0.2, "b": 0.5, "c": 0.3})
    return {
        # Out-degree 1, the all-down state absorbing.
        "ara-on-premises": (*cluster_chain(ClusterSpec(ARA, ON_PREMISES, num=10, op=3),
                                           AvailRates(6.0, 1.0 / 15.0)), YEAR, 300, 5),
        # Out-degree 2, (0, 0) absorbing.
        "pf-on-premises": (*cluster_chain(ClusterSpec(PF, ON_PREMISES, num=10, pool=4),
                                          AvailRates(6.0, 1.0 / 15.0)), YEAR, 300, 6),
        # Nothing absorbing: every crashed node is re-provisioned.
        "cloud-ara": (*cluster_chain(ClusterSpec(ARA, CLOUD, num=10, op=1),
                                     AvailRates(6.0, 1.0 / 1800.0)), YEAR, 200, 7),
        "sparse-random": (*random_chain(41, 40, dense=False), 15.0, 300, 8),
        "dense-random": (*random_chain(42, 30, dense=True), 15.0, 300, 9),
        "single-state": (build_ctmc([], {"only": 1.0}), np.array([0.25]), 10.0, 50, 10),
        "spread-start": (spread, np.array([1.0, 0.25, 0.0]), 4.0, 500, 11),
    }


# float.hex of (mean, ci_half_width) and the event count, frozen: a faster
# loop must draw the same stream and do the same arithmetic.
PINNED = {
    "ara-on-premises": ("0x1.b7f07779ad463p-5", "0x1.0ffd3f9739305p-8", 3895),
    "pf-on-premises": ("0x1.59d11d068a726p-4", "0x1.6544161518ed6p-8", 5392),
    "cloud-ara": ("0x1.ffff4964e7de1p-1", "0x1.a58747370163fp-19", 26376),
    "sparse-random": ("0x1.c5d3b9e2670f7p-2", "0x1.83b96d3327c74p-7", 10141),
    "dense-random": ("0x1.d977fa625d9c3p-2", "0x1.05b782a7255c9p-8", 68283),
    "single-state": ("0x1.0000000000000p-2", "0x0.0p+0", 0),
    "spread-start": ("0x1.69b1798a8bef7p-2", "0x1.9bd9acd2739c7p-6", 2990),
}


class TestBitIdentity:
    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_estimate_is_pinned_bit_for_bit(self, name):
        chain, reward, horizon, replications, seed = pinned_cases()[name]
        est = simulate_ctmc(chain, reward, horizon, replications, seed)
        assert (est.mean.hex(), est.ci_half_width.hex(), est.events) == PINNED[name]


class TestSuccessorChoice:
    """Counting a state's thresholds at or below the draw picks the same
    successor as the first cumulative probability above it."""

    @staticmethod
    def reference(chain, state, u):
        # Per-row inversion straight from the generator's sorted rates.
        picks = []
        for i, draw in zip(state, u):
            mine = chain.rows == i
            cum = np.cumsum(chain.rates[mine])
            cum /= cum[-1]
            picks.append(chain.cols[mine][np.argmax(cum > draw)])
        return np.array(picks, dtype=np.intp)

    @pytest.mark.parametrize("width", [1, 2, 3, 7, 16, 29, 40])
    def test_matches_per_row_argmax(self, width):
        rng = np.random.default_rng(width)
        n = width + 5
        transitions = []
        for i in range(n):
            degree = width if i == 0 else int(rng.integers(1, width + 1))
            targets = rng.choice([j for j in range(n) if j != i], size=degree, replace=False)
            transitions += [(i, int(j), float(rng.uniform(0.01, 5.0))) for j in targets]
        chain = build_ctmc(transitions, {i: float(i == 0) for i in range(n)})
        successors, thresholds = _jump_tables(chain, 2)
        assert thresholds.shape == (width - 1, n)

        # Zero, every threshold exactly, the float just below each, and
        # random draws, for every state.
        state, u = [], []
        for i in range(n):
            row = thresholds[:, i][thresholds[:, i] < 1.0]
            draws = np.concatenate([[0.0], row, np.nextafter(row, 0.0), rng.random(20)])
            state += [i] * draws.size
            u.append(draws)
        state, u = np.array(state, dtype=np.intp), np.concatenate(u)
        np.testing.assert_array_equal(_successors_of(successors, thresholds, state, u),
                                      self.reference(chain, state, u))

    def test_draw_on_a_threshold_takes_the_next_column(self):
        chain = build_ctmc([("hub", "x", 1.0), ("hub", "y", 1.0), ("hub", "z", 2.0)],
                           {"hub": 1.0, "x": 0.0, "y": 0.0, "z": 0.0})
        successors, thresholds = _jump_tables(chain, 2)
        np.testing.assert_array_equal(thresholds[:, 0], [0.25, 0.5])
        state = np.zeros(5, dtype=np.intp)
        picks = _successors_of(successors, thresholds, state,
                               np.array([0.0, 0.2, 0.25, 0.5, 0.9]))
        assert [chain.states[k] for k in picks] == ["x", "x", "y", "z", "z"]


class TestEdgeCases:
    def test_absorbing_start_state_is_exact(self):
        # "sink" has no outgoing transitions, so every trajectory sits
        # there for the whole horizon and the estimate has no variance.
        chain = build_ctmc([("other", "sink", 1.0)], {"sink": 1.0, "other": 0.0})
        est = simulate_ctmc(chain, lambda s: s == "sink", 123.0, replications=16, seed=0)
        assert est.mean == 1.0
        assert est.ci_half_width == 0.0
        assert est.events == 0

    def test_events_count_jumps(self):
        # lambda*T = 50: every trajectory leaves "a" and stops in "b".
        est = simulate_ctmc(absorb_chain(), np.array([0.0, 1.0]), 50.0,
                            replications=500, seed=1)
        assert est.events == 500

    def test_constant_reward_has_zero_variance(self):
        chain = two_state()
        est = simulate_ctmc(chain, np.ones(2), YEAR, replications=32, seed=5)
        assert est.mean == 1.0
        assert est.ci_half_width == 0.0

    def test_interval_accessors(self):
        chain = two_state()
        est = simulate_ctmc(chain, up_reward, YEAR, replications=100, seed=3)
        assert est.low == est.mean - est.ci_half_width
        assert est.high == est.mean + est.ci_half_width
        assert est.covers(est.mean)
        assert not est.covers(est.high + 1e-6)

    def test_rejects_bad_reward_shape(self):
        with pytest.raises(ValueError, match="one entry per state"):
            simulate_ctmc(two_state(), np.ones(3), YEAR, replications=8)

    @pytest.mark.parametrize("reward", [[math.nan, 1.0], [math.inf, 1.0], [1.0, -0.5]])
    def test_rejects_rewards_the_solvers_refuse(self, reward):
        # A NaN reward would otherwise come back as mean=nan.
        with pytest.raises(ValueError, match="finite and nonnegative"):
            simulate_ctmc(two_state(), np.array(reward), YEAR, replications=8)

    def test_rejects_single_replication(self):
        with pytest.raises(ValueError, match="replications must be an integer and at least 2"):
            simulate_ctmc(two_state(), up_reward, YEAR, replications=1)

    @pytest.mark.parametrize("replications", [2.5, 100.0, "100", True])
    def test_rejects_non_integer_replications(self, replications):
        with pytest.raises(ValueError, match="replications must be an integer"):
            simulate_ctmc(two_state(), up_reward, YEAR, replications=replications)

    @pytest.mark.parametrize("seed", [-1, 1.5, "7", None])
    def test_rejects_bad_seed(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer and nonnegative"):
            simulate_ctmc(two_state(), up_reward, YEAR, replications=8, seed=seed)

    def test_accepts_numpy_integers(self):
        a = simulate_ctmc(two_state(), up_reward, YEAR, replications=np.int64(20),
                          seed=np.uint32(3))
        b = simulate_ctmc(two_state(), up_reward, YEAR, replications=20, seed=3)
        assert a == b

    @pytest.mark.parametrize("horizon", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_horizon(self, horizon):
        with pytest.raises(ValueError, match="horizon"):
            simulate_ctmc(two_state(), up_reward, horizon, replications=8)


class TestMemoryGuard:
    def test_refuses_replications_beyond_memory_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"replications=10+ .*GB.*lower replications"):
                simulate_ctmc(two_state(), up_reward, YEAR, replications=10**12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64e6

    def test_refuses_padded_table_beyond_memory_before_allocating(self):
        # One hub reaches all 200,000 states: the padded table would be
        # 200,000 x 199,999 entries, though the generator has 400,000.
        n = 200_000
        rows = np.concatenate([np.zeros(n - 1, dtype=int), np.arange(1, n)])
        cols = np.concatenate([np.arange(1, n), np.zeros(n - 1, dtype=int)])
        initial = np.zeros(n)
        initial[0] = 1.0
        chain = Ctmc(tuple(range(n)), rows, cols, np.ones(2 * (n - 1)), initial)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"200000-state.*GB.*jump table of 199999 entries a state"):
                simulate_ctmc(chain, np.zeros(n), 1.0, replications=10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64e6

    def test_refuses_stages_that_fit_only_one_at_a_time(self, monkeypatch):
        # 10**6 replications on a 500,000-state chain of out-degree 40: the
        # 480 MB table and the 463 MB batch each fit in 566 MB, not together.
        monkeypatch.setattr("pcraft.ctmc._physical_memory", lambda: 566 * 10**6)
        stages = _footprint(10**6, 500_000, 40)
        assert [size for _, size, _ in stages] == [480 * 10**6, 463 * 10**6]
        with pytest.raises(ValueError, match=r"500000-state chain needs about 0\.9 GB at "
                                             r"once, more than the 0\.6 GB of physical"):
            _check_memory("simulating", 500_000, *stages)

    @pytest.mark.parametrize("case", [
        absorb_chain(),     # out-degree 1: all retire within two steps, most at once
        build_ctmc([(i, j, 1.0 + 0.01 * ((7 * i + j) % 11))
                    for i in range(30) for j in range(30) if i != j],
                   {i: float(i == 0) for i in range(30)}),   # out-degree 29
        # Built from the spec by the CLI's path, and charged for the build too.
        (ClusterSpec(ARA, CLOUD, num=2_000), AvailRates(6.0, 1.0 / 15.0)),
        (ClusterSpec(ARA, CLOUD, num=20_000), AvailRates(6.0, 1.0 / 15.0)),
        (ClusterSpec(PF, ON_PREMISES, num=20, pool=90), AvailRates(6.0, 0.1, 1e-3)),
        (ClusterSpec(PF, ON_PREMISES, num=20, pool=1_000), AvailRates(6.0, 0.1, 1e-3)),
    ], ids=["width-1", "width-29", "cloud-ara-2001", "cloud-ara-20001", "pf-repair-2121",
            "pf-repair-21231"])
    def test_estimate_covers_the_traced_peak(self, case, monkeypatch):
        # The summed charge holds what the call holds at its peak: with one
        # byte less of physical memory than tracemalloc saw, it is refused.
        build_peaks = []

        def run(replications):
            if isinstance(case, Ctmc):
                chain, reward = case, np.linspace(0.0, 1.0, case.n)
            else:
                model = _model_to_simulate(*case, True, replications)
                chain, reward = model.ctmc, model.up_reward
                build_peaks.append(tracemalloc.get_traced_memory()[1])
            simulate_ctmc(chain, reward, 2.0, replications, seed=1)

        run(100)   # warm caches
        tracemalloc.start()
        try:
            run(20_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        if build_peaks:   # the build constant alone covers the build's peak
            assert _BUILD_BYTES * _chain_shape(*case)[0] >= build_peaks[-1]
        monkeypatch.setattr("pcraft.ctmc._physical_memory", lambda: peak - 1)
        with pytest.raises(ValueError, match="simulating"):
            run(20_000)


class TestStatistics:
    def test_ci_covers_stationary_availability(self):
        chain = two_state()
        est = simulate_ctmc(chain, up_reward, YEAR, replications=3000, seed=2026)
        assert est.covers(PI_UP)

    def test_coverage_rate_across_seeds(self):
        # 99% intervals should cover the truth nearly always; allow a
        # couple of misses out of twenty at modest replication counts.
        chain = two_state()
        hits = sum(
            simulate_ctmc(chain, up_reward, YEAR, replications=400, seed=s).covers(PI_UP)
            for s in range(20)
        )
        assert hits >= 17

    def test_ci_shrinks_with_replications(self):
        chain = two_state()
        small = simulate_ctmc(chain, up_reward, YEAR, replications=1000, seed=11)
        large = simulate_ctmc(chain, up_reward, YEAR, replications=4000, seed=11)
        ratio = large.ci_half_width / small.ci_half_width
        assert 0.35 <= ratio <= 0.65

    def test_initial_distribution_is_sampled(self):
        # Start in "down" with probability one: early downtime must
        # drag the estimate visibly below the up-start value.
        chain = build_ctmc(
            [("up", "down", LAMBDA_PER_S), ("down", "up", RHO_PER_S)],
            {"up": 0.0, "down": 1.0},
        )
        horizon = 4 * 1800.0
        est = simulate_ctmc(chain, up_reward, horizon, replications=600, seed=7)
        assert est.mean < 0.9

    def test_absorption_mid_trajectory(self):
        rate, horizon = 0.5, 4.0
        est = simulate_ctmc(absorb_chain(rate), lambda s: s == "b", horizon,
                            replications=4000, seed=12)
        assert est.covers(absorbed_share(rate, horizon))
        assert 0 < est.events < 4000

    def test_successor_sampling_follows_rates(self):
        # The hub leaves at total rate 6; leaf k takes share k/6 of exits.
        chain = build_ctmc([("hub", f"leaf{k}", float(k)) for k in (1, 2, 3)],
                           {"hub": 1.0, "leaf1": 0.0, "leaf2": 0.0, "leaf3": 0.0})
        horizon = 0.5
        left = absorbed_share(6.0, horizon)
        for k in (1, 2, 3):
            est = simulate_ctmc(chain, lambda s, k=k: s == f"leaf{k}", horizon,
                                replications=6000, seed=30)
            assert est.covers(k / 6.0 * left), k
