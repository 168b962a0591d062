"""Core chain engine: construction, transient, occupancy."""

from __future__ import annotations

import dataclasses
import math
import os
import tracemalloc

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
import scipy.stats

from pcraft.availability import AvailRates, ClusterSpec, availability, build_availability_model
from pcraft.integrity import build_integrity_model, derive_integrity_rates
import pcraft.ctmc as ctmc_module
from pcraft.ctmc import (
    _BASE_STEP_EVENTS,
    _BASE_STEP_TOL,
    _RADAU_COMPLEX_POLE,
    _RADAU_COMPLEX_RESIDUE,
    _RADAU_REAL_POLE,
    _RADAU_REAL_RESIDUE,
    Ctmc,
    _base_step_terms,
    _implicit_occupancy,
    _propagator,
    _radau,
    _route,
    _squaring_levels,
    build_ctmc,
    cumulative_occupancy,
    indicator_reward,
    occupancy_from_each_start,
    transient_distribution,
)
from pcraft.units import HOUR, MONTH, YEAR
from pcraft.variants import NODE_VARIANTS
from reference import stationary_distribution

# Closed-form oracle values, frozen.
PI_UP_12PY_30MIN = 0.9993160054719562    # rho/(lam+rho), lam=12/yr, rho=1/1800s
EXP_MINUS_1 = 0.36787944117144233
ONE_MINUS_EXP_MINUS_1 = 0.6321205588285577


def two_state(lam: float, rho: float, start_up: float = 1.0):
    return build_ctmc(
        [("up", "down", lam), ("down", "up", rho)],
        {"up": start_up, "down": 1.0 - start_up},
    )


def pure_death(lam: float):
    return build_ctmc([("up", "down", lam)], {"up": 1.0, "down": 0.0})


def random_generator_chain(rng: np.random.Generator, n: int, rate_scale: float = 1.0):
    """Random irreducible chain: a cycle plus extra random edges."""
    transitions = []
    for i in range(n):
        transitions.append((i, (i + 1) % n, rate_scale * rng.uniform(0.2, 2.0)))
    extra = rng.integers(0, 2 * n, size=2)
    for _ in range(int(extra[0]) + 1):
        i, j = rng.integers(0, n, size=2)
        if i != j:
            transitions.append((int(i), int(j), rate_scale * rng.uniform(0.1, 1.5)))
    initial = {i: 0.0 for i in range(n)}
    initial[0] = 1.0
    return build_ctmc(transitions, initial)


class TestBuild:
    def test_single_state_no_transitions(self):
        chain = build_ctmc([], {"only": 1.0})
        assert chain.n == 1
        assert chain.generator.nnz == 0

    def test_duplicate_transitions_are_summed(self):
        a = build_ctmc([("u", "d", 1.0), ("u", "d", 2.0), ("d", "u", 1.0)],
                       {"u": 1.0, "d": 0.0})
        b = build_ctmc([("u", "d", 3.0), ("d", "u", 1.0)], {"u": 1.0, "d": 0.0})
        assert np.allclose(a.generator.toarray(), b.generator.toarray())

    def test_generator_is_the_dense_matrix_of_the_transitions(self):
        rng = np.random.default_rng(5)
        n = 12
        transitions = [(int(i), int(j), float(rng.uniform(0.1, 2.0)))
                       for i, j in rng.integers(0, n, size=(80, 2)) if i != j]
        transitions += transitions[:10]     # repeated (src, dst) pairs are summed
        chain = build_ctmc(transitions, {i: float(i == 0) for i in range(n)})
        expected = np.zeros((n, n))
        for i, j, rate in transitions:
            expected[i, j] += rate
        np.fill_diagonal(expected, -expected.sum(axis=1))
        np.testing.assert_allclose(chain.generator.toarray(), expected, rtol=1e-15, atol=0)
        np.testing.assert_allclose(chain.exit_rates, -np.diag(expected), rtol=1e-15)
        assert np.all(np.diff(chain.rows * n + chain.cols) > 0)

    def test_generator_is_built_once_on_first_access(self):
        chain = two_state(1.0, 2.0)
        assert "generator" not in vars(chain)
        assert chain.generator is chain.generator
        # An absorbing state stores no diagonal zero.
        assert pure_death(1.0).generator.nnz == 2

    def test_constructor_sorts_and_sums_triplets(self):
        chain = Ctmc(("a", "b", "c"), [2, 0, 2, 0], [0, 1, 0, 2], [1.0, 2.0, 0.5, 4.0],
                     np.array([1.0, 0.0, 0.0]))
        assert chain.rows.tolist() == [0, 0, 2]
        assert chain.cols.tolist() == [1, 2, 0]
        assert chain.rates.tolist() == [2.0, 4.0, 1.5]
        assert chain.exit_rates.tolist() == [6.0, 0.0, 1.5]
        assert not chain.rates.flags.writeable

    @pytest.mark.parametrize("rows, cols, rates", [
        ([0], [0], [1.0]), ([0], [2], [1.0]), ([-1], [0], [1.0]),
        ([0], [1], [0.0]), ([0], [1], [float("inf")]), ([0, 1], [1], [1.0, 1.0])])
    def test_constructor_rejects_bad_triplets(self, rows, cols, rates):
        with pytest.raises(ValueError, match="rate"):
            Ctmc(("a", "b"), rows, cols, rates, np.array([1.0, 0.0]))

    @pytest.mark.parametrize("states, rows, cols, rates, initial, match", [
        (("a", "b"), [0], [1], [1.0], [1.0], r"entry per state \(2\)"),
        (("a", "b"), [0], [1], [1.0], [1.5, -0.5], "nonnegative"),
        (("a", "b"), [0], [1], [1.0], [math.nan, 1.0], "finite"),
        (("a", "b"), [0], [1], [1.0], [0.7, 0.7], "sum to 1.4"),
        (("a", "b", "a"), [0], [1], [1.0], [1.0, 0.0, 0.0], "'a' appears more than once"),
        (("a", "b", "c"), [0, 0], [1, 2], [1e308, 1e308], [1.0, 0.0, 0.0],
         "rates out of state 'a'"),
        (("a", "b"), [0, 0], [1, 1], [1e308, 1e308], [1.0, 0.0], "rates out of state 'a'"),
        (("a", "b", "c"), [2, 0], [0, 1], [-1.0, 0.0], [1.0, 0.0, 0.0],
         r"rate for 'c' -> 'a' must be positive and finite, got -1\.0"),
        (("a", "b"), [1, 0], [1, 0], [1.0, 1.0], [1.0, 0.0], "self-loop.*rate.*'b'"),
    ], ids=["initial-length", "initial-negative", "initial-nan", "initial-sum",
            "repeated-label", "exit-rate-overflow", "summed-rate-overflow",
            "first-bad-rate-in-input-order", "first-self-loop-in-input-order"])
    def test_constructor_checks_the_whole_chain(self, states, rows, cols, rates, initial,
                                                match):
        with pytest.raises(ValueError, match=match):
            Ctmc(states, rows, cols, rates, np.array(initial))

    def test_constructor_copies_and_freezes_initial(self):
        initial = np.array([0.25, 0.75])
        chain = Ctmc(("a", "b"), [0], [1], [1.0], initial)
        initial[0] = 0.5
        assert chain.initial.tolist() == [0.25, 0.75]
        assert not chain.initial.flags.writeable
        assert initial.flags.writeable

    def test_row_sums_vanish(self):
        rng = np.random.default_rng(7)
        chain = random_generator_chain(rng, 17)
        sums = np.asarray(chain.generator.sum(axis=1)).ravel()
        scale = chain.exit_rates.max()
        assert np.all(np.abs(sums) <= 1e-12 * max(scale, 1.0))

    @pytest.mark.parametrize("rate", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_rate_rejected(self, rate):
        with pytest.raises(ValueError, match="rate"):
            build_ctmc([("a", "b", rate)], {"a": 1.0, "b": 0.0})

    def test_unknown_state_rejected(self):
        with pytest.raises(ValueError, match="unknown state"):
            build_ctmc([("a", "zzz", 1.0)], {"a": 1.0, "b": 0.0})

    def test_unknown_source_state_rejected(self):
        with pytest.raises(ValueError, match="unknown state 'zzz'"):
            build_ctmc([("zzz", "a", 1.0)], {"a": 1.0, "b": 0.0})

    def test_negative_initial_probability_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            build_ctmc([], {"a": 1.5, "b": -0.5})

    def test_index_of_unknown_label_rejected(self):
        chain = two_state(1.0, 2.0)
        assert chain.index_of("down") == 1
        with pytest.raises(ValueError, match="unknown state 'sideways'"):
            chain.index_of("sideways")

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            build_ctmc([("a", "a", 1.0)], {"a": 1.0})

    def test_empty_state_set_rejected(self):
        with pytest.raises(ValueError, match="empty state set"):
            build_ctmc([], {})

    def test_initial_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            build_ctmc([], {"a": 0.4, "b": 0.4})

    def test_initial_normalized_tightly(self):
        chain = build_ctmc([], {"a": 1.0 / 3, "b": 1.0 / 3, "c": 1.0 / 3})
        assert abs(chain.initial.sum() - 1.0) <= 1e-12


class TestBaseStepTerms:
    @pytest.mark.parametrize("qt", [1e-12, 1e-3, 0.5, 4.0, 8.0])
    def test_matches_the_poisson_pmf_and_tails(self, qt):
        w, tails = _base_step_terms(qt)
        ks = np.arange(len(w))
        np.testing.assert_allclose(w, scipy.stats.poisson.pmf(ks, qt), rtol=1e-13, atol=0)
        np.testing.assert_allclose(tails, scipy.stats.poisson.sf(ks, qt), rtol=1e-12, atol=0)
        assert tails[-1] <= _BASE_STEP_TOL < tails[-2]

    def test_squaring_keeps_the_base_step_small(self):
        # The recurrence from exp(-qt) needs qt <= _BASE_STEP_EVENTS.
        for qt in np.geomspace(1e-9, 1e13, 200):
            dt_events = qt / 2.0 ** _squaring_levels(qt)
            assert dt_events <= _BASE_STEP_EVENTS

    @pytest.mark.parametrize("technique", ["PF", "ARA"])
    def test_single_on_premises_node_matches_the_closed_form(self, technique):
        # Without a spare the node dies at rate lam and stays down:
        # availability (1 - exp(-lam T)) / (lam T).
        for per_year in range(1, 13):
            model = build_availability_model(
                ClusterSpec(technique, "on-premises", num=1), AvailRates(per_year, 1 / 15))
            for hours in (1, 24, 720, 8766):
                x = per_year / YEAR * hours * HOUR
                exact = -math.expm1(-x) / x
                got = availability(model, hours * HOUR).availability
                assert abs(got - exact) <= 1e-15, (per_year, hours)


class TestTransient:
    def test_t_zero_returns_initial(self):
        chain = two_state(1.0, 2.0, start_up=0.7)
        assert np.array_equal(transient_distribution(chain, 0.0), chain.initial)

    def test_chain_without_transitions_stays_put(self):
        chain = build_ctmc([], {"a": 0.25, "b": 0.75})
        assert np.array_equal(transient_distribution(chain, 5.0), chain.initial)

    def test_pure_death_one_year(self):
        chain = pure_death(1.0 / YEAR)
        pi = transient_distribution(chain, YEAR)
        assert pi[0] == pytest.approx(EXP_MINUS_1, abs=1e-12)

    def test_two_state_closed_form_transient(self):
        # p_up(t) = pi + (1-pi) * exp(-(lam+rho) t) from an all-up start.
        lam, rho = 3.0 / YEAR, 1.0 / 900.0
        chain = two_state(lam, rho)
        pi_inf = rho / (lam + rho)
        for t in (25.0, 3600.0, 0.3 * YEAR, YEAR):
            expected = pi_inf + (1.0 - pi_inf) * math.exp(-(lam + rho) * t)
            got = transient_distribution(chain, t)[0]
            assert got == pytest.approx(expected, abs=1e-11)

    def test_matches_dense_expm_random_chains(self):
        rng = np.random.default_rng(2024)
        for _ in range(8):
            chain = random_generator_chain(rng, int(rng.integers(2, 15)))
            t = float(rng.uniform(0.1, 30.0))
            expected = chain.initial @ scipy.linalg.expm(chain.generator.toarray() * t)
            got = transient_distribution(chain, t)
            assert np.max(np.abs(got - expected)) <= 1e-10

    def test_normalized_and_nonnegative(self):
        rng = np.random.default_rng(5)
        for scale in (1e-6, 1.0, 1e4):
            chain = random_generator_chain(rng, 12, rate_scale=scale)
            for t in (1e-3, 1.0, 1e5):
                pi = transient_distribution(chain, t)
                assert pi.min() >= 0.0
                assert pi.sum() == pytest.approx(1.0, abs=1e-10)

    def test_converges_to_stationary(self):
        lam, rho = 0.5, 1.25
        chain = two_state(lam, rho)
        t = 50.0 / min(lam, rho)
        pi_t = transient_distribution(chain, t)
        stationary = np.array([rho, lam]) / (lam + rho)
        assert np.max(np.abs(pi_t - stationary)) <= 1e-8

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            transient_distribution(two_state(1.0, 1.0), -1.0)

    def test_stiff_rates_stay_normalized(self):
        # Rates spanning microseconds to a year in one chain.
        chain = build_ctmc(
            [("ok", "retry", 2.0 / YEAR), ("retry", "ok", 1.0 / 2.5e-6),
             ("ok", "down", 1.0 / YEAR), ("down", "ok", 1.0 / 21600.0)],
            {"ok": 1.0, "retry": 0.0, "down": 0.0})
        pi = transient_distribution(chain, YEAR)
        assert pi.sum() == pytest.approx(1.0, abs=1e-10)
        assert np.max(np.abs(pi - stationary_distribution(chain))) <= 1e-9


class TestCumulativeOccupancy:
    def test_pure_death_up_time(self):
        chain = pure_death(1.0 / YEAR)
        up = indicator_reward(chain, lambda s: s == "up")
        got = cumulative_occupancy(chain, up, YEAR) / YEAR
        assert got == pytest.approx(ONE_MINUS_EXP_MINUS_1, abs=1e-12)

    def test_all_ones_reward_integrates_to_horizon(self):
        rng = np.random.default_rng(11)
        for scale in (1e-5, 1.0, 4e5):
            chain = random_generator_chain(rng, 9, rate_scale=scale)
            ones = np.ones(chain.n)
            for horizon in (0.5, 1e3, YEAR):
                got = cumulative_occupancy(chain, ones, horizon)
                assert got == pytest.approx(horizon, rel=1e-10)

    def test_stationary_start_is_exact(self):
        lam = 12.0 / YEAR
        rho = 1.0 / 1800.0
        pi = rho / (lam + rho)
        chain = build_ctmc([("up", "down", lam), ("down", "up", rho)],
                           {"up": pi, "down": 1.0 - pi})
        up = indicator_reward(chain, lambda s: s == "up")
        got = cumulative_occupancy(chain, up, YEAR) / YEAR
        assert got == pytest.approx(pi, abs=1e-9)

    def test_two_state_up_start_closed_form(self):
        # Time-averaged availability from all-up start:
        #   pi + (1-pi) (1 - exp(-a T)) / (a T),  a = lam + rho.
        lam, rho = 12.0 / YEAR, 1.0 / 1800.0
        chain = two_state(lam, rho)
        a = lam + rho
        pi = rho / a
        expected = pi + (1.0 - pi) * (1.0 - math.exp(-a * YEAR)) / (a * YEAR)
        up = indicator_reward(chain, lambda s: s == "up")
        got = cumulative_occupancy(chain, up, YEAR) / YEAR
        assert got == pytest.approx(expected, abs=1e-11)

    def test_long_horizon_approaches_stationary(self):
        # The start-up transient decays like (1-pi)/(aT); check the average
        # lands within that envelope of the stationary value, and that a
        # slowly-switching chain at T = 1000/min-exit is inside 1e-6.
        lam, rho = 0.8, 2.0
        chain = two_state(lam, rho)
        horizon = 1000.0 / min(lam, rho)
        up = indicator_reward(chain, lambda s: s == "up")
        avg = cumulative_occupancy(chain, up, horizon) / horizon
        pi = rho / (lam + rho)
        envelope = (1.0 - pi) / ((lam + rho) * horizon)
        assert abs(avg - pi) <= envelope * 1.01 + 1e-9

        lam, rho = 0.002, 2.0
        chain = two_state(lam, rho)
        horizon = 1000.0 / min(lam, rho)
        up = indicator_reward(chain, lambda s: s == "up")
        avg = cumulative_occupancy(chain, up, horizon) / horizon
        assert avg == pytest.approx(rho / (lam + rho), abs=1e-6)

    def test_matches_quadrature_random_chain(self):
        rng = np.random.default_rng(77)
        chain = random_generator_chain(rng, 8)
        reward = rng.uniform(0.0, 1.0, size=8)
        horizon = 12.0
        ts, wts = np.polynomial.legendre.leggauss(60)
        ts = 0.5 * horizon * (ts + 1.0)
        q_dense = chain.generator.toarray()
        vals = [chain.initial @ scipy.linalg.expm(q_dense * t) @ reward for t in ts]
        expected = 0.5 * horizon * float(np.dot(wts, vals))
        got = cumulative_occupancy(chain, reward, horizon)
        assert got == pytest.approx(expected, rel=1e-9)

    def test_chain_without_transitions_accrues_its_start_reward(self):
        chain = build_ctmc([], {"a": 0.25, "b": 0.75})
        reward = np.array([1.0, 0.5])
        assert cumulative_occupancy(chain, reward, 8.0) == chain.initial @ reward * 8.0
        assert np.array_equal(occupancy_from_each_start(chain, reward, 8.0), reward * 8.0)

    def test_bad_horizon_rejected(self):
        chain = two_state(1.0, 1.0)
        with pytest.raises(ValueError):
            cumulative_occupancy(chain, np.ones(2), 0.0)

    def test_bad_reward_rejected(self):
        chain = two_state(1.0, 1.0)
        with pytest.raises(ValueError):
            cumulative_occupancy(chain, np.array([1.0, -0.5]), 1.0)
        with pytest.raises(ValueError):
            cumulative_occupancy(chain, np.ones(3), 1.0)


class TestOccupancyFromEachStart:
    def test_agrees_with_per_start_solves(self):
        rng = np.random.default_rng(99)
        chain = random_generator_chain(rng, 7)
        reward = rng.uniform(0.0, 1.0, size=7)
        horizon = 9.0
        vec = occupancy_from_each_start(chain, reward, horizon)
        for i, label in enumerate(chain.states):
            pinned = build_ctmc(
                [(a, b, r) for a, b, r in _transitions_of(chain)],
                {s: (1.0 if s == label else 0.0) for s in chain.states})
            expected = cumulative_occupancy(pinned, reward, horizon)
            assert vec[i] == pytest.approx(expected, rel=1e-9, abs=1e-12)

    def test_stiff_horizon(self):
        chain = build_ctmc(
            [("a", "b", 4e5), ("b", "a", 1.0), ("a", "c", 2.0 / YEAR),
             ("c", "a", 1.0 / 3600.0)],
            {"a": 1.0, "b": 0.0, "c": 0.0})
        ones = np.ones(3)
        vec = occupancy_from_each_start(chain, ones, YEAR)
        assert np.allclose(vec, YEAR, rtol=1e-9)


def pf_family(pool: int, recovery_s: float = 15.0, repair_per_h=None):
    """On-premises PF, num 15, 6 crashes/yr: the chain the planner solves."""
    repair = None if repair_per_h is None else repair_per_h / HOUR
    return build_availability_model(
        ClusterSpec("PF", "on-premises", num=15, pool=pool),
        AvailRates(6.0, 1.0 / recovery_s, repair))


class TestOccupancyKernel:
    """The two solver routes, the choice between them, and the old engine."""

    def test_route_reads_the_state_count(self):
        rng = np.random.default_rng(0)
        assert _route(random_generator_chain(rng, 128)) == "squaring"
        assert _route(random_generator_chain(rng, 129)) == "implicit"
        # On-premises ARA at 6 crashes/yr, base 10, 1000 extras: a sparse
        # pure death chain.
        ara = build_availability_model(
            ClusterSpec("ARA", "on-premises", num=10, op=1000),
            AvailRates(6.0, 1.0 / 15.0)).ctmc
        assert ara.n == 1011 and _route(ara) == "implicit"
        node = build_availability_model(
            ClusterSpec("PF", "cloud", num=1), AvailRates(6.0, 1.0 / 1800.0)).ctmc
        assert node.n == 2 and _route(node) == "squaring"
        pf = pf_family(64).ctmc
        assert pf.n == 1040 and _route(pf) == "implicit"

    # 65-128 states: squaring's base step multiplies by a dense P there too.
    @pytest.mark.parametrize("n", [2, 9, 30, 65, 80, 100, 128, 150, 300])
    def test_implicit_and_squaring_routes_agree(self, n):
        rng = np.random.default_rng(n)
        chain = random_generator_chain(rng, n)
        reward = rng.uniform(0.0, 1.0, size=n)
        q = 1.02 * float(chain.exit_rates.max())
        for qt in (50.0, 700.0, 3000.0, 1e6):
            t = qt / q
            squaring = _propagator(chain, q, t, reward)
            implicit = _implicit_occupancy(chain, reward, t, 1e-10, qt)
            complement = reward.max() * t - squaring
            assert np.max(np.abs(implicit - squaring) / complement) <= 1e-9
            pi_squaring = chain.initial @ _propagator(chain, q, t)
            pi_implicit = _radau(chain.generator.T, chain.initial, t, 1e-10, qt, 1.0)
            assert np.max(np.abs(pi_implicit - pi_squaring)) <= 1e-10

    def test_cumulative_is_initial_times_each_start(self):
        rng = np.random.default_rng(3)
        for n, rate_scale in ((6, 1.0), (40, 1e4)):
            chain = random_generator_chain(rng, n, rate_scale)
            initial = rng.dirichlet(np.ones(n))
            chain = dataclasses.replace(chain, initial=initial)
            reward = rng.uniform(0.0, 1.0, size=n)
            for horizon in (3.0, 1e3):
                assert cumulative_occupancy(chain, reward, horizon) == float(
                    chain.initial @ occupancy_from_each_start(chain, reward, horizon))

    # Downtime shares 1 - occupancy/T of the repeated-squaring engine that
    # used a dense occupancy matrix and switched routes at q*t = 4096.
    # On-premises PF, num 15, 6 crashes/yr, 2700 h, from (15, extra):
    OLD_PF_DOWNTIME = {
        (16, 15): (0.9639259259259588, 0.6753453907114462, 0.38761258285986044),
        (16, 60): (0.9639259259259588, 0.6753799545243534, 0.38768171236544235),
        (16, 1800): (0.9639259259259588, 0.676712659442275, 0.39034756100171597),
        (32, 15): (0.9639259259259588, 0.38761258285986033, 0.01706615226763153),
        (32, 60): (0.9639259259259588, 0.38768171236544235, 0.017189674314248338),
        (32, 1800): (0.9639259259259588, 0.39034756100171597, 0.02195250633023027),
    }
    # On-premises ARA, num 10, 1000 extras, 6 crashes/yr, one year, from
    # 10 + extra live nodes for extra = 0, 500, 1000.
    OLD_ARA_DOWNTIME = (0.9833333333333333, 0.33606031445451623, 0.22226434670327488)

    # Downtime shares of dense repeated squaring, before the implicit
    # route took over chains of this size; same family, horizon and starts.
    SQUARING_PF_DOWNTIME = {
        (64, 15): (0.9639259259259588, 0.017066152267630752, 4.277790552198457e-05),
        (64, 60): (0.9639259259259588, 0.01718967431424756, 0.00017109903173939678),
        (64, 1800): (0.9639259259259588, 0.02195250633023027, 0.005118496206695244),
        (128, 15): (0.9639259259259588, 4.277790552154048e-05, 4.277787652984255e-05),
        (128, 60): (0.9639259259259588, 0.00017109903173917473, 0.00017109900277922918),
        (128, 1800): (0.96392592592596, 0.0051184962068349105, 0.005118496179201015),
    }

    @staticmethod
    def pf_family_downtime(pool, recovery_s):
        model = pf_family(pool, recovery_s)
        horizon = 2700 * HOUR
        occ = occupancy_from_each_start(model.ctmc, model.up_reward, horizon)
        assert model.ctmc.n == 16 * (pool + 1)
        return [1.0 - occ[model.ctmc.index_of((15, extra))] / horizon
                for extra in (0, pool // 2, pool)]

    @pytest.mark.parametrize("pool, recovery_s", sorted(OLD_PF_DOWNTIME))
    def test_pf_family_matches_old_engine(self, pool, recovery_s):
        got = self.pf_family_downtime(pool, recovery_s)
        assert got == pytest.approx(self.OLD_PF_DOWNTIME[pool, recovery_s], rel=1e-8)

    @pytest.mark.parametrize("pool, recovery_s", sorted(SQUARING_PF_DOWNTIME))
    def test_large_pf_family_matches_squaring(self, pool, recovery_s):
        got = self.pf_family_downtime(pool, recovery_s)
        assert got == pytest.approx(self.SQUARING_PF_DOWNTIME[pool, recovery_s], rel=1e-8)

    def test_ara_family_matches_old_engine(self):
        model = build_availability_model(
            ClusterSpec("ARA", "on-premises", num=10, op=1000),
            AvailRates(6.0, 1.0 / 15.0))
        occ = occupancy_from_each_start(model.ctmc, model.up_reward, YEAR)
        got = [1.0 - occ[model.ctmc.index_of(10 + extra)] / YEAR
               for extra in (0, 500, 1000)]
        assert got == pytest.approx(self.OLD_ARA_DOWNTIME, rel=1e-8)

    def test_squaring_refuses_chains_beyond_physical_memory(self):
        # A 200,000-state birth-death chain at q*t ~ 1e15: the implicit
        # route's LU factors may fill to dense arrays of about 1 TB.  It
        # must be refused before anything that size is allocated.
        n = 200_000
        physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        assert 3 * 8 * n * n > physical
        rows = np.concatenate([np.arange(n - 1), np.arange(1, n)])
        cols = np.concatenate([np.arange(1, n), np.arange(n - 1)])
        initial = np.zeros(n)
        initial[0] = 1.0
        chain = Ctmc(tuple(range(n)), rows, cols, np.ones(2 * (n - 1)), initial)
        horizon = 1e15 / (1.02 * 2.0)
        tracemalloc.start()
        try:
            for solve in (lambda: occupancy_from_each_start(chain, initial, horizon),
                          lambda: transient_distribution(chain, horizon)):
                with pytest.raises(ValueError, match=r"200000-state.*GB.*search_cap"):
                    solve()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64e6


class TestImplicitRoute:
    """Radau IIA: its constants, its failure mode and its output ranges."""

    def test_poles_and_residues_match_the_pade_denominator(self):
        # R(x) = (60 + 24x + 3x^2) / (60 - 36x + 9x^2 - x^3)
        def numerator(x):
            return 60.0 + 24.0 * x + 3.0 * x * x

        def denominator(x):
            return 60.0 - 36.0 * x + 9.0 * x * x - x ** 3

        roots = np.roots([-1.0, 9.0, -36.0, 60.0])
        real = roots[np.abs(roots.imag) < 1e-9].real
        upper = roots[roots.imag > 1e-9]
        assert len(real) == 1 and len(upper) == 1
        assert _RADAU_REAL_POLE == pytest.approx(real[0], rel=1e-14)
        assert _RADAU_COMPLEX_POLE == pytest.approx(upper[0], rel=1e-14)
        for pole, residue in ((_RADAU_REAL_POLE, _RADAU_REAL_RESIDUE),
                              (_RADAU_COMPLEX_POLE, _RADAU_COMPLEX_RESIDUE)):
            slope = -36.0 + 18.0 * pole - 3.0 * pole * pole
            assert residue == pytest.approx(numerator(pole) / slope, rel=1e-13)
        for x in (0.0, -0.5, -3.0, -1e3, 2.0j, -1.0 + 40.0j):
            fractions = (_RADAU_REAL_RESIDUE / (x - _RADAU_REAL_POLE)
                         + _RADAU_COMPLEX_RESIDUE / (x - _RADAU_COMPLEX_POLE)
                         + np.conj(_RADAU_COMPLEX_RESIDUE)
                         / (x - np.conj(_RADAU_COMPLEX_POLE)))
            assert fractions == pytest.approx(numerator(x) / denominator(x),
                                              rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("tol", [1e-6, 1e-8])
    def test_tol_bounds_every_start_relative_to_its_complement(self, tol):
        # The complements (expected downtimes) span 0.96 to 4.3e-5 of the
        # horizon; tol must hold for each start, not just the largest.
        model = pf_family(64)
        horizon = 2700 * HOUR
        reference = horizon - occupancy_from_each_start(
            model.ctmc, model.up_reward, horizon)
        q = 1.02 * float(model.ctmc.exit_rates.max())
        loose = horizon - _implicit_occupancy(
            model.ctmc, model.up_reward, horizon, tol, q * horizon)
        assert np.max(np.abs(loose - reference) / reference) <= tol

    @pytest.mark.parametrize("horizon", [1e4, 1e6])
    def test_start_absorbing_at_the_top_reward_converges(self, horizon):
        # State 399 is absorbing and carries max(reward), so its complement
        # is exactly zero; the LU solves leave about 1e-10 of noise there,
        # which no step count brings within tol of zero relative to itself.
        n = 400
        transitions = [(i, i + 1, 1.0 + 0.01 * i) for i in range(n - 1)]
        transitions += [(i, i - 1, 0.5) for i in range(1, n - 1)]
        chain = build_ctmc(transitions, {i: float(i == 0) for i in range(n)})
        reward = np.zeros(n)
        reward[-1] = 1.0
        q = 1.02 * float(chain.exit_rates.max())
        squaring = _propagator(chain, q, horizon, reward)
        implicit = _implicit_occupancy(chain, reward, horizon, 1e-10, q * horizon)
        assert implicit == pytest.approx(squaring, rel=1e-12)
        assert _route(chain) == "implicit"
        assert cumulative_occupancy(chain, reward, horizon) == pytest.approx(
            squaring[0], rel=1e-12)

    def test_tiny_complements_meet_the_rounding_floor(self):
        # On-premises ARA, 10 needed of up to 350 nodes, 2 crashes/yr over a
        # year: the starts below hold 230 to 320 spares, and their downtime
        # shares run from 5.6e-9 down to 1.3e-13, beneath what 1e-10 of
        # each can resolve through the LU rounding.  Each is checked against
        # quadrature of P(Bin(10 + extra, e^{-lam s}) < 10) over [0, T],
        # within 1e-10 of itself or the floor n * eps of the horizon.
        lam = 2.0 / YEAR
        model = build_availability_model(
            ClusterSpec("ARA", "on-premises", num=10, op=340), AvailRates(2.0, 1.0 / 15.0))
        chain = model.ctmc
        assert chain.n == 351 and _route(chain) == "implicit"
        occ = occupancy_from_each_start(chain, model.up_reward, YEAR)
        floor = chain.n * np.finfo(float).eps
        for extra in (230, 250, 265, 280, 300, 320):
            exact, _ = scipy.integrate.quad(
                lambda s: scipy.stats.binom.cdf(9, 10 + extra, math.exp(-lam * s)),
                0.0, YEAR, epsabs=0.0, epsrel=1e-12, limit=400)
            exact /= YEAR
            got = (YEAR - occ[chain.index_of(10 + extra)]) / YEAR
            assert abs(got - exact) <= max(1e-10 * exact, floor), extra

    @pytest.mark.parametrize("variant, per_month, hours",
                             [("ft_ilr", 10, 8766), ("ft_ilr", 100, 720), ("ft_tx", 100, 8766)])
    def test_absorbing_crash_of_the_integrity_chain_converges(self, variant, per_month,
                                                              hours):
        # On premises the Crash state is absorbing and carries the down
        # reward.  Squaring serves these 3- and 4-state chains, but the
        # implicit route must not fail on them either: here a run of the
        # complement from Crash came out exactly 0 and the other not.
        rates = derive_integrity_rates(per_month / MONTH, NODE_VARIANTS[variant].split,
                                       None)
        chain = build_integrity_model(rates)
        down = indicator_reward(chain, lambda s: s in ("Crash", "Retry"))
        horizon = hours * HOUR
        q = 1.02 * float(chain.exit_rates.max())
        squaring = _propagator(chain, q, horizon, down)
        implicit = _implicit_occupancy(chain, down, horizon, 1e-10, q * horizon)
        assert implicit == pytest.approx(squaring, rel=1e-10)

    def test_unconverged_solve_raises(self, monkeypatch):
        model = pf_family(64)
        monkeypatch.setattr(ctmc_module, "_IMPLICIT_MAX_STEPS", 32)
        with pytest.raises(ArithmeticError,
                           match=r"1040-state chain at q\*t = 9\.91e\+06.*"
                                 r"estimate \d\.\d+e-\d+ after 32 steps"):
            occupancy_from_each_start(model.ctmc, model.up_reward, 2700 * HOUR)

    def test_transient_clips_negatives_and_renormalises(self):
        # With pool repair the chain is cyclic; the stepper leaves
        # hundreds of probabilities a hair below zero.
        chain = pf_family(32, repair_per_h=1.0).ctmc
        qt = 1.02 * float(chain.exit_rates.max()) * YEAR
        assert chain.n == 648 and _route(chain) == "implicit"
        raw = _radau(chain.generator.T, chain.initial, YEAR, 1e-10, qt, 1.0)
        assert raw.min() < 0.0
        pi = transient_distribution(chain, YEAR)
        assert pi.min() >= 0.0
        assert pi.sum() == pytest.approx(1.0, abs=1e-15)
        assert np.max(np.abs(pi - raw)) <= 1e-12

    def test_occupancy_is_clipped_to_the_reward_range(self, monkeypatch):
        model = pf_family(64)
        chain, up = model.ctmc, model.up_reward
        horizon = 2700 * HOUR
        complement = np.linspace(-1.0, horizon + 1.0, chain.n)
        monkeypatch.setattr(ctmc_module, "_radau", lambda *args: complement)
        occ = occupancy_from_each_start(chain, up, horizon)
        assert occ.min() == 0.0 and occ.max() == horizon
        inside = (complement >= 0.0) & (complement <= horizon)
        assert np.array_equal(occ[inside], horizon - complement[inside])


def _transitions_of(chain):
    coo = chain.generator.tocoo()
    return [(chain.states[i], chain.states[j], v)
            for i, j, v in zip(coo.row, coo.col, coo.data) if i != j and v > 0]
