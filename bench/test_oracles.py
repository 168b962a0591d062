"""Each oracle in ``oracles.py`` checked against a second, independent one.

Run with ``python3 -m pytest bench/test_oracles.py``.  Nothing here
imports pcraft: closed forms are checked against the Van Loan block on
the same model, and the Van Loan block against a stiff ODE solve of the
backward equation ``v' = r + Q v``.
"""

import math

import numpy as np
import pytest
from scipy import integrate, stats

import oracles as o

HORIZONS = (3600.0, 30 * 24 * 3600.0, o.YEAR)
# Two oracles must agree far more closely than pcraft is asked to (o.TOL).
AGREE = 1e-11


def ode_average(q, reward, horizon, start):
    """(1/T) int_0^T [exp(Q s) r]_start ds by Radau on v' = r + Q v."""
    sol = integrate.solve_ivp(lambda _, v: reward + q @ v, (0.0, horizon),
                              np.zeros(len(reward)), method="Radau",
                              jac=q, rtol=1e-11, atol=1e-12 * horizon)
    assert sol.success
    return sol.y[start, -1] / horizon


@pytest.mark.parametrize("horizon", HORIZONS)
@pytest.mark.parametrize("num,lam_per_year,recovery_s",
                         [(1, 1.0, 15.0), (3, 6.0, 1800.0), (10, 12.0, 60.0)])
def test_cloud_pf_series_matches_quadrature_and_van_loan(num, lam_per_year,
                                                         recovery_s, horizon):
    lam, rho = lam_per_year / o.YEAR, 1.0 / recovery_s
    series = o.cloud_pf_availability(num, lam, rho, horizon)
    assert series == pytest.approx(o.cloud_ara_availability(num, 0, lam, rho, horizon),
                                   abs=AGREE)
    q = o.count_chain(num, lam, rho)
    up = np.zeros(num + 1)
    up[num] = 1.0
    assert series == pytest.approx(o.van_loan_average(q, up, horizon)[num],
                                   abs=AGREE)


@pytest.mark.parametrize("num,op,lam_per_year,recovery_s",
                         [(2, 1, 6.0, 1800.0), (5, 2, 12.0, 3600.0), (10, 1, 6.0, 60.0)])
def test_cloud_ara_matches_van_loan(num, op, lam_per_year, recovery_s):
    lam, rho = lam_per_year / o.YEAR, 1.0 / recovery_s
    q = o.count_chain(num + op, lam, rho)
    up = (np.arange(num + op + 1) >= num).astype(float)
    expected = o.van_loan_average(q, up, o.YEAR)[num + op]
    assert o.cloud_ara_availability(num, op, lam, rho, o.YEAR) == pytest.approx(
        expected, abs=AGREE)


@pytest.mark.parametrize("num,op,lam_per_year", [(1, 0, 1.0), (3, 4, 6.0), (10, 30, 1.0)])
def test_onprem_ara_matches_van_loan(num, op, lam_per_year):
    lam = lam_per_year / o.YEAR
    q = o.count_chain(num + op, lam, None)
    up = (np.arange(num + op + 1) >= num).astype(float)
    expected = o.van_loan_average(q, up, o.YEAR)[num + op]
    assert o.onprem_ara_availability(num, op, lam, o.YEAR) == pytest.approx(
        expected, abs=AGREE)


@pytest.mark.parametrize("num,lam_per_year", [(1, 1.0), (4, 12.0), (20, 6.0)])
def test_onprem_pf_pool0_matches_van_loan(num, lam_per_year):
    lam = lam_per_year / o.YEAR
    index, q, up = o.onprem_pf_chain(num, 0, lam, 1.0 / 15.0)
    expected = o.van_loan_average(q, up, o.YEAR)[index[(num, 0)]]
    assert o.onprem_pf_pool0_availability(num, lam, o.YEAR) == pytest.approx(
        expected, abs=AGREE)


@pytest.mark.parametrize("repair", [None, 1.0 / 3600.0])
def test_onprem_pf_van_loan_matches_ode(repair):
    lam, rho = 6.0 / o.YEAR, 1.0 / 60.0
    pools = o.onprem_pf_availability(3, [0, 1, 2], lam, rho, o.YEAR, repair)
    for pool, value in pools.items():
        index, q, up = o.onprem_pf_chain(3, pool, lam, rho, repair)
        assert value == pytest.approx(
            ode_average(q, up, o.YEAR, index[(3, pool)]), abs=AGREE)


def test_onprem_pf_family_reads_smaller_pools_off_the_largest_chain():
    lam, rho = 6.0 / o.YEAR, 1.0 / 15.0
    family = o.onprem_pf_availability(4, [1, 3, 5], lam, rho, o.YEAR)
    for pool in (1, 3):
        alone = o.onprem_pf_availability(4, [pool], lam, rho, o.YEAR)
        assert family[pool] == pytest.approx(alone[pool], abs=AGREE)
    assert family[1] < family[3] < family[5]


@pytest.mark.parametrize("variant", sorted(o.TRANSIENT_SPLITS))
@pytest.mark.parametrize("crash_recovery_s", [15.0, None])
def test_integrity_van_loan_matches_ode(variant, crash_recovery_s):
    rate = 30.4375 / o.MONTH
    split = o.TRANSIENT_SPLITS[variant]
    correct, corrupt, down = o.integrity_shares(rate, split, crash_recovery_s,
                                                o.MONTH, retry_s=1e-3)
    _, q = o.integrity_chain(rate, split, crash_recovery_s, 6 * o.HOUR, 1e-3)
    assert correct + corrupt + down == pytest.approx(1.0, abs=1e-12)
    assert corrupt == pytest.approx(
        ode_average(q, np.array([0.0, 1.0, 0.0, 0.0]), o.MONTH, 0), abs=AGREE)
    assert down == pytest.approx(
        ode_average(q, np.array([0.0, 0.0, 1.0, 1.0]), o.MONTH, 0), abs=AGREE)
    assert corrupt < rate * split[0] * 6 * o.HOUR


def test_integrity_two_state_closed_form():
    # Only corruption and its repair: a two-state chain with a closed form.
    lam, mu, horizon = 1.0 / o.MONTH, 1.0 / (6 * o.HOUR), o.MONTH
    correct, corrupt, down = o.integrity_shares(lam, (1.0, 0.0, 0.0), None, horizon)
    c = lam + mu
    closed = lam / c - lam / c * -math.expm1(-c * horizon) / (c * horizon)
    assert corrupt == pytest.approx(closed, abs=AGREE)
    assert down == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("nodes,lam_per_year,recovery_s", [(1, 6.0, 1800.0), (12, 1.0, 15.0)])
def test_cloud_jumps_match_van_loan(nodes, lam_per_year, recovery_s):
    lam, rho = lam_per_year / o.YEAR, 1.0 / recovery_s
    q = o.count_chain(nodes, lam, rho)
    assert o.cloud_expected_jumps(nodes, lam, rho, o.YEAR) == pytest.approx(
        o.expected_jumps(q, o.YEAR)[nodes], rel=1e-8)


def test_onprem_ara_jumps_match_van_loan():
    lam = 6.0 / o.YEAR
    q = o.count_chain(40, lam, None)
    assert o.onprem_ara_expected_jumps(40, lam, o.YEAR) == pytest.approx(
        o.expected_jumps(q, o.YEAR)[40], rel=1e-8)


def test_expected_jumps_of_a_poisson_clock():
    # Two states swapping at rate 3 in both directions: 3 T jumps exactly.
    q = np.array([[-3.0, 3.0], [3.0, -3.0]])
    assert o.expected_jumps(q, 5.0) == pytest.approx([15.0, 15.0], rel=1e-12)


@pytest.mark.parametrize("chains", [10, 30, 60, 200])
def test_allowed_misses_is_the_binomial_tail(chains):
    k = o.allowed_misses(chains)
    assert stats.binom.sf(k, chains, 0.01) <= 1e-3
    assert k == 0 or stats.binom.sf(k - 1, chains, 0.01) > 1e-3
    # Direct sum over the pmf, without scipy's survival function.
    tail = sum(math.comb(chains, j) * 0.01 ** j * 0.99 ** (chains - j)
               for j in range(k + 1, chains + 1))
    assert tail <= 1e-3


def test_base_nodes():
    assert [o.base_nodes(10.0, r) for r in o.THROUGHPUT_RATIOS.values()] == [10, 11, 15]
