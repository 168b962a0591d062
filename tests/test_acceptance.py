"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints a single ``criterion NN <label>: PASS/FAIL`` line (run
pytest with ``-s`` to see the lines for passing tests too) and then
asserts, so ``pytest -v`` shows one verdict per criterion either way.

Check 08 holds the single-node corrupt-time share to bands.  The
first-order rate*corrupt-fraction*repair-time product is a strict upper
bound on the exact share: corruptions only start from Correct, so the
expected corrupt time is at most rate*p*tau*E[time in Correct], which
is less than rate*p*tau*T.  A corrupt-share floor therefore may not sit
at that product; see ``CORRUPT_BANDS``.
"""

import time

import numpy as np

from pcraft.availability import (
    ARA,
    CLOUD,
    ON_PREMISES,
    PF,
    AvailRates,
    ClusterSpec,
    availability,
    build_availability_model,
)
from pcraft.ctmc import (
    build_ctmc,
    cumulative_occupancy,
    indicator_reward,
    transient_distribution,
)
from pcraft.integrity import (
    build_integrity_model,
    derive_integrity_rates,
    integrity_breakdown,
)
from pcraft.planner import PlanRequest, plan_capacity, required_base_nodes
from pcraft.simulate import simulate_ctmc
from pcraft.units import HOUR, MONTH, YEAR
from pcraft.variants import NODE_VARIANTS
from reference import stationary_distribution

TARGET_NINES = 3.0
TARGET = 1.0 - 10.0 ** -TARGET_NINES
VARIANTS = ("native", "ft_ilr", "ft_tx")
BASES = {"native": 10, "ft_ilr": 11, "ft_tx": 15}

# Reference planning tables the tool must reproduce, or deviate from
# only with a documented simulation arbitration (see checks 05-07).
REFERENCE_CLOUD_EXTRAS = {
    (rate, recovery): (1 if (rate, recovery) == (6.0, 1800.0) else 0)
    for rate in (1.0, 6.0) for recovery in (15.0, 60.0, 1800.0)
}
REFERENCE_ONPREM_POOLS = {  # variant -> {crash rate -> no-repair pool}; None = infeasible
    "native": {1.0: 18, 6.0: 30},
    "ft_ilr": {1.0: 19, 6.0: 33},
    "ft_tx": {1.0: 24, 6.0: 42},
}
REFERENCE_ONPREM_ARA = {
    "native": {1.0: 35, 6.0: 113},
    "ft_ilr": {1.0: 37, 6.0: 121},
    "ft_tx": {1.0: 46, 6.0: 152},
}

# Acceptance bands for the corrupt time share, in percent of a month.
# The two ft_ilr floors are the first-order product rate * 0.008 * 6 h
# rounded to one significant figure: 1/month gives 0.00657% -> 0.007,
# 30.4375/month gives 0.2000% -> 0.2.  That product is an upper bound on
# the exact share (module docstring), and the model sits just below it
# (0.006516% and 0.19794% over a month, 0.19957% at steady state for the
# daily rate), so each floor is discounted by 10%.
CORRUPT_BANDS = {
    1.0: {"native": (0.2, 5.5), "ft_ilr": (0.007 * 0.9, 0.18),
          "ft_tx": (0.0026, 0.07)},
    30.4375: {"native": (6.0, 58.0), "ft_ilr": (0.2 * 0.9, 4.3),
              "ft_tx": (0.07, 1.67)},
}
CORRUPT_POINT_CHECKS = (  # (rate/month, variant, expected %, tolerance pp)
    (1.0, "native", 0.21, 0.05),
    (30.4375, "ft_tx", 0.29, 0.10),
)


def verdict(number: int, label: str, ok: bool, detail: str = "") -> bool:
    line = f"criterion {number:02d} {label}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line, flush=True)
    return ok


def plan(technique, variant, crashes, recovery_s, repair_per_h=None,
         cap=1000):
    rates = AvailRates(crashes, 1.0 / recovery_s,
                       None if repair_per_h is None else repair_per_h / HOUR)
    request = PlanRequest(
        technique=technique,
        deployment=ON_PREMISES,
        node_variant=variant,
        sert_multiplier=10.0,
        target_nines=TARGET_NINES,
        horizon_s=YEAR,
        rates=rates,
        search_cap=cap,
    )
    return plan_capacity(request)


def plan_cloud(variant, crashes, recovery_s):
    request = PlanRequest(
        technique=ARA,
        deployment=CLOUD,
        node_variant=variant,
        sert_multiplier=10.0,
        target_nines=TARGET_NINES,
        horizon_s=YEAR,
        rates=AvailRates(crashes, 1.0 / recovery_s),
        search_cap=64,
    )
    return plan_capacity(request)


def simulate_cluster(spec, rates, replications, seed):
    model = build_availability_model(spec, rates)
    return simulate_ctmc(model.ctmc, model.up_reward, YEAR, replications, seed)


def test_01_interval_availability_matches_steady_state():
    start = time.perf_counter()
    worst = 0.0
    for crashes in range(1, 13):
        lam = crashes / YEAR
        for recovery_s in (15.0, 60.0, 1800.0):
            rho = 1.0 / recovery_s
            closed_form = rho / (lam + rho)
            edges = [("up", "down", lam), ("down", "up", rho)]
            chain = build_ctmc(edges, {"up": 1.0, "down": 0.0})
            pi = stationary_distribution(chain)
            up = chain.index_of("up")
            # The long-run share only equals the interval average when the
            # chain starts from its stationary law.
            stationary = build_ctmc(
                edges, {"up": pi[up], "down": pi[chain.index_of("down")]})
            reward = indicator_reward(stationary, lambda s: s == "up")
            average = cumulative_occupancy(stationary, reward, YEAR) / YEAR
            worst = max(worst, abs(pi[up] - closed_form),
                        abs(average - closed_form))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and elapsed < 1.0
    assert verdict(1, "two-state interval availability vs steady state", ok,
                   f"max deviation {worst:.2e}, {elapsed:.2f}s"), worst


def test_02_single_node_availability():
    start = time.perf_counter()
    floors_hold = True
    for recovery_s, floor in ((15.0, 5.0), (1800.0, 3.0)):
        for crashes in range(1, 13):
            model = build_availability_model(
                ClusterSpec(PF, CLOUD, num=1),
                AvailRates(crashes, 1.0 / recovery_s))
            floors_hold &= availability(model, YEAR).nines >= floor
    onprem = build_availability_model(
        ClusterSpec(PF, ON_PREMISES, num=1, pool=0), AvailRates(1.0, 1.0 / 15.0))
    single = availability(onprem, YEAR).availability
    elapsed = time.perf_counter() - start
    ok = floors_hold and abs(single - 0.6321) < 1e-4 and elapsed < 5.0
    assert verdict(2, "single-node availability floors", ok,
                   f"on-prem single {single:.5f}, {elapsed:.2f}s")


def test_03_ten_node_cluster_availability():
    model = build_availability_model(
        ClusterSpec(PF, ON_PREMISES, num=10, pool=0), AvailRates(1.0, 1.0 / 15.0))
    value = availability(model, YEAR).availability
    ok = abs(value - 0.100) < 0.002
    assert verdict(3, "ten-node no-spare cluster availability", ok,
                   f"{value:.5f}")


def test_04_base_cluster_sizes():
    sizes = {v: required_base_nodes(10.0, r)
             for v, r in (("native", 1.0), ("ft_ilr", 0.92), ("ft_tx", 0.71))}
    ok = sizes == BASES
    assert verdict(4, "base cluster sizes from throughput ratios", ok,
                   f"{sizes}")


def test_05_cloud_extras_grid():
    start = time.perf_counter()
    failures = []
    arbitrated = []
    for variant in VARIANTS:
        for (rate, recovery), expected in REFERENCE_CLOUD_EXTRAS.items():
            result = plan_cloud(variant, rate, recovery)
            if result.extra == expected and result.feasible:
                continue
            if abs(result.extra - expected) > 1 or not result.feasible:
                failures.append((variant, rate, recovery, result.extra))
                continue
            # Within one node of the reference: accept iff simulation
            # confirms our analytic availability at our chosen count.
            spec = ClusterSpec(ARA, CLOUD, num=result.base, op=result.extra)
            est = simulate_cluster(spec, AvailRates(rate, 1.0 / recovery),
                                   3000, seed=51)
            if est.covers(result.availability):
                arbitrated.append((variant, rate, recovery, result.extra))
            else:
                failures.append((variant, rate, recovery, result.extra))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60.0
    detail = f"18 cells, {len(arbitrated)} arbitrated, {elapsed:.1f}s"
    assert verdict(5, "cloud extra-node grid", ok,
                   detail if ok else f"{detail}; mismatches {failures}")


def test_06_onprem_standby_pool_table():
    start = time.perf_counter()
    problems = []
    arbitrated = []
    for variant in VARIANTS:
        for rate in (1.0, 6.0):
            reference = REFERENCE_ONPREM_POOLS[variant][rate]
            for recovery in (15.0, 60.0, 1800.0):
                reference_cell = None if rate == 6.0 and recovery == 1800.0 else reference

                repaired = plan(PF, variant, rate, recovery, repair_per_h=1.0)
                if reference_cell is None:
                    if repaired.feasible and repaired.extra <= 1:
                        problems.append(
                            (variant, rate, recovery, "repair", repaired.extra))
                elif not (repaired.feasible and repaired.extra == 1):
                    problems.append(
                        (variant, rate, recovery, "repair", repaired.extra))

                bare = plan(PF, variant, rate, recovery)
                if reference_cell is None:
                    if bare.feasible:
                        problems.append(
                            (variant, rate, recovery, "no-repair", bare.extra))
                    continue
                if bare.feasible and abs(bare.extra - reference_cell) <= 3:
                    continue
                # Out of tolerance: simulation arbitrates.  The reference
                # pool must fail the target under this model, and our pool
                # must be consistent with our analytic availability.
                rates = AvailRates(rate, 1.0 / recovery)
                at_reference = simulate_cluster(
                    ClusterSpec(PF, ON_PREMISES, num=bare.base,
                                pool=reference_cell), rates, 2000, seed=61)
                consistent = True
                if bare.feasible:
                    at_ours = simulate_cluster(
                        ClusterSpec(PF, ON_PREMISES, num=bare.base,
                                    pool=bare.extra), rates, 2000, seed=61)
                    consistent = at_ours.covers(bare.availability)
                if at_reference.high < TARGET and consistent:
                    arbitrated.append(
                        (variant, rate, recovery, bare.extra, reference_cell,
                         round(at_reference.high, 4)))
                else:
                    problems.append(
                        (variant, rate, recovery, "no-repair", bare.extra,
                         f"reference sim hi {at_reference.high:.4f}"))
    elapsed = time.perf_counter() - start
    ok = not problems and elapsed < 600.0
    detail = f"36 cells, {len(arbitrated)} arbitrated, {elapsed:.0f}s"
    assert verdict(6, "on-prem standby pool table", ok,
                   detail if ok else f"{detail}; problems {problems}"), problems


def test_07_onprem_active_extras_table():
    start = time.perf_counter()
    problems = []
    arbitrated = []
    for variant in VARIANTS:
        for rate, tolerance in ((1.0, 3), (6.0, 5)):
            reference = REFERENCE_ONPREM_ARA[variant][rate]
            result = plan(ARA, variant, rate, 15.0)
            if result.feasible and abs(result.extra - reference) <= tolerance:
                continue
            # Deviations are arbitrated by simulating the reference count.
            at_reference = simulate_cluster(
                ClusterSpec(ARA, ON_PREMISES, num=result.base, op=reference),
                AvailRates(rate, 1.0 / 15.0), 2000, seed=71)
            consistent = True
            if result.feasible:
                at_ours = simulate_cluster(
                    ClusterSpec(ARA, ON_PREMISES, num=result.base,
                                op=result.extra),
                    AvailRates(rate, 1.0 / 15.0), 2000, seed=71)
                consistent = at_ours.covers(result.availability)
            if at_reference.high < TARGET and consistent:
                arbitrated.append((variant, rate, reference,
                                   round(at_reference.high, 4)))
            else:
                problems.append((variant, rate, result.extra, reference,
                                 f"reference sim hi {at_reference.high:.4f}"))
    elapsed = time.perf_counter() - start
    ok = not problems and elapsed < 600.0
    detail = f"6 cells, {len(arbitrated)} arbitrated, {elapsed:.0f}s"
    assert verdict(7, "on-prem active-extras table", ok,
                   detail if ok else f"{detail}; problems {problems}"), problems


def test_08_integrity_corrupt_share_bands():
    rows = []
    out_of_band = []
    for rate_per_month, bands in CORRUPT_BANDS.items():
        for variant in VARIANTS:
            rates = derive_integrity_rates(
                rate_per_month / MONTH, NODE_VARIANTS[variant].split,
                crash_recovery_s=15.0)
            report = integrity_breakdown(build_integrity_model(rates), MONTH)
            percent = report.corrupt * 100.0
            low, high = bands[variant]
            rows.append(f"{variant}@{rate_per_month}/mo: {percent:.5f}% "
                        f"(band [{low}, {high}])")
            if not low <= percent <= high:
                out_of_band.append(rows[-1])
    point_misses = []
    for rate_per_month, variant, expected, tol in CORRUPT_POINT_CHECKS:
        rates = derive_integrity_rates(
            rate_per_month / MONTH, NODE_VARIANTS[variant].split,
            crash_recovery_s=15.0)
        report = integrity_breakdown(build_integrity_model(rates), MONTH)
        percent = report.corrupt * 100.0
        if abs(percent - expected) > tol:
            point_misses.append(f"{variant}@{rate_per_month}/mo: {percent:.5f}%"
                                f" vs {expected}+/-{tol}")
    ok = not out_of_band and not point_misses
    assert verdict(8, "integrity corrupt-share bands", ok,
                   "; ".join(out_of_band + point_misses) or "all in band"), \
        "\n".join(rows)


def test_09_analytic_inside_simulation_intervals():
    start = time.perf_counter()
    rng = np.random.default_rng(20260901)
    covered = 0
    for k in range(20):
        n = int(rng.integers(2, 51))
        edges = {}
        for i in range(n):  # ring keeps the chain irreducible
            edges[(i, (i + 1) % n)] = float(rng.uniform(0.5, 1.5))
        for _ in range(2 * n):
            i, j = rng.integers(0, n, size=2)
            if i != j:
                edges[(int(i), int(j))] = float(rng.uniform(0.5, 1.5))
        chain = build_ctmc([(i, j, r) for (i, j), r in edges.items()],
                           {i: (1.0 if i == 0 else 0.0) for i in range(n)})
        reward = rng.random(n)
        horizon = 15.0
        analytic = cumulative_occupancy(chain, reward, horizon) / horizon
        estimate = simulate_ctmc(chain, reward, horizon, 10_000, seed=k)
        covered += estimate.covers(analytic)
    elapsed = time.perf_counter() - start
    ok = covered >= 19 and elapsed < 300.0
    assert verdict(9, "analytic occupancy inside simulation 99% intervals",
                   ok, f"{covered}/20 covered, {elapsed:.0f}s")


def test_10_randomized_structural_properties():
    rng = np.random.default_rng(20261001)
    checks = []

    for _ in range(10):  # conservation and normalization
        num = int(rng.integers(1, 6))
        pool = int(rng.integers(0, 4))
        spec = ClusterSpec(PF, ON_PREMISES, num=num, pool=pool)
        rates = AvailRates(float(rng.uniform(0.5, 20.0)),
                           1.0 / float(rng.uniform(10.0, 3600.0)))
        ctmc = build_availability_model(spec, rates).ctmc
        sums = np.asarray(ctmc.generator.sum(axis=1)).ravel()
        checks.append(np.all(np.abs(sums) <= 1e-12 * max(ctmc.exit_rates.max(), 1e-300)))
        pi = transient_distribution(ctmc, float(rng.uniform(HOUR, YEAR)))
        checks.append(pi.min() >= 0.0 and abs(pi.sum() - 1.0) < 1e-9)
        horizon = float(rng.uniform(HOUR, YEAR))
        total = cumulative_occupancy(ctmc, np.ones(ctmc.n), horizon)
        checks.append(abs(total - horizon) <= 1e-9 * horizon)

    minimal = 0  # planner minimality on random feasible scenarios
    while minimal < 3:
        crashes = float(rng.uniform(0.5, 6.0))
        recovery = float(rng.uniform(15.0, 600.0))
        request = PlanRequest(
            technique=PF, deployment=ON_PREMISES,
            node_variant="native", sert_multiplier=float(rng.uniform(1.0, 3.0)),
            target_nines=2.0, horizon_s=YEAR,
            rates=AvailRates(crashes, 1.0 / recovery), search_cap=64)
        result = plan_capacity(request)
        if not (result.feasible and result.extra > 0):
            continue
        minimal += 1
        target = request.target_availability
        checks.append(result.availability >= target)
        shrunk = plan_capacity(PlanRequest(
            **{**request.__dict__, "search_cap": result.extra - 1}))
        checks.append(not shrunk.feasible and shrunk.availability < target)

    def year_availability(spec, rates):
        model = build_availability_model(spec, rates)
        return availability(model, YEAR).availability

    for _ in range(4):  # monotonicity in each physically ordered knob
        num = int(rng.integers(1, 5))
        lam = float(rng.uniform(1.0, 12.0))
        recovery = float(rng.uniform(15.0, 1800.0))
        pools = [year_availability(
            ClusterSpec(PF, ON_PREMISES, num=num, pool=p),
            AvailRates(lam, 1.0 / recovery)) for p in range(4)]
        checks.append(all(a <= b + 1e-12 for a, b in zip(pools, pools[1:])))
        ops = [year_availability(
            ClusterSpec(ARA, ON_PREMISES, num=num, op=o),
            AvailRates(lam, 1.0 / recovery)) for o in range(4)]
        checks.append(all(a <= b + 1e-12 for a, b in zip(ops, ops[1:])))
        lams = sorted(rng.uniform(0.5, 40.0, size=3))
        by_lam = [year_availability(
            ClusterSpec(PF, ON_PREMISES, num=num, pool=1),
            AvailRates(float(l), 1.0 / recovery)) for l in lams]
        checks.append(all(a >= b - 1e-12 for a, b in zip(by_lam, by_lam[1:])))
        recoveries = sorted(rng.uniform(10.0, 3600.0, size=3))
        by_rho = [year_availability(
            ClusterSpec(PF, ON_PREMISES, num=num, pool=1),
            AvailRates(lam, 1.0 / float(r))) for r in recoveries]
        checks.append(all(a >= b - 1e-12 for a, b in zip(by_rho, by_rho[1:])))

    failed = len(checks) - sum(bool(c) for c in checks)
    ok = failed == 0
    assert verdict(10, "randomized structural properties", ok,
                   f"{len(checks)} checks, {failed} failed")
