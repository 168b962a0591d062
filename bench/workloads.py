"""The three benchmark workloads: inputs, operations and output checks.

A workload turns a seed into a fixed list of operations (one round).
The runner repeats whole rounds, so every round does the same work on
the same inputs; ``check`` then holds the first round's outputs to the
independent oracles in ``oracles.py``.  Oracles are imported only when
checking, so their scipy imports stay out of the set-up time.
"""

from __future__ import annotations

import csv
import io
import math
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import pcraft.cli
import pcraft.simulate
from pcraft.availability import ARA, CLOUD, ON_PREMISES, PF, AvailRates, ClusterSpec
from pcraft.availability import build_availability_model
from pcraft.ctmc import build_ctmc

HOUR = 3600.0
YEAR = 8766 * HOUR
MONTH = YEAR / 12.0
VARIANTS = ("native", "ft_ilr", "ft_tx")


class OpFailed(Exception):
    """An operation that did not complete (nonzero exit or exception)."""


class CliOp:
    """One ``pcraft`` command run in-process; its output is the CSV text."""

    def __init__(self, label: str, args: list[str], scenario: dict | None = None):
        self.label = label
        self.args = args
        self.scenario = scenario or {}

    def run(self) -> str:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = pcraft.cli.main(self.args)
        if code != 0:
            raise OpFailed(f"{self.label}: exit {code}: {err.getvalue().strip()}")
        return out.getvalue()


class SimOp:
    """One ``simulate_ctmc`` call; its output is (mean, CI half-width)."""

    def __init__(self, label: str, ctmc, reward, horizon: float,
                 replications: int, seed: int, oracle):
        self.label = label
        self.ctmc = ctmc
        self.reward = reward
        self.horizon = horizon
        self.replications = replications
        self.seed = seed
        self.oracle = oracle      # () -> (time-averaged reward, jumps per replication)

    def run(self) -> tuple[float, float]:
        est = pcraft.simulate.simulate_ctmc(self.ctmc, self.reward, self.horizon,
                                            self.replications, self.seed)
        return est.mean, est.ci_half_width


def _write_config(path: Path, scenario: dict) -> str:
    lines = [f"{key} = {value}" for key, value in scenario.items() if value is not None]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def _csv_rows(text: str) -> tuple[list[str], list[dict]]:
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], [dict(zip(rows[0], row)) for row in rows[1:]]


def _float(text: str) -> float | None:
    return None if text == "" else float(text)


# ------------------------------------------------------------------ checks

class Checker:
    """Collects problems while holding CLI outputs to the oracles."""

    def __init__(self) -> None:
        import oracles
        self.o = oracles
        self.problems: list[str] = []

    def near(self, label: str, got: float, want: float, tol: float | None = None) -> None:
        tol = self.o.TOL if tol is None else tol
        if not abs(got - want) <= tol:
            self.problems.append(f"{label}: pcraft {got!r}, oracle {want!r}")

    def expect(self, label: str, ok: bool, detail: str = "") -> None:
        if not ok:
            self.problems.append(f"{label}: {detail}")

    def nines_match(self, label: str, avail: float, nines: float) -> None:
        self.near(f"{label} nines", nines, self.o.nines(avail), 1e-9)

    def availability(self, technique, deployment, base, extra, lam, rho, horizon,
                     repair=None) -> float:
        o = self.o
        if technique == PF and deployment == CLOUD:
            return o.cloud_pf_availability(base, lam, rho, horizon)
        if technique == ARA and deployment == CLOUD:
            return o.cloud_ara_availability(base, extra, lam, rho, horizon)
        if technique == ARA:
            return o.onprem_ara_availability(base, extra, lam, horizon)
        if extra == 0 and repair is None:
            return o.onprem_pf_pool0_availability(base, lam, horizon)
        return o.onprem_pf_availability(base, [extra], lam, rho, horizon, repair)[extra]

    def plan_cell(self, label, *, technique, deployment, variant, base, extra,
                  feasible, avail, nines, sert, ratio, target, cap, lam, rho,
                  horizon, repair=None) -> None:
        """Minimal extras, or an infeasible cell whose bound misses the target."""
        o = self.o
        self.expect(label, base == o.base_nodes(sert, ratio),
                    f"base {base}, expected {o.base_nodes(sert, ratio)}")
        self.nines_match(label, avail, nines)

        def at(e):
            return self.availability(technique, deployment, base, e, lam, rho,
                                     horizon, repair)

        tol = o.TOL
        if technique == PF and deployment == CLOUD:
            # The cloud pool is unbounded: nothing to size, only a verdict.
            a = at(0)
            self.near(label, avail, a)
            self.expect(label, feasible == (a >= target) or abs(a - target) <= tol,
                        f"feasible {feasible} at A={a!r}")
            self.expect(label, extra == 0 or not feasible, f"extra {extra}")
            return
        if feasible:
            if technique == PF and repair is None and extra > 0:
                family = o.onprem_pf_availability(base, [extra - 1, extra], lam, rho,
                                                  horizon)
                a, below = family[extra], family[extra - 1]
            else:
                a = at(extra)
                below = at(extra - 1) if extra > 0 else None
            self.near(label, avail, a)
            self.expect(label, a >= target - tol, f"A({extra})={a!r} misses {target!r}")
            if below is not None:
                self.expect(label, below < target + tol,
                            f"not minimal: A({extra - 1})={below!r} meets {target!r}")
            return
        if technique == PF and deployment == ON_PREMISES:
            ceiling = o.cloud_pf_availability(base, lam, rho, horizon)
            if abs(avail - ceiling) <= tol and ceiling < target + tol:
                return
        a = at(cap)
        self.near(f"{label} capped", avail, a)
        self.expect(label, a < target + tol, f"infeasible but A({cap})={a!r}")

    def integrity_row(self, label, *, variant, rate_per_month, horizon, deployment,
                      recovery_s, sdc_hours, retry_us, retry_crash_per_hour,
                      correct, corrupt, down) -> None:
        o = self.o
        rate = rate_per_month / MONTH
        split = o.TRANSIENT_SPLITS[variant]
        want = o.integrity_shares(
            rate, split, None if deployment == ON_PREMISES else recovery_s, horizon,
            sdc_recovery_s=sdc_hours * HOUR, retry_s=retry_us * 1e-6,
            retry_crash_per_s=retry_crash_per_hour / HOUR)
        for name, got, value in zip(("correct", "corrupt", "down"),
                                    (correct, corrupt, down), want):
            self.near(f"{label} {name}", got, value)
        self.expect(label, abs(correct + corrupt + down - 1.0) <= 1e-12,
                    f"shares sum to {correct + corrupt + down!r}")
        bound = rate * split[0] * sdc_hours * HOUR
        self.expect(label, corrupt < bound,
                    f"corrupt {corrupt!r} not below first-order bound {bound!r}")


# ------------------------------------------------------------------ onprem-plan

class OnpremPlan:
    """The on-premises PF pool and ARA extras tables through ``pcraft sweep``.

    The inputs are the suites' fixed grids, so they do not depend on the
    seed.  The PF table runs over 2700 hours with ``search_cap = 64``:
    its ft_tx 6-crashes/yr cells need pools near 40, so the planner's
    doubling probe solves the family chain at cap 64 (n = 1040) by dense
    squaring.  The ARA table keeps the default horizon and cap 1000; its
    6-crashes/yr cells are infeasible and end in a solve at n = 1011.
    """

    name = "onprem-plan"
    PF_HOURS = 2700.0
    PF_CAP = 64

    def __init__(self, seed: int, workdir: Path) -> None:
        self.pf = {"horizon_hours": self.PF_HOURS, "search_cap": self.PF_CAP}
        self.ara = {"search_cap": 1000}
        self.ops = [
            CliOp("sweep onprem-pf-pool",
                  ["sweep", "--suite", "onprem-pf-pool", "--config",
                   _write_config(workdir / "pf.cfg", self.pf)]),
            CliOp("sweep onprem-ara-extras",
                  ["sweep", "--suite", "onprem-ara-extras", "--config",
                   _write_config(workdir / "ara.cfg", self.ara)]),
        ]
        self.warm = CliOp("plan", ["plan", "--config", _write_config(
            workdir / "warm.cfg",
            {"technique": ARA, "deployment": ON_PREMISES, "node_variant": "native",
             "sert_multiplier": 2, "horizon_hours": 720})])

    def warm_up(self) -> None:
        self.warm.run()

    def check(self, outputs: list) -> tuple[list[str], float]:
        c = Checker()
        target = 1.0 - 10.0 ** -3.0
        _, pf_rows = _csv_rows(outputs[0])
        c.expect("onprem-pf-pool", len(pf_rows) == 36, f"{len(pf_rows)} rows")
        for row in pf_rows:
            repair = _float(row["pool_repair_per_hour"])
            label = ("pf " + row["variant"] + " " + row["hw_crash_per_year"] + "/yr "
                     + row["crash_recovery_s"] + "s repair=" + str(repair))
            c.plan_cell(
                label, technique=PF, deployment=ON_PREMISES, variant=row["variant"],
                base=int(row["base"]), extra=int(row["extra"]),
                feasible=row["feasible"] == "true",
                avail=float(row["availability"]), nines=float(row["nines"]),
                sert=10.0, ratio=c.o.THROUGHPUT_RATIOS[row["variant"]],
                target=target, cap=self.PF_CAP,
                lam=float(row["hw_crash_per_year"]) / YEAR,
                rho=1.0 / float(row["crash_recovery_s"]),
                horizon=self.PF_HOURS * HOUR,
                repair=None if repair is None else repair / HOUR)
        _, ara_rows = _csv_rows(outputs[1])
        c.expect("onprem-ara-extras", len(ara_rows) == 6, f"{len(ara_rows)} rows")
        for row in ara_rows:
            label = "ara " + row["variant"] + " " + row["hw_crash_per_year"] + "/yr"
            c.plan_cell(
                label, technique=ARA, deployment=ON_PREMISES, variant=row["variant"],
                base=int(row["base"]), extra=int(row["extra"]),
                feasible=row["feasible"] == "true",
                avail=float(row["availability"]), nines=float(row["nines"]),
                sert=10.0, ratio=c.o.THROUGHPUT_RATIOS[row["variant"]],
                target=target, cap=1000,
                lam=float(row["hw_crash_per_year"]) / YEAR, rho=1.0 / 15.0,
                horizon=YEAR)
        return c.problems, 0.0


# ------------------------------------------------------------------ sweep-mix

class SweepMix:
    """Single-scenario ``plan``/``avail``/``integrity`` commands plus the
    five cheap sweeps.

    Each command slot has a fixed centre scenario: the discrete choices
    (technique, deployment, variant, extra nodes) and every value drawn
    once from wide ranges.  The seed moves fault rates and targets within
    5% of their centres; horizons, recovery times and load stay there.
    Those set q*t, and pcraft's cost for a small chain jumps 85-fold where
    q*t crosses its vector-series limit, so letting the seed move them
    changed the work per round by up to half between seeds.  Every
    scenario keeps its chains at a few dozen states: on-premises plans
    get small bases, short horizons and small search caps.
    """

    name = "sweep-mix"
    PER_KIND = 48     # plan, avail and integrity commands per round
    CENTRES_SEED = 20261018
    SHAPES = ((ARA, CLOUD), (PF, CLOUD), (ARA, ON_PREMISES), (PF, ON_PREMISES))

    def __init__(self, seed: int, workdir: Path) -> None:
        centres = np.random.default_rng(self.CENTRES_SEED)
        jitter = np.random.default_rng([seed, 2])
        self.ops: list[CliOp] = []
        self._workdir = workdir

        def fixed(lo, hi, digits):
            return round(float(centres.uniform(lo, hi)), digits)

        def varied(lo, hi, digits):
            return round(fixed(lo, hi, 12) * float(jitter.uniform(0.95, 1.05)), digits)

        self._add("sweep", "cloud-ara-extras", {
            "sert_multiplier": fixed(5, 12, 2), "target_nines": varied(2.5, 3.5, 3),
            "search_cap": 16})
        self._add("sweep", "single-node-availability", {
            "horizon_hours": fixed(4000, 8766, 1)})
        self._add("sweep", "cluster-availability", {
            "horizon_hours": fixed(720, 8766, 1),
            "crash_recovery_seconds": fixed(15, 1800, 1)})
        self._add("sweep", "deployment-fault-rates", {
            "sert_multiplier": fixed(2, 20, 2), "node_variant": "ft_ilr",
            "crash_recovery_seconds": fixed(15, 1800, 1)})
        self._add("sweep", "integrity-time-shares", {
            "deployment": CLOUD, "crash_recovery_seconds": fixed(15, 300, 1),
            "sdc_recovery_hours": fixed(1, 12, 2)})

        for command in ("plan", "avail"):
            for k in range(self.PER_KIND):
                technique, deployment = self.SHAPES[k % 4]
                scenario = self._cluster(fixed, varied, k, technique, deployment)
                if command == "avail":
                    scenario["extra_nodes"] = (k // 4) % 4
                self._add(command, None, scenario)
        for k in range(self.PER_KIND):
            self._add("integrity", None, {
                "deployment": (CLOUD, ON_PREMISES)[k % 2],
                "node_variant": VARIANTS[(k // 2) % 3],
                "transient_rate_per_month": varied(0.5, 100, 3),
                "horizon_hours": fixed(720, 8766, 1),
                "crash_recovery_seconds": fixed(15, 1800, 1),
                "sdc_recovery_hours": fixed(1, 12, 2)})
        self.warm = self.ops[5]

    @staticmethod
    def _cluster(fixed, varied, k, technique, deployment):
        scenario = {"technique": technique, "deployment": deployment,
                    "node_variant": VARIANTS[(k // 4) % 3]}
        if deployment == CLOUD:
            scenario.update(sert_multiplier=fixed(4, 10, 2),
                            hw_crash_per_year=varied(1, 6, 3),
                            crash_recovery_seconds=fixed(15, 600, 1),
                            target_nines=varied(2.5, 3.5, 3),
                            horizon_hours=fixed(4000, 8766, 1), search_cap=16)
        else:
            scenario.update(sert_multiplier=fixed(1, 3, 2),
                            hw_crash_per_year=varied(0.5, 3, 3),
                            crash_recovery_seconds=fixed(15, 600, 1),
                            target_nines=varied(2.0, 3.0, 3),
                            horizon_hours=fixed(720, 2000, 1),
                            search_cap=8 if technique == PF else 32)
            if technique == PF and (k // 12) % 2:
                scenario["pool_repair_per_hour"] = varied(0.1, 2, 4)
        return scenario

    def _add(self, command: str, suite: str | None, scenario: dict) -> None:
        index = len(self.ops)
        path = _write_config(self._workdir / f"mix{index:03d}.cfg", scenario)
        args = [command] + (["--suite", suite] if suite else []) + ["--config", path]
        self.ops.append(CliOp(f"{command} {suite or ''}".strip(), args,
                              dict(scenario, suite=suite, command=command)))

    def warm_up(self) -> None:
        self.warm.run()

    def check(self, outputs: list) -> tuple[list[str], float]:
        c = Checker()
        for index, (op, text) in enumerate(zip(self.ops, outputs)):
            s = op.scenario
            _, rows = _csv_rows(text)
            getattr(self, "_check_" + (s["suite"] or s["command"]).replace("-", "_"))(
                c, f"op {index} {op.label}", s, rows)
        return c.problems, 0.0

    @staticmethod
    def _scenario(s: dict) -> dict:
        """Configuration values with pcraft's documented defaults filled in."""
        defaults = {"sert_multiplier": 10.0, "target_nines": 3.0, "horizon_hours": 8766.0,
                    "hw_crash_per_year": 1.0, "crash_recovery_seconds": 15.0,
                    "search_cap": 1000, "extra_nodes": 0, "sdc_recovery_hours": 6.0,
                    "retry_tx_us": 2.5, "retry_crash_per_hour": 0.0,
                    "pool_repair_per_hour": None, "node_variant": None}
        return {**defaults, **{k: v for k, v in s.items() if v is not None}}

    @staticmethod
    def _variants(c, label, s, rows):
        c.expect(label, [r["variant"] for r in rows] == [s["node_variant"]],
                 f"variants {[r['variant'] for r in rows]}")
        return rows

    def _check_plan(self, c, label, s, rows):
        s = self._scenario(s)
        repair = s["pool_repair_per_hour"]
        for row in self._variants(c, label, s, rows):
            feasible = row["extra"] != "x"
            c.plan_cell(
                f"{label} {row['variant']}", technique=s["technique"],
                deployment=s["deployment"], variant=row["variant"],
                base=int(row["base"]), extra=int(row["extra"]) if feasible else None,
                feasible=feasible, avail=float(row["availability"]),
                nines=float(row["nines"]), sert=s["sert_multiplier"],
                ratio=c.o.THROUGHPUT_RATIOS[row["variant"]],
                target=1.0 - 10.0 ** -s["target_nines"], cap=s["search_cap"],
                lam=s["hw_crash_per_year"] / YEAR, rho=1.0 / s["crash_recovery_seconds"],
                horizon=s["horizon_hours"] * HOUR,
                repair=None if repair is None else repair / HOUR)

    def _check_avail(self, c, label, s, rows):
        s = self._scenario(s)
        repair = s["pool_repair_per_hour"]
        horizon = s["horizon_hours"] * HOUR
        for row in self._variants(c, label, s, rows):
            base = c.o.base_nodes(s["sert_multiplier"], c.o.THROUGHPUT_RATIOS[row["variant"]])
            c.expect(label, int(row["base"]) == base and
                     int(row["extra"]) == s["extra_nodes"], "cluster shape")
            avail = float(row["availability"])
            want = c.availability(s["technique"], s["deployment"], base, s["extra_nodes"],
                                  s["hw_crash_per_year"] / YEAR,
                                  1.0 / s["crash_recovery_seconds"], horizon,
                                  None if repair is None else repair / HOUR)
            c.near(f"{label} {row['variant']}", avail, want)
            c.nines_match(label, avail, float(row["nines"]))
            c.near(f"{label} downtime", float(row["downtime_hours"]),
                   (1.0 - avail) * horizon / HOUR, 1e-9 * horizon / HOUR)

    def _check_integrity(self, c, label, s, rows):
        s = self._scenario(s)
        for row in self._variants(c, label, s, rows):
            c.integrity_row(
                f"{label} {row['variant']}", variant=row["variant"],
                rate_per_month=s["transient_rate_per_month"],
                horizon=s["horizon_hours"] * HOUR, deployment=s["deployment"],
                recovery_s=s["crash_recovery_seconds"], sdc_hours=s["sdc_recovery_hours"],
                retry_us=s["retry_tx_us"], retry_crash_per_hour=s["retry_crash_per_hour"],
                correct=float(row["correct"]), corrupt=float(row["corrupt"]),
                down=float(row["down"]))

    def _check_integrity_time_shares(self, c, label, s, rows):
        s = self._scenario(s)
        c.expect(label, len(rows) == 15, f"{len(rows)} rows")
        for row in rows:
            c.integrity_row(
                f"{label} {row['variant']}@{row['transient_rate_per_month']}",
                variant=row["variant"], rate_per_month=float(row["transient_rate_per_month"]),
                horizon=MONTH, deployment=s["deployment"],
                recovery_s=s["crash_recovery_seconds"], sdc_hours=s["sdc_recovery_hours"],
                retry_us=s["retry_tx_us"], retry_crash_per_hour=s["retry_crash_per_hour"],
                correct=float(row["correct"]), corrupt=float(row["corrupt"]),
                down=float(row["down"]))

    def _check_cloud_ara_extras(self, c, label, s, rows):
        s = self._scenario(s)
        c.expect(label, len(rows) == 18, f"{len(rows)} rows")
        for row in rows:
            c.plan_cell(
                f"{label} {row['variant']} {row['hw_crash_per_year']}/yr "
                f"{row['crash_recovery_s']}s", technique=ARA, deployment=CLOUD,
                variant=row["variant"], base=int(row["base"]), extra=int(row["extra"]),
                feasible=row["feasible"] == "true", avail=float(row["availability"]),
                nines=float(row["nines"]), sert=s["sert_multiplier"],
                ratio=c.o.THROUGHPUT_RATIOS[row["variant"]],
                target=1.0 - 10.0 ** -s["target_nines"], cap=s["search_cap"],
                lam=float(row["hw_crash_per_year"]) / YEAR,
                rho=1.0 / float(row["crash_recovery_s"]), horizon=s["horizon_hours"] * HOUR)

    def _pool0_rows(self, c, label, s, rows, num_of, recovery_of):
        horizon = s["horizon_hours"] * HOUR
        for row in rows:
            lam = float(row["hw_crash_per_year"]) / YEAR
            num = num_of(row)
            if row["deployment"] == CLOUD:
                want = c.o.cloud_pf_availability(num, lam, 1.0 / recovery_of(row), horizon)
            else:
                want = c.o.onprem_pf_pool0_availability(num, lam, horizon)
            avail = float(row["availability"])
            c.near(f"{label} {row['deployment']} {row['hw_crash_per_year']}/yr n={num}",
                   avail, want)
            c.nines_match(label, avail, float(row["nines"]))

    def _check_single_node_availability(self, c, label, s, rows):
        s = self._scenario(s)
        c.expect(label, len(rows) == 48, f"{len(rows)} rows")
        self._pool0_rows(c, label, s, rows, lambda r: 1,
                         lambda r: float(r["crash_recovery_s"]))

    def _check_cluster_availability(self, c, label, s, rows):
        s = self._scenario(s)
        c.expect(label, len(rows) == 80, f"{len(rows)} rows")
        self._pool0_rows(c, label, s, rows, lambda r: int(r["num"]),
                         lambda r: s["crash_recovery_seconds"])

    def _check_deployment_fault_rates(self, c, label, s, rows):
        s = self._scenario(s)
        ratio = c.o.THROUGHPUT_RATIOS[s["node_variant"]]
        num = c.o.base_nodes(s["sert_multiplier"], ratio)
        c.expect(label, len(rows) == 24 and all(int(r["num"]) == num for r in rows),
                 "rows or cluster size")
        self._pool0_rows(c, label, s, rows, lambda r: int(r["num"]),
                         lambda r: s["crash_recovery_seconds"])


# ------------------------------------------------------------------ montecarlo

class MonteCarlo:
    """``simulate_ctmc`` on the availability chains checks 05-07 arbitrate
    and on seeded random chains shaped like check 09.

    Replications are sized so every operation expects about
    ``EVENTS_PER_OP`` jumps.  Availability chains are built once, at
    set-up; the seed picks the random chains and the simulation seeds.
    """

    name = "montecarlo"
    EVENTS_PER_OP = 25_000
    MIN_REPLICATIONS = 100

    # On-premises PF at 6 crashes/yr and 15 s failover: pools around the
    # reference table (30/33/42), and for native up to 62, where about a
    # third of trajectories still run out of standbys.  Nearer pcraft's
    # answers (76/83/109) running out becomes a rare event, and a normal
    # 99% interval from a few hundred trajectories no longer covers 99%.
    PF_POOLS = {"native": (29, 30, 31, 58, 60, 62), "ft_ilr": (32, 33, 34),
                "ft_tx": (41, 42, 43)}
    # On-premises ARA at 6 crashes/yr: extras around the reference (113/121/152).
    ARA_EXTRAS = {"native": (112, 113, 114), "ft_ilr": (120, 121, 122),
                  "ft_tx": (151, 152, 153)}
    # Cloud ARA (check 05): (variant, crashes/yr, recovery s, extras).  Each
    # keeps downtime common enough per trajectory for the normal interval.
    CLOUD_CELLS = (("native", 6.0, 1800.0, 0), ("native", 6.0, 60.0, 0),
                   ("native", 1.0, 1800.0, 0), ("ft_tx", 6.0, 1800.0, 0),
                   ("ft_tx", 6.0, 1800.0, 1))
    SPARSE_CHAINS = 12
    DENSE_CHAINS = 6
    BASES = {"native": 10, "ft_ilr": 11, "ft_tx": 15}

    def __init__(self, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng([seed, 3])
        self.ops: list[SimOp] = []
        self._seed = seed
        self._pf_families: dict[tuple, tuple] = {}
        for variant, pools in self.PF_POOLS.items():
            for pool in pools:
                self._cluster(ClusterSpec(PF, ON_PREMISES, num=self.BASES[variant], pool=pool),
                              AvailRates(6.0, 1.0 / 15.0), f"pf {variant} pool {pool}",
                              self._pf_jumps(self.BASES[variant], pool, 6.0 / YEAR),
                              family_pool=max(pools))
        for variant, extras in self.ARA_EXTRAS.items():
            for op in extras:
                top = self.BASES[variant] + op
                self._cluster(ClusterSpec(ARA, ON_PREMISES, num=self.BASES[variant], op=op),
                              AvailRates(6.0, 1.0 / 15.0), f"ara {variant} +{op}",
                              top * -math.expm1(-6.0))
        for variant, crashes, recovery, op in self.CLOUD_CELLS:
            top = self.BASES[variant] + op
            lam, rho = crashes / YEAR, 1.0 / recovery
            self._cluster(ClusterSpec(ARA, CLOUD, num=self.BASES[variant], op=op),
                          AvailRates(crashes, rho),
                          f"cloud ara {variant} {crashes}/yr {recovery}s +{op}",
                          top * 2 * lam * rho / (lam + rho) * YEAR)
        for k in range(self.SPARSE_CHAINS + self.DENSE_CHAINS):
            self._random_chain(rng, dense=k >= self.SPARSE_CHAINS)
        self.warm = SimOp("warm", self.ops[0].ctmc, self.ops[0].reward,
                          self.ops[0].horizon, 2, 0, None)

    @staticmethod
    def _pf_jumps(num: int, pool: int, lam: float) -> float:
        """Rough jumps per trajectory, for sizing: crashes and failovers
        while standbys last, then the survivors' crashes."""
        mean = num * lam * YEAR
        pmf = [math.exp(-mean)]
        for k in range(1, pool + 1):
            pmf.append(pmf[-1] * mean / k)
        served = sum(k * p for k, p in enumerate(pmf)) + pool * (1.0 - sum(pmf))
        return 2.0 * served + num * (1.0 - sum(pmf))

    def _add(self, label, ctmc, reward, horizon, jumps_estimate, oracle):
        index = len(self.ops)
        reps = max(self.MIN_REPLICATIONS, round(self.EVENTS_PER_OP / jumps_estimate))
        self.ops.append(SimOp(label, ctmc, reward, horizon, reps,
                              self._seed * 1000 + index, oracle))

    def _cluster(self, spec, rates, label, jumps_estimate, family_pool=None):
        model = build_availability_model(spec, rates)

        def oracle():
            return self._cluster_oracle(spec, rates, family_pool)

        self._add(label, model.ctmc, model.up_reward, YEAR, jumps_estimate, oracle)

    def _random_chain(self, rng, dense: bool):
        n = int(rng.integers(5, 31)) if dense else int(rng.integers(2, 51))
        edges = {}
        for i in range(n):  # ring keeps the chain irreducible
            edges[(i, (i + 1) % n)] = float(rng.uniform(0.5, 1.5))
        if dense:
            for i in range(n):
                for j in range(n):
                    if i != j and rng.random() < 0.5:
                        edges[(i, j)] = float(rng.uniform(0.5, 1.5))
        else:
            for _ in range(2 * n):
                i, j = rng.integers(0, n, size=2)
                if i != j:
                    edges[(int(i), int(j))] = float(rng.uniform(0.5, 1.5))
        transitions = [(i, j, r) for (i, j), r in edges.items()]
        chain = build_ctmc(transitions, {i: (1.0 if i == 0 else 0.0) for i in range(n)})
        reward = rng.random(n)
        horizon = 15.0
        exits = np.zeros(n)
        for (i, _), r in edges.items():
            exits[i] += r

        def oracle():
            from oracles import generator_from, van_loan_average
            q = generator_from(transitions, n)
            avg = van_loan_average(q, np.column_stack([reward, exits]), horizon)
            return avg[0, 0], avg[0, 1] * horizon

        kind = "dense" if dense else "sparse"
        self._add(f"{kind} random n={n}", chain, reward, horizon,
                  horizon * float(exits.mean()), oracle)

    def _cluster_oracle(self, spec, rates, family_pool):
        import oracles as o
        lam, rho = rates.hw_crash_per_year / YEAR, rates.crash_recovery_per_s
        if spec.technique == ARA and spec.deployment == CLOUD:
            top = spec.num + spec.op
            return (o.cloud_ara_availability(spec.num, spec.op, lam, rho, YEAR),
                    o.cloud_expected_jumps(top, lam, rho, YEAR))
        if spec.technique == ARA:
            top = spec.num + spec.op
            return (o.onprem_ara_availability(spec.num, spec.op, lam, YEAR),
                    o.onprem_ara_expected_jumps(top, lam, YEAR))
        # One chain at the variant's largest pool answers all its pools.
        key = spec.num, family_pool
        if key not in self._pf_families:
            index, q, up = o.onprem_pf_chain(spec.num, family_pool, lam, rho)
            averages = o.van_loan_average(q, np.column_stack([up, -np.diag(q)]), YEAR)
            self._pf_families[key] = index, averages
        index, averages = self._pf_families[key]
        up, jumps = averages[index[(spec.num, spec.pool)]]
        return up, jumps * YEAR

    def warm_up(self) -> None:
        self.warm.run()

    def check(self, outputs: list) -> tuple[list[str], float]:
        import oracles as o
        problems = []
        misses = []
        events = 0.0
        for op, (mean, half) in zip(self.ops, outputs):
            value, jumps = op.oracle()
            events += op.replications * jumps
            if not abs(mean - value) <= half:
                misses.append(f"{op.label}: oracle {value!r} outside "
                              f"{mean!r} +/- {half!r}")
        allowed = o.allowed_misses(len(self.ops))
        if len(misses) > allowed:
            problems.append(f"{len(misses)} of {len(self.ops)} 99% intervals miss "
                            f"the oracle (at most {allowed} allowed): {misses}")
        first = self.ops[0]
        if first.run() != outputs[0]:
            problems.append(f"{first.label}: repeating (seed, replications) "
                            "changed the estimate")
        return problems, events


WORKLOADS = {w.name: w for w in (OnpremPlan, SweepMix, MonteCarlo)}
