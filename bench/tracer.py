"""Spans around pcraft's public functions, recorded from outside pcraft.

``Tracer.install`` replaces each traced function by a wrapper in every
``pcraft`` module that binds it (``ctmc`` names are imported by name into
``availability``, ``integrity`` and ``planner``; the builders into
``planner``, ``suites`` and ``cli``), so calls are caught wherever they
are made; the wrappers stay for the life of the process.  Spans stay in
memory with their parent and are written out by ``write``.

A layer's self time is its span minus its direct child spans.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
from time import perf_counter
from typing import NamedTuple

LARGE_N = 256
SMALL_N = 64


def _n_of_first_arg(args, result):
    return args[0].n


def _n_of_result(args, result):
    return result.n


def _n_of_model(args, result):
    return result.ctmc.n


def _evaluations(args, result):
    return result.evaluations


def _replications(args, result):
    return result.replications


def _nothing(args, result):
    return None


# (module, function, span name, size of the work the call did)
TRACED = (
    ("pcraft.ctmc", "build_ctmc", "ctmc.build", _n_of_result),
    ("pcraft.ctmc", "cumulative_occupancy", "ctmc.solve", _n_of_first_arg),
    ("pcraft.ctmc", "occupancy_from_each_start", "ctmc.solve", _n_of_first_arg),
    ("pcraft.ctmc", "transient_distribution", "ctmc.solve", _n_of_first_arg),
    ("pcraft.availability", "build_availability_model", "availability.build", _nothing),
    ("pcraft.availability", "build_pf_model", "availability.build", _n_of_model),
    ("pcraft.availability", "build_ara_model", "availability.build", _n_of_model),
    ("pcraft.planner", "plan_capacity", "planner.plan", _evaluations),
    ("pcraft.integrity", "integrity_breakdown", "integrity.breakdown", _nothing),
    ("pcraft.simulate", "simulate_ctmc", "simulate.sim", _replications),
    ("pcraft.cli", "main", "cli.main", _nothing),
    ("pcraft.suites", "run_suite", "suites.run", _nothing),
)

# Per-layer metrics: name -> unit.  Counts must repeat exactly between runs.
METRICS = {
    "ctmc.solve_s": "s",
    "ctmc.solve_calls": "count",
    "ctmc.solve_states": "count",
    "ctmc.solve_max_n": "count",
    "ctmc.solve_large_s": "s",
    "ctmc.solve_small_s": "s",
    "ctmc.build_s": "s",
    "ctmc.build_calls": "count",
    "availability.build_self_s": "s",
    "availability.builds": "count",
    "availability.states_built": "count",
    "planner.plans": "count",
    "planner.solves": "count",
    "planner.states_solved": "count",
    "planner.self_s": "s",
    "integrity.breakdown_s": "s",
    "integrity.breakdowns": "count",
    "simulate.sim_s": "s",
    "simulate.replications": "count",
    "simulate.events": "count",
    "simulate.us_per_event": "us",
    "cli.self_s": "s",
    "suites.self_s": "s",
}


class Span(NamedTuple):
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    size: int | None
    op: int | None
    round: int | None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.op: int | None = None       # set by the runner around each operation
        self.round: int | None = None
        self._stack: list[int] = []

    def _wrap(self, name, fn, size):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[sid] = Span(sid, parent, name, start, end,
                                       size(args, result) if result is not None else None,
                                       self.op, self.round)
        return traced

    def install(self) -> None:
        wrappers = {}
        for module, attr, name, size in TRACED:
            fn = getattr(sys.modules[module], attr)
            wrappers[id(fn)] = (fn, self._wrap(name, fn, size))
        for mod_name, module in list(sys.modules.items()):
            if not mod_name.startswith("pcraft") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span._asdict()) + "\n")

    def layer_metrics(self, events_per_round: float) -> dict[str, float]:
        """Per-round metrics: counts from one round, times as round medians.

        Every round runs the same operations on the same inputs, so a
        count that differs between rounds is an error.
        """
        spans = [s for s in self.spans if s is not None and s.round is not None]
        child_time: dict[int, float] = {}
        for s in spans:
            if s.parent is not None:
                child_time[s.parent] = child_time.get(s.parent, 0.0) + s.end - s.start
        by_id = {s.id: s for s in spans}

        def under_plan(span: Span) -> bool:
            parent = span.parent
            while parent is not None:
                if by_id[parent].name == "planner.plan":
                    return True
                parent = by_id[parent].parent
            return False

        rounds: dict[int, dict[str, float]] = {}
        for s in spans:
            m = rounds.setdefault(s.round, {name: 0 if unit == "count" else 0.0
                                            for name, unit in METRICS.items()})
            total = s.end - s.start
            own = total - child_time.get(s.id, 0.0)
            if s.name == "ctmc.solve":
                m["ctmc.solve_s"] += total
                m["ctmc.solve_calls"] += 1
                m["ctmc.solve_states"] += s.size
                m["ctmc.solve_max_n"] = max(m["ctmc.solve_max_n"], s.size)
                if s.size >= LARGE_N:
                    m["ctmc.solve_large_s"] += total
                if s.size < SMALL_N:
                    m["ctmc.solve_small_s"] += total
                if under_plan(s):
                    m["planner.states_solved"] += s.size
            elif s.name == "ctmc.build":
                m["ctmc.build_s"] += total
                m["ctmc.build_calls"] += 1
            elif s.name == "availability.build":
                m["availability.build_self_s"] += own
                if s.size is not None:
                    m["availability.builds"] += 1
                    m["availability.states_built"] += s.size
            elif s.name == "planner.plan":
                m["planner.plans"] += 1
                m["planner.solves"] += s.size
                m["planner.self_s"] += own
            elif s.name == "integrity.breakdown":
                m["integrity.breakdown_s"] += total
                m["integrity.breakdowns"] += 1
            elif s.name == "simulate.sim":
                m["simulate.sim_s"] += total
                m["simulate.replications"] += s.size
            elif s.name == "cli.main":
                m["cli.self_s"] += own
            elif s.name == "suites.run":
                m["suites.self_s"] += own

        per_round = [rounds[r] for r in sorted(rounds)]
        out: dict[str, float] = {}
        for name, unit in METRICS.items():
            values = [m[name] for m in per_round]
            if unit == "count":
                if len(set(values)) > 1:
                    raise RuntimeError(f"{name} differs between rounds: {values}")
                out[name] = values[0] if values else 0
            else:
                out[name] = statistics.median(values) if values else 0.0
        out["simulate.events"] = events_per_round
        if events_per_round > 0:
            out["simulate.us_per_event"] = out["simulate.sim_s"] / events_per_round * 1e6
        return out
