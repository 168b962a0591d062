"""The tracer catches pcraft calls through every binding and splits time.

Run with ``python3 -m pytest bench/test_tracer.py``.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pcraft.cli  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.fixture
def tracer():
    """A tracer installed for one test; pcraft's bindings restored after."""
    saved = [(module, dict(vars(module))) for name, module in sys.modules.items()
             if name.startswith("pcraft") and module is not None]
    t = Tracer()
    t.install()
    yield t
    for module, names in saved:
        vars(module).update(names)


def test_spans_nest_and_self_times_add_up(tracer, tmp_path, capsys):
    config = tmp_path / "plan.cfg"
    config.write_text("technique = PF\ndeployment = on-premises\nnode_variant = native\n"
                      "sert_multiplier = 2\nhorizon_hours = 720\nsearch_cap = 8\n")
    tracer.round = 0
    assert pcraft.cli.main(["plan", "--config", str(config)]) == 0
    capsys.readouterr()
    tracer.round = None

    spans = tracer.spans
    names = {s.name for s in spans}
    assert {"cli.main", "planner.plan", "availability.build", "ctmc.build",
            "ctmc.solve"} <= names
    by_id = {s.id: s for s in spans}
    roots = [s for s in spans if s.parent is None]
    assert [s.name for s in roots] == ["cli.main"]
    for s in spans:
        if s.parent is not None:
            parent = by_id[s.parent]
            assert parent.start <= s.start <= s.end <= parent.end

    # Self times of all spans add up to the root span.
    children = {}
    for s in spans:
        if s.parent is not None:
            children[s.parent] = children.get(s.parent, 0.0) + s.end - s.start
    own = [s.end - s.start - children.get(s.id, 0.0) for s in spans]
    assert min(own) >= 0.0
    assert sum(own) == pytest.approx(roots[0].end - roots[0].start, rel=1e-9)

    metrics = tracer.layer_metrics(0.0)
    solves = [s for s in spans if s.name == "ctmc.solve"]
    plan = next(s for s in spans if s.name == "planner.plan")
    assert metrics["planner.plans"] == 1
    assert metrics["planner.solves"] == plan.size == len(solves)
    assert metrics["ctmc.solve_calls"] == len(solves)
    assert metrics["planner.states_solved"] == metrics["ctmc.solve_states"] == sum(
        s.size for s in solves)
    assert metrics["ctmc.solve_max_n"] == max(s.size for s in solves)
    assert metrics["availability.builds"] == metrics["ctmc.build_calls"]
    assert metrics["simulate.sim_s"] == 0.0 and metrics["simulate.us_per_event"] == 0.0


def test_counts_that_differ_between_rounds_are_refused(tracer, tmp_path, capsys):
    config = tmp_path / "avail.cfg"
    for round_, extra in enumerate((0, 2)):
        config.write_text("technique = ARA\ndeployment = cloud\nnode_variant = native\n"
                          f"extra_nodes = {extra}\n")
        tracer.round = round_
        assert pcraft.cli.main(["avail", "--config", str(config)]) == 0
    capsys.readouterr()
    with pytest.raises(RuntimeError, match="differs between rounds"):
        tracer.layer_metrics(0.0)
