"""Static hygiene of the package: no unused imports, no dangling ``__all__``,
no orphaned private or exported names, no ``scipy`` at import time.

The static rules read the source with ``ast`` and import nothing.  A
name counts as used when the module loads it anywhere (annotations
included) or re-exports it through ``__all__``.  One subprocess test
checks which modules the small-chain commands actually load.
"""

import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pcraft"
MODULES = sorted(PACKAGE.glob("*.py"))

# The benchmark's tracer rebinds these by name in every module that
# imports them, so they stay public module functions of pcraft.ctmc.
TRACED_CTMC_NAMES = ("build_ctmc", "cumulative_occupancy", "occupancy_from_each_start",
                     "transient_distribution")


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Every name an import statement binds, with its line number."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def exported_names(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return [ast.literal_eval(elt) for elt in node.value.elts]
    return []


def defined_names(tree: ast.Module) -> set[str]:
    """Names bound at module level by definitions, assignments, or imports."""
    names = set(imported_names(tree))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name))
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    tree = parse(path)
    loaded = {n.id for n in ast.walk(tree)
              if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    used = loaded | set(exported_names(tree))
    unused = sorted(f"{name} (line {line})"
                    for name, line in imported_names(tree).items() if name not in used)
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_all_names_are_defined(path):
    tree = parse(path)
    missing = sorted(set(exported_names(tree)) - defined_names(tree))
    assert not missing, f"{path.name} exports undefined names: {', '.join(missing)}"


def referenced_names(tree: ast.Module) -> set[str]:
    """Names loaded, read as attributes, or imported by name."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_no_orphaned_private_names():
    """Every private name, and every name a submodule exports, is used in the
    package beyond its own definition (a re-export from ``__init__`` counts)."""
    trees = {path: parse(path) for path in MODULES}
    referenced = set().union(*map(referenced_names, trees.values()))

    def checked(path, tree, name):
        if name.startswith("_"):
            return not name.startswith("__")
        return path.stem != "__init__" and name in exported_names(tree)

    orphans = sorted(f"{path.name}: {name}"
                     for path, tree in trees.items()
                     for name in defined_names(tree) - set(imported_names(tree))
                     if checked(path, tree, name) and name not in referenced)
    assert not orphans, f"names nothing in the package uses: {', '.join(orphans)}"


def test_physical_memory_is_read_in_one_place():
    # The machine is sized through one helper, so no two memory decisions
    # can disagree on its size or on what to do without sysconf.
    inside, outside = 0, []
    for path in MODULES:
        tree = parse(path)
        helper = {id(node) for func in ast.walk(tree)
                  if isinstance(func, ast.FunctionDef) and func.name == "_physical_memory"
                  for node in ast.walk(func)}
        for node in ast.walk(tree):
            if ((isinstance(node, ast.Attribute) and node.attr == "sysconf")
                    or (isinstance(node, ast.Name) and node.id == "sysconf")):
                if id(node) in helper:
                    inside += 1
                else:
                    outside.append(f"{path.name}:{node.lineno}")
    assert inside and not outside, f"os.sysconf read outside _physical_memory: {outside}"
    # ... and only the one memory checker asks it, so every stage's bytes are
    # summed and compared in one place.
    callers = sorted({f"{path.stem}.{func.name}" for path in MODULES
                      for func in ast.walk(parse(path)) if isinstance(func, ast.FunctionDef)
                      for node in ast.walk(func)
                      if isinstance(node, ast.Call) and "_physical_memory" in (
                          getattr(node.func, "id", None), getattr(node.func, "attr", None))})
    assert callers == ["ctmc._check_memory"], f"_physical_memory called by {callers}"


def test_cli_imports_nothing_private_from_the_simulator():
    # The CLI sizes a simulation through pcraft.availability, not through
    # the simulator's internals.
    private = [alias.name for node in ast.walk(parse(PACKAGE / "cli.py"))
               if isinstance(node, ast.ImportFrom) and node.module in ("simulate", "pcraft.simulate")
               for alias in node.names if alias.name.startswith("_")]
    assert not private, f"cli.py imports private simulator names: {private}"


def test_chains_are_checked_in_one_place():
    # Ctmc's constructor checks every chain, however it was built; the
    # label translation in build_ctmc repeats none of its checks.
    phrases = ("initial probabilities", "self-loop", "transition rate")
    tree = parse(PACKAGE / "ctmc.py")
    checker = {id(node) for cls in tree.body
               if isinstance(cls, ast.ClassDef) and cls.name == "Ctmc"
               for func in cls.body
               if isinstance(func, ast.FunctionDef) and func.name == "__post_init__"
               for node in ast.walk(func)}
    inside, outside = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            for phrase in phrases:
                if phrase in node.value:
                    if id(node) in checker:
                        inside.add(phrase)
                    else:
                        outside.append(f"ctmc.py:{node.lineno} {phrase!r}")
    assert inside == set(phrases) and not outside, f"chain checks outside Ctmc: {outside}"


def test_numbers_are_checked_in_one_place():
    # One checker decides what a valid public number is; the config parser
    # and the benchmark CSV reader check text, and name a key or a cell.
    owners = {("ctmc", "_check_number"), ("config", "_parse_value"),
              ("perf", "parse_benchmark_csv")}
    inside, outside = set(), []
    for path in MODULES:
        tree = parse(path)
        owned = {id(node): (path.stem, func.name) for func in ast.walk(tree)
                 if isinstance(func, ast.FunctionDef) and (path.stem, func.name) in owners
                 for node in ast.walk(func)}
        for node in ast.walk(tree):
            if ((isinstance(node, ast.Attribute) and node.attr == "isfinite"
                 and isinstance(node.value, ast.Name) and node.value.id == "math")
                    or (isinstance(node, ast.Name) and node.id == "isfinite")):
                if id(node) in owned:
                    inside.add(owned[id(node)])
                else:
                    outside.append(f"{path.name}:{node.lineno}")
            if "_is_integer" in (getattr(node, "id", None), getattr(node, "name", None)):
                outside.append(f"{path.name}:{node.lineno} _is_integer")
    assert inside and inside <= owners and not outside, (
        f"numbers checked outside the checker: {outside}")


def test_simulator_shares_the_kernels_input_checks():
    # The simulator cross-checks the solvers, so it accepts exactly the
    # rewards and horizons they accept.
    tree = parse(PACKAGE / "simulate.py")
    called = {node.func.id for node in ast.walk(tree)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    own = [f"simulate.py:{node.lineno}" for node in ast.walk(tree)
           if (isinstance(node, ast.Attribute) and node.attr == "isfinite")
           or (isinstance(node, ast.Name) and node.id == "isfinite")]
    assert {"_check_reward", "_check_time"} <= called and not own, own


def test_planner_imports_no_scipy():
    # Its first-cap bounds need math alone; scipy.stats would add to the
    # start-up of every command that plans.
    tree = parse(PACKAGE / "planner.py")
    outside = {alias.name.split(".")[0] for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names}
    outside |= {node.module.split(".")[0] for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 0}
    assert outside <= {"__future__", "dataclasses", "math", "numpy"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_module_level_scipy_import(path):
    # Importing scipy.sparse and its linalg takes longer than most commands
    # spend on their chains; only the routes that need it import it.
    top = [node for node in parse(path).body if isinstance(node, (ast.Import, ast.ImportFrom))]
    names = [alias.name for node in top if isinstance(node, ast.Import) for alias in node.names]
    names += [node.module for node in top
              if isinstance(node, ast.ImportFrom) and node.level == 0]
    assert not [name for name in names if name.split(".")[0] == "scipy"]


def test_small_chain_commands_load_no_scipy(tmp_path):
    script = textwrap.dedent("""
        import contextlib, io, sys
        import numpy as np
        import pcraft.ctmc
        from pcraft.cli import main
        from pcraft.simulate import simulate_ctmc

        def scipy_modules():
            return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

        assert not scipy_modules(), ("import", scipy_modules())
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["plan", "--config", sys.argv[1]]) == 0
        assert not scipy_modules(), ("plan", scipy_modules())
        n = 300
        chain = pcraft.ctmc.build_ctmc(
            [(i, i + 1, 1.0) for i in range(n - 1)] + [(i + 1, i, 2.0) for i in range(n - 1)],
            {i: float(i == 0) for i in range(n)})
        reward = (np.arange(n) < 5).astype(float)
        simulate_ctmc(chain, reward, 50.0, replications=20, seed=1)
        assert not scipy_modules(), ("simulate", scipy_modules())
        occupancy = pcraft.ctmc.occupancy_from_each_start(chain, reward, 50.0)
        assert 0.0 < occupancy[0] < 50.0 and "scipy.sparse.linalg" in sys.modules
    """)
    cfg = tmp_path / "cloud.cfg"
    cfg.write_text("technique = ARA\ndeployment = cloud\nhw_crash_per_year = 6\n"
                   "crash_recovery_seconds = 1800\ntarget_nines = 3\n", encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script, str(cfg)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_traced_ctmc_names_stay_module_functions():
    import pcraft.ctmc

    for name in TRACED_CTMC_NAMES:
        assert name in pcraft.ctmc.__all__
        assert getattr(pcraft.ctmc, name).__module__ == "pcraft.ctmc"


def test_every_ctmc_export_has_a_caller():
    # No exported helper that nothing uses: another module of the package
    # imports it (a re-export from __init__ does not count), or the
    # benchmark's tracer pins it.
    imported = {alias.name for path in MODULES if path.stem not in ("__init__", "ctmc")
                for node in ast.walk(parse(path))
                if isinstance(node, ast.ImportFrom) and node.module in ("ctmc", "pcraft.ctmc")
                for alias in node.names}
    exported = set(exported_names(parse(PACKAGE / "ctmc.py")))
    unused = sorted(exported - imported - set(TRACED_CTMC_NAMES))
    assert not unused, f"pcraft.ctmc exports names nothing calls: {', '.join(unused)}"


def test_availability_builds_chains_only_through_explore():
    # Every cluster chain comes from one reachability builder.
    tree = parse(PACKAGE / "availability.py")
    explore = {id(node) for func in ast.walk(tree)
               if isinstance(func, ast.FunctionDef) and func.name == "_explore"
               for node in ast.walk(func)}
    uses = [node for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id == "build_ctmc"]
    outside = [f"availability.py:{node.lineno}" for node in uses if id(node) not in explore]
    assert uses and not outside, f"build_ctmc used outside _explore: {outside}"


def test_solved_chains_are_sized_before_they_are_built():
    # The public builder builds chains of any size; every caller in the
    # package builds through _model_to_solve or _model_to_simulate.
    users = sorted({(path.stem, func.name) for path in MODULES if path.stem != "availability"
                    for func in ast.walk(parse(path)) if isinstance(func, ast.FunctionDef)
                    for node in ast.walk(func)
                    if isinstance(node, ast.Name) and node.id == "build_availability_model"})
    assert users == [], f"unsized builds: {users}"


def test_no_public_function_takes_a_tolerance():
    # The solvers' accuracy is fixed; an option that some routes ignore
    # would not do what its docstring says.
    import inspect

    import pcraft

    offenders = [name for name in pcraft.__all__
                 if inspect.isfunction(getattr(pcraft, name))
                 and "tol" in inspect.signature(getattr(pcraft, name)).parameters]
    assert not offenders, f"public functions taking tol: {', '.join(offenders)}"


def test_every_module_is_checked():
    assert {p.stem for p in MODULES} >= {"__init__", "cli", "config", "planner",
                                         "suites", "variants"}
