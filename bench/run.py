"""Benchmark runner: one workload in one process, one JSON line out.

    python3 bench/run.py --workload sweep-mix --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Set-up is timed in separate child processes, each from its start until
it has imported pcraft, built the workload's inputs and run one warm-up
operation; ``setup_s`` is their median.  The timed phase then repeats
whole rounds of the workload's operations until ``--seconds`` would be
passed (at least one round).  With ``--trace 0`` the last stdout line
carries the end-to-end metrics; with ``--trace 1`` pcraft's public
functions are wrapped (see ``tracer.py``), the per-layer metrics are
printed instead, and the spans are written to
``bench/out/trace-<workload>-seed<seed>.jsonl``.  Every run checks the
outputs against the oracles in ``oracles.py``.

OpenBLAS, OpenMP and MKL are pinned to one thread before numpy loads:
dense squaring in pcraft's solver is BLAS-bound, and on a two-core
machine a second thread cuts its time by about 40%, so the figures would
depend on whether the other core is free.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

WORKLOAD_NAMES = ("onprem-plan", "sweep-mix", "montecarlo")
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",),
                        help="one workload, or 'all' for each in its own process")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _set_up(args, workdir: Path):
    """Import pcraft, build the inputs, run one warm-up operation."""
    # Only the checkout's own sources count, never an installed pcraft.
    if not (ROOT / "src" / "pcraft").is_dir():
        raise RuntimeError(f"pcraft sources not found under {ROOT / 'src'}")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workloads import WORKLOADS
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, workdir)
    workload.warm_up()
    return workload


def _probe(args) -> int:
    workdir = OUT / f"probe-{os.getpid()}"
    try:
        _set_up(args, workdir)
        print(f"ready {time.monotonic()!r}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def _time_setup(args) -> float:
    """Seconds from spawning a child until it reports ready (same clock)."""
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds)]
    start = time.monotonic()
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, cwd=ROOT)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr.strip()}")
    ready = float(done.stdout.split()[-1])
    return ready - start


def _run_rounds(workload, seconds: float, tracer):
    """Whole rounds until the next one would pass ``seconds``."""
    outputs, op_times, round_times, errors = [], [], [], []
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.round = len(round_times)
        round_start = time.perf_counter()
        round_out = []
        for index, op in enumerate(workload.ops):
            if tracer is not None:
                tracer.op = index
            t = time.perf_counter()
            try:
                result = op.run()
            except Exception as err:  # one failed operation must not end the run
                result = None
                errors.append(f"round {len(round_times)} {op.label}: "
                              f"{type(err).__name__}: {err}")
            op_times.append(time.perf_counter() - t)
            round_out.append(result)
        round_times.append(time.perf_counter() - round_start)
        outputs.append(round_out)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(round_times) > seconds:
            break
    if tracer is not None:
        tracer.round = tracer.op = None
    return outputs, op_times, round_times, errors


def _run_all(args) -> int:
    """Each workload in its own process; print every metric by name and unit."""
    results = {}
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT)
        if done.returncode != 0:
            print(f"bench: {name} exited {done.returncode}", file=sys.stderr)
            return 1
        results[name] = result = json.loads(done.stdout.splitlines()[-1])
        print(f"{name}: correct {result['correct']}, attempted {result['attempted']}, "
              f"failed {result['failed']}")
        for metric, value in result["metrics"].items():
            print(f"  {metric:28s} {value['value']:>14.6g} {value['unit']}")
    print(json.dumps(results))
    return 0 if all(r["correct"] and not r["failed"] for r in results.values()) else 1


def main(argv=None) -> int:
    args = _parse(argv)
    if args.setup_probe:
        return _probe(args)
    if args.seconds <= 0:
        print("bench: --seconds must be positive", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"run-{os.getpid()}"
    try:
        # A traced run reports no set-up time, so it skips the probes.
        setup_times = [_time_setup(args) for _ in range(SETUP_PROBES * (1 - args.trace))]
        workload = _set_up(args, workdir)
        tracer = None
        if args.trace:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        outputs, op_times, round_times, errors = _run_rounds(
            workload, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        problems = list(errors)
        events = 0.0
        if not errors:
            problems, events = workload.check(outputs[0])
            for later, round_out in enumerate(outputs[1:], start=1):
                if round_out != outputs[0]:
                    problems.append(f"round {later} outputs differ from round 0")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rounds, per_round = len(round_times), len(workload.ops)
    wall_s = statistics.median(round_times)
    print(f"bench: {args.workload} seed {args.seed}: {rounds} rounds of {per_round} "
          f"operations, wall_s {wall_s:.4f}{' (traced)' if tracer else ''}, "
          f"{len(problems)} problems", file=sys.stderr)
    for problem in problems[:20]:
        print(f"bench: {problem}", file=sys.stderr)

    if tracer is not None:
        from tracer import METRICS
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
        values = tracer.layer_metrics(events)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in METRICS.items()}
    else:
        values = {
            "wall_s": wall_s,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb,
            "op_p50_ms": statistics.median(op_times) * 1e3,
            "op_p90_ms": statistics.quantiles(op_times, n=10, method="inclusive")[8] * 1e3,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": not problems, "attempted": rounds * per_round,
                      "failed": len(errors), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception as err:  # report, print no result, exit nonzero
        print(f"bench: {type(err).__name__}: {err}", file=sys.stderr)
        sys.exit(1)
