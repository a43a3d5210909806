"""End-to-end benchmark of the DSE evaluator, stores and sweep service.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the program is imported from
``src/``.  Workloads (see ``README.md`` for why each exists):

    local-cold    library run_sweep into a growing JSONL store, all cold
    served-read   two clients reading a SQLite store larger than the cache
    fleet-launch  repro dse-launch --fleet 2, one cold sweep at a time
    all           each of the above in turn, each in its own process

``--seed`` defaults to 1; 104729 is the held-out seed, pinned like the
default but never used while tuning.  With ``--trace 0`` the run prints
the end-to-end metrics; with ``--trace 1`` it runs the workload twice
for half the time each, untraced then traced, and prints the per-layer
metrics.  Which metrics, and their units, is read from the
``end_to_end`` and ``per_layer`` lists of ``BENCHMARK.json``.  Every
record received is checked (``oracle.py``).  The last line a workload
prints is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
import uuid
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

DEFAULT_SEED = 1
HELD_OUT_SEED = 104729
WORKLOADS = ("local-cold", "served-read", "fleet-launch")

#: Rows of the per-run table, printed when the workload has samples:
#: (sample name, unit).  ``error_rate`` follows them.
TABLE = [
    ("setup_s", "s"),
    ("cold_sweep_ms", "ms"),
    ("warm_sweep_ms", "ms"),
    ("first_record_ms", "ms"),
    ("page_ms", "ms"),
    ("query_ms", "ms"),
    ("cold_points_per_s", "points/s"),
    ("store_bytes_per_record", "B"),
    ("peak_rss_mb", "MB"),
]

P90_MIN_SAMPLES = 100


def _catalogue(kind: str) -> dict[str, str]:
    """``BENCHMARK.json``'s ``end_to_end`` or ``per_layer``: name -> unit."""
    with open(ROOT / "BENCHMARK.json") as handle:
        return {metric["name"]: metric["unit"] for metric in json.load(handle)[kind]}


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _p90(values: list[float]) -> float | None:
    if len(values) < P90_MIN_SAMPLES:
        return None
    return statistics.quantiles(values, n=10)[-1]


def _print_report(workload: str, seed: int, outcome, metrics: dict, units: dict):
    print(f"workload {workload}, seed {seed}")
    header = ("metric", "unit", "n", "median", "q1", "q3", "p90")
    print("{:28} {:>10} {:>5} {:>12} {:>12} {:>12} {:>12}".format(*header))
    attempted = outcome.attempted
    error_rate = outcome.failed / attempted if attempted else 0.0
    rows = [(n, u, outcome.samples[n]) for n, u in TABLE if outcome.samples.get(n)]
    for name, unit, values in rows + [("error_rate", "fraction", [error_rate])]:
        q1, median, q3 = _quartiles(values)
        p90 = _p90(values)
        p90_text = f"{p90:12.4f}" if p90 is not None else f"{'-':>12}"
        print(
            f"{name:28} {unit:>10} {len(values):5d} {median:12.4f} "
            f"{q1:12.4f} {q3:12.4f} {p90_text}"
        )
    print("reported:")
    for name, value in metrics.items():
        print(f"  {name:36} {value:14.4f} {units[name]}")
    print(f"operations: {outcome.attempted} attempted, {outcome.failed} failed")
    for error in outcome.errors[:10]:
        print(f"FAILED: {error}")
    for problem in outcome.problems[:20]:
        print(f"WRONG: {problem}")


def _run(workload: str, seed: int, seconds: float, trace: bool, tmp: Path, children):
    import layers
    import spans
    from workloads import WORKLOAD_FUNCTIONS, Outcome, Phase

    fn = WORKLOAD_FUNCTIONS[workload]

    def phase(name: str, length: float, tracer=None):
        path = tmp / name
        path.mkdir()
        return Phase(seed, length, path, children, tracer)

    if not trace:
        units = _catalogue("end_to_end")
        outcome = fn(phase("run", seconds))
        metrics = dict(outcome.metrics)
        metrics["setup_s"] = statistics.median(outcome.samples["setup_s"])
        return outcome, {name: metrics[name] for name in units}, units

    units = _catalogue("per_layer")
    base = fn(phase("untraced", seconds / 2))
    tracer = spans.Tracer()
    spans.install(tracer)
    outcome = fn(phase("traced", seconds / 2, tracer))
    pairs = min(len(base.primary), len(outcome.primary))
    overhead = 0.0
    if pairs:
        overhead = (sum(outcome.primary[:pairs]) / sum(base.primary[:pairs]) - 1) * 100
    metrics = layers.compute(outcome.trace, overhead)
    combined = Outcome(
        samples=outcome.samples,
        attempted=base.attempted + outcome.attempted,
        failed=base.failed + outcome.failed,
        problems=base.problems + outcome.problems,
        errors=base.errors + outcome.errors,
    )
    return combined, {name: metrics[name] for name in units}, units


def _measure(workload: str, seed: int, seconds: float, trace: bool) -> int:
    """One workload: its report, then its JSON line; 1 if the run broke."""
    import procs

    run_id = uuid.uuid4().hex
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-run-", dir=ROOT))
    children = procs.Children(run_id)
    result = None
    hygiene: list[str] = []
    try:
        result = _run(workload, seed, seconds, trace, tmp, children)
    except Exception:  # noqa: BLE001 - report, clean up, fail the run
        traceback.print_exc()
    finally:
        if children.stop_all():
            hygiene.append("a child process had to be killed at the end of the run")
        stray = procs.leaked(run_id)
        if stray:
            procs.kill_pids(stray)
            hygiene.append(f"leaked processes: {stray}")
        shutil.rmtree(tmp, ignore_errors=True)
        if tmp.exists():
            hygiene.append(f"could not remove {tmp}")
    if result is None:
        return 1

    outcome, metrics, units = result
    outcome.problems += hygiene
    _print_report(workload, seed, outcome, metrics, units)
    line = {
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(line), flush=True)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        missing = ROOT / "src" / "repro"
        print(f"perfbench: nothing to measure: {missing} is missing", file=sys.stderr)
        return 2
    if args.workload == "all":
        # One process per workload, so no memo, cache, span wrapper or
        # peak-RSS mark carries over from one workload to the next.
        options = ["--seed", str(args.seed), "--seconds", str(args.seconds)]
        options += ["--trace", str(args.trace)]
        codes = [
            subprocess.call([sys.executable, __file__, "--workload", name, *options])
            for name in WORKLOADS
        ]
        return max(codes)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    return _measure(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
