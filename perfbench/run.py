"""fermisde benchmark: end-to-end and per-layer metrics of three workloads.

One workload:

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 30 --trace 0

prints each metric with its unit, then one JSON line with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.

Every workload, both modes, with a ``BENCH_<label>.json`` written:

    python3 perfbench/run.py --label baseline --bench-dir perfbench/results

Each run starts its own processes (see worker.py) with the BLAS and
OpenMP thread counts pinned to 1, so ``peak_rss_mb`` belongs to one
workload. ``setup_s`` is the median, over several processes, of the time
from starting the process to its first pipeline call. The exit status is
0 when every output was correct, 1 when some check failed and 2 when the
benchmark could not run at all (then no result is printed).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"

sys.path.insert(0, str(BENCH_DIR))
import workloads  # noqa: E402

SETUP_PROBES = 19
BLAS_THREADS = "1"
CHILD_TIMEOUT = 170.0
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def child_env():
    env = dict(os.environ)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        env[name] = BLAS_THREADS
    env["PYTHONHASHSEED"] = "0"
    return env


def start_worker(args):
    """Run worker.py; returns (start time, its JSON result)."""
    command = [sys.executable, str(WORKER), *args]
    started = time.monotonic()
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=child_env(), capture_output=True,
            text=True, timeout=CHILD_TIMEOUT,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{' '.join(args)}: timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"{' '.join(args)}: exit {proc.returncode}\n{proc.stderr[-3000:]}"
        )
    return started, json.loads(lines[-1])


def run_workload(name, seed, seconds, trace, size):
    """One run of one workload; returns the worker result plus metrics."""
    common = ["--workload", name, "--seed", str(seed), "--size", size]
    if trace:
        _, result = start_worker(
            common + ["--seconds", str(seconds), "--trace", "1"]
        )
        return result
    setups = []
    for _ in range(SETUP_PROBES):
        started, probe = start_worker(common + ["--setup-only"])
        setups.append(probe["ready"] - started)
    started, result = start_worker(
        common + ["--seconds", str(seconds), "--trace", "0"]
    )
    setups.append(result["ready"] - started)
    result["setup_samples"] = setups
    result["metrics"] = {
        "setup_s": statistics.median(setups),
        "wall_s": result["wall_s"],
        "cpu_s": result["cpu_s"],
        "peak_rss_mb": result["peak_rss_mb"],
    }
    return result


def units(trace):
    if not trace:
        return END_TO_END
    import tracer

    return tracer.metric_units()


def summary(result, trace):
    """The contract line: correct, attempted, failed and the metrics."""
    table = units(trace)
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            key: {"value": result["metrics"][key], "unit": unit}
            for key, unit in table.items()
        },
    }


def print_result(name, result, trace):
    for problem in result["problems"]:
        print(f"{name}: FAILED {problem}")
    for key, unit in units(trace).items():
        print(f"{name} {key} {result['metrics'][key]:.6g} {unit}")
    ratio = result["failed"] / result["attempted"]
    print(f"{name} fail_ratio {ratio:.6g} ratio "
          f"({result['failed']} of {result['attempted']} calls, "
          f"{result['passes']} passes)")


def run_all(args):
    """Every workload untraced and traced; writes BENCH_<label>.json."""
    bench = {
        "label": args.label,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "host": {
            "cores": len(os.sched_getaffinity(0)),
            "machine": platform.machine(),
            "blas_threads": BLAS_THREADS,
        },
        "workloads": {},
    }
    failed = 0
    for name in workloads.WORKLOADS:
        plain = run_workload(name, args.seed, args.seconds, 0, args.size)
        traced = run_workload(name, args.seed, args.seconds, 1, args.size)
        print_result(name, plain, 0)
        print(f"{name} trace.overhead_s "
              f"{traced['metrics']['trace.overhead_s']:.6g} s")
        failed += plain["failed"] + traced["failed"]
        bench["host"].update(plain["env"])
        bench["workloads"][name] = {
            "end_to_end": summary(plain, 0),
            "per_layer": summary(traced, 1),
            "fail_ratio": plain["failed"] / plain["attempted"],
            "passes": {"untraced": plain["passes"],
                       "traced": traced["passes"]},
            "setup_samples_s": plain["setup_samples"],
            "call_wall_samples_s": plain["call_wall_s"],
            "sizes": {
                "n": plain["n"],
                "max_terms": max(
                    traced["metrics"]["forward.linear_euler_forward.terms_max"],
                    traced["metrics"]["algebra.CliffordElement.init.terms_max"],
                ),
            },
            "problems": plain["problems"] + traced["problems"],
        }
    target = Path(args.bench_dir)
    target.mkdir(parents=True, exist_ok=True)
    path = target / f"BENCH_{args.label}.json"
    with open(path, "w") as handle:
        json.dump(bench, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {path}")
    return 1 if failed else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        help="run one workload (default: all, with BENCH file)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--label", default="local")
    parser.add_argument("--bench-dir", default=str(ROOT / ".bench_out"))
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fermisde" / "__init__.py").is_file():
        print(f"no fermisde sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.workload is None:
            return run_all(args)
        result = run_workload(args.workload, args.seed, args.seconds,
                              args.trace, args.size)
    except BenchError as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2
    print_result(args.workload, result, args.trace)
    line = summary(result, args.trace)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
