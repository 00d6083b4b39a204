"""Run one benchmark workload in this process and print a JSON result.

Started by ``run.py``, one process per workload run, with the BLAS and
OpenMP thread counts already pinned in the environment. It imports
fermisde from ``src/`` of the checkout that holds this file, sets up
(parse every spec, build every catalog problem), then repeats the
workload's pipeline calls through ``fermisde.cli.run`` for the time it
is given and checks each report.

``--setup-only`` stops after set-up; ``run.py`` starts several such
processes to time set-up. ``--trace 1`` runs one warm-up pass, passes
without spans, then passes with spans, and reports per-layer metrics and
the tracing overhead (the difference of their median wall times).

The last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"

sys.path.insert(0, str(BENCH_DIR))
import workloads  # noqa: E402

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def import_library():
    """Import fermisde from this checkout's src/, refusing any other copy."""
    sys.path.insert(0, str(SRC))
    import fermisde
    import fermisde.catalog
    import fermisde.cli

    where = Path(fermisde.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"fermisde came from {where}, not from {SRC}")
    return fermisde.cli, fermisde.catalog


def set_up(cli, catalog, calls):
    """Parse every spec and build every catalog problem the calls use."""
    specs = []
    for _, _, raw in calls:
        spec = cli.parse_problem(raw)
        if spec.problem_id is not None:
            catalog.build(
                spec.problem_id,
                n_steps=spec.n_steps if spec.explicit_grid else None,
            )
        specs.append(spec)
    return specs


def sizes(catalog, specs):
    """Generator count n per call."""
    out = []
    for spec in specs:
        n = spec.n_steps
        if spec.problem_id is not None and not spec.explicit_grid:
            n = catalog.catalog()[spec.problem_id].default_steps
        out.append(n)
    return out


def snapshot(directory):
    """Report files under a directory, timing sidecars excluded."""
    return {
        str(p.relative_to(directory)): p.read_bytes()
        for p in sorted(directory.rglob("*"))
        if p.is_file() and not p.name.endswith("_meta.json")
    }


class Runner:
    """Repeats a workload's calls and keeps the correctness tally."""

    def __init__(self, cli, calls, specs, seed, out_dir, reference):
        self.cli = cli
        self.calls = calls
        self.specs = specs
        self.seed = seed
        self.out_dir = out_dir
        self.reference = reference
        self.iteration = 0
        self.first = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def one_pass(self):
        """Run every call once; returns per-call (wall, CPU) seconds."""
        gc.collect()
        base = self.out_dir / f"it{self.iteration}"
        results = []
        times = []
        for (label, sub, _), spec in zip(self.calls, self.specs):
            t0 = time.perf_counter()
            c0 = time.process_time()
            try:
                report = self.cli.run(sub, spec, str(base / label),
                                      seed=self.seed)
            except Exception:  # a failed call is counted, the run goes on
                report = traceback.format_exc(limit=3)
            times.append((time.perf_counter() - t0, time.process_time() - c0))
            results.append(report)
        for (label, _, _), report in zip(self.calls, results):
            self._check(label, report, base / label)
        if self.iteration > 0:
            shutil.rmtree(base)
        self.iteration += 1
        return times

    def _check(self, label, report, directory):
        self.attempted += 1
        if isinstance(report, str):
            problems = [f"{label}: raised\n{report}"]
        else:
            ref = None if self.reference is None else self.reference[label]
            problems = workloads.check_report(label, report, ref)
            files = snapshot(directory)
            first = self.first.setdefault(label, files)
            if files != first:
                problems.append(f"{label}: report files differ from pass 0")
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def repeat(self, seconds, least=1, after_pass=None):
        """Whole passes while the next one is expected to fit; at least
        ``least``.

        Returns per-call wall and CPU samples, one per pass, keyed by
        call label.
        """
        walls = {label: [] for label, _, _ in self.calls}
        cpus = {label: [] for label, _, _ in self.calls}
        passes = []
        begin = time.monotonic()
        while True:
            times = self.one_pass()
            for (label, _, _), (wall, cpu) in zip(self.calls, times):
                walls[label].append(wall)
                cpus[label].append(cpu)
            passes.append(sum(wall for wall, _ in times))
            if after_pass is not None:
                after_pass(passes[-1])
            spent = time.monotonic() - begin
            if (len(passes) >= least
                    and spent + statistics.median(passes) > seconds):
                return walls, cpus


def median_pass(samples):
    """One pass's seconds: the sum over calls of each call's median.

    A burst of load from outside the process slows the calls it
    overlaps; a per-call median drops those samples, where the median
    of whole passes keeps every call of a pass that a burst touched.
    """
    return sum(statistics.median(values) for values in samples.values())


def traced_metrics(runner, cli, catalog, calls, seconds):
    """Untraced passes, then traced ones; per-layer metrics and spans."""
    import tracer as layers

    tracer = layers.Tracer()
    tracer.install()
    specs = set_up(cli, catalog, calls)
    setup_totals = tracer.totals()
    tracer.uninstall()
    runner.specs = specs
    # The first pass of a process pays for fresh memory that later passes
    # reuse; leaving it out of both sides keeps the overhead fair.
    runner.one_pass()
    plain_walls, _ = runner.repeat(seconds / 2)

    per_pass = []
    coverage = []
    spans = []
    mark = len(tracer.span_start)

    def record(wall):
        nonlocal mark
        per_pass.append(tracer.totals())
        coverage.append(tracer.top_level_seconds(mark) / wall)
        spans.append(len(tracer.span_start) - mark)
        mark = len(tracer.span_start)
        tracer.reset_totals()

    tracer.reset_totals()
    tracer.install()
    traced_walls, _ = runner.repeat(seconds / 2, after_pass=record)
    bindings = dict(tracer.patched)
    tracer.uninstall()

    metrics = {}
    for name in layers.metric_units():
        if name.startswith("trace."):
            continue
        field = name.rsplit(".", 1)[1]
        middle = statistics.median(p[name] for p in per_pass)
        if field in ("keep_ratio", "p50_ms", "pmax_ms"):
            metrics[name] = middle
        elif field == "terms_max":
            metrics[name] = max(setup_totals[name], middle)
        else:
            metrics[name] = setup_totals[name] + middle
    traced_wall = median_pass(traced_walls)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - median_pass(plain_walls)
    metrics["trace.coverage"] = statistics.median(coverage)
    metrics["trace.spans"] = statistics.median(spans)
    return metrics, tracer, bindings


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    calls = workloads.WORKLOADS[args.workload][args.size]
    cli, catalog = import_library()
    if args.trace:
        # Set-up is traced (and untimed) inside traced_metrics.
        specs = None
    else:
        specs = set_up(cli, catalog, calls)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    import numpy

    reference = None
    if args.size == "full":
        reference = workloads.load_reference()[args.workload]
    out_dir = OUT_ROOT / f"{args.workload}-{args.size}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    runner = Runner(cli, calls, specs, args.seed, out_dir, reference)
    result = {
        "ready": ready,
        "env": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "cores": len(os.sched_getaffinity(0)),
            "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        },
    }
    if args.trace:
        metrics, tracer, bindings = traced_metrics(
            runner, cli, catalog, calls, args.seconds
        )
        tracer.dump(out_dir / "spans.npz")
        result.update(metrics=metrics, bindings=bindings)
    else:
        warmup, least = workloads.PASSES[args.workload]
        begin = time.monotonic()
        for _ in range(warmup):
            runner.one_pass()
        walls, cpus = runner.repeat(
            args.seconds - (time.monotonic() - begin), least
        )
        result.update(
            wall_s=median_pass(walls),
            cpu_s=median_pass(cpus),
            call_wall_s=walls,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0,
        )
    result.update(
        n=sizes(catalog, runner.specs),
        passes=runner.iteration,
        attempted=runner.attempted,
        failed=runner.failed,
        problems=runner.problems[:20],
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
