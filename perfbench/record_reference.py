"""Record the reference values the benchmark compares outputs with.

Runs every call of every full-size workload once at seed 0 and writes
the values at the pointers listed in ``workloads.CHECKS`` to
``reference.json``. Run it only on a commit whose outputs are trusted
(the committed file comes from the commit that added the benchmark):

    OPENBLAS_NUM_THREADS=1 python3 perfbench/record_reference.py
"""

from __future__ import annotations

import json
import shutil
import sys

import worker
import workloads


def main():
    cli, _ = worker.import_library()
    out = worker.OUT_ROOT / "reference"
    shutil.rmtree(out, ignore_errors=True)
    reference = {}
    for name, sizes in workloads.WORKLOADS.items():
        reference[name] = {}
        for label, sub, raw in sizes["full"]:
            report = cli.run(sub, cli.parse_problem(raw), str(out / label),
                             seed=0)
            problems = workloads.check_report(label, report, None)
            if problems:
                sys.exit("refusing to record a failing run:\n"
                         + "\n".join(problems))
            reference[name][label] = {
                pointer: workloads.resolve(report, pointer)
                for pointer, _ in workloads.CHECKS[label]
            }
    with open(workloads.REFERENCE_PATH, "w") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    shutil.rmtree(out)


if __name__ == "__main__":
    main()
