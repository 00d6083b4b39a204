"""Workload definitions and the output checks of the fermisde benchmark.

A workload is a list of pipeline calls into ``fermisde.cli.run``. Each
call has a label, a subcommand and a problem spec. ``full`` sizes are the
measured ones; ``tiny`` sizes exist for the benchmark's self-test and are
checked only for ``pass`` and byte-identical reports.

Reference values live in ``reference.json`` next to this file and were
recorded at seed 0 by ``record_reference.py``. The ladder, oracle, bqsde
and forward calls draw no randomness, so their values hold for every
seed. The algebra, ito and bg-constants calls draw random elements from
the seed, so only their residuals (near 0 for every seed) and violation
counts are compared.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

GRID7 = [-0.9, -0.6, -0.3, 0.0, 0.3, 0.6, 0.9]
LADDER_EPS = [0.25, 0.125, 0.0625, 0.03125, 0.015625]
LADDER_CONTROL = {"ubar_weight": 0.3, "alt_weight": -0.9, "x0_scale": 1.0}


def _ladder(n, eps):
    return [(
        "ladder", "ladder",
        {"problem_id": "lq_scalar", "grid": {"n_steps": n},
         "eps_list": eps, "control": dict(LADDER_CONTROL)},
    )]


def _oracle(n, steps_coarse, values):
    return [
        (f"mp_{pid}", "max-principle",
         {"problem_id": pid, "grid": {"n_steps": n},
          "steps_coarse": steps_coarse, "value_grid": list(values)})
        for pid in ("lq_scalar", "control_in_noise")
    ]


def _suite(n_alg, n_bg, n_ito, n_bq, n_fwd):
    forward = {"problem_id": "lq_scalar"}
    if n_fwd is not None:
        forward["grid"] = {"n_steps": n_fwd}
    return [
        ("algebra", "algebra-suite", {"grid": {"n_steps": n_alg}}),
        ("bg", "bg-constants", {"grid": {"n_steps": n_bg}}),
        ("ito", "ito-suite", {"grid": {"n_steps": n_ito}}),
        ("bqsde", "bqsde", {"grid": {"n_steps": n_bq}}),
        ("forward", "forward", forward),
    ]


# name -> size -> list of (label, subcommand, spec)
WORKLOADS = {
    "ladder": {
        "full": _ladder(128, LADDER_EPS),
        "tiny": _ladder(16, [0.25, 0.125, 0.0625]),
    },
    # The oracle calls (criterion 11) and the suite calls share one
    # workload, so that one run measures each for longer.
    "oracle_suite": {
        "full": _oracle(32, 3, GRID7) + _suite(14, 14, 64, 256, None),
        "tiny": _oracle(8, 2, [-0.3, 0.0, 0.3]) + _suite(6, 4, 8, 16, 16),
    },
}

# name -> (warm-up passes, least timed passes) of an untraced run. The
# first pass of a process pays for fresh memory, which makes an oracle
# call up to a third slower than later passes; oracle_suite leaves that
# pass out of its timing, and times at least two more. A ladder pass
# takes about half of a run, so ladder times its only pass.
PASSES = {
    "ladder": (0, 1),
    "oracle_suite": (1, 2),
}

# Quantities compared with the reference, per call label: (pointer into
# the report returned by cli.run, kind). Kinds and their tolerances:
#   value    |v - ref| <= 1e-9 + 1e-6 * |ref|
#   slope    |v - ref| <= 1e-3 (a log-log fit over pruned solves)
#   residual |v - ref| <= 1e-9 (identities that hold to rounding)
#   exact    v == ref (flags, counts and vacuous slopes)
TOLERANCES = {
    "value": (1e-9, 1e-6),
    "slope": (1e-3, 0.0),
    "residual": (1e-9, 0.0),
}
_SERIES = ("xi_sq", "y_sq", "z_sq", "eta_sq", "zeta_sq")
_ORACLE_CHECKS = [("/report/oracle_cost", "value")] + [
    (f"/report/oracle_weights/{k}", "value") for k in range(32)
]
CHECKS = {
    "ladder": (
        [(f"/report/runs/0/slopes/{s}", "slope") for s in _SERIES]
        + [(f"/report/runs/0/vacuous/{s}", "exact") for s in _SERIES]
    ),
    "mp_lq_scalar": _ORACLE_CHECKS,
    "mp_control_in_noise": _ORACLE_CHECKS,
    "algebra": [
        ("/report/car_residual", "residual"),
        ("/report/brownian_square_residual", "residual"),
        ("/report/star_grading_pairing_residual", "residual"),
        ("/report/holder_violations", "exact"),
        ("/report/monotonicity_violations", "exact"),
    ],
    "bg": [("/report/p2_isometry_residual", "residual")],
    "ito": [
        ("/report/isometry_residual", "residual"),
        ("/report/integral_martingale_gap", "residual"),
        ("/report/representation_residual", "residual"),
        ("/report/commutation_residual", "residual"),
    ],
    "bqsde": [
        ("/report/stepwise_residual", "residual"),
        ("/report/picard_residual", "residual"),
        ("/report/stepwise_vs_picard_gap", "residual"),
        ("/report/closed_form/discrete_error", "residual"),
        ("/report/y0_norm2", "value"),
    ],
    "forward": [
        ("/report/terminal_norm2", "value"),
        ("/report/growth/ratio", "value"),
        ("/report/refinement/ratio", "value"),
    ],
}


def resolve(doc, pointer):
    """Value at a JSON pointer (no escapes are needed for these keys)."""
    for part in pointer.strip("/").split("/"):
        doc = doc[int(part)] if isinstance(doc, list) else doc[part]
    return doc


def load_reference():
    with open(REFERENCE_PATH) as handle:
        return json.load(handle)


def _close(value, ref, kind):
    if kind == "exact" or value is None or ref is None:
        return value == ref
    atol, rtol = TOLERANCES[kind]
    return math.isfinite(value) and abs(value - ref) <= atol + rtol * abs(ref)


def check_report(label, report, reference):
    """Problems with one call's report; an empty list means correct.

    ``reference`` maps pointers to values for this call, or is None at
    sizes without recorded values, where only the pass flag is checked.
    """
    problems = []
    if report.get("pass") is not True:
        problems.append(f"{label}: pass is {report.get('pass')!r}")
    body = report.get("report", {})
    if "mp_min" in body and not body["mp_min"] >= -body["mp_tol"]:
        problems.append(
            f"{label}: mp_min {body['mp_min']!r} below -{body['mp_tol']!r}"
        )
    if reference is None:
        return problems
    for pointer, kind in CHECKS[label]:
        try:
            value = resolve(report, pointer)
        except (KeyError, IndexError, TypeError):
            problems.append(f"{label}: {pointer} missing")
            continue
        ref = reference[pointer]
        if not _close(value, ref, kind):
            problems.append(
                f"{label}: {pointer} is {value!r}, reference {ref!r} ({kind})"
            )
    return problems
