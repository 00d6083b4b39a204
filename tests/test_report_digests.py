"""Report bytes of the control, backward and algebra-suite pipelines,
pinned by SHA-256.

Each digest is of the report as write_json would write it once the
exponent keys ("p" of each ladder run and of the forward growth check)
are removed, so the pins hold across that schema change; CSV tables are
hashed as written. A change to any number in these reports shows here.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fermisde.cli import parse_problem, run
from fermisde.reporting import dump_json


def _strip_exponent_keys(report):
    body = report["report"]
    for ladder_run in body.get("runs", []):
        ladder_run.pop("p", None)
    if "growth" in body:
        body["growth"].pop("p", None)
    return report


def report_digests(subcommand, spec, seed, out_dir):
    run(subcommand, parse_problem(spec), str(out_dir), seed=seed)
    got = {}
    for path in sorted(out_dir.iterdir()):
        if "_meta" in path.name:
            continue
        if path.suffix == ".json":
            report = _strip_exponent_keys(json.loads(path.read_text()))
            data = dump_json(report).encode()
        else:
            data = path.read_bytes()
        got[path.name] = hashlib.sha256(data).hexdigest()
    return got


def _mp(problem_id, n, **extra):
    return {"problem_id": problem_id, "grid": {"n_steps": n},
            "steps_coarse": 2, **extra}


def _ladder(problem_id):
    return {"problem_id": problem_id, "grid": {"n_steps": 32},
            "offsets": [0.0, 0.25]}


BQSDE_TERMINAL = [
    {"mask": 0, "re": 1.0},
    {"mask": 11, "re": 0.5, "im": -0.25},
    {"mask": 48, "re": -0.75},
    {"mask": 32769, "re": 0.125, "im": 0.5},
    {"mask": 4660, "re": 0.3},
]

CASES = {
    "mp-lq_scalar": ("max-principle", _mp("lq_scalar", 16)),
    "mp-control_in_noise": ("max-principle", _mp("control_in_noise", 16)),
    "mp-odd_drift": ("max-principle", _mp("odd_drift", 16)),
    "mp-driverless": ("max-principle", _mp("driverless", 16)),
    # At x0_scale 0 the oracle's winner is u = 0 and the state is 0, so
    # the cost weights multiply zeros; at x0_scale 1 the adjoint vacua, P
    # and the duality walk all reach the report.
    "mp-lq_scalar-x1": (
        "max-principle", _mp("lq_scalar", 16, control={"x0_scale": 1.0})
    ),
    "mp-control_in_noise-x1": (
        "max-principle",
        _mp("control_in_noise", 16, control={"x0_scale": 1.0}),
    ),
    "mp-odd_drift-x1": (
        "max-principle", _mp("odd_drift", 16, control={"x0_scale": 1.0})
    ),
    # q = 0 with a nonzero state: zero running drive and Hessian. The
    # catalog's driverless already starts at x0_scale 1, so only the
    # spec echo tells this report from mp-driverless.
    "mp-driverless-x1": (
        "max-principle", _mp("driverless", 16, control={"x0_scale": 1.0})
    ),
    "mp-quadratic_drift": (
        "max-principle",
        _mp("quadratic_drift", 6, value_grid=[-0.3, 0.0, 0.3]),
    ),
    "ladder-lq_scalar": ("ladder", _ladder("lq_scalar")),
    "ladder-driverless": ("ladder", _ladder("driverless")),
    "ladder-control_in_noise": ("ladder", _ladder("control_in_noise")),
    # The benchmark's ladder call: n=128, five rungs.
    "ladder-lq_scalar-n128": (
        "ladder",
        {"problem_id": "lq_scalar", "grid": {"n_steps": 128},
         "eps_list": [0.25, 0.125, 0.0625, 0.03125, 0.015625],
         "control": {"ubar_weight": 0.3, "alt_weight": -0.9,
                     "x0_scale": 1.0}},
    ),
    # The element-solve route of variation_ladder (no linear declaration).
    "ladder-quadratic_drift": (
        "ladder",
        {"problem_id": "quadratic_drift", "grid": {"n_steps": 8},
         "eps_list": [0.5, 0.25, 0.125]},
    ),
    "forward-lq_scalar": ("forward", {"problem_id": "lq_scalar"}),
    # Two Picard windows on one-word masks.
    "bqsde-n64": ("bqsde", {"grid": {"n_steps": 64}}),
    # The benchmark's bqsde call: four mask words.
    "bqsde-n256": ("bqsde", {"grid": {"n_steps": 256}}),
    # Five windows on two-word masks.
    "bqsde-n70-scalar2": (
        "bqsde",
        {"grid": {"n_steps": 70, "T": 2.0},
         "inline": {"driver": {"scalar": 2.0}}},
    ),
    # An inline terminal of five terms, odd and even.
    "bqsde-n16-terminal": (
        "bqsde",
        {"grid": {"n_steps": 16},
         "inline": {"terminal": {"n": 16, "terms": BQSDE_TERMINAL}}},
    ),
}

DIGESTS = {
    "bqsde-n16-terminal": {
        "bqsde.json": "a438d1f2acbfd159ba065665f935e9f1"
                      "d84ac43799127d6cad00baa92e4e6f59",
    },
    "bqsde-n256": {
        "bqsde.json": "4e6b1d860a99fde4d36e2a0abab499db"
                      "908f81ad3693087c24c98710ff0781e5",
    },
    "bqsde-n64": {
        "bqsde.json": "e62de733cc608f17e7f7ff83d9471cbf"
                      "6300fcbabbc3fceafc5126cb50be4c84",
    },
    "bqsde-n70-scalar2": {
        "bqsde.json": "8559ee39edf4322f02029b54f465025f"
                      "72f26e31d5c14d627b0c3cf9ffcc0ab2",
    },
    # Re-recorded when catalog forward moved from the element solve
    # pruned at 1e-5 to the exact parity channel: "terminal_terms" and
    # "diagnostics" left the file, and terminal_norm2, growth's
    # sup_norm_sq and ratio, and the sweep's terminal_norms, norm_gaps
    # and ratio moved by 6e-11 to 3e-8 relative (terminal_vacua held).
    "forward-lq_scalar": {
        "forward.json": "50bea69d3ceb1038530789d2380aa023"
                        "7695b721b66fe26c6bedff77e83b9cfc",
    },
    "ladder-control_in_noise": {
        "ladder.json": "659cbfae6d2ffc198a69b097cf5b2e8c"
                       "a12e89c1873bef26c848ca0d44bf35d1",
        "ladder_offset_0.csv": "4f3a7de92d74a71d85626139aa6f51f7"
                               "747627669f071d5a1636a072d13cde89",
        "ladder_offset_1.csv": "1567d2909e15bfa4b05d922f38b6e2f1"
                               "c10b019be223794d97084d95d16f3b9c",
    },
    "ladder-driverless": {
        "ladder.json": "1b75d6e11ae78acf68b1ffe42a7a4a6d"
                       "c10b52d24702bf1db32d49610a36fa30",
        "ladder_offset_0.csv": "a68ea3a6679aa6f4c22b6babdd00d35c"
                               "4c17c40bdfd771cd939ede7d41c3d056",
        "ladder_offset_1.csv": "a68ea3a6679aa6f4c22b6babdd00d35c"
                               "4c17c40bdfd771cd939ede7d41c3d056",
    },
    "ladder-lq_scalar": {
        "ladder.json": "b44d94abf1af7f41352ab1a45f19ec75"
                       "d7b8857e002dc5c295e53bf8959eea34",
        "ladder_offset_0.csv": "c8711f0d285a0d7cadc6bebc86030d33"
                               "e26f3c911f104c0c064d9a5a0dae7769",
        "ladder_offset_1.csv": "4aedb3799f02602aa575f3f874fde44d"
                               "2283889f65e2ae3759516df77ed01cd8",
    },
    "ladder-lq_scalar-n128": {
        "ladder.json": "4fa9da8c6ec059c7b241d0b84a4a507c"
                       "d1fe5bde355b79618a743c58e083671a",
        "ladder_offset_0.csv": "c494530d522a8cceab51f2bd5b039749"
                               "e54477d543a398271b4eaf0ecd38bc15",
    },
    "ladder-quadratic_drift": {
        "ladder.json": "6a8c59b687f0136bd935c97d96723754"
                       "c5c60994a16ea0a22676aa845d91f91a",
        "ladder_offset_0.csv": "52a0e8874f67007ab2a172137002578b"
                               "e630352619bbac56ed6eeed2bc68b3b0",
    },
    "mp-control_in_noise": {
        "max_principle.json": "2773da23d0ea3baec5acb28fc018b992"
                              "b3c72c2a78d71b62c2eab3c102c9240d",
    },
    "mp-driverless": {
        "max_principle.json": "2286074626e8cb00c6008b2deebbd5ee"
                              "74ca41dc600c182b9cd54e7ed47dfeff",
    },
    # mp_min -0.1434 and duality_residual 8.07e-3; pass false (the scan
    # runs at the oracle's winner, not at an optimum).
    "mp-lq_scalar-x1": {
        "max_principle.json": "072cd5498b1a31df12787840f19fb0e9"
                              "356af4b58bcfdf4297c6bddd002760b6",
    },
    # mp_min 0.0 and duality_residual 8.84e-4.
    "mp-control_in_noise-x1": {
        "max_principle.json": "1588e571b12d28c3e8d499895c85b8b9"
                              "17ad690b4d04cacb7e9a6f4bd201eb3b",
    },
    # mp_min -0.1049 and duality_residual 0.0; pass false.
    "mp-odd_drift-x1": {
        "max_principle.json": "acc350a17d1a74ac9751cd924cb6d17a"
                              "52edcba548f0eb306256da438e4be119",
    },
    # oracle_cost 0.5 (the terminal cost alone), mp_min 0.0 and
    # duality_residual 0.0.
    "mp-driverless-x1": {
        "max_principle.json": "f52de939f285135cd43c029605cb9fdf"
                              "63da5eea07a2e897b21ca04a7babedff",
    },
    "mp-lq_scalar": {
        "max_principle.json": "937d4276cb7cdba634ca2f459ebed227"
                              "87af52c36e418f2ca91f62979955c769",
    },
    "mp-odd_drift": {
        "max_principle.json": "992303d7d2b4b38f984b9e9456fcfd00"
                              "fca248171e4798a4e0b6610905de2504",
    },
    # The scan runs over the spec's value grid, the oracle's lattice:
    # mp_min 0.0 at weights [-0.3] (step 0), where the entry's 7-value
    # grid gave -0.11776882640813459 at [-0.6].
    "mp-quadratic_drift": {
        "max_principle.json": "3eb60a70562d2dd04982b2ad156de261"
                              "c219c2af23bdee3d68627b4db5d3910a",
    },
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_control_reports_keep_their_bytes(case, tmp_path):
    subcommand, spec = CASES[case]
    assert report_digests(subcommand, spec, 0, tmp_path) == DIGESTS[case]


# algebra-suite draws its elements from the seed, so two seeds each at a
# size with and without the JW homomorphism check (n <= 10).
ALGEBRA_SUITE_DIGESTS = {
    (6, 0): "9560206cf7246749292e626c8cd33f36"
            "7c48952c1717c5f155e8ce4c64f01ca3",
    (6, 1): "ad7ad01890172ef31b9d25405cf714d9"
            "dd5805df230d86c66511e71b0f94be1b",
    (14, 0): "7f51d554f399e38ef6e330c363f2734c"
             "0b6ca468a38fcc87bfc2ad3e71df72a5",
    (14, 1): "652e4ac67da2a7979984a5a28d33957f"
             "d499d46d3ed39071e8cb7552c2f682e9",
}


@pytest.mark.parametrize("n, seed", sorted(ALGEBRA_SUITE_DIGESTS))
def test_algebra_suite_reports_keep_their_bytes(n, seed, tmp_path):
    got = report_digests(
        "algebra-suite", {"grid": {"n_steps": n}}, seed, tmp_path
    )
    assert got == {"algebra_suite.json": ALGEBRA_SUITE_DIGESTS[n, seed]}


ROOT = Path(__file__).resolve().parents[1]
THREAD_CASES = {
    "forward": {"problem_id": "lq_scalar"},
    "bqsde": {"grid": {"n_steps": 64}},
}


def reports_with_threads(threads, out_dir):
    """Report bytes of THREAD_CASES, each run by the CLI in a fresh process
    with the BLAS and OpenMP thread counts set to threads."""
    env = dict(os.environ)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = str(threads)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), env.get("PYTHONPATH")))
    )
    for subcommand, spec in THREAD_CASES.items():
        done = subprocess.run(
            [sys.executable, "-m", "fermisde.cli", subcommand,
             "--spec", json.dumps(spec), "--out", str(out_dir / subcommand)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr[-2000:]
    return {
        str(path.relative_to(out_dir)): path.read_bytes()
        for path in sorted(out_dir.rglob("*"))
        if path.is_file() and "_meta" not in path.name
    }


def test_reports_do_not_depend_on_the_blas_thread_count(tmp_path):
    one = reports_with_threads(1, tmp_path / "one")
    two = reports_with_threads(2, tmp_path / "two")
    assert sorted(one) == ["bqsde/bqsde.json", "forward/forward.json"]
    assert one == two
