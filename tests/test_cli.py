"""Runner and serialization: spec validation with pointer diagnostics,
pipeline reports, exit codes, and byte-stable output files."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fermisde import _channel, algebra, backward, cli, control, forward
from fermisde.algebra import CliffordElement, norm2, random_element
from fermisde.catalog import build, catalog
from fermisde.cli import (
    SpecError,
    catalog_listing,
    main,
    parse_problem,
    run,
)
from fermisde.forward import apriori_check
from fermisde.ito import AdaptedProcess
from fermisde.reporting import (
    dump_json,
    element_from_json,
    element_to_json,
    jsonable,
    write_csv,
    write_json,
)

CATALOG_IDS = [
    "lq_scalar",
    "control_in_noise",
    "odd_drift",
    "driverless",
    "quadratic_drift",
]
# The entries that declare affine coefficients: the parity channel's.
AFFINE_IDS = CATALOG_IDS[:4]


# -- serialization --------------------------------------------------------

def test_element_json_round_trip_multiword():
    rng = np.random.default_rng(5)
    x = random_element(rng, 70, n_terms=12)
    back = element_from_json(element_to_json(x))
    assert back.n == 70
    assert norm2(back - x) == 0.0


def test_element_from_json_validation():
    good = element_to_json(CliffordElement.identity(3))
    with pytest.raises(ValueError, match="grid needs n=4"):
        element_from_json(good, expect_n=4)
    with pytest.raises(ValueError, match="malformed element payload"):
        element_from_json({"terms": []})


@pytest.mark.parametrize(
    "terms, pointer",
    [
        ([{"mask": 2**70, "re": 1.0}], "/terms/0/mask"),
        ([{"mask": 1, "re": 1.0}, {"mask": 2.7, "re": 1.0}], "/terms/1/mask"),
        ([{"mask": 2, "re": True}], "/terms/0/re"),
        ([{"mask": 3, "re": float("nan")}], "/terms/0/re"),
        ([{"mask": 1, "im": float("inf")}], "/terms/0/im"),
        ([{"re": 1.0}], "/terms/0"),
        ([{"mask": 1, "phase": 0.5}], "/terms/0"),
    ],
)
def test_element_from_json_refuses_what_the_cli_refuses(terms, pointer):
    payload = {"n": 4, "terms": terms}
    with pytest.raises(ValueError, match=f"at {pointer}: "):
        element_from_json(payload)
    errors = []
    cli._element_field(payload, "/x0", 4, errors)
    assert {ptr for ptr, _ in errors} == {"/x0" + pointer}


def test_element_from_json_refuses_a_bad_size_or_term_list():
    with pytest.raises(ValueError, match="at /n: not an integer"):
        element_from_json({"n": 2.5, "terms": []})
    with pytest.raises(ValueError, match="at /n: negative"):
        element_from_json({"n": -1, "terms": []})
    with pytest.raises(ValueError, match="at /terms: must be a list"):
        element_from_json({"n": 2, "terms": {"mask": 1}})


def test_jsonable_coercions():
    payload = {
        "a": np.float64(1.5),
        "b": np.int32(2),
        "c": np.bool_(True),
        "d": 1 + 2j,
        "e": np.array([1.0, 2.0]),
    }
    assert jsonable(payload) == {
        "a": 1.5,
        "b": 2,
        "c": True,
        "d": {"re": 1.0, "im": 2.0},
        "e": [1.0, 2.0],
    }


def test_csv_writer_blanks_missing_cells(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(str(path), ["x", "y"], [[1, None], [np.float64(0.5), "s"]])
    assert path.read_text() == "x,y\n1,\n0.5,s\n"


def test_write_json_replaces_without_leftovers(tmp_path):
    path = tmp_path / "r.json"
    write_json(str(path), {"v": 1})
    write_json(str(path), {"v": 2})
    assert json.loads(path.read_text()) == {"v": 2}
    assert not [f for f in os.listdir(tmp_path) if f.endswith(".tmp")]


# -- spec parsing ---------------------------------------------------------

def test_parse_defaults():
    spec = parse_problem({})
    assert spec.problem_id == "lq_scalar"
    assert spec.T == 1.0 and spec.n_steps == 8
    assert not spec.explicit_grid
    assert spec.offsets == [0.0]
    assert spec.steps_coarse == 3


def test_parse_grid_forms_agree():
    nested = parse_problem({"grid": {"T": 2.0, "n_steps": 12}})
    flat = parse_problem({"T": 2.0, "n_steps": 12})
    for spec in (nested, flat):
        assert spec.T == 2.0 and spec.n_steps == 12
        assert spec.explicit_grid


def test_parse_reads_files_and_literals(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text('{"n_steps": 4}')
    assert parse_problem(str(path)).n_steps == 4
    assert parse_problem('{"n_steps": 5}').n_steps == 5


def test_parse_error_pointers_accumulate():
    with pytest.raises(SpecError) as excinfo:
        parse_problem(
            {
                "grid": {"T": -1, "n_steps": 0},
                "problem_id": "nope",
                "p": 0.5,
                "control": {"bogus": 1},
                "eps_list": [],
                "steps_coarse": 9,
            }
        )
    pointers = {ptr for ptr, _ in excinfo.value.errors}
    assert {
        "/grid/T", "/grid/n_steps", "/problem_id", "/p",
        "/control/bogus", "/eps_list", "/steps_coarse",
    } <= pointers
    assert "/problem_id" in str(excinfo.value)


def test_parse_rejects_id_plus_inline_and_bad_json():
    with pytest.raises(SpecError, match="not both"):
        parse_problem({"problem_id": "lq_scalar", "inline": {}})
    with pytest.raises(SpecError, match="malformed JSON"):
        parse_problem("{not json")
    with pytest.raises(SpecError, match="must be a JSON object"):
        parse_problem("[1, 2]")


# Each spec used to run (or crash) without a pointer.
MALFORMED = [
    ('{"n_steps": 2.7}', {"/n_steps"}),
    ('{"n_steps": true}', {"/n_steps"}),
    ('{"n_steps": "12"}', {"/n_steps"}),
    ('{"n_steps": Infinity}', {"/n_steps"}),
    ('{"n_step": 16}', {"/n_step"}),
    ('{"grid": {"steps": 16}}', {"/grid/steps"}),
    ('{"eps_list": [NaN, 0.1, 0.2]}', {"/eps_list/0"}),
    ('{"offsets": [NaN]}', {"/offsets/0"}),
    ('{"T": Infinity}', {"/T"}),
    ('{"value_grid": [Infinity]}', {"/value_grid/0"}),
    ('{"grid": {"T": 2}, "T": 3}', {"/T"}),
    ('{"p": 1.5, "p_prime": 7}', {"/p", "/p_prime"}),
    ('{"n_steps": 1000000}', {"/n_steps"}),
    ('{"grid": {"n_steps": 4097}}', {"/grid/n_steps"}),
    ('{"n_steps": 4, "inline": {"A": {"scalar": true}}}',
     {"/inline/A/scalar"}),
    ('{"n_steps": 4, "inline": {"A": {"scalar": "1e3"}}}',
     {"/inline/A/scalar"}),
    ('{"n_steps": 4, "inline": {"A": {"scalar": NaN}}}',
     {"/inline/A/scalar"}),
    ('{"n_steps": 4, "inline": {"A": {"scalar": {"re": 1, "im": true}}}}',
     {"/inline/A/scalar/im"}),
    ('{"n_steps": 4, "inline": {"x0": {"n": 4, "terms": '
     '[{"mask": 0, "re": "nan"}]}}}', {"/inline/x0/terms/0/re"}),
    ('{"n_steps": 4, "inline": {"x0": {"n": 4, "terms": '
     '[{"mask": 0, "re": 1.0}, {"mask": 1, "re": true}]}}}',
     {"/inline/x0/terms/1/re"}),
    ('{"n_steps": 4, "inline": {"B": {"left": {"n": 4, "terms": '
     '[{"mask": 1, "im": Infinity}]}}}}', {"/inline/B/left/terms/0/im"}),
    ('{"n_steps": 4, "inline": {"x0": {"n": 4, "terms": '
     '[{"mask": 2.7, "re": 1.0}]}}}', {"/inline/x0/terms/0/mask"}),
    ('{"n_steps": 4, "inline": {"x0": {"n": 4, "terms": '
     '[{"mask": 1180591620717411303424, "re": 1.0}]}}}',
     {"/inline/x0/terms/0/mask"}),
    ('{"n_steps": 4, "inline": {"x0": {"n": 4, "terms": [{"re": 1.0}]}}}',
     {"/inline/x0/terms/0"}),
    ('{"n_steps": 4, "inline": {"A": {"scalar": {"re": 1, "imag": 2}}}}',
     {"/inline/A/scalar"}),
]


@pytest.mark.parametrize("text,pointers", MALFORMED)
def test_malformed_specs_are_refused_with_pointers(
    tmp_path, capsys, text, pointers
):
    with pytest.raises(SpecError) as excinfo:
        parse_problem(text)
    assert {ptr for ptr, _ in excinfo.value.errors} == pointers
    out = tmp_path / "out"
    assert main(["forward", "--spec", text, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert all(f"  {ptr}: " in err for ptr in pointers)
    assert not out.exists()


def test_a_step_count_past_the_grid_limit_is_refused():
    with pytest.raises(SpecError) as excinfo:
        parse_problem({"grid": {"n_steps": 10**400}})
    assert [ptr for ptr, _ in excinfo.value.errors] == ["/grid/n_steps"]


def test_echo_holds_the_checked_fields():
    spec = parse_problem(
        {
            "problem_id": "odd_drift",
            "T": 2,
            "grid": {"n_steps": 16.0},
            "control": {"alt_weight": -1},
            "eps_list": [0.5, 0.25],
            "value_grid": [0, 1],
        }
    )
    assert spec.echo() == {
        "problem_id": "odd_drift",
        "grid": {"T": 2.0, "n_steps": 16},
        "control": {"alt_weight": -1.0},
        "eps_list": [0.5, 0.25],
        "offsets": [0.0],
        "value_grid": [0.0, 1.0],
        "steps_coarse": 3,
    }


@pytest.mark.parametrize(
    "subcommand", ["forward", "max-principle", "ladder", "all"]
)
def test_echo_names_no_grid_the_spec_did_not_give(subcommand, tmp_path):
    """lq_scalar runs on its entry's 64-step grid when the spec gives no
    n_steps; the echo used to name the parse default 8, which did not
    run. Each body names the grid it ran on."""
    run(subcommand, parse_problem({"problem_id": "lq_scalar"}),
        str(tmp_path))
    stem = subcommand.replace("-", "_")
    report = json.loads((tmp_path / f"{stem}.json").read_text())
    assert report["spec"]["grid"] == {"T": 1.0}
    bodies = report.get("reports") or {subcommand: report["report"]}
    if "forward" in bodies:
        assert bodies["forward"]["n_steps"] == 64
    for name in ("max-principle", "ladder"):
        if name in bodies:
            assert bodies[name]["grid"]["n_steps"] == 64
    if subcommand == "all":
        assert bodies["algebra-suite"]["n"] == 8
    given = parse_problem({"problem_id": "lq_scalar", "n_steps": 16})
    assert given.echo()["grid"] == {"T": 1.0, "n_steps": 16}


def test_parse_inline_maps_and_elements():
    left = element_to_json(CliffordElement.generator(6, 1))
    spec = parse_problem(
        {
            "n_steps": 6,
            "inline": {
                "A": {"scalar": -0.4},
                "B": {"sum": [{"scalar": 0.1}, {"left": left}]},
                "x0": element_to_json(CliffordElement.identity(6)),
                "sources": {"D": element_to_json(CliffordElement.zero(6))},
            },
        }
    )
    assert spec.problem_id is None
    assert set(spec.inline) == {"A", "B", "x0", "sources"}
    probe = CliffordElement.identity(6)
    assert norm2(spec.inline["A"].apply(probe).scale(-2.5) - probe) < 1e-15


def test_parse_inline_error_pointers():
    with pytest.raises(SpecError) as excinfo:
        parse_problem(
            {
                "n_steps": 6,
                "inline": {
                    "bogus": 1,
                    "A": {"scalar": 1.0, "left": {}},
                    "x0": element_to_json(CliffordElement.identity(4)),
                    "sources": {"Q": element_to_json(CliffordElement.zero(6))},
                },
            }
        )
    msgs = dict(excinfo.value.errors)
    assert "unknown keys: bogus" in msgs["/inline"]
    assert "exactly one of" in msgs["/inline/A"]
    assert "grid needs n=6" in msgs["/inline/x0"]
    assert msgs["/inline/sources/Q"] == "unknown source slot"


def test_catalog_listing_shape():
    listing = catalog_listing()
    assert [entry["id"] for entry in listing] == CATALOG_IDS
    by_id = {entry["id"]: entry for entry in listing}
    assert "second-adjoint" in by_id["lq_scalar"]["supports"]
    assert "second-adjoint" not in by_id["quadratic_drift"]["supports"]
    assert "forward" in by_id["lq_scalar"]["supports"]
    for entry in listing:
        assert entry["summary"]
        assert entry["defaults"]["n_steps"] > 0
        assert "control.x0_scale" in entry["parameters"]


# -- pipelines through run() ----------------------------------------------

def test_run_rejects_unknown_subcommand(tmp_path):
    with pytest.raises(ValueError, match="unknown subcommand"):
        run("algebra", parse_problem({}), str(tmp_path))


def test_run_algebra_suite_report_and_files(tmp_path):
    spec = parse_problem({"n_steps": 6})
    report = run("algebra-suite", spec, str(tmp_path), seed=3)
    assert report["pass"] and report["scenario"] == "algebra-suite"
    assert report["report"]["car_residual"] <= 1e-12
    assert report["report"]["jw_homomorphism_residual"] <= 1e-12
    on_disk = json.loads((tmp_path / "algebra_suite.json").read_text())
    assert on_disk == json.loads(dump_json(report))
    meta = json.loads((tmp_path / "algebra_suite_meta.json").read_text())
    assert "algebra-suite" in meta["timings_seconds"]


def test_run_ito_suite_residuals(tmp_path):
    report = run("ito-suite", parse_problem({"n_steps": 6}), str(tmp_path))
    body = report["report"]
    assert body["pass"]
    for key in (
        "isometry_residual",
        "integral_martingale_gap",
        "representation_residual",
        "commutation_residual",
    ):
        assert body[key] <= 1e-12


def test_run_bqsde_inline_scalar_closed_form(tmp_path):
    spec = parse_problem(
        {
            "n_steps": 10,
            "inline": {
                "driver": {"scalar": 0.8},
                "terminal": element_to_json(CliffordElement.identity(10)),
            },
        }
    )
    body = run("bqsde", spec, str(tmp_path))["report"]
    assert body["pass"]
    assert body["driver_scalar"] == 0.8
    want = (1.0 + 0.8 * 0.1) ** (-10)
    assert abs(body["closed_form"]["discrete_value"] - want) < 1e-12
    assert body["closed_form"]["discrete_error"] <= 1e-10 * (1.0 + want)
    assert body["stepwise_vs_picard_gap"] <= max(1e-8, 0.1)


def test_run_forward_inline_matches_euler_recursion(tmp_path):
    spec = parse_problem(
        {
            "n_steps": 6,
            "inline": {
                "A": {"scalar": -0.5},
                "x0": element_to_json(CliffordElement.identity(6)),
            },
        }
    )
    body = run("forward", spec, str(tmp_path))["report"]
    assert body["mode"] == "inline" and body["pass"]
    want = (1.0 - 0.5 / 6.0) ** 6
    assert abs(body["terminal_vacuum"]["re"] - want) < 1e-13
    assert body["terminal_terms"] == 1


def test_run_forward_catalog_refinement(tmp_path):
    spec = parse_problem({"problem_id": "lq_scalar", "n_steps": 16})
    body = run("forward", spec, str(tmp_path))["report"]
    assert body["mode"] == "catalog" and body["pass"]
    ref = body["refinement"]
    assert ref["sweep_steps"] == [16, 32, 64]
    assert ref["vacuous"] or 1.5 <= ref["ratio"] <= 2.6


@pytest.mark.parametrize("grid, walked", [
    # the main grid has 64 steps, which the (16, 32, 64) sweep shares
    ({}, [64, 16, 32]),
    ({"n_steps": 20}, [20, 16, 32, 64]),
], ids=["grid_64", "grid_20"])
def test_run_forward_walks_each_grid_once(
    tmp_path, monkeypatch, grid, walked
):
    calls = []
    walk = _channel.norms_sq

    def counted(grid, *args, **kwargs):
        calls.append(grid.n_steps)
        return walk(grid, *args, **kwargs)

    monkeypatch.setattr(_channel, "norms_sq", counted)
    spec = parse_problem({"problem_id": "lq_scalar", "grid": grid})
    body = run("forward", spec, str(tmp_path))["report"]
    assert body["n_steps"] == walked[0]
    assert calls == walked
    if walked[0] == 64:
        norms = body["refinement"]["terminal_norms"]
        assert norms["64"] == body["terminal_norm2"]


def _element_forward(pid, n_steps, prune):
    """The element solve of forward's catalog problem: the entry's ladder
    start under its constant ladder baseline."""
    entry = catalog()[pid]
    problem, grid = build(pid, n_steps=n_steps, x0_scale=entry.ladder_x0)
    u = AdaptedProcess.constant_scalar(grid, entry.ladder_ubar)
    return problem, control.solve_state(problem, u, prune=prune)


@pytest.mark.parametrize("pid", AFFINE_IDS)
@pytest.mark.parametrize("n_steps", [1, 6, 10])
def test_forward_channel_equals_the_unpruned_element_solve(
    tmp_path, pid, n_steps
):
    problem, path = _element_forward(pid, n_steps, prune=0.0)
    assert path.diagnostics["pruned_mass"] == 0.0
    spec = parse_problem({"problem_id": pid, "grid": {"n_steps": n_steps}})
    norms, vacuum = cli._forward_walk(*cli._forward_plan(spec)[3:])
    want = [norm2(x) ** 2 for x in path]
    assert norms == pytest.approx(want, rel=1e-13, abs=0.0)
    assert vacuum == pytest.approx(path[n_steps].vacuum(), rel=1e-13, abs=0.0)
    body = run("forward", spec, str(tmp_path))["report"]
    assert body["terminal_norm2"] == pytest.approx(
        norm2(path[n_steps]), rel=1e-13, abs=0.0
    )
    growth = apriori_check(path, problem.x0)
    assert body["growth"]["argmax_step"] == growth.pop("argmax_step")
    for key, value in growth.items():
        assert body["growth"][key] == pytest.approx(value, rel=1e-13, abs=0.0)


@pytest.mark.parametrize(
    "pid", ["lq_scalar", "control_in_noise", "driverless"]
)
def test_forward_channel_is_within_the_pruned_mass_of_the_element_solve(
    tmp_path, pid
):
    """At forward's default 64 steps the element solve prunes at 1e-5;
    the exact norms and vacua lie within the mass it reports pruned, and
    rounding (driverless prunes nothing)."""
    _, path = _element_forward(pid, 64, prune=None)
    mass = path.diagnostics["pruned_mass"] + 1e-13
    body = run("forward", parse_problem({"problem_id": pid}),
               str(tmp_path))["report"]
    terminal = path[64]
    assert abs(body["terminal_norm2"] - norm2(terminal)) <= mass
    vacuum = body["refinement"]["terminal_vacua"]["64"]
    assert abs(vacuum - terminal.vacuum().real) <= mass
    sup = max(norm2(x) for x in path)
    assert abs(np.sqrt(body["growth"]["sup_norm_sq"]) - sup) <= mass


def _refuse_forward_work(monkeypatch):
    """Make every forward solve the CLI could reach raise: the element
    routes, and with walk_too the channel's walk as well."""
    def refuse(*args, **kwargs):
        raise AssertionError("a solve ran")

    for module, name in [
        (forward, "linear_euler_forward"), (control, "linear_euler_forward"),
        (cli, "linear_euler_forward"), (control, "solve_state"),
    ]:
        monkeypatch.setattr(module, name, refuse)
    return refuse


@pytest.mark.parametrize("pid", AFFINE_IDS)
def test_main_forward_catalog_route_does_no_element_solve(
    tmp_path, monkeypatch, pid
):
    _refuse_forward_work(monkeypatch)
    spec = json.dumps({"problem_id": pid})
    assert main(["forward", "--spec", spec, "--out", str(tmp_path)]) == 0
    body = json.loads((tmp_path / "forward.json").read_text())["report"]
    assert body["mode"] == "catalog" and body["pass"]
    assert "terminal_terms" not in body and "diagnostics" not in body


def test_main_forward_runs_odd_drift(tmp_path):
    """odd_drift's 64-step element solve outgrows the row limit, which
    the channel never meets; forward used to refuse it."""
    for grid in ({}, {"grid": {"n_steps": 8}}):
        spec = json.dumps({"problem_id": "odd_drift", **grid})
        assert main(["forward", "--spec", spec, "--out", str(tmp_path)]) == 0
    body = json.loads((tmp_path / "forward.json").read_text())["report"]
    assert body["refinement"]["sweep_steps"] == [16, 32, 64]
    assert 1.5 <= body["refinement"]["ratio"] <= 2.6
    by_id = {entry["id"]: entry for entry in catalog_listing()}
    assert "forward" in by_id["odd_drift"]["supports"]


@pytest.mark.parametrize("command", ["forward", "all"])
def test_main_forward_refuses_an_entry_that_is_not_a_channel(
    tmp_path, monkeypatch, capsys, command
):
    """quadratic_drift declares no linear structure, so the channel gate
    does not take it; forward refuses it before any solve, alone and
    inside all."""
    refuse = _refuse_forward_work(monkeypatch)
    monkeypatch.setattr(_channel, "norms_sq", refuse)
    for name in cli._PIPELINES:
        monkeypatch.setitem(cli._PIPELINES, name, refuse)
    monkeypatch.setitem(cli._PIPELINES, "forward", cli._pipeline_forward)
    eps = {"eps_list": [0.5, 0.25, 0.125]}
    for grid in ({}, {"grid": {"n_steps": 8}}):
        spec = json.dumps({"problem_id": "quadratic_drift", **grid, **eps})
        assert main([command, "--spec", spec, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert ("  /problem_id: forward does not support quadratic_drift: "
                "it is not a parity channel") in err
    assert list(tmp_path.iterdir()) == []
    by_id = {entry["id"]: entry for entry in catalog_listing()}
    assert "forward" not in by_id["quadratic_drift"]["supports"]
    assert "max-principle" in by_id["quadratic_drift"]["supports"]


@pytest.mark.parametrize("command, grid", [
    ("ladder", {}),
    ("ladder", {"grid": {"n_steps": 13}, "eps_list": [0.5, 0.25, 0.125]}),
    ("ladder", {"grid": {"n_steps": 20}, "eps_list": [0.5, 0.25, 0.125]}),
    ("max-principle", {"grid": {"n_steps": 13}}),
    ("max-principle", {"grid": {"n_steps": 16}}),
])
def test_main_refuses_grids_past_the_entry_step_ceiling(
    tmp_path, monkeypatch, capsys, command, grid
):
    """quadratic_drift's products outgrow the row limit from 13 steps on;
    the ladder's default grid of 64 steps is refused the same way, before
    any solve."""
    def solve_anyway(*args, **kwargs):
        raise AssertionError("a solve ran")

    for module, name in [(cli, "variation_ladder"), (control, "_oracle"),
                         (control, "solve_state")]:
        monkeypatch.setattr(module, name, solve_anyway)
    spec = json.dumps({"problem_id": "quadratic_drift", **grid})
    assert main([command, "--spec", spec, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "  /grid/n_steps: quadratic_drift runs on at most 12 steps" in err
    assert list(tmp_path.iterdir()) == []
    by_id = {entry["id"]: entry for entry in catalog_listing()}
    assert by_id["quadratic_drift"]["max_steps"] == 12
    assert by_id["lq_scalar"]["max_steps"] is None


def test_run_ladder_small_grid(tmp_path):
    spec = parse_problem({"problem_id": "lq_scalar", "n_steps": 16})
    report = run("ladder", spec, str(tmp_path))
    body = report["report"]
    assert report["pass"]
    assert body["eps_list"] == [0.25, 0.125, 0.0625]
    assert (tmp_path / "ladder_offset_0.csv").exists()
    header = (tmp_path / "ladder_offset_0.csv").read_text().splitlines()[0]
    assert header == "eps,xi_sq,y_sq,z_sq,eta_sq,zeta_sq"


def test_run_ladder_needs_three_usable_widths(tmp_path):
    spec = parse_problem({"problem_id": "lq_scalar", "n_steps": 8})
    with pytest.raises(SpecError, match="at least 3 usable widths"):
        run("ladder", spec, str(tmp_path))


def test_run_ladder_fits_the_widths_its_windows_use(tmp_path):
    # At n=24 the default eps 0.0625 is 1.5 steps and runs as 2 steps.
    spec = parse_problem({"problem_id": "odd_drift", "n_steps": 24})
    body = run("ladder", spec, str(tmp_path))["report"]
    assert body["pass"]
    assert body["eps_list"] == [0.25, 0.125, 0.0625]
    run0 = body["runs"][0]
    assert run0["eps"] == [6 / 24, 3 / 24, 2 / 24]
    assert run0["slopes"]["xi_sq"] > 1.9


def test_main_ladder_refuses_eps_below_one_step(tmp_path, capsys):
    out = tmp_path / "narrow"
    spec = ('{"problem_id": "lq_scalar", "grid": {"n_steps": 12}, '
            '"eps_list": [0.5, 0.25, 0.125, 0.01]}')
    assert main(["ladder", "--spec", spec, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "/eps_list/3: eps 0.01 is below one grid step" in err
    assert not (out / "ladder.json").exists()


def test_main_ladder_refuses_two_eps_on_one_window(tmp_path, capsys):
    spec = ('{"problem_id": "lq_scalar", "grid": {"n_steps": 24}, '
            '"eps_list": [0.25, 0.07, 0.0625]}')
    assert main(["ladder", "--spec", spec, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert ("/eps_list/2: eps 0.0625 runs on the same 2-step window as "
            "eps 0.07 at offset 0") in err


def ladder_spec(n_steps, eps_list, offsets):
    return {"problem_id": "lq_scalar", "grid": {"n_steps": n_steps},
            "eps_list": eps_list, "offsets": offsets}


# At n=65, eps 0.977 and 0.969 run on 64 and 63 steps at offset 0, but
# at offset 1.5 dt both are clipped to steps [2, 65).
WINDOWS_MEET_LATE = (
    65,
    [0.976923076923077, 0.9692307692307693, 0.46153846153846156],
    [0.0, 0.023076923076923078],
)


def test_main_ladder_refuses_windows_that_meet_at_a_later_offset(
    tmp_path, monkeypatch, capsys
):
    def ladder_anyway(*args, **kwargs):
        raise AssertionError("a ladder ran")

    monkeypatch.setattr(cli, "variation_ladder", ladder_anyway)
    spec = json.dumps(ladder_spec(*WINDOWS_MEET_LATE))
    argv = ["ladder", "--spec", spec, "--out", str(tmp_path)]
    assert main(argv) == 2
    assert ("  /eps_list/1: eps 0.969231 runs on the same 63-step window as "
            "eps 0.976923 at offset 0.0230769") in capsys.readouterr().err
    assert not (tmp_path / "ladder.json").exists()


@st.composite
def half_step_ladders(draw):
    """(n_steps, eps_list, offsets) on half steps, each window inside
    [0, T]: rounding both ends of a window up can clip it at T, so two
    eps may share a window at one offset and not at another."""
    n = draw(st.integers(8, 80))
    widths = draw(st.lists(st.integers(2, 2 * n), min_size=3, max_size=5,
                           unique=True))
    starts = draw(st.lists(st.integers(0, 2 * n - max(widths)),
                           min_size=1, max_size=3))
    dt = 1 / n
    return n, [h / 2 * dt for h in widths], [h / 2 * dt for h in starts]


@settings(max_examples=40, deadline=None)
@given(half_step_ladders())
@example(WINDOWS_MEET_LATE)
def test_every_ladder_plan_the_cli_accepts_runs_at_each_offset(ladder):
    n, eps_list, offsets = ladder
    spec = parse_problem(ladder_spec(n, eps_list, offsets))
    try:
        entry, problem, grid, _, eps_list = cli._ladder_plan(spec)
    except SpecError:
        return
    ubar = AdaptedProcess.constant_scalar(grid, entry.ladder_ubar)
    alt = AdaptedProcess.constant_scalar(grid, entry.alt_weight)
    for offset in offsets:
        control.variation_ladder(problem, ubar, alt, eps_list, offset=offset)


def test_main_max_principle_refuses_an_oracle_over_budget(
    tmp_path, monkeypatch, capsys
):
    def enumerate_anyway(*args, **kwargs):
        raise AssertionError("the oracle ran")

    monkeypatch.setattr(control, "_oracle", enumerate_anyway)
    spec = json.dumps(
        {"problem_id": "lq_scalar", "grid": {"n_steps": 8},
         "value_grid": list(range(21)), "steps_coarse": 4}
    )
    code = main(["max-principle", "--spec", spec, "--out", str(tmp_path)])
    assert code == 2
    assert "/value_grid: enumeration of 194481 candidates" in (
        capsys.readouterr().err
    )


def test_run_max_principle_small_grid(tmp_path):
    spec = parse_problem({"problem_id": "lq_scalar", "n_steps": 12})
    body = run("max-principle", spec, str(tmp_path))["report"]
    assert body["pass"]
    assert body["oracle_cost"] == 0.0
    assert body["mp_min"] == 0.0
    assert body["second_adjoint_used"]
    assert body["duality_order"] == 2
    assert set(body["oracle_weights"]) == {0.0}


def _refuse_element_work(monkeypatch):
    """Make every element solve and pairing the CLI could reach raise."""
    def refuse(*args, **kwargs):
        raise AssertionError("the exact max-principle route did element work")

    for module, name in [
        (forward, "linear_euler_forward"), (control, "linear_euler_forward"),
        (backward, "solve_stepwise"), (control, "solve_stepwise"),
        (cli, "solve_stepwise"), (algebra, "pairing"), (control, "pairing"),
        (cli, "pairing"),
    ]:
        monkeypatch.setattr(module, name, refuse)


@pytest.mark.parametrize("pid, n_steps", [
    ("lq_scalar", 1024), ("control_in_noise", 1024),
    # Ran out of memory on element solves (a 5,971,154-row array).
    ("control_in_noise", 128),
])
def test_main_max_principle_exact_route_does_no_element_work(
    tmp_path, monkeypatch, pid, n_steps
):
    _refuse_element_work(monkeypatch)
    spec = json.dumps({"problem_id": pid, "grid": {"n_steps": n_steps}})
    assert main(
        ["max-principle", "--spec", spec, "--out", str(tmp_path)]
    ) == 0
    body = json.loads((tmp_path / "max_principle.json").read_text())
    assert body["report"]["mp_min"] == 0.0
    assert body["report"]["duality_residual"] == 0.0


def _count_first_adjoint(monkeypatch):
    calls = []

    def counted(*args, first_adjoint=control.first_adjoint, **kwargs):
        calls.append(1)
        return first_adjoint(*args, **kwargs)

    monkeypatch.setattr(control, "first_adjoint", counted)
    return calls


@pytest.mark.parametrize(
    "pid", ["lq_scalar", "control_in_noise", "odd_drift", "driverless"]
)
def test_max_principle_routes_agree_when_the_channel_is_refused(
    tmp_path, monkeypatch, pid
):
    """x0_scale 1, where every reported number is nonzero (lq_scalar's
    mp_min fails the maximum principle on both routes alike)."""
    spec = parse_problem({"problem_id": pid, "grid": {"n_steps": 12},
                          "control": {"x0_scale": 1.0}})
    calls = _count_first_adjoint(monkeypatch)
    exact = run("max-principle", spec, str(tmp_path / "exact"))["report"]
    assert calls == []
    monkeypatch.setattr(_channel, "gate", lambda *args, **kwargs: None)
    element = run("max-principle", spec, str(tmp_path / "element"))["report"]
    assert calls == [1]
    assert exact.keys() == element.keys()
    for key in ("oracle_cost", "mp_min", "duality_residual"):
        assert abs(exact[key] - element[key]) <= 1e-8
    assert exact["mp_argmin"]["step"] == element["mp_argmin"]["step"]
    assert exact["mp_argmin"]["weights"] == element["mp_argmin"]["weights"]
    np.testing.assert_allclose(
        exact["oracle_weights"], element["oracle_weights"], rtol=0, atol=0
    )
    assert exact["pass"] == element["pass"]


def test_max_principle_scans_the_lattice_the_oracle_enumerated(
    tmp_path, monkeypatch
):
    """A spec's value_grid is the oracle's lattice and the scan's, on both
    routes: the argmin lies in the reported grid (this spec used to scan
    the entry's 7 values and fail at -0.9 with mp_min -0.690)."""
    spec = json.dumps({"problem_id": "lq_scalar", "grid": {"n_steps": 16},
                       "steps_coarse": 2, "value_grid": [-0.3, 0.0, 0.3],
                       "control": {"x0_scale": 1.0}})
    calls = _count_first_adjoint(monkeypatch)
    bodies = []
    for route in ("exact", "element"):
        if route == "element":
            monkeypatch.setattr(_channel, "gate", lambda *a, **k: None)
        out = tmp_path / route
        assert main(["max-principle", "--spec", spec, "--out", str(out)]) == 0
        bodies.append(
            json.loads((out / "max_principle.json").read_text())["report"]
        )
    assert calls == [1]
    for body in bodies:
        assert body["value_grid"] == [-0.3, 0.0, 0.3]
        assert body["mp_argmin"]["weights"][0] in body["value_grid"]
        assert body["mp_min"] == 0.0


def test_max_principle_keeps_the_element_route_for_quadratic_drift(
    tmp_path, monkeypatch
):
    calls = _count_first_adjoint(monkeypatch)
    spec = parse_problem({"problem_id": "quadratic_drift",
                          "grid": {"n_steps": 6}, "steps_coarse": 2,
                          "value_grid": [-0.3, 0.0, 0.3]})
    body = run("max-principle", spec, str(tmp_path))["report"]
    assert calls == [1]
    assert not body["second_adjoint_used"]


def test_run_bg_constants_and_matrix_cap(tmp_path):
    body, = [run("bg-constants", parse_problem({"n_steps": 5}),
                 str(tmp_path))["report"]]
    assert body["pass"] and body["p2_isometry_residual"] <= 1e-10
    rows = (tmp_path / "bg_constants.csv").read_text().splitlines()
    assert rows[0].startswith("sample,p,side,")
    assert len(rows) == 1 + 5 * len(cli.P_CHOICES) * 2
    with pytest.raises(SpecError, match="at most 14"):
        run("bg-constants", parse_problem({"n_steps": 15}), str(tmp_path))


def test_reports_are_byte_identical_for_same_seed(tmp_path):
    spec = parse_problem({"n_steps": 6})
    run("ito-suite", spec, str(tmp_path / "a"), seed=7)
    run("ito-suite", spec, str(tmp_path / "b"), seed=7)
    first = (tmp_path / "a" / "ito_suite.json").read_bytes()
    assert first == (tmp_path / "b" / "ito_suite.json").read_bytes()
    run("ito-suite", spec, str(tmp_path / "c"), seed=8)
    other = json.loads((tmp_path / "c" / "ito_suite.json").read_text())
    assert other["seed"] == 8 and other["pass"]


# -- the executable entry point -------------------------------------------

def test_main_success_exit_zero(tmp_path, capsys):
    out = str(tmp_path / "ok")
    code = main(
        ["algebra-suite", "--spec", '{"n_steps": 5}', "--out", out,
         "--seed", "2"]
    )
    assert code == 0
    assert "pass" in capsys.readouterr().out
    assert os.path.exists(os.path.join(out, "algebra_suite.json"))


def test_main_spec_error_exit_two(tmp_path, capsys):
    code = main(
        ["forward", "--spec", '{"problem_id": "nope"}',
         "--out", str(tmp_path)]
    )
    assert code == 2
    assert "/problem_id" in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "command, message",
    [
        ("forward", "forward failed: forward state became non-finite\n"),
        ("ladder", "ladder failed: state became non-finite at step 43\n"),
    ],
    ids=["forward", "ladder"],
)
def test_main_refuses_an_overflowing_channel_walk_with_its_own_message(
    tmp_path, capsys, command, message
):
    """A horizon of 1e6 overflows the parity channel's walk. The pipeline
    refuses with its own message; no RuntimeWarning leaves the walk,
    which this test would turn into the failure instead."""
    spec = json.dumps({"problem_id": "lq_scalar", "grid": {"T": 1e6}})
    assert main([command, "--spec", spec, "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err == message


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("budget", [270, None], ids=lambda b: f"budget_{b}")
@pytest.mark.parametrize(
    "command, message",
    [
        ("forward", "forward failed: forward state became non-finite\n"),
        ("ladder", "ladder failed: state became non-finite at step 43\n"),
    ],
    ids=["forward", "ladder"],
)
def test_main_refuses_an_overflow_inside_a_walk_chunk(
    tmp_path, capsys, monkeypatch, budget, command, message
):
    """The horizon-1e6 overflow falls inside a chunk of the walk: the
    ladder's 18 paths in blocks of three hold 54 pairings a step, so a
    budget of 270 walks steps 41..45 as one chunk, and the default
    budget walks all 128 steps (forward's 64) as one."""
    if budget is not None:
        monkeypatch.setattr(_channel, "_CHUNK_ENTRIES", budget)
    spec = json.dumps({"problem_id": "lq_scalar", "grid": {"T": 1e6}})
    assert main([command, "--spec", spec, "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err == message


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_main_max_principle_refuses_a_singular_adjoint_step_quietly(
    tmp_path, capsys
):
    """lq_scalar at T=128 over 32 steps has dt a = 1, so the channel
    adjoint's implicit step divides by zero. max-principle refuses with
    its own message; no RuntimeWarning leaves the adjoint, which this
    test would turn into the failure instead."""
    spec = json.dumps(
        {"problem_id": "lq_scalar", "grid": {"T": 128, "n_steps": 32}}
    )
    assert main(["max-principle", "--spec", spec, "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err == (
        "max-principle failed: adjoint became non-finite\n"
    )


@pytest.mark.parametrize("grid,driver,code", [
    ({"n_steps": 1}, None, 2),
    ({"n_steps": 2}, None, 0),
    ({"n_steps": 4}, 4.0, 2),
    ({"n_steps": 4, "T": 0.5}, 4.0, 0),
])
def test_main_bqsde_refuses_a_step_that_no_picard_window_contracts(
    monkeypatch, tmp_path, capsys, grid, driver, code
):
    """A Picard window spans at least one step, and one step of a scalar
    driver a contracts only while |a| dt < 1: n_steps=1 under the default
    a = 1 used to run 200 sweeps and exit 3. It is refused at
    /grid/n_steps, before any solve; |a| dt < 1 runs."""
    spec = {"grid": grid}
    if driver is not None:
        spec["inline"] = {"driver": {"scalar": driver}}
    if code == 2:
        for name in ("solve_stepwise", "solve_picard"):
            monkeypatch.setattr(cli, name, _refuse_solve)
    out = tmp_path / "bq"
    assert main(["bqsde", "--spec", json.dumps(spec), "--out", str(out)]) \
        == code
    err = capsys.readouterr().err
    assert (out / "bqsde.json").exists() == (code == 0)
    if code == 2:
        assert "/grid/n_steps" in err and "|a| dt >= 1" in err
    else:
        assert err == ""


@pytest.mark.parametrize("grid,code", [
    ({"n_steps": 7, "T": 3.5}, 0),
    ({"n_steps": 64, "T": 16}, 0),
    ({"n_steps": 4, "T": 1.2}, 0),
    ({"n_steps": 1, "T": 0.89}, 0),
    ({"n_steps": 1, "T": 0.9}, 2),
    ({"n_steps": 16, "T": 14.2}, 2),
])
def test_main_bqsde_gives_each_picard_window_its_own_budget(
    monkeypatch, tmp_path, capsys, grid, code
):
    """Each Picard window may take solve_picard's 200 sweeps: n_steps=7
    at T=3.5 and n_steps=64 at T=16 used to share one budget across
    their windows and exit 3. A one-step window that cannot settle in
    200 sweeps (|a| dt = 0.9, or 0.8875 with T = 14.2 scaling the test)
    is refused at /grid/n_steps before any solve."""
    if code == 2:
        for name in ("solve_stepwise", "solve_picard"):
            monkeypatch.setattr(cli, name, _refuse_solve)
    out = tmp_path / "bq"
    spec = json.dumps({"grid": grid})
    assert main(["bqsde", "--spec", spec, "--out", str(out)]) == code
    err = capsys.readouterr().err
    if code == 2:
        assert "/grid/n_steps" in err
        assert "more than the 200 a window may take" in err
        return
    assert err == ""
    report = json.loads((out / "bqsde.json").read_text())["report"]
    assert report["pass"]
    spent = report["picard_diagnostics"]["window_sweeps"]
    assert max(spent) <= 200
    if grid["n_steps"] in (7, 64):
        assert report["picard_sweeps"] > 200


@pytest.mark.parametrize("grid,code", [
    ({"n_steps": 3, "T": 2.65}, 2),
    ({"n_steps": 4, "T": 3.45}, 2),
    ({"n_steps": 4, "T": 2.65}, 0),
    ({"n_steps": 3, "T": 2.4}, 0),
])
def test_main_bqsde_bounds_a_growing_drivers_first_move(
    monkeypatch, tmp_path, capsys, grid, code
):
    """Under a = -1 the implicit step divides by |1 + a dt| < 1, so the
    solution, and a one-step window's first move, grow by
    |1 + a dt|^-n_steps. n_steps=3 at T=2.65 and n_steps=4 at T=3.45
    were predicted to settle in 195 and 166 sweeps, ran past 200 and
    exited 3. They are refused at /grid/n_steps before any solve; the
    n_steps the refusal names runs, each window within the prediction."""
    if code == 2:
        for name in ("solve_stepwise", "solve_picard"):
            monkeypatch.setattr(cli, name, _refuse_solve)
    out = tmp_path / "bq"
    spec = {"grid": grid, "inline": {"driver": {"scalar": -1.0}}}
    assert main(["bqsde", "--spec", json.dumps(spec), "--out", str(out)]) \
        == code
    err = capsys.readouterr().err
    assert (out / "bqsde.json").exists() == (code == 0)
    if code == 2:
        assert "/grid/n_steps" in err
        assert "more than the 200 a window may take" in err
        return
    report = json.loads((out / "bqsde.json").read_text())["report"]
    assert report["pass"]
    need = backward._one_step_window_sweeps(
        -1.0, grid["n_steps"], grid["T"], 1.0
    )
    assert max(report["picard_diagnostics"]["window_sweeps"]) <= need


@pytest.mark.parametrize("a,n_steps,T,need", [
    (1.0, 256, 1.0, 6),
    (1.0, 64, 16.0, 22),
    (1.0, 16, 14.2, 244),
    (1.0, 1, 0.89, 198),
    (0.5, 7, 3.5, 19),
    (2j, 8, 3.0, 95),
])
def test_one_step_window_sweeps_keep_their_values_for_a_nonnegative(
    a, n_steps, T, need
):
    """|1 + a dt| >= 1 grows nothing, so for Re a >= 0 the first move is
    the terminal's norm unless the probes' warm start lies further out.
    The benchmark's bqsde at n=256, 0.5 at 7 steps and one step at
    T = 0.89 keep the values made with the terminal's norm; the warm
    start moves 20 to 22, 217 to 244 and 88 to 95."""
    assert backward._one_step_window_sweeps(a, n_steps, T, 1.0) == need


def test_main_bqsde_bounds_the_warm_starts_first_move(
    monkeypatch, tmp_path, capsys
):
    """After the two probe sweeps y_k is about (1 - a (T - t_k)) yT, so
    a one-step window near the start of n_steps=12 at T=10.56 first moves
    by about 18 ||yT||. Predicted at 200 with the first move taken to be
    ||yT||, it ran past 200 sweeps and exited 3; it is refused at
    /grid/n_steps before any solve, and the n_steps it names runs and
    passes."""
    for name in ("solve_stepwise", "solve_picard"):
        monkeypatch.setattr(cli, name, _refuse_solve)
    out = tmp_path / "bq"
    spec = {"grid": {"n_steps": 12, "T": 10.56}}
    assert main(["bqsde", "--spec", json.dumps(spec), "--out", str(out)]) \
        == 2
    err = capsys.readouterr().err
    assert "  /grid/n_steps: " in err and "about 223 sweeps" in err
    assert "n_steps must be at least 13" in err
    assert not (out / "bqsde.json").exists()
    monkeypatch.undo()
    spec["grid"]["n_steps"] = 13
    assert main(["bqsde", "--spec", json.dumps(spec), "--out", str(out)]) \
        == 0
    report = json.loads((out / "bqsde.json").read_text())["report"]
    assert report["pass"]
    assert max(report["picard_diagnostics"]["window_sweeps"]) <= 200


def _refuse_solve(*args, **kwargs):
    raise AssertionError("a refused spec reached a solve")


@pytest.mark.parametrize("command", ["forward", "bqsde", "all"])
def test_main_refuses_a_negative_seed_before_writing(
    command, tmp_path, capsys
):
    """--seed -1 used to reach NumPy and exit 3 with "expected
    non-negative integer", even for forward, which draws nothing. It is
    bad input: argparse exits 2 naming --seed, and nothing is written."""
    out = tmp_path / "neg"
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--seed", "-1", "--out", str(out)])
    assert exit_info.value.code == 2
    assert "--seed" in capsys.readouterr().err
    assert not out.exists()


def test_run_refuses_a_negative_seed_before_writing(tmp_path):
    out = tmp_path / "neg"
    with pytest.raises(ValueError, match="seed must be a nonnegative"):
        run("forward", parse_problem({}), str(out), seed=-1)
    assert not out.exists()


@pytest.mark.parametrize("command", ["ito-suite", "ladder"])
@pytest.mark.parametrize("seed", [1.5, True, "1", -1])
def test_run_refuses_a_seed_that_is_not_a_nonnegative_int(
    command, seed, tmp_path
):
    """A float or a bool seed used to run as its int and echo itself, and
    "1" to fail inside the comparison; the deterministic ladder, which
    never reads the seed, must refuse it as the drawing ito-suite does,
    before anything is written."""
    out = tmp_path / "bad"
    with pytest.raises(ValueError, match=r"^seed must be a nonnegative"):
        run(command, parse_problem({}), str(out), seed=seed)
    assert not out.exists()


_IMPORTS_NUMPY_RANDOM = """
import sys, tempfile
from fermisde import cli
spec = cli.parse_problem({spec!r})
cli.run({command!r}, spec, tempfile.mkdtemp(dir={tmp!r}))
print("numpy.random" in sys.modules)
"""


@pytest.mark.parametrize("command,spec,draws", [
    ("ladder", {}, False),
    ("forward", {}, False),
    ("max-principle", {}, False),
    ("bqsde", {"inline": {"driver": {"scalar": 1.0}}}, False),
    ("algebra-suite", {}, True),
])
def test_only_the_drawing_pipelines_import_numpy_random(
    command, spec, draws, tmp_path
):
    """The deterministic pipelines never build a generator, so a fresh
    interpreter that runs one leaves numpy.random unimported. It must be
    a fresh one: pytest and hypothesis import numpy.random themselves."""
    src = str(Path(cli.__file__).resolve().parents[1])
    code = _IMPORTS_NUMPY_RANDOM.format(
        spec=spec, command=command, tmp=str(tmp_path)
    )
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [str(draws)]


def test_main_ladder_offset_past_the_horizon_exit_two(tmp_path, capsys):
    out = tmp_path / "late"
    code = main(
        ["ladder", "--spec", '{"offsets": [5.0], "grid": {"n_steps": 16}}',
         "--out", str(out)]
    )
    assert code == 2
    assert "/offsets" in capsys.readouterr().err
    assert not (out / "ladder.json").exists()


def test_main_ladder_eps_wider_than_the_horizon_points_at_the_eps(
    tmp_path, capsys
):
    spec = ('{"problem_id": "lq_scalar", "grid": {"n_steps": 16}, '
            '"eps_list": [1.5, 0.5, 0.25]}')
    code = main(["ladder", "--spec", spec, "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "  /eps_list/0: eps 1.5 is wider than the horizon T=1" in err
    assert "/offsets" not in err
    assert not (tmp_path / "ladder.json").exists()


@pytest.mark.parametrize("spec,pointer", [
    ('{"grid": {"n_steps": 8}}', "/eps_list"),
    ('{"grid": {"n_steps": 16}, "offsets": [0.9]}', "/offsets"),
    ('{"inline": {}}', "/inline"),
    ('{"value_grid": %s}' % list(range(50)), "/value_grid"),
    ('{"grid": {"n_steps": 16}}', "/grid/n_steps"),
    ('{"problem_id": "quadratic_drift", "grid": {"n_steps": 12}, '
     '"eps_list": [0.5, 0.25, 0.125]}', "/problem_id"),
    (json.dumps(ladder_spec(*WINDOWS_MEET_LATE)), "/eps_list/1"),
], ids=["eps_list", "offsets", "inline", "value_grid", "bg_n_steps",
        "forward_problem_id", "windows_meet_late"])
def test_main_all_refuses_before_any_pipeline_runs(
    tmp_path, monkeypatch, capsys, spec, pointer
):
    def boom(spec, rng):
        raise RuntimeError("a pipeline ran")

    monkeypatch.setitem(cli._PIPELINES, "algebra-suite", boom)
    code = main(["all", "--spec", spec, "--out", str(tmp_path)])
    assert code == 2
    assert f"  {pointer}: " in capsys.readouterr().err
    assert not (tmp_path / "all.json").exists()


def test_main_all_runs_on_a_small_grid_with_an_eps_list(tmp_path):
    """bg-constants needs n_steps <= 14 and the ladder's default widths
    n_steps >= 16, so all on an explicit grid needs an eps_list."""
    spec = json.dumps(
        {"grid": {"n_steps": 8}, "eps_list": [0.5, 0.25, 0.125]}
    )
    assert main(["all", "--spec", spec, "--out", str(tmp_path)]) == 0
    assert (tmp_path / "all.json").exists()


def test_main_all_refusal_names_the_fix_for_the_ladder_widths(
    tmp_path, capsys
):
    spec = json.dumps({"grid": {"n_steps": 14}})
    assert main(["all", "--spec", spec, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "  /eps_list: need at least 3 usable widths" in err
    assert "default widths T/4, T/8 and T/16 need n_steps >= 16" in err
    assert "give an eps_list" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["algebra-suite", "all"])
def test_main_refuses_an_algebra_grid_whose_brownian_square_is_refused(
    tmp_path, monkeypatch, capsys, command
):
    """W_n W_n holds n^2 rows, past mul_full's limit from n = 2897 on; the
    refusal comes before any W_k is built."""
    def no_brownian(grid, k):
        raise AssertionError("a Brownian value was built")

    monkeypatch.setattr(cli, "brownian", no_brownian)
    spec = json.dumps({"grid": {"n_steps": 2897}})
    assert main([command, "--spec", spec, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert ("  /grid/n_steps: algebra-suite squares W_n: product of 2897 by "
            "2897 terms refused") in err
    assert list(tmp_path.iterdir()) == []
    accepted = cli._algebra_plan(parse_problem({"grid": {"n_steps": 2896}}))
    assert accepted.n_steps == 2896


def test_main_failed_assertions_exit_one(tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(
        cli._PIPELINES, "algebra-suite", lambda spec, rng: {"pass": False}
    )
    code = main(["algebra-suite", "--out", str(tmp_path)])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_main_module_error_exit_three(tmp_path, monkeypatch, capsys):
    def boom(spec, rng):
        raise RuntimeError("synthetic failure")

    monkeypatch.setitem(cli._PIPELINES, "ito-suite", boom)
    code = main(["ito-suite", "--out", str(tmp_path)])
    assert code == 3
    assert "synthetic failure" in capsys.readouterr().err


def test_main_catalog_prints_listing(capsys):
    assert main(["catalog"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert [entry["id"] for entry in data] == CATALOG_IDS


def test_main_honors_output_env_var(tmp_path, monkeypatch, capsys):
    target = tmp_path / "from_env"
    monkeypatch.setenv(cli.OUT_ENV, str(target))
    assert main(["algebra-suite", "--spec", '{"n_steps": 4}']) == 0
    capsys.readouterr()
    assert (target / "algebra_suite.json").exists()


# -- algebra-suite --------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1])
def test_algebra_suite_sweeps_hoelder_past_the_jw_size(seed, tmp_path):
    """At n=16, past MAX_MATRIX_GENERATORS, the Hoelder and monotonicity
    sweep runs on block spectra. Its 120 draws come after the 80 that
    the other checks read, which keep their bytes, so those residuals
    are the ones recorded before the sweep ran there."""
    spec = parse_problem({"grid": {"n_steps": 16}})
    report = run("algebra-suite", spec, str(tmp_path), seed=seed)
    body = report["report"]
    assert report["pass"]
    assert body["lp_pairs"] == 60
    assert body["holder_violations"] == body["monotonicity_violations"] == 0
    assert (
        body["car_residual"],
        body["brownian_square_residual"],
        body["star_grading_pairing_residual"],
    ) == (0.0, 0.0, 0.0)
    rng = (cli._rng(seed, cli._BRANCH["algebra-suite"]) for _ in range(2))
    short, full = (
        cli._random_elements(r, 16, count).values(0, 80)
        for r, count in zip(rng, (80, 200))
    )
    assert [(a.masks.tobytes(), a.amps.tobytes()) for a in short] == [
        (a.masks.tobytes(), a.amps.tobytes()) for a in full
    ]


def car_by_products(n):
    """The per-pair reference: worst norm2(g_j g_k + g_k g_j - 2 delta_jk)
    over j <= k from element products."""
    worst = 0.0
    for j in range(n):
        gj = CliffordElement.generator(n, j)
        for k in range(j, n):
            gk = CliffordElement.generator(n, k)
            target = CliffordElement.scalar(n, 2.0 if j == k else 0.0)
            worst = max(worst, norm2(gj * gk + gk * gj - target))
    return worst


@pytest.mark.parametrize("n", [1, 2, 9, 65])
def test_car_residual_reads_the_generator_table(n, monkeypatch):
    """The table equals the per-pair products, also when the sign kernel
    is broken: all signs + makes every off-diagonal anticommutator 2 g,
    all signs - makes every square -1."""
    assert cli._car_residual(n) == car_by_products(n) == 0.0
    pair_parity = cli.sp.pair_parity
    for fill, want in ((0, 2.0 if n > 1 else 0.0), (1, 4.0)):
        monkeypatch.setattr(
            cli.sp, "pair_parity",
            lambda a, b, prefix=None, fill=fill: np.full(
                (a.shape[0], b.shape[0]), fill, np.uint8
            ),
        )
        assert cli._car_residual(n) == car_by_products(n) == want
        monkeypatch.setattr(cli.sp, "pair_parity", pair_parity)


def test_car_residual_reads_the_table_in_blocks(monkeypatch):
    """Past one block of rows each block reads its own rows' signs both
    ways round: a sign flipped for one pair across two blocks shows."""
    n = 2 * cli._CAR_CHUNK + 3
    assert cli._car_residual(n) == 0.0
    pair_parity = cli.sp.pair_parity

    def flipped(a, b, prefix=None):
        out = pair_parity(a, b, prefix)
        j = np.flatnonzero(a[:, 4] == 1 << 10)   # generator 266
        k = np.flatnonzero(b[:, 0] == 1 << 3)    # generator 3
        out[np.ix_(j, k)] ^= 1
        return out

    monkeypatch.setattr(cli.sp, "pair_parity", flipped)
    assert cli._car_residual(n) == 2.0
