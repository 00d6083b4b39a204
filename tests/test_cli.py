"""Runner and serialization: spec validation with pointer diagnostics,
pipeline reports, exit codes, and byte-stable output files."""

import json
import os

import numpy as np
import pytest

from fermisde import cli
from fermisde.algebra import CliffordElement, norm2, random_element
from fermisde.cli import (
    SpecError,
    catalog_listing,
    main,
    parse_problem,
    run,
)
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
    assert "/eps_list/2: runs on the same 2-step window as /eps_list/1" in err


def test_main_max_principle_refuses_an_oracle_over_budget(
    tmp_path, monkeypatch, capsys
):
    def enumerate_anyway(*args, **kwargs):
        raise AssertionError("the oracle ran")

    monkeypatch.setattr(cli, "brute_force_optimum", enumerate_anyway)
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


def test_main_ladder_offset_past_the_horizon_exit_two(tmp_path, capsys):
    out = tmp_path / "late"
    code = main(
        ["ladder", "--spec", '{"offsets": [5.0], "grid": {"n_steps": 16}}',
         "--out", str(out)]
    )
    assert code == 2
    assert "/offsets" in capsys.readouterr().err
    assert not (out / "ladder.json").exists()


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
