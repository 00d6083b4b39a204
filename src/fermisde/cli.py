"""Command-line runner: problem files in, machine-readable reports out.

Problem files are JSON, either naming a built-in catalog entry or giving
an inline linear state equation whose maps are {scalar, left, right,
sum} compositions with element payloads. The pipelines that draw take
their randomness from one generator seeded by the run's seed, the others
draw nothing, and each writes a sorted-key JSON report through an atomic
rename, so a repeated run with the same spec and seed produces
byte-identical report files. Wall-clock timings vary run to run and
therefore live in a sidecar file, not in the report.

Exit status: 0 when every enabled assertion passed, 1 when a pipeline
ran but failed its assertions, 2 for spec errors, 3 for propagated
module errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, field
from functools import reduce
from operator import add

import numpy as np

from . import _channel
from . import _sparse as sp
from .algebra import (
    MAX_MATRIX_GENERATORS,
    CliffordElement,
    _distances,
    _lp_norms,
    _random_rows,
    _Stack,
    jw_rep,
    norm2,
    pairing,
    random_element,
)
from .backward import (
    PICARD_MAX_ITER,
    PICARD_TOL,
    Driver,
    _one_step_window_sweeps,
    residual,
    solve_picard,
    solve_stepwise,
)
from .catalog import build, catalog
from .control import (
    _max_principle,
    _require_oracle_budget,
    _window_refusals,
    variation_ladder,
)
from .forward import _growth, apriori_check, linear_euler_forward
from .ito import (
    MAX_GRID_STEPS,
    AdaptedProcess,
    TimeGrid,
    _bg_batch,
    _commutation_worst,
    _isometry_batch,
    _representation_batch,
    brownian,
    check_martingale,
    commutation_check,
    mrep_extract,
    right_integral,
    right_integral_path,
)
from .operators import LeftMulOp, RightMulOp, ScalarOp, SumOp
from .reporting import (
    SCHEMA_VERSION,
    element_from_json,
    json_number,
    term_errors,
    write_csv,
    write_json,
)

__all__ = [
    "ProblemSpec",
    "SpecError",
    "parse_problem",
    "run",
    "catalog_listing",
    "main",
]

OUT_ENV = "FERMISDE_OUT"
P_CHOICES = (1.0, 1.5, 2.0, 3.0, np.inf)


class SpecError(ValueError):
    """Problem-spec validation failure with JSON-pointer locations."""

    def __init__(self, errors):
        self.errors = list(errors)
        lines = [f"  {ptr}: {msg}" for ptr, msg in self.errors]
        super().__init__("invalid problem spec:\n" + "\n".join(lines))


@dataclass
class ProblemSpec:
    """Validated run configuration with defaults filled in.

    parse_problem fills every field of _FIELDS; explicit_grid records
    whether the spec gave n_steps.
    """

    problem_id: str | None = None
    inline: dict | None = None
    T: float | None = None
    n_steps: int | None = None
    explicit_grid: bool = False
    control: dict = field(default_factory=dict)
    eps_list: list | None = None
    offsets: list | None = None
    value_grid: list | None = None
    steps_coarse: int | None = None
    raw: dict = field(default_factory=dict)

    def echo(self):
        """Normalized spec content for embedding into reports.

        A /grid/n_steps the spec does not give is left out: a catalog
        pipeline then runs on its entry's default grid and the suites on
        the parse default, so no one value names the grid of every
        pipeline. Each report body names the grid it ran on.
        """
        out = {section[1:]: {} for section in _SECTIONS}
        for ptr, _, _, _ in _FIELDS:
            if ptr == "/grid/n_steps" and not self.explicit_grid:
                continue
            holder, key = _slot(self, ptr)
            value = holder.get(key)
            if value is not None:
                *section, key = ptr[1:].split("/")
                node = out[section[0]] if section else out
                node[key] = list(value) if isinstance(value, list) else value
        if self.inline is not None:
            out["inline"] = self.raw.get("inline")
        return out


# Spec fields: (JSON pointer, kind, bound, default). A kind is "float"
# (a finite JSON number), "int" (a JSON number with an integral value),
# "floats" (a non-empty list of floats, checked entry by entry) or "id"
# (a catalog id); booleans are never numbers. A bound is (test, message)
# on each number. Fields under /control default to absent.
_FIELDS = (
    ("/problem_id", "id", None, "lq_scalar"),
    ("/grid/T", "float", (lambda v: v > 0, "horizon must be positive"), 1.0),
    ("/grid/n_steps", "int",
     (lambda v: 1 <= v <= MAX_GRID_STEPS,
      f"must be between 1 and {MAX_GRID_STEPS}"), 8),
    ("/control/ubar_weight", "float", None, None),
    ("/control/alt_weight", "float", None, None),
    ("/control/x0_scale", "float", None, None),
    ("/eps_list", "floats", (lambda v: v > 0, "must be positive"), None),
    ("/offsets", "floats", (lambda v: v >= 0, "must be >= 0"), [0.0]),
    ("/value_grid", "floats", None, None),
    ("/steps_coarse", "int",
     (lambda v: 1 <= v <= 4, "must be between 1 and 4"), 3),
)
# Flat spellings of grid fields; a spec may give each in one place only.
_ALIASES = {"/grid/T": "/T", "/grid/n_steps": "/n_steps"}
_SECTIONS = ("/grid", "/control")
_KNOWN = {ptr for ptr, _, _, _ in _FIELDS} | {
    *_ALIASES.values(), *_SECTIONS, "/inline"
}


def _slot(spec, ptr):
    """The dict and key that hold a field of _FIELDS on a ProblemSpec."""
    *section, key = ptr[1:].split("/")
    return (spec.control if section == ["control"] else vars(spec)), key


def _given(data, ptr):
    """(pointer, value) pairs the spec gives for a field and its alias."""
    found = []
    for where in filter(None, (ptr, _ALIASES.get(ptr))):
        node = data
        for part in where[1:].split("/"):
            if not isinstance(node, dict) or part not in node:
                break
            node = node[part]
        else:
            found.append((where, node))
    return found


def _check(value, kind, bound, ptr, errors):
    """value as its kind, or None after appending why it is refused."""
    if kind == "floats":
        if not isinstance(value, list) or not value:
            errors.append((ptr, "must be a non-empty list"))
            return None
        out = [
            _check(item, "float", bound, f"{ptr}/{i}", errors)
            for i, item in enumerate(value)
        ]
        return None if None in out else out
    if kind == "id":
        ids = catalog()
        if isinstance(value, str) and value in ids:
            return value
        known = ", ".join(sorted(ids))
        errors.append((ptr, f"unknown id {value!r}; available: {known}"))
        return None
    value, problem = json_number(value, integral=kind == "int")
    if problem is None and bound is not None and not bound[0](value):
        problem = bound[1]
    if problem is not None:
        errors.append((ptr, problem))
        return None
    return value


def _unknown_fields(data, errors):
    """Refuse every key, at the top and in each section, no field names."""
    for section in ("",) + _SECTIONS:
        node = data.get(section[1:], {}) if section else data
        if not isinstance(node, dict):
            errors.append((section, "must be an object"))
            continue
        for key in node:
            ptr = section + "/" + str(key).replace("~", "~0").replace(
                "/", "~1"
            )
            if ptr not in _KNOWN:
                errors.append((ptr, "unknown field"))


def _linmap(payload, pointer, n, errors):
    """Build an ElementOperator from a {scalar,left,right,sum} node."""
    if not isinstance(payload, dict):
        errors.append((pointer, "linear map must be an object"))
        return ScalarOp(0.0)
    keys = set(payload) & {"scalar", "left", "right", "sum"}
    if len(keys) != 1:
        errors.append(
            (pointer, "exactly one of scalar/left/right/sum is required")
        )
        return ScalarOp(0.0)
    kind = keys.pop()
    value = payload[kind]
    if kind == "scalar":
        if isinstance(value, dict):
            amp = _amplitude(value, pointer + "/scalar", errors)
        else:
            amp = _check(value, "float", None, pointer + "/scalar", errors)
        return ScalarOp(0.0 if amp is None else amp)
    if kind == "sum":
        if not isinstance(value, list):
            errors.append((pointer + "/sum", "must be a list of maps"))
            return ScalarOp(0.0)
        parts = [
            _linmap(item, f"{pointer}/sum/{i}", n, errors)
            for i, item in enumerate(value)
        ]
        return SumOp(parts)
    element = _element_field(value, pointer + "/" + kind, n, errors)
    return LeftMulOp(element) if kind == "left" else RightMulOp(element)


def _amplitude(node, pointer, errors):
    """complex(re, im) of a node whose parts are finite JSON numbers
    (absent parts are 0), or None after appending why it is refused.
    Other keys are refused."""
    before = len(errors)
    unknown = sorted(str(key) for key in node if key not in ("re", "im"))
    if unknown:
        errors.append((pointer, "unknown keys: " + ", ".join(unknown)))
    parts = [
        _check(node[part], "float", None, f"{pointer}/{part}", errors)
        if part in node else 0.0
        for part in ("re", "im")
    ]
    return None if len(errors) > before else complex(*parts)


def _element_field(payload, pointer, n, errors):
    """Element of an /inline payload, each term checked at its own
    pointer (reporting.term_errors)."""
    terms = payload.get("terms") if isinstance(payload, dict) else None
    if isinstance(terms, list):
        bad = term_errors(terms, n)
        if bad:
            errors.extend((pointer + ptr, why) for ptr, why in bad)
            return CliffordElement.zero(n)
    try:
        return element_from_json(payload, expect_n=n)
    except ValueError as exc:
        errors.append((pointer, str(exc)))
        return CliffordElement.zero(n)


_INLINE_PARSERS = {
    "A": _linmap, "B": _linmap, "C": _linmap, "driver": _linmap,
    "x0": _element_field, "terminal": _element_field,
}


def _parse_inline(inline, n, errors):
    """Operators, elements and sources of an /inline node, by key."""
    if not isinstance(inline, dict):
        errors.append(("/inline", "must be an object"))
        return None
    unknown = set(inline) - set(_INLINE_PARSERS) - {"sources"}
    if unknown:
        errors.append(
            ("/inline", "unknown keys: " + ", ".join(sorted(unknown)))
        )
    checked = {
        key: parse(inline[key], f"/inline/{key}", n, errors)
        for key, parse in _INLINE_PARSERS.items()
        if key in inline
    }
    sources = inline.get("sources", {})
    if not isinstance(sources, dict):
        errors.append(("/inline/sources", "must be an object"))
        sources = {}
    checked["sources"] = {}
    for key in sources:
        ptr = f"/inline/sources/{key}"
        if key not in ("D", "F", "G"):
            errors.append((ptr, "unknown source slot"))
            continue
        checked["sources"][key] = _element_field(sources[key], ptr, n, errors)
    return checked


def parse_problem(source):
    """Parse and validate a problem spec from a path, text, or dict.

    Returns a ProblemSpec with defaults filled; raises SpecError carrying
    (json-pointer, message) pairs when validation fails.
    """
    if isinstance(source, dict):
        data = source
    else:
        text = source
        if isinstance(source, (str, os.PathLike)) and os.path.exists(source):
            with open(source) as handle:
                text = handle.read()
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError([("", f"malformed JSON: {exc}")]) from exc
    if not isinstance(data, dict):
        raise SpecError([("", "problem spec must be a JSON object")])

    errors = []
    spec = ProblemSpec(raw=dict(data))
    _unknown_fields(data, errors)
    for ptr, kind, bound, default in _FIELDS:
        found = _given(data, ptr)
        value = None
        if len(found) > 1:
            where = found[1][0]
            errors.append((where, f"give {ptr} or {where}, not both"))
        elif found:
            value = _check(found[0][1], kind, bound, found[0][0], errors)
        value = default if value is None else value
        if value is not None:
            holder, key = _slot(spec, ptr)
            holder[key] = list(value) if isinstance(value, list) else value
    spec.explicit_grid = bool(_given(data, "/grid/n_steps"))

    if "inline" in data:
        if "problem_id" in data:
            errors.append(("", "give problem_id or inline, not both"))
        spec.problem_id = None
        spec.inline = _parse_inline(data["inline"], spec.n_steps, errors)

    if errors:
        raise SpecError(errors)
    return spec


def catalog_listing():
    """Catalog ids with parameter schemas and supported pipelines."""
    out = []
    for entry in catalog().values():
        try:
            _forward_plan(ProblemSpec(problem_id=entry.id))
        except SpecError:
            supports = []
        else:
            supports = ["forward"]
        supports += ["max-principle", "ladder"]
        if entry.second_adjoint_ok:
            supports.append("second-adjoint")
        out.append(
            {
                "id": entry.id,
                "summary": entry.summary,
                "defaults": {
                    "n_steps": entry.default_steps,
                    "T": entry.default_T,
                    "ubar_weight": entry.ubar_weight,
                    "alt_weight": entry.alt_weight,
                    "ladder_x0": entry.ladder_x0,
                    "ladder_ubar": entry.ladder_ubar,
                },
                "parameters": {
                    "n_steps": "positive integer (grid steps = generators)",
                    "T": "positive horizon",
                    "control.ubar_weight": "baseline control weight",
                    "control.alt_weight": "alternative control weight",
                    "control.x0_scale": "initial state, multiple of I",
                },
                "max_steps": entry.max_steps,
                "p_term_active": entry.p_term_active,
                "second_adjoint_ok": entry.second_adjoint_ok,
                "supports": supports,
            }
        )
    return out


# ---------------------------------------------------------------------------
# pipeline helpers


def _rng(seed, branch):
    """The stream of one drawing pipeline (see _DRAWING): seed and the
    pipeline's branch, so each keeps its stream alone and inside all.
    The first call imports numpy.random, which the deterministic
    pipelines never load."""
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence((seed, branch)))
    )


def _random_batch(rng, grid, samples, terms, starts=None):
    """samples random adapted processes on grid in one canonical stack
    with period n_steps + 1 (see algebra._Stack). Step k of each is
    random_element(rng, grid.n, terms, max_generator=k), drawn sample
    after sample; with starts, each sample first draws its start into
    it. The draws are packed one bounded run at a time, so memory is the
    stack plus one run (see algebra._random_rows)."""
    n = grid.n_steps
    masks, amps = _random_rows(
        rng, grid.n, terms, range(n), samples=samples, starts=starts
    )
    keys = np.arange(samples)[:, None] * (n + 1) + np.arange(n)
    seg = np.repeat(keys.ravel(), terms)
    return _Stack(grid.n, seg, masks, amps, n + 1, samples).canonical()


def _build_problem(spec, ladder_start=False, least_steps=1):
    """Catalog entry, problem, grid and x0 scale of a catalog spec.

    The grid takes the spec's steps when it gives them and otherwise the
    entry's default, raised to least_steps; a grid past the entry's
    max_steps, which build refuses, is refused at /grid/n_steps whichever
    way it came. An unset x0_scale takes the entry's ladder start when
    ladder_start is set and the catalog's default otherwise.
    """
    entry = catalog()[spec.problem_id]
    steps = spec.n_steps if spec.explicit_grid else max(
        least_steps, entry.default_steps
    )
    x0 = spec.control.get(
        "x0_scale", entry.ladder_x0 if ladder_start else None
    )
    try:
        problem, grid = build(
            spec.problem_id, n_steps=steps, T=spec.T, x0_scale=x0
        )
    except ValueError as exc:
        given = "" if spec.explicit_grid else " (the default grid)"
        raise SpecError([("/grid/n_steps", f"{exc}{given}")]) from None
    return entry, problem, grid, x0


# ---------------------------------------------------------------------------
# pipelines


def _random_elements(rng, n, count):
    """count random_element(rng, n) draws in one canonical stack, seg i
    holding draw i: one draw and one sort, with the same rng calls in
    the same order, and each element equal to its own draw bit for bit
    (see algebra._random_rows and _Stack)."""
    masks, amps = _random_rows(rng, n, 8, [n], samples=count)
    seg = np.repeat(np.arange(count), 8)
    return _Stack(n, seg, masks, amps).canonical()


# Rows of the generator table one _car_residual pass holds.
_CAR_CHUNK = 256


def _car_residual(n):
    """The worst 2-norm of g_j g_k + g_k g_j - 2 delta_jk I over all j, k.

    g_j g_k is (-1)^parity g_{j xor k}, with the inversion parity that
    mul_full takes from pair_parity, so each anticommutator is the one
    monomial g_{j xor k}, which is empty only for j = k, with amplitude
    sign(j, k) + sign(k, j). The table is read a block of rows at a time.
    """
    gens = sp.generator_rows(n, sp.words_for(n))
    prefix = sp.prefix_parity(gens)
    worst = 0.0
    for lo in range(0, n, _CAR_CHUNK):
        rows = gens[lo : lo + _CAR_CHUNK]
        ahead = sp.pair_parity(rows, gens, prefix)
        behind = sp.pair_parity(gens, rows).T
        anti = (1.0 - 2.0 * ahead) + (1.0 - 2.0 * behind)
        anti[np.arange(rows.shape[0]), lo + np.arange(rows.shape[0])] -= 2.0
        worst = max(worst, float(np.abs(anti).max()))
    return worst


def _algebra_plan(spec):
    """Grid of an algebra-suite spec, or its refusal: the Brownian check
    squares W_n, a product of n by n terms."""
    grid = TimeGrid(spec.T, spec.n_steps)
    try:
        sp.require_product(grid.n_steps, grid.n_steps)
    except ValueError as exc:
        raise SpecError([("/grid/n_steps", f"algebra-suite squares W_n: "
                          f"{exc}")]) from None
    return grid


def _conjugate(p):
    """The Hoelder conjugate q of p, 1/p + 1/q = 1."""
    if p == 1.0:
        return np.inf
    if p == np.inf:
        return 1.0
    return p / (p - 1.0)


def _pipeline_algebra(spec, rng):
    """Every element comes from one draw (_random_elements): 80 for the
    star, grading and pairing checks, then 120 for the Hoelder sweep and
    60 for the JW check at n <= 10, in the order of the per-pair loops
    that read them. The 40 products a* b of the pairing check are one
    stacked product (_Stack.products), and the sweep reads every L^p
    norm it needs once per element and p, from one SVD call per block
    shape (algebra._lp_norms)."""
    grid = _algebra_plan(spec)
    n = grid.n_steps
    holder_pairs = 60
    jw_pairs = 30 if n <= 10 else 0
    count = 2 * (40 + holder_pairs + jw_pairs)
    drawn = _random_elements(rng, n, count)
    elements = drawn.values(0, count)
    car = _car_residual(n)
    bro = 0.0
    times = grid.times()
    for k in range(n + 1):
        wk = brownian(grid, k)
        gap = wk * wk - CliffordElement.scalar(n, times[k])
        bro = max(bro, norm2(gap))
    # norm2(a** - a) and norm2(grading(grading(a)) - a) of the first
    # element a of each of the 40 pairs, from one sum each.
    firsts = np.arange(0, 80, 2)
    a_rows = drawn.select(np.isin(drawn.seg, firsts))
    props = float(np.sqrt(max(
        (a_rows.adjoint().adjoint() - a_rows).squares(firsts).max(),
        (a_rows.grading().grading() - a_rows).squares(firsts).max(),
    )))
    # (a* b).vacuum() of each pair (a, b), pair i as step i of both.
    b_rows = drawn.select(np.isin(drawn.seg, firsts + 1))
    star = _Stack(n, a_rows.seg // 2, a_rows.masks, a_rows.amps).adjoint()
    vacua = star.products(
        _Stack(n, b_rows.seg // 2, b_rows.masks, b_rows.amps)
    ).vacua(40)
    for a, b, vac in zip(elements[0:80:2], elements[1:80:2], vacua):
        ab = pairing(a, b)
        props = max(props, abs(ab - np.conj(pairing(b, a))))
        props = max(props, abs(ab - vac))
    holder_bad = mono_bad = 0
    sweep = elements[80 : 80 + 2 * holder_pairs]
    norms = _lp_norms(sweep, P_CHOICES)
    # Per p, the column of its conjugate exponent.
    conjugate = [P_CHOICES.index(_conjugate(p)) for p in P_CHOICES]
    for i in range(holder_pairs):
        a, b = sweep[2 * i], sweep[2 * i + 1]
        norms_a, norms_b = norms[2 * i], norms[2 * i + 1]
        lhs = abs(pairing(a, b))
        for j, q in enumerate(conjugate):
            if lhs > norms_a[q] * norms_b[j] + 1e-10:
                holder_bad += 1
        if any(
            norms_a[j] > norms_a[j + 1] + 1e-10
            for j in range(len(norms_a) - 1)
        ):
            mono_bad += 1
    report = {
        "n": n,
        "car_residual": car,
        "brownian_square_residual": bro,
        "star_grading_pairing_residual": props,
        "holder_violations": holder_bad,
        "monotonicity_violations": mono_bad,
        "lp_pairs": holder_pairs,
    }
    checks = [car <= 1e-12, bro <= 1e-12, props <= 1e-12,
              holder_bad == 0, mono_bad == 0]
    if jw_pairs:
        rep = jw_rep(n)
        hom = 0.0
        checked = elements[80 + 2 * holder_pairs :]
        for a, b in zip(checked[0::2], checked[1::2]):
            ma, mb = rep.matrix(a), rep.matrix(b)
            hom = max(hom, np.abs(rep.matrix(a * b) - ma @ mb).max())
            hom = max(
                hom, np.abs(rep.matrix(a.adjoint()) - ma.conj().T).max()
            )
            hom = max(hom, abs(np.trace(ma) / rep.d - a.vacuum()))
        hom = max(
            hom,
            np.abs(
                rep.matrix(CliffordElement.identity(n)) - np.eye(rep.d)
            ).max(),
        )
        report["jw_homomorphism_residual"] = hom
        checks.append(hom < 1e-12)
    report["pass"] = all(checks)
    return report


def _pipeline_ito(spec, rng):
    """Each section draws all its samples into one stack, in the rng
    order of one draw per sample, and checks them all at once; sample 0
    of each is checked again through the public per-process functions,
    which must give the same numbers bit for bit."""
    n = spec.n_steps
    grid = TimeGrid(spec.T, n)
    ys = _random_batch(rng, grid, 25, 6)
    isos = _isometry_batch(grid, ys)
    starts = np.empty(25)
    ms = _random_batch(rng, grid, 25, 5, starts)
    mreps = _representation_batch(grid, ms, starts)
    procs = _random_batch(rng, grid, 10, 6)
    comms = _commutation_worst(grid, procs)
    # Every path passed _isometry_batch's prefix-layout check, so each
    # sample's martingale gap reads exactly 0.0 (see check_martingale).
    mart = 0.0
    got = _ito_sample_zero(grid, ys, ms, starts[0], procs)
    if got != (isos[0], mart, mreps[0], comms[0]):
        raise RuntimeError(
            "ito-suite: sample 0 of the batch differs from the "
            f"per-process route: {got}"
        )
    iso = max(0.0, *isos)
    mrep, comm = max(0.0, *mreps), max(0.0, *comms)
    report = {
        "n": n,
        "isometry_residual": iso,
        "integral_martingale_gap": mart,
        "representation_residual": mrep,
        "commutation_residual": comm,
        "samples": {"isometry": 25, "representation": 25, "commutation": 10},
    }
    report["pass"] = all(
        v <= 1e-12 for v in (iso, mart, mrep, comm)
    )
    return report


def _ito_sample_zero(grid, ys, ms, start, procs):
    """The isometry residual, martingale gap, representation residual and
    commutation defect of sample 0 of each ito-suite section, through the
    public per-process functions."""
    n = grid.n_steps
    y = AdaptedProcess(grid, ys.values(0, n), check=False)
    total = reduce(add, (grid.dt * v.norm2_sq() for v in y), 0.0)
    iso = abs(right_integral(grid, y).norm2_sq() - total) / (1.0 + total)
    gap = check_martingale(right_integral_path(grid, y))
    start = CliffordElement.scalar(grid.n, float(start))
    m = right_integral_path(grid, ms.values(0, n), start)
    target = m[n] - m[0]
    recon = right_integral(grid, mrep_extract(grid, m))
    mrep = norm2(recon - target) / (1.0 + norm2(target))
    comm = commutation_check(grid, procs.values(0, n))
    return iso, gap, mrep, comm


def _inline_state_solve(spec):
    grid = TimeGrid(spec.T, spec.n_steps)
    n = grid.n
    ops = tuple(spec.inline.get(key, ScalarOp(0.0)) for key in "ABC")
    sources = spec.inline.get("sources", {})
    srcs = tuple(sources.get(key, CliffordElement.zero(n)) for key in "DFG")
    x0 = spec.inline.get("x0", CliffordElement.identity(n))
    path = linear_euler_forward(grid, lambda k: ops, lambda k: srcs, x0)
    return grid, x0, path


# forward's refinement sweep: the grids it solves at, whatever the spec's.
_SWEEP_STEPS = (16, 32, 64)


def _forward_plan(spec):
    """Entry, x0 scale, control weight, grid and Channel of a catalog
    forward spec (None for an inline one), or its refusal: forward
    solves a catalog entry on the parity channel alone."""
    if spec.problem_id is None:
        return None
    entry, problem, grid, x0_scale = _build_problem(spec, ladder_start=True)
    weight = spec.control.get("ubar_weight", entry.ladder_ubar)
    return (entry, x0_scale, weight,
            *_forward_channel(entry, problem, grid, weight))


def _forward_channel(entry, problem, grid, weight):
    """grid and the Channel of problem under the constant control weight,
    or the refusal of an entry the gate does not take."""
    u = AdaptedProcess.constant_scalar(grid, weight)
    ch = _channel.gate(problem, grid, (range(grid.n_steps), lambda k: (u[k],)))
    if ch is None:
        raise SpecError([("/problem_id", f"forward does not support "
                          f"{entry.id}: it is not a parity channel, the only "
                          "route forward takes for a catalog entry")])
    return grid, ch


def _forward_walk(grid, ch):
    """||x_k||^2 for k = 0..n_steps and the terminal vacuum of the
    channel's solve, nothing pruned; raises on a non-finite state, not
    warning about the overflow that made it."""
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.concatenate(list(
            _channel.norms_sq(grid, ch.lanes, ch.tables[0], [ch.x0])
        ))
    if not np.isfinite(norms).all():
        raise FloatingPointError("forward state became non-finite")
    vacua = _channel.vacua(
        grid, ch.lanes.stay, ch.tables[0][:, :, 0], ch.x0
    )
    return norms.tolist(), vacua[-1]


def _pipeline_forward(spec):
    if spec.inline is not None:
        grid, x0, path = _inline_state_solve(spec)
        terminal = path[grid.n_steps]
        return {
            "mode": "inline",
            "n_steps": grid.n_steps,
            "terminal_norm2": norm2(terminal),
            "terminal_vacuum": {
                "re": terminal.vacuum().real,
                "im": terminal.vacuum().imag,
            },
            "terminal_terms": terminal.n_terms,
            "diagnostics": path.diagnostics,
            "growth": apriori_check(path, x0),
            "refinement": {"skipped": "inline elements pin n to the grid"},
            "pass": True,
        }
    # Defaults favor a visibly non-trivial path: the ladder start and
    # baseline weight rather than the catalog's optimization defaults.
    entry, x0_scale, weight, grid, ch = _forward_plan(spec)
    # O(dt) convergence certificate on a fixed small sweep, independent
    # of the main grid: terminal norms on refined grids approach a limit
    # with first-order gaps. Each distinct grid takes one walk.
    walks = {grid.n_steps: _forward_walk(grid, ch)}
    for steps in sorted(set(_SWEEP_STEPS) - {grid.n_steps}):
        prob_f, grid_f = build(
            spec.problem_id, n_steps=steps, T=spec.T, x0_scale=x0_scale
        )
        walks[steps] = _forward_walk(
            *_forward_channel(entry, prob_f, grid_f, weight)
        )
    norms_sq = walks[grid.n_steps][0]
    norms = {k: float(np.sqrt(walks[k][0][-1])) for k in _SWEEP_STEPS}
    vacua = {k: float(walks[k][1].real) for k in _SWEEP_STEPS}
    gaps = [abs(norms[16] - norms[32]), abs(norms[32] - norms[64])]
    floor = 1e-13 * (1.0 + norms[16])
    vacuous = gaps[0] <= floor or gaps[1] <= floor
    ratio = None if vacuous else gaps[0] / gaps[1]
    refinement = {
        "sweep_steps": [16, 32, 64],
        "terminal_norms": {str(k): v for k, v in norms.items()},
        "terminal_vacua": {str(k): v for k, v in vacua.items()},
        "norm_gaps": gaps,
        "ratio": ratio,
        "vacuous": vacuous,
    }
    ok = vacuous or (1.5 <= ratio <= 2.6)
    return {
        "mode": "catalog",
        "problem_id": entry.id,
        "n_steps": grid.n_steps,
        "ubar_weight": weight,
        "x0_scale": x0_scale,
        "refinement": refinement,
        "terminal_norm2": float(np.sqrt(norms_sq[-1])),
        "growth": _growth(norms_sq, norms_sq[0]),
        "pass": bool(ok),
    }


def _bqsde_plan(spec):
    """Grid, driver operator and its graded-scalar form (or None) of a
    bqsde spec, or its refusal: Picard's windows are at least one step
    long, a step under a scalar driver a contracts only while |a| dt < 1,
    and a one-step window must settle within solve_picard's sweep budget
    (backward._one_step_window_sweeps)."""
    grid = TimeGrid(spec.T, spec.n_steps)
    inline = spec.inline or {}
    driver_op = inline.get("driver", ScalarOp(1.0))
    scalar = driver_op.as_graded_scalar()
    if scalar is not None and scalar.beta == 0:
        rate = abs(scalar.alpha)
        if rate * grid.dt >= 1.0:
            raise SpecError([("/grid/n_steps", (
                f"bqsde's Picard windows are at least one step long, and "
                f"one step of dt={grid.dt:g} under the driver |a|={rate:g} "
                f"does not contract (|a| dt >= 1); n_steps must exceed "
                f"{rate * grid.T:g}"
            ))])
        terminal = inline.get("terminal")
        scale = 1.0 if terminal is None else norm2(terminal)
        need = _one_step_window_sweeps(
            scalar.alpha, grid.n_steps, spec.T, scale
        )
        if need > PICARD_MAX_ITER:
            least = next(
                m for m in range(grid.n_steps + 1, MAX_GRID_STEPS + 2)
                if m > MAX_GRID_STEPS or _one_step_window_sweeps(
                    scalar.alpha, m, spec.T, scale
                ) <= PICARD_MAX_ITER
            )
            raise SpecError([("/grid/n_steps", (
                f"bqsde's Picard windows are at least one step long, and "
                f"one step of dt={grid.dt:g} under the driver |a|={rate:g} "
                f"contracts by |a| dt = {rate * grid.dt:g} per sweep: it "
                f"settles to {PICARD_TOL:g} in about {need} sweeps, more "
                f"than the {PICARD_MAX_ITER} a window may take; n_steps "
                f"must be at least {least}"
            ))])
    return grid, driver_op, scalar


def _pipeline_bqsde(spec):
    grid, driver_op, scalar = _bqsde_plan(spec)
    n = grid.n
    terminal = (spec.inline or {}).get(
        "terminal", CliffordElement.identity(n)
    )
    if scalar is not None and scalar.beta == 0:
        g1 = abs(scalar.alpha)
    else:
        g1 = 0.0
        probe_rng = _rng(0, 999)
        for _ in range(8):
            v = random_element(probe_rng, n)
            g1 = max(g1, norm2(driver_op.apply(v)) / max(norm2(v), 1e-30))
        g1 *= 2.0
    driver = Driver(g1=g1, g2=0.0, linear_y=lambda k: driver_op)
    path_a = solve_stepwise(driver, grid, terminal, mode="implicit")
    path_b, sweeps = solve_picard(driver, grid, terminal)
    gap = max(_distances(n, path_a.y, path_b.y))
    res_a = residual(path_a, driver, terminal)
    res_b = residual(path_b, driver, terminal)
    y0 = path_a.y[0]
    report = {
        "n_steps": n,
        "driver_scalar": None,
        "lipschitz_estimate": g1,
        "y0_norm2": norm2(y0),
        "y0_vacuum": {"re": y0.vacuum().real, "im": y0.vacuum().imag},
        "stepwise_residual": res_a,
        "picard_residual": res_b,
        "picard_sweeps": sweeps,
        "picard_diagnostics": path_b.diagnostics,
        "stepwise_vs_picard_gap": gap,
    }
    checks = [
        gap <= max(1e-8, grid.dt),
        res_a <= 1e-9 * (1.0 + norm2(terminal)),
        res_b <= 1e-9 * (1.0 + norm2(terminal)),
    ]
    a_val = complex(scalar.alpha) if scalar is not None else None
    if (
        a_val is not None
        and scalar.beta == 0
        and abs(a_val.imag) <= 1e-14
    ):
        a = a_val.real
        report["driver_scalar"] = a
        discrete = (1.0 + a * grid.dt) ** (-n) * terminal.vacuum().real
        continuum = np.exp(-a * grid.T) * terminal.vacuum().real
        err_discrete = abs(y0.vacuum().real - discrete)
        report["closed_form"] = {
            "discrete_value": discrete,
            "discrete_error": err_discrete,
            "continuum_value": continuum,
            "continuum_error": abs(y0.vacuum().real - continuum),
        }
        checks.append(err_discrete <= 1e-10 * (1.0 + abs(discrete)))
    report["pass"] = all(checks)
    return report


def _ladder_eps(spec, grid):
    """The spec's eps_list, by default T/4 halved up to four times while
    it spans a whole step."""
    if spec.eps_list is not None:
        return list(spec.eps_list)
    return [grid.T / 4.0 / 2**i for i in range(5) if 4 * 2**i <= grid.n_steps]


def _ladder_plan(spec):
    """Problem, grid, start and eps of a ladder spec, or its refusal: the
    library's window refusals (control._window_refusals) at each offset,
    at the eps they name or else at /offsets."""
    if spec.problem_id is None:
        raise SpecError(
            [("/inline", "ladder needs a catalog problem with cost rules")])
    entry, problem, grid, x0 = _build_problem(
        spec, ladder_start=True, least_steps=64
    )
    eps_list = _ladder_eps(spec, grid)
    if len(eps_list) < 3:
        why = (f"need at least 3 usable widths at or above dt ({grid.dt:g}); "
               f"got {len(eps_list)}")
        if spec.eps_list is None:
            why += ("; the default widths T/4, T/8 and T/16 need n_steps >= "
                    "16, or give an eps_list")
        raise SpecError([("/eps_list", why)])
    refusals = _window_refusals(grid, eps_list, spec.offsets)
    if refusals:
        raise SpecError(
            ("/offsets" if i is None else f"/eps_list/{i}", why)
            for i, why in refusals
        )
    return entry, problem, grid, x0, eps_list


def _pipeline_ladder(spec):
    entry, problem, grid, x0, eps_list = _ladder_plan(spec)
    ub_w = spec.control.get("ubar_weight", entry.ladder_ubar)
    alt_w = spec.control.get("alt_weight", entry.alt_weight)
    ubar = AdaptedProcess.constant_scalar(grid, ub_w)
    alt = AdaptedProcess.constant_scalar(grid, alt_w)
    per_offset = []
    tables = {}
    overall = True
    for i, offset in enumerate(spec.offsets):
        rep = variation_ladder(problem, ubar, alt, eps_list, offset=offset)
        per_offset.append(rep)
        overall = overall and rep["pass"]
        rows = []
        for j, eps in enumerate(rep["eps"]):
            row = [eps]
            for name in ("xi_sq", "y_sq", "z_sq", "eta_sq", "zeta_sq"):
                row.append(rep["series"][name][j])
            rows.append(row)
        tables[f"ladder_offset_{i}.csv"] = (
            ["eps", "xi_sq", "y_sq", "z_sq", "eta_sq", "zeta_sq"],
            rows,
        )
    report = {
        "problem_id": entry.id,
        "grid": {"T": grid.T, "n_steps": grid.n_steps},
        "x0_scale": x0,
        "ubar_weight": ub_w,
        "alt_weight": alt_w,
        "eps_list": eps_list,
        "offsets": list(spec.offsets),
        "runs": per_offset,
        "pass": bool(overall),
    }
    return report, tables


def _mp_plan(spec):
    """Problem, grid and value grid of a max-principle spec, or its
    refusal: on the parity channel the adjoint's implicit step divides
    by the lanes' divisor 1 - dt conj(a), which must not be 0."""
    if spec.problem_id is None:
        raise SpecError([("/inline", "max-principle needs a catalog problem")])
    entry, problem, grid, _ = _build_problem(spec)
    value_grid = spec.value_grid or list(
        problem.control_space.value_grid
    )
    try:
        _require_oracle_budget(problem, spec.steps_coarse, value_grid)
    except ValueError as exc:
        raise SpecError([("/value_grid", str(exc))]) from None
    ch = _channel.gate(problem, grid, costs=True)
    if ch is not None and not ch.lanes.divisor.all():
        k = int(np.argmin(ch.lanes.divisor.all(axis=1)))
        raise SpecError([("/grid/n_steps", (
            f"max-principle's adjoint step {k} divides by 1 - dt conj(a) "
            f"= 0 (dt a = 1 at dt={grid.dt:g}); choose another n_steps"
        ))])
    return entry, problem, grid, value_grid


def _pipeline_mp(spec):
    """The oracle's winner, the maximum-principle scan over it and the
    duality defect (see control._max_principle, which picks the route)."""
    entry, problem, grid, value_grid = _mp_plan(spec)
    alt = AdaptedProcess.constant_scalar(
        grid, spec.control.get("alt_weight", entry.alt_weight)
    )
    order = 1 if entry.p_term_active else 2
    u_opt, j_opt, mp_min, mp_argmin, dual = _max_principle(
        problem, grid, spec.steps_coarse, value_grid, alt,
        order=order, second=entry.second_adjoint_ok,
    )
    tol = max(1e-6, 1.0 * grid.dt)
    return {
        "problem_id": entry.id,
        "grid": {"T": grid.T, "n_steps": grid.n_steps},
        "steps_coarse": spec.steps_coarse,
        "value_grid": value_grid,
        "oracle_cost": j_opt,
        "oracle_weights": [
            u_opt[k].vacuum().real for k in range(grid.n_steps)
        ],
        "mp_min": mp_min,
        "mp_argmin": mp_argmin,
        "mp_tol": tol,
        "second_adjoint_used": entry.second_adjoint_ok,
        "duality_order": order,
        "duality_residual": dual,
        "pass": bool(mp_min >= -tol),
    }


def _bg_plan(spec):
    """Grid of a bg-constants spec, or its refusal."""
    if spec.n_steps > MAX_MATRIX_GENERATORS:
        raise SpecError([("/grid/n_steps", "bg-constants takes spectra "
                          "of blocks of up to 2^n_steps entries; n_steps "
                          f"must be at most {MAX_MATRIX_GENERATORS}")])
    return TimeGrid(spec.T, spec.n_steps)


def _pipeline_bg(spec, rng):
    grid = _bg_plan(spec)
    n = grid.n_steps
    rows = []
    worst_p2 = 0.0
    summary = {}
    batch = _random_batch(rng, grid, 5, 4)
    for sample, sweep in enumerate(_bg_batch(grid, batch, P_CHOICES)):
        for p, result in zip(P_CHOICES, sweep):
            for side in ("right", "left"):
                entry = result[side]
                rows.append(
                    [
                        sample,
                        "inf" if p == np.inf else p,
                        side,
                        entry["integral_norm"],
                        entry["square_function_norm"],
                        entry["ratio"],
                        entry["inverse_ratio"],
                    ]
                )
                if entry["ratio"] is not None:
                    key = ("inf" if p == np.inf else str(p), side)
                    lo, hi = summary.get(key, (np.inf, -np.inf))
                    summary[key] = (
                        min(lo, entry["ratio"]),
                        max(hi, entry["ratio"]),
                    )
                if p == 2.0 and entry["ratio"] is not None:
                    worst_p2 = max(worst_p2, abs(entry["ratio"] - 1.0))
    table = {
        "bg_constants.csv": (
            [
                "sample",
                "p",
                "side",
                "integral_norm",
                "square_function_norm",
                "ratio",
                "inverse_ratio",
            ],
            rows,
        )
    }
    report = {
        "n": n,
        "samples": 5,
        "p_values": ["inf" if p == np.inf else p for p in P_CHOICES],
        "ratio_ranges": {
            f"{p}:{side}": {"min": lo, "max": hi}
            for (p, side), (lo, hi) in sorted(summary.items())
        },
        "p2_isometry_residual": worst_p2,
        "pass": worst_p2 <= 1e-10,
    }
    return report, table


_PIPELINES = {
    "algebra-suite": _pipeline_algebra,
    "ito-suite": _pipeline_ito,
    "forward": _pipeline_forward,
    "bqsde": _pipeline_bqsde,
    "ladder": _pipeline_ladder,
    "max-principle": _pipeline_mp,
    "bg-constants": _pipeline_bg,
}
SUBCOMMANDS = [*_PIPELINES, "all"]
# The pipelines that draw random elements, each from _rng(seed, its
# branch); the others are deterministic and never see the seed.
_DRAWING = ("algebra-suite", "ito-suite", "bg-constants")
# Refusals that need a grid or a problem; "all" runs them before any work.
_PLANS = (_algebra_plan, _forward_plan, _ladder_plan, _mp_plan, _bg_plan,
          _bqsde_plan)
_BRANCH = {name: i for i, name in enumerate(SUBCOMMANDS)}


def run(subcommand, spec, out_dir, seed=0):
    """Execute a pipeline, write its report files, return the report.

    The report (and any CSV tables) land in out_dir; timings go to a
    sidecar. The returned dict carries a top-level "pass" flag. seed,
    a nonnegative int (anything else is refused before out_dir is made),
    reaches algebra-suite, ito-suite and bg-constants, the pipelines
    that draw; every report echoes it. bqsde's probe of a driver that is
    not a graded scalar draws from a fixed stream of its own.
    """
    if subcommand not in SUBCOMMANDS:
        raise ValueError(
            f"unknown subcommand {subcommand!r}; "
            f"choose from {', '.join(SUBCOMMANDS)}"
        )
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ValueError(f"seed must be a nonnegative integer, got {seed!r}")
    os.makedirs(out_dir, exist_ok=True)
    timings = {}
    tables = {}
    if subcommand == "all":
        for plan in _PLANS:
            plan(spec)
        reports = {}
        overall = True
        for name in SUBCOMMANDS[:-1]:
            t0 = time.perf_counter()
            sub, sub_tables = _run_one(name, spec, seed)
            timings[name] = time.perf_counter() - t0
            reports[name] = sub
            tables.update(sub_tables)
            overall = overall and sub["pass"]
        report = {
            "schema_version": SCHEMA_VERSION,
            "scenario": "all",
            "seed": seed,
            "spec": spec.echo(),
            "reports": reports,
            "pass": bool(overall),
        }
        stem = "all"
    else:
        t0 = time.perf_counter()
        body, tables = _run_one(subcommand, spec, seed)
        timings[subcommand] = time.perf_counter() - t0
        report = {
            "schema_version": SCHEMA_VERSION,
            "scenario": subcommand,
            "seed": seed,
            "spec": spec.echo(),
            "report": body,
            "pass": body["pass"],
        }
        stem = subcommand.replace("-", "_")
    write_json(os.path.join(out_dir, f"{stem}.json"), report)
    for name, (header, rows) in tables.items():
        write_csv(os.path.join(out_dir, name), header, rows)
    write_json(
        os.path.join(out_dir, f"{stem}_meta.json"),
        {
            "timings_seconds": timings,
            "note": "timings vary run to run; the report file does not",
        },
    )
    return report


def _run_one(name, spec, seed):
    if name in _DRAWING:
        result = _PIPELINES[name](spec, _rng(seed, _BRANCH[name]))
    else:
        result = _PIPELINES[name](spec)
    if isinstance(result, tuple):
        return result
    return result, {}


def _seed(text):
    """--seed's value. One that is not a nonnegative integer is refused
    by argparse (exit 2, naming --seed) before anything runs."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"must be a nonnegative integer, got {text!r}"
        )
    return int(text)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="fermisde",
        description="Deterministic runner for the fermionic stochastic "
        "calculus toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name, help=f"run the {name} pipeline")
        p.add_argument(
            "--spec",
            help="problem spec: path to a JSON file or literal JSON",
        )
        p.add_argument(
            "--out",
            default=os.environ.get(OUT_ENV, "fermisde_out"),
            help=f"output directory (default ${OUT_ENV} or ./fermisde_out)",
        )
        p.add_argument("--seed", type=_seed, default=0)
    sub.add_parser("catalog", help="list built-in problems as JSON")
    args = parser.parse_args(argv)

    if args.command == "catalog":
        print(json.dumps(catalog_listing(), indent=2, sort_keys=True))
        return 0

    try:
        spec = (
            parse_problem(args.spec)
            if args.spec
            else parse_problem({})
        )
    except SpecError as exc:
        print(exc, file=sys.stderr)
        return 2
    try:
        report = run(args.command, spec, args.out, seed=args.seed)
    except SpecError as exc:
        print(exc, file=sys.stderr)
        return 2
    except Exception as exc:  # propagated module errors, with context
        print(f"{args.command} failed: {exc}", file=sys.stderr)
        return 3
    print(
        f"{args.command}: {'pass' if report['pass'] else 'FAIL'} "
        f"(reports in {args.out})"
    )
    return 0 if report["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
