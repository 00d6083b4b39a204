"""Every name a library module imports is used there or re-exported,
every private name the library defines is used somewhere, every layer
the benchmark's tracer patches exists, the parity channel sits below
control and reads the declared cost weights in its cost rule alone and
the raw coefficient table in its lane rule alone, only the
Jordan-Wigner definitions and algebra-suite's homomorphism check name
the Jordan-Wigner matrices, only the runner's generator names
numpy.random, for the pipelines that draw, and the running fold is
written once, on _Stack.

Parsed with the standard library's ast, so the checks need nothing
installed. The package __init__ is exempt: its imports are the public
surface.
"""

import ast
import importlib
import inspect
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "fermisde"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
# Where a private name of the library may be used.
USERS = ("src", "tests", "demos", "perfbench")


def _imported(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source):
    tree = ast.parse(source)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= _exported(tree)
    return sorted(
        f"{name} (line {line})"
        for name, line in _imported(tree)
        if name not in used
    )


def test_the_check_sees_unused_and_exported_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport numpy as np\n"
        "from .a import b, c as d, e\n"
        "__all__ = ['e']\n"
        "x = np.zeros(1) + d\n"
    )
    assert unused_imports(source) == ["b (line 4)", "os (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def _private(name):
    return name.startswith("_") and not (
        name.startswith("__") and name.endswith("__")
    )


def private_definitions(tree):
    """(name, line) of each private module-level name, class or method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target
            ]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id, node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield item.name, item.lineno


def references(tree):
    """Names a module reads: loaded names and attributes, imported names,
    and string constants (getattr, monkeypatch.setattr)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(
            node.ctx, ast.Load
        ):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def dead_private_names(definer, used):
    """Private names the definer's source defines that are not in used,
    the names read by every source that may use them."""
    return sorted(
        f"{name} (line {line})"
        for name, line in private_definitions(ast.parse(definer))
        if _private(name) and name not in used
    )


def test_the_check_sees_dead_private_names():
    definer = (
        "_A = 1\n_B: int = 2\n__all__ = []\n"
        "def _f(): return _A\ndef _g(): pass\ndef _h(): pass\n"
        "class _K:\n"
        "    def __init__(self): self._x = 1\n"
        "    def _m(self): pass\n    def _n(self): pass\n"
    )
    user = "from m import _g\nk._m()\nsetattr(m, '_h', 1)\n"
    used = {*references(ast.parse(definer)), *references(ast.parse(user))}
    assert dead_private_names(definer, used) == [
        "_B (line 2)", "_K (line 7)", "_f (line 4)", "_n (line 10)",
    ]


def test_every_private_name_is_used():
    used = {
        name
        for top in USERS
        for path in sorted((ROOT / top).rglob("*.py"))
        for name in references(ast.parse(path.read_text()))
    }
    dead = {
        path.name: dead_private_names(path.read_text(), used)
        for path in MODULES
    }
    assert {name: d for name, d in dead.items() if d} == {}


def traced_layers():
    """(module, attr) of each entry of perfbench/tracer.py's LAYERS."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets
        ):
            return [
                (entry.elts[1].value, entry.elts[2].value)
                for entry in node.value.elts
            ]
    raise AssertionError("tracer.py defines no LAYERS")


def test_every_traced_layer_resolves():
    """A traced benchmark run (--trace 1) patches each layer by name, as
    Tracer.install resolves it, and crashes on one that is gone: "*.m" is
    a method m some library class defines, "C.m" a method m of class C
    and a plain name a module-level function."""
    layers = traced_layers()
    assert ("fermisde.forward", "_Frame.step") in layers
    classes = [
        value
        for path in MODULES
        for value in vars(importlib.import_module(
            f"fermisde.{path.stem}")).values()
        if inspect.isclass(value) and value.__module__.startswith("fermisde")
    ]
    missing = []
    for module, attr in layers:
        home = importlib.import_module(module)
        owner, _, method = attr.rpartition(".")
        if owner == "*":
            found = any(method in cls.__dict__ for cls in classes)
        elif owner:
            found = method in vars(getattr(home, owner, object))
        else:
            found = callable(getattr(home, attr, None))
        if not found:
            missing.append(f"{module}:{attr}")
    assert missing == []


def imported_modules(source):
    """Modules a source imports: ".name" for one of its own package,
    the top-level name otherwise; __future__ is left out."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                yield "." + node.module.split(".")[0]
            else:
                yield from ("." + alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield node.module.split(".")[0]


def weights_readers(tree):
    """Lines of a syntax tree that touch an attribute named weights."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "weights"
    )


def weights_reading_definitions(source):
    """Top-level functions and classes of a source that touch an
    attribute named weights."""
    return sorted(
        node.name
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and weights_readers(node)
    )


def test_the_structure_checks_see_imports_and_weights():
    source = (
        "from __future__ import annotations\nimport os.path\n"
        "import numpy as np\nfrom . import control\n"
        "from .operators import x\nfrom itertools import product\n"
        "q = ch.weights[0]\nweights = 1\nch.weights = weights\n"
        "def f(ch):\n    return ch.weights\n"
        "def g(weights):\n    return weights\n"
        "class K:\n    def m(self):\n        self.weights = 1\n"
    )
    assert sorted(imported_modules(source)) == [
        ".control", ".operators", "itertools", "numpy", "os",
    ]
    assert weights_readers(ast.parse(source)) == [7, 9, 11, 16]
    assert weights_reading_definitions(source) == ["K", "f"]


def _names_the_raw_table(node, fed):
    """Whether a syntax node names the raw coefficient table: coefs as a
    name, parameter or attribute, or a coefficients(...) call not in
    fed (the calls whose value goes straight into Lanes)."""
    if isinstance(node, ast.Call):
        func = node.func
        called = func.id if isinstance(func, ast.Name) else getattr(
            func, "attr", None
        )
        return called == "coefficients" and id(node) not in fed
    return "coefs" in (
        getattr(node, "id", None), getattr(node, "arg", None),
        getattr(node, "attr", None),
    )


def raw_table_readers(source):
    """Top-level functions and classes of a source that read the raw
    coefficient table (see _names_the_raw_table)."""
    found = []
    for node in ast.parse(source).body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        fed = {
            id(arg) for call in ast.walk(node)
            if isinstance(call, ast.Call)
            and getattr(call.func, "id", None) == "Lanes"
            for arg in call.args
        }
        if any(_names_the_raw_table(n, fed) for n in ast.walk(node)):
            found.append(node.name)
    return sorted(found)


def test_the_check_sees_raw_table_readers():
    source = (
        "def gate(ops, dt):\n    return Lanes(coefficients(ops), dt)\n"
        "class Lanes:\n    def __init__(self, coefs, dt):\n"
        "        self.stay = 1.0 + dt * coefs[:, 0]\n"
        "def walk(ch):\n    return ch.coefs[:, 0]\n"
        "def vacua(ops):\n    table = coefficients(ops)\n"
        "    return Lanes(table, 1.0)\n"
        "def f(ops):\n    return _channel.coefficients(ops)[:, 3:]\n"
        "def g(lanes):\n    return lanes.stay\n"
        "def h(coefs):\n    return 1\n"
    )
    assert raw_table_readers(source) == ["Lanes", "f", "h", "vacua", "walk"]


def test_only_the_lane_rule_reads_the_raw_coefficient_table():
    """coefficients produces the raw table and the gate hands it straight
    to the lane rule, Lanes, its only reader: every other route reads
    the lanes."""
    readers = {
        path.name: raw_table_readers(path.read_text())
        for path in sorted(SRC.glob("*.py"))
    }
    assert {name: defs for name, defs in readers.items() if defs} == {
        "_channel.py": ["Lanes"],
    }


def test_the_channel_imports_only_numpy_and_operators():
    """control imports _channel, so _channel must not import control: of
    the package it imports operators alone, and beyond the standard
    library NumPy alone."""
    found = set(imported_modules((SRC / "_channel.py").read_text()))
    assert {m for m in found if m.startswith(".")} == {".operators"}
    assert {
        m for m in found
        if not m.startswith(".") and m not in sys.stdlib_module_names
    } == {"numpy"}


def test_only_the_channel_reads_the_cost_weights():
    """The norm-cost weights (q, r, s) are read in _channel.py alone, and
    there by its cost rule alone: the consumers of J, the adjoint drives,
    P's Hessians and r read what the rule derived."""
    readers = {
        path.name: weights_readers(ast.parse(path.read_text()))
        for path in sorted(SRC.glob("*.py"))
        if path.name != "_channel.py"
    }
    assert {name: lines for name, lines in readers.items() if lines} == {}
    channel = (SRC / "_channel.py").read_text()
    assert weights_reading_definitions(channel) == ["_NormCost"]


def _definition_name(node):
    """The name of a top-level definition, or its line."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return node.name
    if isinstance(node, ast.AnnAssign):
        return node.target.id
    return f"line {node.lineno}"


def jw_users(source):
    """Top-level definitions of a source that name jw_rep or MatrixRep,
    by their own names; imports are left out."""
    for node in ast.parse(source).body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        named = {
            n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))
        }
        if named & {"jw_rep", "MatrixRep"}:
            yield _definition_name(node)


def test_the_check_sees_jw_users():
    source = (
        "from .algebra import jw_rep, MatrixRep\n"
        "_CACHE: dict[int, MatrixRep] = {}\n"
        "def f(a):\n    return jw_rep(a.n).matrix(a)\n"
        "def g(a):\n    return a\n"
        "class K:\n    def m(self):\n        return algebra.MatrixRep(3)\n"
        "x = [jw_rep]\n"
    )
    assert list(jw_users(source)) == ["_CACHE", "f", "K", "line 10"]


def test_only_the_jw_definitions_and_the_homomorphism_check_name_jw():
    """Spectra and norms take the block route: under src/, the
    Jordan-Wigner matrices are named by their own definitions in
    algebra.py and by algebra-suite's homomorphism check alone."""
    found = {
        f"{path.name}:{name}"
        for path in MODULES
        for name in jw_users(path.read_text())
    }
    assert found == {
        "algebra.py:_REP_CACHE",
        "algebra.py:jw_rep",
        "cli.py:_pipeline_algebra",
    }


def _names_numpy_random(node):
    """Whether a syntax node is np.random or numpy.random, or imports it."""
    if isinstance(node, ast.Attribute):
        return node.attr == "random" and isinstance(node.value, ast.Name) \
            and node.value.id in ("np", "numpy")
    if isinstance(node, ast.Import):
        return any(a.name.startswith("numpy.random") for a in node.names)
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").startswith("numpy.random") or (
            node.module == "numpy"
            and any(a.name == "random" for a in node.names)
        )
    return False


def numpy_random_users(source):
    """Top-level definitions of a source that name numpy.random, imports
    included, by their own names."""
    for node in ast.parse(source).body:
        if any(map(_names_numpy_random, ast.walk(node))):
            yield _definition_name(node)


def pipeline_parameters(source):
    """The parameters of each pipeline in a runner source's _PIPELINES
    table, by subcommand, and the subcommands of its _DRAWING tuple
    (none when it has no such tuple)."""
    tree = ast.parse(source)
    tables = {
        target.id: node.value
        for node in tree.body if isinstance(node, ast.Assign)
        for target in node.targets if isinstance(target, ast.Name)
    }
    functions = {
        node.name: [arg.arg for arg in node.args.args]
        for node in tree.body if isinstance(node, ast.FunctionDef)
    }
    table = tables["_PIPELINES"]
    params = {
        key.value: functions[value.id]
        for key, value in zip(table.keys, table.values)
    }
    drawing = tables.get("_DRAWING")
    return params, () if drawing is None else ast.literal_eval(drawing)


def test_the_check_sees_numpy_random_users_and_pipeline_parameters():
    source = (
        "import numpy as np\nfrom numpy.random import PCG64\n"
        "import numpy.random\nfrom numpy import random, zeros\n"
        "def f(seed):\n    return np.random.Generator(PCG64(seed))\n"
        "def g(rng):\n    return rng.random()\n"
        "class K:\n    def m(self):\n        return numpy.random\n"
        "def _p(spec):\n    return {}\n"
        "_PIPELINES = {'a': f, 'b': _p}\n"
    )
    assert list(numpy_random_users(source)) == [
        "line 2", "line 3", "line 4", "f", "K",
    ]
    assert pipeline_parameters(source) == (
        {"a": ["seed"], "b": ["spec"]}, ()
    )
    drawing = source + "_DRAWING = ('a',)\n"
    assert pipeline_parameters(drawing)[1] == ("a",)


def test_only_the_drawing_pipelines_build_a_generator():
    """The paper's expectation is the trace, so only the random-element
    check suites draw: under src/, numpy.random is named by the runner's
    _rng alone, and only the pipelines of _DRAWING take the rng it
    builds."""
    found = {
        f"{path.name}:{name}"
        for path in sorted(SRC.glob("*.py"))
        for name in numpy_random_users(path.read_text())
    }
    assert found == {"cli.py:_rng"}
    params, drawing = pipeline_parameters((SRC / "cli.py").read_text())
    assert params == {
        name: ["spec", "rng"] if name in drawing else ["spec"]
        for name in params
    }
    assert set(drawing) == {"algebra-suite", "ito-suite", "bg-constants"}


def _units(tree):
    """(name, node) of each top-level statement of a module, a class's
    methods each on its own as Class.method; see _definition_name."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                name = getattr(item, "name", f"line {item.lineno}")
                yield f"{node.name}.{name}", item
        else:
            yield _definition_name(node), node


def fold_rule_users(source):
    """Definitions of a source that name the fold's helpers, _NEG_ZERO
    or _restart_zeros, or import them; defining one is not naming it."""
    for name, node in _units(ast.parse(source)):
        named = set()
        for n in ast.walk(node):
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
                named.add(n.id)
            elif isinstance(n, ast.Attribute):
                named.add(n.attr)
            elif isinstance(n, ast.ImportFrom):
                named.update(alias.name for alias in n.names)
        if named & {"_NEG_ZERO", "_restart_zeros"}:
            yield name


def _is_fold_step(node):
    """Whether a syntax node spells a step of a running fold: a cumsum
    along an axis, an accumulate, or a negative zero literal."""
    if isinstance(node, ast.Call):
        called = getattr(node.func, "attr", getattr(node.func, "id", None))
        return called == "accumulate" or called == "cumsum" and (
            len(node.args) > 1 or any(k.arg == "axis" for k in node.keywords)
        )
    return (
        isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub)
        and isinstance(node.operand, ast.Constant) and node.operand.value == 0
    )


def own_folds(source):
    """Definitions of a source that look like a running fold of their
    own: named for a fold, a running sum or a restart, or holding a
    fold step (_is_fold_step)."""
    for name, node in _units(ast.parse(source)):
        own = name.rsplit(".", 1)[-1].lower()
        if any(word in own for word in ("fold", "running", "restart")) or any(
            map(_is_fold_step, ast.walk(node))
        ):
            yield name


def test_the_check_sees_fold_rule_users_and_own_folds():
    source = (
        "import numpy as np\nfrom .algebra import _restart_zeros\n"
        "_NEG_ZERO = complex(-0.0, -0.0)\n"
        "def _running_sums(terms):\n    return terms\n"
        "def prefix(t):\n    return np.cumsum(t, axis=1)\n"
        "def total(t):\n    return np.add.accumulate(t)[-1]\n"
        "def index(sizes):\n    return np.cumsum(sizes) - sizes\n"
        "def pad(x):\n    return x + _NEG_ZERO\n"
        "class S:\n    def folds(self):\n"
        "        return algebra._restart_zeros(self, self)\n"
        "    def sums(self):\n        return self\n"
    )
    assert list(fold_rule_users(source)) == ["line 2", "pad", "S.folds"]
    assert list(own_folds(source)) == [
        "line 3", "_running_sums", "prefix", "total", "S.folds",
    ]


def test_one_running_fold_rule():
    """The step-ordered fold acc = acc + v_k, restarting where a sum
    cancels to exactly 0, is written once, as _Stack.folds: under src/,
    only it and _restart_zeros name the fold's helpers, and backward
    (the Picard sweeps) and ito (the square functions) define no fold
    of their own."""
    found = {
        f"{path.name}:{name}"
        for path in MODULES
        for name in fold_rule_users(path.read_text())
    }
    assert found == {"algebra.py:_Stack.folds", "algebra.py:_restart_zeros"}
    for module in ("backward.py", "ito.py"):
        assert list(own_folds((SRC / module).read_text())) == [], module
