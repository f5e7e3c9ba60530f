"""Guards on the package surface: exported names, traced names, imports."""

import ast
import importlib
import inspect
import re
import subprocess
import sys
from pathlib import Path

import cmspaces
from cmspaces import canonical, chart, variety

ROOT = Path(__file__).resolve().parents[1]


def _assigned(tree, name):
    """Literal value assigned to a module-level name, or None."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    return None


def test_every_exported_name_resolves():
    assert [name for name in cmspaces.__all__ if not hasattr(cmspaces, name)] == []


def test_every_traced_function_exists():
    # the benchmark tracer looks up each name in LAYERS when it installs
    layers = _assigned(ast.parse((ROOT / "perfbench" / "tracer.py").read_text()), "LAYERS")
    missing = [f"{layer}.{name}" for layer, names in layers.items() for name in names
               if not hasattr(importlib.import_module(f"cmspaces.{layer}"), name)]
    assert layers and missing == []


def test_no_module_imports_a_name_it_never_uses():
    unused = {}
    for path in sorted(Path(cmspaces.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used.update(_assigned(tree, "__all__") or ())  # re-exports count as uses
        if imported - used:
            unused[path.name] = sorted(imported - used)
    assert unused == {}


def test_every_package_error_is_raised_somewhere():
    # a typed error that nothing raises is dead; only a base class, which
    # callers catch, may go unraised
    package = Path(cmspaces.__file__).parent
    classes = {node.name: {base.id for base in node.bases if isinstance(base, ast.Name)}
               for node in ast.parse((package / "errors.py").read_text()).body
               if isinstance(node, ast.ClassDef)}
    bases = set().union(*classes.values())
    raised = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(getattr(exc, "id", getattr(exc, "attr", None)))
    assert sorted(set(classes) - bases - raised) == []


def test_no_module_imports_a_private_name_from_another():
    private = {}
    for path in sorted(Path(cmspaces.__file__).parent.glob("*.py")):
        names = [f"{node.module}.{alias.name}"
                 for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.ImportFrom) and node.level > 0
                 for alias in node.names if alias.name.startswith("_")]
        if names:
            private[path.name] = names
    assert private == {}


# linalg's scale functions are where a magnitude is floored at 1.  The one
# other floor is kappa's in chart._read: a bound on an eigenvalue
# condition number (at least 1 in exact arithmetic), not a scale.
_FLOOR_SITES = {"linalg.matrix_scale", "linalg.pair_scale", "linalg.value_scale",
                "chart._read"}


def _floors_at_one(node, where, found):
    """Add where + line of each max(1, .), np.maximum(1, .) or np.where(., ., 1) call."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        where = f"{where.split('.')[0]}.{node.name}"
    if isinstance(node, ast.Call):
        name = getattr(node.func, "id", getattr(node.func, "attr", None))
        ones = [a for a in node.args if isinstance(a, ast.Constant)
                and type(a.value) in (int, float) and a.value == 1]
        if name in ("max", "maximum", "fmax", "where") and ones:
            found.append(f"{where}:{node.lineno}")
    for child in ast.iter_child_nodes(node):
        _floors_at_one(child, where, found)


def test_no_scale_is_floored_outside_the_scale_functions():
    found = []
    package = Path(cmspaces.__file__).parent
    for path in sorted(package.glob("*.py")):
        _floors_at_one(ast.parse(path.read_text()), path.stem, found)
    assert sorted(f for f in found if f.split(":")[0] not in _FLOOR_SITES) == []
    # verify's notes name their scales through the functions' formula texts
    tree = ast.parse((package / "verify.py").read_text())
    assert [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Constant)
            and isinstance(node.value, str) and "max(1" in node.value] == []


def test_importing_the_package_loads_no_scipy():
    # scipy is a test dependency only; the package must not pay its import
    code = "import sys, cmspaces; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def _used_names(tree, strings, used):
    """Add to used every name the tree reads or looks up as an attribute outside a def of that name.

    A use inside a def of its own name (a function that calls itself)
    does not count.  Imports name nothing, so a re-export is not a use.
    With strings, a string constant that is a whole name counts too (the
    benchmark tracer looks its functions up by name); a docstring never
    is one.
    """
    stack = [(tree, frozenset())]
    while stack:
        node, defs = stack.pop()
        if isinstance(node, ast.FunctionDef):
            defs = defs | {node.name}
        name = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        if name is not None and name not in defs:
            used.add(name)
        stack.extend((child, defs) for child in ast.iter_child_nodes(node))


def test_every_exported_function_has_a_caller_outside_the_tests():
    # nothing is public only because its own test calls it: each exported
    # function is named in the package outside its own def, in README's
    # examples, or in the benchmark
    package = sorted(Path(cmspaces.__file__).parent.glob("*.py"))
    trees = [(ast.parse(path.read_text()), False) for path in package]
    readme = (ROOT / "README.md").read_text()
    trees += [(ast.parse(code), False) for code in re.findall(r"```python\n(.*?)```", readme, re.S)]
    bench = sorted((ROOT / "perfbench").glob("*.py"))
    trees += [(ast.parse(path.read_text()), True) for path in bench]
    used = set()
    for tree, strings in trees:
        _used_names(tree, strings, used)
    functions = [name for name in cmspaces.__all__ if inspect.isfunction(getattr(cmspaces, name))]
    assert functions and [name for name in functions if name not in used] == []


def test_only_sl2_reads_a_group_elements_entries():
    # sl2.coefficients is the one conversion of elements to the action's
    # coefficients, and SL2Generator the one check of a generator kind
    package = Path(cmspaces.__file__).parent
    reads = [f"{path.name}:{node.lineno}" for path in sorted(package.glob("*.py"))
             if path.name != "sl2.py" for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute) and node.attr in ("a", "b", "c", "d")]
    assert reads == []
    kinds = {"e", "f", "h"}
    tables = [node.lineno for node in ast.walk(ast.parse((package / "flowcalc.py").read_text()))
              if isinstance(node, ast.Dict)
              and kinds & {getattr(key, "value", None) for key in node.keys}
              or isinstance(node, ast.Call) and getattr(node.func, "id", None) == "dict"
              and kinds & {kw.arg for kw in node.keywords}]
    assert tables == []


def test_only_linalg_calls_the_eigensolvers():
    # linalg.eig and linalg.eigvals are the one place their conventions
    # (ordering, gap test, reassembly check) are applied
    solvers = {"eig", "eigvals"}
    calls = []
    for path in sorted(Path(cmspaces.__file__).parent.glob("*.py")):
        if path.name == "linalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and node.attr in solvers
                    and getattr(node.value, "attr", None) == "linalg"
                    or isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg"
                    and solvers & {alias.name for alias in node.names}):
                calls.append(f"{path.name}:{node.lineno}")
    assert calls == []


def test_a_scrambled_read_takes_its_block_frame_from_linalg_eig(monkeypatch):
    # the normal form's one block eigendecomposition goes through the
    # binding the benchmark tracer wraps, so a traced read counts it
    c = chart.random_chart_point(5, 1.0, 4)
    p = variety.gauge_act_pair(variety.random_gauge(5, 4), chart.from_chart(c))
    calls = []
    original = canonical.eig

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return original(*args, **kwargs)

    monkeypatch.setattr(canonical, "eig", counted)
    chart.to_chart(p)
    assert calls == [(5, 5)]
