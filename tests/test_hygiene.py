"""Source hygiene: every module-level import in the package is used, every
private function, class and method is referenced somewhere in it, every
function parameter is read, and every parameter with a default is passed
somewhere."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "purgekd"
# __init__.py imports names only to re-export them
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never referenced."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(bound.items(), key=lambda x: x[1])
            if name not in used]


def unreferenced_private(sources) -> list[str]:
    """Private (single-underscore) module-level functions and classes, and
    private methods of module-level classes, whose names no source in
    sources references."""
    defined, used = {}, set()
    for source in sources:
        tree = ast.parse(source)
        scopes = [("", tree.body)] + [(f"{node.name}.", node.body) for node in tree.body
                                      if isinstance(node, ast.ClassDef)]
        for prefix, body in scopes:
            for node in body:
                if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                        and node.name.startswith("_") and not node.name.startswith("__")):
                    defined[prefix + node.name] = node.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return sorted(q for q, name in defined.items() if name not in used)


def unused_parameters(source: str) -> list[str]:
    """function.parameter for each parameter (self and cls aside) that its
    function's body, nested functions included, never reads."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
        used = {n.id for stmt in node.body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
        out += [f"{node.name}.{p.arg}" for p in params
                if p.arg not in used and p.arg not in ("self", "cls")]
    return out


def _passes(call: ast.Call, index, name: str) -> bool:
    """Whether call passes the parameter at positional index (None for
    keyword-only) or by name; unpacked *args or **kwargs may pass anything."""
    if any(isinstance(arg, ast.Starred) for arg in call.args) or \
            any(kw.arg in (None, name) for kw in call.keywords):
        return True
    return index is not None and len(call.args) > index


def unpassed_defaults(sources, callers) -> list[str]:
    """function.parameter for each parameter with a default, defined in
    sources, that no call in callers to a function of that name passes, by
    position or keyword. A method's positions are counted after self or cls."""
    calls: dict[str, list[ast.Call]] = {}
    for source in callers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "attr", getattr(node.func, "id", None))
                calls.setdefault(name, []).append(node)
    out = []
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = node.args
            positional = a.posonlyargs + a.args
            bound = 1 if positional and positional[0].arg in ("self", "cls") else 0
            first_default = len(positional) - len(a.defaults)
            optional = [(i - bound, p.arg) for i, p in enumerate(positional)
                        if i >= first_default]
            optional += [(None, p.arg) for p, d in zip(a.kwonlyargs, a.kw_defaults)
                         if d is not None]
            out += [f"{node.name}.{name}" for index, name in optional
                    if not any(_passes(c, index, name) for c in calls.get(node.name, []))]
    return out


# bench/checks.py calls run_student_round with these two positionally (see
# tests/test_bench_contract.py), so they stay until the benchmark's next change.
UNUSED_FOR_THE_BENCHMARK = ["run_student_round.provenance", "run_student_round.alpha"]


def test_package_has_modules():
    assert len(MODULES) >= 5


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_detects_unused_import():
    src = "import numpy as np\nfrom .data import Dataset, make_partition\nx = Dataset\n"
    assert unused_imports(src) == ["line 1: np", "line 2: make_partition"]


def test_no_unreferenced_private_definitions():
    sources = [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))]
    assert unreferenced_private(sources) == []


def test_detects_unreferenced_private():
    module = ("def _used():\n    pass\n\n\ndef _orphan():\n    pass\n\n\n"
              "class _Gone:\n    def _helper(self):\n        pass\n\n"
              "    def _called(self):\n        pass\n\n    def __init__(self):\n"
              "        pass\n")
    caller = "from .a import _used\n_used()\nobj._called()\n"
    assert unreferenced_private([module, caller]) == ["_Gone", "_Gone._helper", "_orphan"]


def test_every_parameter_is_read():
    unused = [f"{path.name}: {name}" for path in sorted(PACKAGE.glob("*.py"))
              for name in unused_parameters(path.read_text(encoding="utf-8"))]
    assert unused == [f"student.py: {name}" for name in UNUSED_FOR_THE_BENCHMARK]


def test_detects_unused_parameter():
    src = ("def f(a, b, *rest, c=1, **extra):\n    return a + c\n\n\n"
           "class K:\n    def m(self, x):\n        def inner():\n            return x\n"
           "        return inner\n")
    assert unused_parameters(src) == ["f.b", "f.rest", "f.extra"]


def test_every_optional_parameter_is_passed():
    """A default no caller overrides is a constant in disguise."""
    sources = [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))]
    callers = [p.read_text(encoding="utf-8") for d in ("src", "tests", "bench")
               for p in sorted((ROOT / d).rglob("*.py"))]
    assert unpassed_defaults(sources, callers) == []


def test_detects_unpassed_default():
    module = ("def f(a, b=1, c=2, *, d=3, e=4):\n    pass\n\n\n"
              "def g(a=1):\n    pass\n\n\n"
              "class K:\n    def m(self, x=0, y=0):\n        pass\n")
    callers = ["f(1, 2)\nf(0, e=5)\nobj.m(7)\n", "g(*rest)\nh(d=1)\n"]
    assert unpassed_defaults([module], callers) == ["f.c", "f.d", "m.y"]
