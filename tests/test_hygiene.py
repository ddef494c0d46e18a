"""Source hygiene: every name a nearex module imports is used in it, every
top-level name and class member it defines is used somewhere in the
repository, every argument a function takes is read, and every function the
benchmark's tracer wraps exists."""

import ast
import importlib
import importlib.util
import io
import pathlib
import re
import tokenize
from collections import Counter

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "nearex"
MODULES = sorted(SRC.glob("*.py"))
# where a use of a nearex name counts
USERS = sorted(p for d in ("src", "tests", "scripts", "benchmark")
               for p in (ROOT / d).rglob("*.py"))


def unused_imports(source):
    """Names bound by import statements of ``source`` that nothing reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_checker_sees_an_unused_import():
    source = "import os\nfrom math import pi, tau\nprint(pi)\n"
    assert unused_imports(source) == [(1, "os"), (2, "tau")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_only_what_it_uses(path):
    unused = unused_imports(path.read_text(encoding="utf-8"))
    assert not unused, ", ".join(f"{path.name}:{line} {name}" for line, name in unused)


def top_level_names(source):
    """Names bound by top-level def, class and assignment statements."""
    names = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    names[target.id] = node.lineno
    return {nm: line for nm, line in names.items() if not nm.startswith("__")}


def identifier_counts(sources):
    """How often each identifier occurs in code (not in strings or comments)."""
    counts = Counter()
    for source in sources:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.NAME:
                counts[tok.string] += 1
    return counts


def test_checker_sees_an_unused_top_level_name():
    module = "LIMIT = 3\nSPARE = 4\ndef f(x):\n    return min(x, LIMIT)\ndef g():\n    pass\n"
    user = "from m import f\nf(1)\n# g and SPARE in a comment are not a use\n"
    counts = identifier_counts([module, user])
    defined = top_level_names(module)
    assert sorted(nm for nm in defined if counts[nm] < 2) == ["SPARE", "g"]


def test_every_top_level_name_is_used():
    counts = identifier_counts(p.read_text(encoding="utf-8") for p in USERS)
    unused = [
        f"{path.name}:{line} {name}"
        for path in MODULES
        for name, line in sorted(top_level_names(path.read_text(encoding="utf-8")).items())
        if counts[name] < 2  # the definition itself is one occurrence
    ]
    assert not unused, ", ".join(unused)


def class_members(source):
    """(class, member, line) for every field, method and property a top-level
    class defines in its body, dunder names excepted."""
    out = []
    for node in ast.parse(source).body:
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [item.name]
            elif isinstance(item, ast.AnnAssign):
                names = [item.target.id] if isinstance(item.target, ast.Name) else []
            elif isinstance(item, ast.Assign):
                names = [t.id for t in item.targets if isinstance(t, ast.Name)]
            else:
                continue
            out += [(node.name, nm, item.lineno) for nm in names
                    if not (nm.startswith("__") and nm.endswith("__"))]
    return out


DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+")


def attributes_read(source):
    """Attribute names ``source`` reads (``x.name`` in load context), plus
    every name after a dot in a dotted string such as ``"Cls.method"``."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            for dotted in DOTTED.findall(node.value):
                read.update(dotted.split(".")[1:])
    return read


def test_checker_sees_an_unread_class_member():
    module = (
        "class A:\n"
        "    kept: int\n"
        "    spare: int = 0\n"
        "    def used(self):\n"
        "        return self.kept\n"
        "    def wrapped(self):\n"
        "        pass\n"
        "    def idle(self):\n"
        "        self.spare = 1\n"
        "    def __repr__(self):\n"
        "        return 'A'\n"
    )
    user = "a = A(spare=2)\na.used()\nTARGETS = ['A.wrapped']\n# a.idle()\n"
    read = attributes_read(module) | attributes_read(user)
    assert [nm for _, nm, _ in class_members(module) if nm not in read] == ["spare", "idle"]


def test_every_class_member_is_read():
    read = set().union(*(attributes_read(p.read_text(encoding="utf-8")) for p in USERS))
    unread = [
        f"{path.name}:{line} {cls}.{name}"
        for path in MODULES
        for cls, name, line in class_members(path.read_text(encoding="utf-8"))
        if name not in read
    ]
    assert not unread, ", ".join(unread)


def test_every_benchmark_trace_target_resolves():
    """The benchmark's tracer wraps functions by name: a rename under src/
    fails here, not only when the benchmark runs."""
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "benchmark" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module_name, path, _ in tracing.TARGETS + tracing.COUNTED:
        importlib.import_module(module_name)
        owner, attr, value = tracing._resolve(module_name, path)
        assert callable(value), f"{module_name}.{path}"


def unread_arguments(source):
    """(line, name) for every parameter of a function or lambda in ``source``
    that its body, nested functions included, never reads; ``self``, ``cls``
    and ``_``-prefixed names are exempt."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        params += [a for a in (args.vararg, args.kwarg) if a is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        out += [(p.lineno, p.arg) for p in params if p.arg not in read
                and p.arg not in ("self", "cls") and not p.arg.startswith("_")]
    return sorted(out)


def test_checker_sees_an_unread_argument():
    source = (
        "def f(a, b, _c, *args, **kw):\n"
        "    return a\n"
        "def g(p, q=1):\n"
        "    def h(r):\n"
        "        return p\n"
        "    return h\n"
        "class A:\n"
        "    def m(self, x):\n"
        "        return lambda y, z: y + x\n"
    )
    assert unread_arguments(source) == [
        (1, "args"), (1, "b"), (1, "kw"), (3, "q"), (4, "r"), (9, "z")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_argument_is_read(path):
    """No argument is accepted and then ignored: a caller's value reaches
    the body, or the name says it is unused."""
    unread = unread_arguments(path.read_text(encoding="utf-8"))
    assert not unread, ", ".join(f"{path.name}:{line} {name}" for line, name in unread)


def scipy_imports(source):
    """Lines of ``source`` that import SciPy or a part of it."""
    return sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "scipy" for a in node.names)
        or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy"
    )


def test_checker_sees_a_scipy_import():
    source = "import numpy\nimport scipy.linalg as sl\nfrom scipy.linalg.lapack import zgelsd\n"
    assert scipy_imports(source) == [2, 3]


def test_only_numlin_imports_scipy():
    """LAPACK and SciPy's BLAS are reached through numlin alone, so each
    solve's rounding and rank rule is decided in one module."""
    found = [f"{path.name}:{line}" for path in MODULES if path.name != "numlin.py"
             for line in scipy_imports(path.read_text(encoding="utf-8"))]
    assert not found, ", ".join(found)
