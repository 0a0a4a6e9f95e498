"""Source hygiene that needs no linter: every module-level import in the
package is used (``__init__.py`` is exempt, since its imports are the
public re-exports), every name a function assigns is read, and every
private module-level name is read somewhere in the package, every name
the benchmark's tracer wraps exists, no ``except`` in the CLI catches
``TypeError`` or ``KeyError``, no syntax node has an instance ``__dict__``,
every view an axiom schema reads exists, and the package stays within its
line budget, with no line over 99 characters."""

from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gradedlogic"


def _unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def test_no_unused_module_imports():
    unused = {
        path.name: names
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
        and (names := _unused_imports(path.read_text(encoding="utf-8")))
    }
    assert unused == {}


def test_detects_an_unused_import():
    assert _unused_imports("import json\nfrom x import a, b as c\nc(a)\n") == ["json"]


def _unused_locals(source: str) -> list:
    """``function.name`` for each name a function assigns but never reads
    (nested functions count as readers); ``_`` and names the function
    declares ``global`` or ``nonlocal`` are exempt."""
    unused = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        names = [n for n in ast.walk(func) if isinstance(n, ast.Name)]
        outer = {name for n in ast.walk(func)
                 if isinstance(n, (ast.Global, ast.Nonlocal)) for name in n.names}
        read = {n.id for n in names if isinstance(n.ctx, ast.Load)} | outer | {"_"}
        unused += sorted({f"{func.name}.{n.id}" for n in names
                          if isinstance(n.ctx, ast.Store) and n.id not in read})
    return unused


def test_no_unused_locals():
    unused = {
        path.name: names
        for path in sorted(SRC.glob("*.py"))
        if (names := _unused_locals(path.read_text(encoding="utf-8")))
    }
    assert unused == {}


def test_detects_an_unused_local():
    source = ("def f(xs):\n    a, b = 1, 2\n    for _ in xs:\n        c = b\n"
              "    def g():\n        return c\n    return g\n")
    assert _unused_locals(source) == ["f.a"]


def _unread_privates(sources: dict) -> list:
    """``module.name`` for each private module-level function, class or
    constant (tuple targets too) that no statement in ``sources`` (module
    name -> source) reads, other than the one binding it; importing a name
    from its module counts as a read."""
    defined, read = [], set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bound = {stmt.name}
            else:
                targets = getattr(stmt, "targets", [getattr(stmt, "target", None)])
                bound = {n.id for t in targets if t is not None for n in ast.walk(t)
                         if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
            defined += [(module, name) for name in sorted(bound)
                        if name.startswith("_") and not name.startswith("__")]
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) \
                        and node.id not in bound:
                    read.add((module, node.id))
                elif isinstance(node, ast.ImportFrom):
                    read |= {(node.module, alias.name) for alias in node.names}
    return [f"{module}.{name}" for module, name in defined if (module, name) not in read]


def test_no_unread_private_names():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(SRC.glob("*.py"))}
    assert _unread_privates(sources) == []


def test_detects_an_unread_private():
    sources = {
        "a": ("_A, _B = 1, 2\n_C: int = _B\ndef _f(n):\n    return _f(n - 1)\n"
              "class _K:\n    pass\ndef _g():\n    return _K\n__all__ = []\n"),
        "b": "from .a import _g\n_g()\n",
    }
    assert _unread_privates(sources) == ["a._A", "a._C", "a._f"]


def _load_by_path(path: Path):
    spec = importlib.util.spec_from_file_location(f"_bench_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    # A renamed library function would otherwise fail only the traced
    # benchmark run, where the tracer looks the name up to rebind it.
    tracing = _load_by_path(ROOT / "perfbench" / "tracing.py")
    workloads = _load_by_path(ROOT / "perfbench" / "workloads.py")
    modules = ("errors", "grades", "syntax", "semantics", "kernel", "prototypes",
               "questionnaire")
    lib = SimpleNamespace(**{name: importlib.import_module(f"gradedlogic.{name}")
                             for name in modules})
    targets = tracing.targets(lib, workloads.make_api(lib))
    assert targets
    missing = [f"{getattr(obj, '__name__', 'api')}.{attr}" for obj, attr, _, _ in targets
               if not callable(getattr(obj, attr, None))]
    assert missing == []


def _caught_names(source: str) -> set:
    """The exception names that the ``except`` clauses of ``source`` catch;
    a bare ``except:`` counts as ``BaseException``."""
    caught = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ExceptHandler):
            caught |= {n.id for n in ast.walk(node.type or ast.Name("BaseException"))
                       if isinstance(n, ast.Name)}
    return caught


def test_cli_catches_no_type_or_key_error():
    # A TypeError or KeyError out of a command is a defect, not bad input
    # (input errors reach main as ValueError subclasses), so no handler in
    # the CLI catches one, by name or through a base class.
    caught = _caught_names((SRC / "cli.py").read_text(encoding="utf-8"))
    assert caught & {"TypeError", "KeyError", "LookupError", "Exception",
                     "BaseException"} == set()


def test_detects_a_caught_type_error():
    source = ("try:\n    f()\nexcept (ValueError, TypeError):\n    pass\n"
              "try:\n    g()\nexcept KeyError as exc:\n    pass\n"
              "try:\n    h()\nexcept:\n    raise\n")
    assert _caught_names(source) == {"ValueError", "TypeError", "KeyError", "BaseException"}


def test_syntax_nodes_have_no_instance_dict():
    # A node keeps its cached hash and text in slots, which pickling and
    # copying leave out; a node class with an instance ``__dict__`` would
    # carry a process-local hash into another process.
    syntax = importlib.import_module("gradedlogic.syntax")
    found, pending = {}, [
        syntax.parse_formula("(!(~(p & q), (top | bot) ->[1/2] (p * q)) \\/ (p ->[1] p /\\ q ->[1] q))"),
        syntax.parse_formula("(x, 1/2)"),
    ]
    while pending:
        node = pending.pop()
        found[type(node)] = node
        for value in (getattr(node, f) for f in node.__dataclass_fields__):
            pending += value if isinstance(value, tuple) else [value]
        pending = [x for x in pending if type(x) in syntax._RENDER]
    assert set(found) == set(syntax._RENDER)
    assert [cls.__name__ for cls, node in found.items() if hasattr(node, "__dict__")] == []


def test_every_schema_view_exists():
    # A renamed or dropped view would otherwise fail only when a formula
    # is matched against the schemas that read it.
    kernel = importlib.import_module("gradedlogic.kernel")
    views = kernel._views(kernel.parse_formula("p ->[1] q"))
    missing = {name: view for name, (view, _) in kernel._SCHEMAS.items() if view not in views}
    assert missing == {}


# ``wc -l src/gradedlogic/*.py``; it grows only for a feature that needs it.
SOURCE_LINE_BUDGET = 2_975


def test_source_line_budget():
    lines = sum(path.read_bytes().count(b"\n") for path in SRC.glob("*.py"))
    assert lines <= SOURCE_LINE_BUDGET


def test_no_long_source_lines():
    # Past 99 characters, two lines' code could be packed into one and the
    # line budget would count packing, not code.
    long = [f"{path.name}:{number}" for path in sorted(SRC.glob("*.py"))
            for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if len(line) > 99]
    assert long == []
