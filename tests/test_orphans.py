"""Every function, method and class defined in ``src/repro`` is used,
and every name a module there imports is read.

A definition whose name appears as a word no more often than it is
defined is referenced by no Python file of the project: ``src``,
``tests``, ``benchmarks``, ``scripts``, ``examples`` and ``perfbench``.
Words are counted in strings and comments too, since a name can be
looked up by string (``getattr``, perfbench's trace targets).  Dunder
names are excepted, since the language calls them.

An import in a module other than a package ``__init__`` binds names
for that module's own code: each must be read there (quoted forward
references in annotations count) or listed in the module's ``__all__``,
which is where a module that re-exports a name says so.

Every module under ``src/repro`` is in the static import closure of
``repro.cli``: code that only a test, a bench or an example imports
lives beside it, not in ``src``.  ``src`` has no ``importlib`` or
``__import__``, so the static closure is the one a command loads.

There is no allowlist: code that nothing runs is deleted.
"""

import ast
import collections
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCANNED = ("src", "tests", "benchmarks", "scripts", "examples",
           "perfbench")
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
WORD = re.compile(r"\b[A-Za-z_][A-Za-z0-9_]*\b")


def _python_sources(top):
    for directory, __, names in sorted(os.walk(top)):
        for name in sorted(names):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                with open(path, encoding="utf-8") as fileobj:
                    yield path, fileobj.read()


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def orphans(root=ROOT):
    """Sorted names defined under ``root/src/repro`` that no scanned
    file mentions beyond their own definitions."""
    defined = collections.Counter()
    for path, source in _python_sources(os.path.join(root, "src",
                                                     "repro")):
        defined.update(node.name for node in ast.walk(ast.parse(source,
                                                                path))
                       if isinstance(node, DEFINITIONS)
                       and not _is_dunder(node.name))
    mentioned = collections.Counter()
    for top in SCANNED:
        for __, source in _python_sources(os.path.join(root, top)):
            mentioned.update(WORD.findall(source))
    return sorted(name for name, count in defined.items()
                  if mentioned[name] <= count)


def test_every_definition_is_referenced():
    unused = orphans()
    assert not unused, (
        f"defined under src/repro but referenced nowhere: "
        f"{', '.join(unused)}")


def _import_bindings(tree):
    """``{name: line}`` of every name an import statement binds,
    ``from __future__`` features aside."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = \
                    node.lineno
        elif (isinstance(node, ast.ImportFrom)
              and node.module != "__future__"):
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns is not None:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _names_read(tree):
    """Every name the module loads, including those inside quoted
    annotations, plus the strings of its ``__all__``."""
    nodes = list(ast.walk(tree))
    for annotation in _annotations(tree):
        nodes += [ast.parse(constant.value, mode="eval")
                  for constant in ast.walk(annotation)
                  if isinstance(constant, ast.Constant)
                  and isinstance(constant.value, str)]
    read = set()
    for node in nodes:
        for child in ast.walk(node):
            if isinstance(child, ast.Name) \
                    and not isinstance(child.ctx, ast.Store):
                read.add(child.id)
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets):
            read.update(ast.literal_eval(node.value))
    return read


def unread_imports(root=ROOT):
    """Sorted ``path:line name`` of every imported name that a
    non-``__init__`` module under ``root/src/repro`` never reads."""
    found = []
    for path, source in _python_sources(os.path.join(root, "src",
                                                     "repro")):
        if os.path.basename(path) == "__init__.py":
            continue
        tree = ast.parse(source, path)
        read = _names_read(tree)
        found += [f"{os.path.relpath(path, root)}:{line} {name}"
                  for name, line in _import_bindings(tree).items()
                  if name not in read]
    return sorted(found)


def test_every_import_is_read():
    unread = unread_imports()
    assert not unread, (
        f"imported but never read (use it, drop it or list it in "
        f"__all__): {'; '.join(unread)}")


#: The module every command starts from (``python -m repro.cli``).
ENTRY = "repro.cli"


def _with_parents(dotted):
    """``a``, ``a.b`` and ``a.b.c`` for ``a.b.c``: importing a module
    runs every package above it."""
    parts = dotted.split(".")
    return [".".join(parts[:end]) for end in range(1, len(parts) + 1)]


def _imported(name, is_package, tree):
    """Every dotted name an ``import`` or ``from ... import`` anywhere
    in module ``name`` may load, with relative imports resolved.  A
    ``from`` import yields its module and, since ``from . import x``
    and ``from .pkg import sub`` load submodules, each imported name
    under it; names that are not modules are dropped by the caller."""
    package = name.split(".") if is_package else name.split(".")[:-1]
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module
            if node.level:
                base = ".".join(package[:len(package) - node.level + 1]
                                + ([node.module] if node.module else []))
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)


def unreached_modules(root=ROOT):
    """Sorted dotted names of the modules under ``root/src/repro``
    outside the static import closure of :data:`ENTRY`."""
    src = os.path.join(root, "src")
    trees, packages = {}, set()
    for path, source in _python_sources(os.path.join(src, "repro")):
        parts = os.path.relpath(path, src)[:-len(".py")].split(os.sep)
        if parts[-1] == "__init__":
            parts.pop()
            packages.add(".".join(parts))
        trees[".".join(parts)] = ast.parse(source, path)
    reached, pending = set(), [ENTRY]
    while pending:
        for name in _with_parents(pending.pop()):
            if name in trees and name not in reached:
                reached.add(name)
                pending += _imported(name, name in packages, trees[name])
    return sorted(set(trees) - reached)


def test_every_module_is_reached_by_a_command():
    unreached = unreached_modules()
    assert not unreached, (
        f"under src/repro but outside the import closure of {ENTRY} "
        f"(move it beside the tests that use it, or delete it): "
        f"{', '.join(unreached)}")


def test_closure_follows_every_import_form(tmp_path):
    """Each module below is reached through exactly one import form;
    the closure must follow all four to leave only ``unreached``."""
    files = {
        # ``from . import x`` in a package __init__.
        "__init__.py": "from . import eager\n",
        "eager.py": "",
        # A function-level ``from .pkg import sub``.
        "cli.py": "def main():\n    from .pkg import sub\n",
        "pkg/__init__.py": "",
        # ``import a.b.c`` runs the packages above ``c``, and what
        # those import.
        "pkg/sub.py": "import repro.deep.inner.leaf\n",
        "deep/__init__.py": "from .helper import VALUE\n",
        "deep/helper.py": "VALUE = 1\n",
        "deep/inner/__init__.py": "",
        "deep/inner/leaf.py": "",
        "unreached.py": "",
    }
    _write_package(tmp_path, files)
    assert unreached_modules(root=str(tmp_path)) == ["repro.unreached"]


def test_closure_resolves_parent_relative_imports(tmp_path):
    """``from ..x import y`` and ``from .. import z`` in a subpackage
    resolve against the package above it; a module that only an
    unreached module imports is unreached too."""
    files = {
        "__init__.py": "",
        "cli.py": "from .commands import run\n",
        "commands/__init__.py": "",
        "commands/run.py": ("from ..util import helper\n"
                            "from .. import config\n"),
        "util.py": "def helper():\n    pass\n",
        "config.py": "",
        "stale.py": "from . import stale_helper\n",
        "stale_helper.py": "",
    }
    _write_package(tmp_path, files)
    assert unreached_modules(root=str(tmp_path)) == [
        "repro.stale", "repro.stale_helper"]


def _write_package(root, files):
    """Write ``files`` (path under ``src/repro`` -> source) below
    ``root``."""
    for relative, source in files.items():
        path = root / "src" / "repro" / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
