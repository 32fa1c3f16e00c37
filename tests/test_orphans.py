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

Every top-level name of a module there is read by code a command,
an example or the benchmark harness runs (:func:`unread_names`); a
package ``__init__`` that re-exports a name does not read it.

Every method and property of a class there is read by the same readers,
matched by spelling as top-level names are (:func:`unread_members`).
Dunders are exempt, and so is a method that a base class from outside
``repro`` declares, since that library calls it as the language calls
dunders.

Every defaulted parameter of a function or method there is set by some
reader's call (:func:`unset_defaults`): by keyword, positionally past
its index, through ``*``/``**`` unpacking, or by handing the function
on as a value.  A parameter that no reader sets is the constant its
default is, and a test that needs another value patches that constant.

There is no allowlist: code that nothing runs is deleted.
"""

import ast
import builtins
import collections
import importlib
import os
import re

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCANNED = ("src", "tests", "benchmarks", "scripts", "examples",
           "perfbench")
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFINITIONS = FUNCTIONS + (ast.ClassDef,)
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


def _loads(tree):
    """Every ``Name`` and ``Attribute`` node the module loads, those
    inside quoted annotations included."""
    roots = [tree] + [ast.parse(constant.value, mode="eval")
                      for annotation in _annotations(tree)
                      for constant in ast.walk(annotation)
                      if isinstance(constant, ast.Constant)
                      and isinstance(constant.value, str)]
    return [node for root in roots for node in ast.walk(root)
            if isinstance(node, (ast.Name, ast.Attribute))
            and not isinstance(node.ctx, ast.Store)]


def _identifiers_loaded(tree):
    """The identifier of every name and attribute the module loads."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in _loads(tree)}


def _names_read(tree):
    """Every name the module loads, including those inside quoted
    annotations, plus the strings of its ``__all__``."""
    read = {node.id for node in _loads(tree) if isinstance(node, ast.Name)}
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


def _top_level_names(tree):
    """``{name: line}`` of every top-level ``def``, ``class`` and
    assigned name of a module, dunders aside."""
    names = {}
    for node in tree.body:
        if isinstance(node, DEFINITIONS):
            names[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names.update((name.id, node.lineno) for target in targets
                         for name in ast.walk(target)
                         if isinstance(name, ast.Name)
                         and isinstance(name.ctx, ast.Store))
    return {name: line for name, line in names.items()
            if not _is_dunder(name)}


def _trees_outside_src(root):
    """``(path, tree)`` of every ``examples/*.py`` and
    ``perfbench/*.py`` file, the path relative to ``root``."""
    trees = []
    for top in ("examples", "perfbench"):
        directory = os.path.join(root, top)
        trees += [(os.path.relpath(path, root), ast.parse(source, path))
                  for path, source in _python_sources(directory)
                  if os.path.dirname(path) == directory]
    return trees


def _read_outside_src(root):
    """What the example scripts and the benchmark harness read: every
    name and attribute an ``examples/*.py`` or ``perfbench/*.py`` file
    loads or imports, plus each perfbench string that is a whole
    identifier (the ``(owner, "attr")`` trace targets)."""
    read = set()
    for path, tree in _trees_outside_src(root):
        read |= _identifiers_loaded(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.alias):
                read.add(node.name.rpartition(".")[2])
            elif (path.startswith("perfbench")
                  and isinstance(node, ast.Constant)
                  and isinstance(node.value, str)
                  and node.value.isidentifier()):
                read.add(node.value)
    return read


def _src_trees(root):
    """``(path, tree)`` of every module under ``root/src/repro``, the
    path relative to ``root``."""
    for path, source in _python_sources(os.path.join(root, "src",
                                                     "repro")):
        yield os.path.relpath(path, root), ast.parse(source, path)


def _modules(root):
    """:func:`_src_trees` without the package ``__init__`` modules."""
    return [(path, tree) for path, tree in _src_trees(root)
            if os.path.basename(path) != "__init__.py"]


def _read_set(root):
    """Every identifier a reader reads: what any ``src/repro`` module
    loads, plus :func:`_read_outside_src`."""
    read = _read_outside_src(root)
    for __, tree in _src_trees(root):
        read |= _identifiers_loaded(tree)
    return read


def unread_names(root=ROOT):
    """Sorted ``path:line name`` of every top-level name of a
    non-``__init__`` module under ``root/src/repro`` that nothing reads.

    A name is read when any ``src/repro`` module, its own included,
    loads it as a name or as an attribute ``x.name`` (quoted
    annotations count; a package ``__init__``'s imports and
    ``__all__`` do not), when an ``examples/*.py`` script reads or
    imports it (tier-1 runs every example), or when a ``perfbench/*.py``
    file reads or imports it or names it in a string that is exactly
    the identifier.  perfbench is a reader because it drives the
    program through its API and traces layers by attribute name, and it
    changes only with the benchmark itself; that is what keeps its
    reset hooks (``clear_fingerprint_cache``, ``experiments.cache.reset``)
    and trace targets.  Its strings are parsed, not word-matched, so the
    ``scorecard`` inside ``"scorecard-cold"`` reads nothing.  Tests do
    not read: a name only they use lives beside them.  Names are matched
    by spelling, not by binding.
    """
    read = _read_set(root)
    return sorted(f"{path}:{line} {name}"
                  for path, tree in _modules(root)
                  for name, line in _top_level_names(tree).items()
                  if name not in read)


def test_every_top_level_name_is_read():
    unread = unread_names()
    assert not unread, (
        f"defined at the top of a src/repro module but read by no "
        f"command, example or perfbench file (delete it, or move it "
        f"beside the tests that use it): {'; '.join(unread)}")


def test_name_check_reads_commands_examples_and_perfbench(tmp_path):
    """Each name of ``api/impl.py`` has one reader, or none."""
    _write_package(tmp_path, {
        "__init__.py": "",
        "cli.py": ("from .api import called\n"
                   "def main(arg: \"Quoted\"):\n"
                   "    return called(arg)\n"
                   "if __name__ == \"__main__\":\n"
                   "    main(None)\n"),
        "api/__init__.py": (
            "from .impl import (Quoted, called, for_example, reexported,\n"
            "                   scorecard, traced)\n"
            "__all__ = [\"Quoted\", \"called\", \"for_example\",\n"
            "           \"reexported\", \"scorecard\", \"traced\"]\n"),
        "api/impl.py": ("class Quoted:\n    pass\n"
                        "def called(arg):\n    return arg\n"
                        "def for_example():\n    pass\n"
                        "def reexported():\n    pass\n"
                        "def scorecard():\n    pass\n"
                        "def traced():\n    pass\n"),
    })
    (tmp_path / "examples").mkdir()
    (tmp_path / "examples" / "demo.py").write_text(
        "from repro.api import for_example\n")
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "workloads.py").write_text(
        "from repro.api import impl\n"
        "TARGETS = [(impl, \"traced\")]\n"
        "WORKLOAD = \"scorecard-cold\"\n")
    assert unread_names(root=str(tmp_path)) == [
        "src/repro/api/impl.py:7 reexported",
        "src/repro/api/impl.py:9 scorecard"]


@pytest.mark.parametrize("init, cli, unread", [
    ("", "", ["src/repro/util.py:3 helper"]),
    ("from .util import helper, used\n__all__ = [\"helper\", \"used\"]\n",
     "", ["src/repro/util.py:3 helper"]),
    ("", "from .util import helper\nhelper()\n", []),
], ids=["only-a-test-calls-it", "re-exported-by-its-package",
        "called-by-the-cli"])
def test_name_check_on_a_function_only_a_test_calls(tmp_path, init, cli,
                                                     unread):
    """A public function that only a test calls is reported, and still
    is once its package ``__init__`` re-exports it; a call from
    ``cli.py`` reads it."""
    _write_package(tmp_path, {
        "__init__.py": init,
        "cli.py": "from .util import used\nused()\n" + cli,
        "util.py": ("def used():\n    pass\n"
                    "def helper():\n    pass\n"),
    })
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_util.py").write_text(
        "from repro.util import helper\n\n"
        "def test_helper():\n    helper()\n")
    assert unread_names(root=str(tmp_path)) == unread


def _absolute_imports(tree):
    """``{name: dotted path}`` of every name a module binds by importing
    from outside ``repro`` (relative imports are inside it)."""
    paths = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                module = alias.name if alias.asname \
                    else alias.name.split(".")[0]
                paths[alias.asname or module] = module
        elif isinstance(node, ast.ImportFrom) and not node.level:
            for alias in node.names:
                paths[alias.asname or alias.name] = \
                    f"{node.module}.{alias.name}"
    return {name: path for name, path in paths.items()
            if path.split(".")[0] != "repro"}


def _resolve(dotted):
    """The object a dotted path names, found by importing its longest
    module prefix and reading the rest as attributes."""
    parts = dotted.split(".")
    for end in range(len(parts), 0, -1):
        try:
            found = importlib.import_module(".".join(parts[:end]))
        except ImportError:
            continue
        for part in parts[end:]:
            found = getattr(found, part)
        return found
    raise ImportError(dotted)


def _library_declared(cls, imports):
    """Every name that a base of class ``cls`` from outside ``repro``
    (a library or a builtin) declares: the library calls those
    methods, as the language calls dunders."""
    declared = set()
    for base in cls.bases:
        head, __, rest = ast.unparse(base).partition(".")
        if head in imports:
            path = imports[head] + ("." + rest if rest else "")
        elif hasattr(builtins, head):
            path = "builtins." + ast.unparse(base)
        else:
            continue
        declared |= set(dir(_resolve(path)))
    return declared


def _members(tree):
    """``(class, def, exempt)`` for every ``def`` in a class body of a
    module: ``exempt`` when the language or a library calls it (a
    dunder, or a name a non-``repro`` base declares)."""
    imports = _absolute_imports(tree)
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            declared = _library_declared(cls, imports)
            for node in cls.body:
                if isinstance(node, FUNCTIONS):
                    yield cls, node, (_is_dunder(node.name)
                                      or node.name in declared)


def unread_members(root=ROOT):
    """Sorted ``path:line Class.member`` of every method or property of
    a non-``__init__`` module under ``root/src/repro`` that no reader
    reads: the rule of :func:`unread_names`, applied to class members.
    Dunders, and methods a base from outside ``repro`` declares (numpy
    calls ``ISeedSequence.generate_state``), are exempt."""
    read = _read_set(root)
    return sorted(f"{path}:{node.lineno} {cls.name}.{node.name}"
                  for path, tree in _modules(root)
                  for cls, node, exempt in _members(tree)
                  if not exempt and node.name not in read)


def test_every_class_member_is_read():
    unread = unread_members()
    assert not unread, (
        f"a method or property of a src/repro class that no command, "
        f"example or perfbench file reads (delete it, or move it beside "
        f"the tests that use it): {'; '.join(unread)}")


def _defaulted(node):
    """``(position, name)`` of every defaulted parameter of a ``def``;
    ``position`` is its index among the positional parameters, or
    ``None`` for a keyword-only one."""
    positional = node.args.posonlyargs + node.args.args
    first = len(positional) - len(node.args.defaults)
    found = [(index, positional[index].arg)
             for index in range(first, len(positional))]
    found += [(None, arg.arg) for arg, default
              in zip(node.args.kwonlyargs, node.args.kw_defaults)
              if default is not None]
    return found


def _is_static(node):
    return any(isinstance(decorator, ast.Name)
               and decorator.id == "staticmethod"
               for decorator in node.decorator_list)


def _callables(tree):
    """``(qualified name, spelling, bound, def)`` for every ``def`` of a
    module whose defaults a call can set.  ``spelling`` is what a call
    names: the class for ``__init__``, the ``def``'s own name
    otherwise.  ``bound`` is how many leading parameters the call does
    not pass (``self`` or ``cls``)."""
    members = {node: (cls, exempt) for cls, node, exempt in _members(tree)}
    for node in ast.walk(tree):
        if not isinstance(node, FUNCTIONS):
            continue
        cls, exempt = members.get(node, (None, False))
        if cls is None:
            yield node.name, node.name, 0, node
        elif node.name == "__init__":
            yield f"{cls.name}.__init__", cls.name, 1, node
        elif not exempt:
            yield (f"{cls.name}.{node.name}", node.name,
                   0 if _is_static(node) else 1, node)


def _spelling(node):
    """The identifier a ``Name`` or ``Attribute`` node ends in."""
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def _call_spellings(call, cls):
    """What a call names: its callee's identifier, the enclosing class
    ``cls`` for ``cls(...)`` and ``type(self)(...)``, and each base of
    ``cls`` for ``super().__init__(...)``."""
    func = call.func
    if cls is not None:
        if isinstance(func, ast.Name) and func.id == "cls":
            return [cls.name]
        if (isinstance(func, ast.Call) and _spelling(func.func) == "type"
                and [ast.unparse(arg) for arg in func.args] == ["self"]):
            return [cls.name]
        if (isinstance(func, ast.Attribute) and func.attr == "__init__"
                and isinstance(func.value, ast.Call)
                and _spelling(func.value.func) == "super"):
            return [_spelling(base) for base in cls.bases]
    return [_spelling(func)]


#: Where a load is a value handed on: passed, stored or returned.
VALUE_PARENTS = (ast.Call, ast.keyword, ast.Assign, ast.AnnAssign,
                 ast.Return, ast.Yield, ast.List, ast.Tuple, ast.Set,
                 ast.Dict, ast.Starred)


def _settings(tree):
    """``(spelling, positional, keywords)`` for every call in a module:
    how many leading positional parameters it passes (all of them with a
    ``*`` argument) and which it passes by keyword (all of them with a
    ``**`` argument, as ``None``).  A callable loaded as a value rather
    than called may be called with anything, so it sets every
    parameter."""
    every = float("inf")
    parents = {child: node for node in ast.walk(tree)
               for child in ast.iter_child_nodes(node)}
    typing = {node for annotation in _annotations(tree)
              for node in ast.walk(annotation)}

    def enclosing_class(node):
        while node in parents:
            node = parents[node]
            if isinstance(node, ast.ClassDef):
                return node
        return None

    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            positional = every if any(isinstance(arg, ast.Starred)
                                      for arg in node.args) \
                else len(node.args)
            keywords = {keyword.arg for keyword in node.keywords}
            if None in keywords:
                positional, keywords = every, None
            for spelling in _call_spellings(node, enclosing_class(node)):
                yield spelling, positional, keywords
        elif (isinstance(node, (ast.Name, ast.Attribute))
              and isinstance(node.ctx, ast.Load) and node not in typing
              and isinstance(parents.get(node), VALUE_PARENTS)
              and getattr(parents[node], "func", None) is not node):
            yield _spelling(node), every, None


def unset_defaults(root=ROOT):
    """Sorted ``path:line function(parameter)`` of every defaulted
    parameter of a non-``__init__`` module under ``root/src/repro``
    that no reader's call sets.

    The readers are those of :func:`unread_names`.  A call sets a
    parameter when it names a callable of that spelling and passes the
    parameter by keyword, positionally past its index, or through
    ``*``/``**`` unpacking; a callable loaded as a value (passed,
    stored or returned) counts as set in full.  ``ClassName(...)``,
    ``cls(...)`` and ``type(self)(...)`` in its class, and
    ``super().__init__(...)`` in a subclass call ``__init__``.  Dunders
    other than ``__init__`` are exempt, as are methods a base from
    outside ``repro`` declares.  A parameter no reader sets is the
    constant its default is.
    """
    calls = collections.defaultdict(list)
    trees = list(_src_trees(root)) + _trees_outside_src(root)
    for __, tree in trees:
        for spelling, positional, keywords in _settings(tree):
            calls[spelling].append((positional, keywords))
    found = []
    for path, tree in _modules(root):
        for name, spelling, bound, node in _callables(tree):
            for position, parameter in _defaulted(node):
                if not any(
                        keywords is None or parameter in keywords
                        or (position is not None
                            and position < positional + bound)
                        for positional, keywords in calls[spelling]):
                    found.append(f"{path}:{node.lineno} "
                                 f"{name}({parameter})")
    return sorted(found)


def test_every_default_is_set_by_a_reader():
    unset = unset_defaults()
    assert not unset, (
        f"a defaulted parameter that no command, example or perfbench "
        f"call sets (make it the constant its default is): "
        f"{'; '.join(unset)}")


def test_member_check_reads_commands_examples_and_perfbench(tmp_path):
    """Each member of ``Box`` has one reader, or none; ``Encoder``
    overrides a method ``json.JSONEncoder`` declares."""
    _write_package(tmp_path, {
        "__init__.py": "",
        "cli.py": ("from .shapes import Box, Encoder\n"
                   "def main():\n"
                   "    return Box().area, Encoder\n"),
        "shapes.py": ("import json\n"
                      "class Box:\n"
                      "    @property\n"
                      "    def area(self):\n"
                      "        return self._side()\n"
                      "    def _side(self):\n"
                      "        return 2\n"
                      "    def for_example(self):\n"
                      "        pass\n"
                      "    def traced(self):\n"
                      "        pass\n"
                      "    def only_tested(self):\n"
                      "        pass\n"
                      "class Encoder(json.JSONEncoder):\n"
                      "    def default(self, o):\n"
                      "        return str(o)\n"),
    })
    (tmp_path / "examples").mkdir()
    (tmp_path / "examples" / "demo.py").write_text(
        "from repro.shapes import Box\nbox = Box()\nbox.for_example()\n")
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "workloads.py").write_text(
        "from repro import shapes\n"
        "TARGETS = [(shapes.Box, \"traced\")]\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_shapes.py").write_text(
        "from repro.shapes import Box\n\n"
        "def test_only_tested():\n    Box().only_tested()\n")
    assert unread_members(root=str(tmp_path)) == [
        "src/repro/shapes.py:12 Box.only_tested"]


@pytest.mark.parametrize("call, unset", [
    ("", ["src/repro/util.py:1 scale(factor)"]),
    ("scale(1, factor=2)\n", []),
    ("scale(1, 2)\n", []),
    ("scale(1, **{\"factor\": 2})\n", []),
    ("run(scale)\n", []),
], ids=["only-a-test-sets-it", "keyword", "positional", "double-star",
        "passed-as-a-value"])
def test_default_check_on_a_parameter_only_a_test_sets(tmp_path, call,
                                                       unset):
    """A default only a test overrides is reported; a keyword, a
    positional argument past its index, ``**`` unpacking, or handing
    the function on as a value sets it."""
    _write_package(tmp_path, {
        "__init__.py": "",
        "cli.py": "from .util import run, scale\nscale(1)\n" + call,
        "util.py": ("def scale(value, factor=1):\n"
                    "    return value * factor\n"
                    "def run(fn):\n"
                    "    return fn(1)\n"),
    })
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_util.py").write_text(
        "from repro.util import scale\n\n"
        "def test_scale():\n    assert scale(1, factor=3) == 3\n")
    assert unset_defaults(root=str(tmp_path)) == unset


@pytest.mark.parametrize("factory, unset", [
    ("", ["src/repro/point.py:2 Point.__init__(y)"]),
    ("    @classmethod\n"
     "    def diagonal(cls, x):\n"
     "        return cls(x, x)\n", []),
], ids=["constructed-by-name", "cls-in-a-classmethod"])
def test_default_check_maps_cls_calls_to_init(tmp_path, factory, unset):
    """``Point(1)`` leaves ``y`` at its default; ``cls(x, x)`` in a
    classmethod of ``Point`` sets it."""
    _write_package(tmp_path, {
        "__init__.py": "",
        "cli.py": "from .point import Point\nPoint(1)\n",
        "point.py": ("class Point:\n"
                     "    def __init__(self, x, y=0):\n"
                     "        self.x, self.y = x, y\n" + factory),
    })
    assert unset_defaults(root=str(tmp_path)) == unset


def _write_package(root, files):
    """Write ``files`` (path under ``src/repro`` -> source) below
    ``root``."""
    for relative, source in files.items():
        path = root / "src" / "repro" / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
