"""Every function, method and class defined in ``src/repro`` is used.

A definition whose name appears as a word no more often than it is
defined is referenced by no Python file of the project: ``src``,
``tests``, ``benchmarks``, ``scripts``, ``examples`` and ``perfbench``.
Words are counted in strings and comments too, since a name can be
looked up by string (``getattr``, perfbench's trace targets).  Dunder
names are excepted, since the language calls them.  There is no
allowlist: code that nothing runs is deleted.
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
