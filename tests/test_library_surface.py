"""Every public function and class of mechcat.fock and mechcat.herald is used outside the
tests: reached from the code of another mechcat module, from the benchmark's own code (the
modules of mcbench/, a client of the public API: its judge reads herald.heralding_probability)
or from a name the traced benchmark times (`mcbench.trace.SPANS` and `COUNTS`), directly or
through other names of these two modules. API that only tests call is an oracle and lives in
tests/dense_reference.py.

Only code counts: names are collected from the syntax tree, so a mention in a docstring or
comment reaches nothing.
"""

import ast
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from mcbench import trace  # noqa: E402

SRC = os.path.join(ROOT, "src", "mechcat")
BENCH = os.path.join(ROOT, "mcbench")
GUARDED = ("fock.py", "herald.py")


def _names(node):
    """Every name and attribute the code under `node` reads."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def _trees(directory):
    for filename in sorted(os.listdir(directory)):
        if filename.endswith(".py"):
            with open(os.path.join(directory, filename), encoding="utf-8") as fh:
                yield filename, ast.parse(fh.read())


def _reachable():
    """(top-level definitions of the guarded modules by name, the names among them reached)."""
    definitions, roots = {}, set()
    for _, tree in _trees(BENCH):
        roots |= _names(tree)
    for filename, tree in _trees(SRC):
        if filename not in GUARDED:
            roots |= _names(tree)
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                assert node.name not in definitions, f"{node.name} is defined in two guarded modules"
                definitions[node.name] = (filename, node)
            else:
                roots |= _names(node)
    modules = {f"mechcat.{name[:-3]}" for name in GUARDED}
    roots |= {path.split(".")[0] for _, module, path in trace.SPANS + trace.COUNTS if module in modules}
    live = roots & definitions.keys()
    frontier = list(live)
    while frontier:
        for name in _names(definitions[frontier.pop()][1]) & definitions.keys() - live:
            live.add(name)
            frontier.append(name)
    return definitions, live


@pytest.mark.parametrize("filename", GUARDED)
def test_public_api_is_used_by_the_library(filename):
    definitions, live = _reachable()
    unused = sorted(name for name, (owner, _) in definitions.items()
                    if owner == filename and not name.startswith("_") and name not in live)
    assert not unused, f"{filename}: public names only tests reach: {unused}"


def test_a_docstring_mention_is_no_reference():
    (node,) = ast.parse('def f():\n    """calls dead()"""\n    return live()\n').body
    assert _names(node) == {"live"}
