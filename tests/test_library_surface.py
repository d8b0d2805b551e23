"""Every public function and class of every mechcat module, and every public method and
property of its classes, is used outside the tests. A name is used when it is reached from
the callers of the library:

- the module-level code of the mechcat modules (the CLI's command table and entry point
  among it), which reaches the library's own definitions one call at a time;
- the benchmark's own code (the modules of mcbench/, a client of the public API);
- a name the traced benchmark times (`mcbench.trace.SPANS` and `COUNTS`);
- the paper's acceptance gates (tests/test_acceptance.py), so the paper quantities only the
  gates compute keep their place.

API that only the other tests call is an oracle and lives in the tests (for example
tests/dense_reference.py).

Only code counts: names are collected from the syntax tree, so a mention in a docstring or
comment reaches nothing. A method or property is reached by an attribute read of its name
(obj.name), whatever object it is read on, so the guard errs towards keeping a name, never
towards dropping a live one.
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
GATES = os.path.join(ROOT, "tests", "test_acceptance.py")
MODULES = sorted(name for name in os.listdir(SRC) if name.endswith(".py"))
DEFINITIONS = (ast.FunctionDef, ast.ClassDef)


def _names(node):
    """Every name and attribute the code under `node` reads (an assignment reads nothing);
    an attribute as ".name"."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            out |= {sub.attr, "." + sub.attr}
    return out


def _parse(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read())


def _trees(directory):
    for filename in sorted(os.listdir(directory)):
        if filename.endswith(".py"):
            yield filename, _parse(os.path.join(directory, filename))


def _is_public_member(node):
    return isinstance(node, ast.FunctionDef) and not node.name.startswith("_")


def _definitions(filename, tree):
    """(owner, name, code) of each top-level function and class of a module, and of each public
    method and property of its classes (owner "module:Class"). A class's code is its body
    without those members: fields, decorators, dunder and private methods run with the class."""
    for node in tree.body:
        if not isinstance(node, DEFINITIONS):
            continue
        if isinstance(node, ast.FunctionDef):
            yield filename, node.name, [node]
            continue
        members = [sub for sub in node.body if _is_public_member(sub)]
        yield filename, node.name, [sub for sub in node.body if not _is_public_member(sub)] + node.decorator_list
        for sub in members:  # reached as an attribute only: obj.name
            yield f"{filename}:{node.name}", "." + sub.name, [sub]


def _reachable():
    """(every definition as (owner, name), the set of those reached)."""
    code, roots = {}, set()
    for _, tree in _trees(BENCH):
        roots |= _names(tree)
    roots |= _names(_parse(GATES))
    for _, _, path in trace.SPANS + trace.COUNTS:  # "f" or "Class.method"
        head, *attrs = path.split(".")
        roots |= {head, *("." + attr for attr in attrs)}
    by_name = {}
    for filename, tree in _trees(SRC):
        for node in tree.body:
            if not isinstance(node, DEFINITIONS):
                roots |= _names(node)
        for owner, name, body in _definitions(filename, tree):
            code[owner, name] = body
            by_name.setdefault(name, []).append((owner, name))
    live, frontier = set(), sorted(roots)
    while frontier:
        for definition in by_name.get(frontier.pop(), []):
            if definition not in live:
                live.add(definition)
                frontier.extend(set().union(*map(_names, code[definition])))
    return code, live


@pytest.mark.parametrize("filename", MODULES)
def test_public_api_is_used_by_the_library(filename):
    code, live = _reachable()
    unused = sorted(owner.partition(":")[2] + name for owner, name in code
                    if owner.split(":")[0] == filename and not name.lstrip(".").startswith("_")
                    and (owner, name) not in live)
    assert not unused, f"{filename}: public names only tests reach: {unused}"


def test_a_docstring_mention_is_no_reference():
    (node,) = ast.parse('def f():\n    """calls dead()"""\n    return live()\n').body
    assert _names(node) == {"live"}


def test_a_method_is_reached_by_an_attribute_read_only():
    # "cutoff" is read as a name, not as an attribute; "trace" is only assigned
    (node,) = ast.parse("def f(cutoff):\n    fringe = cutoff\n    cfg.trace = fringe\n    return cfg.dim\n").body
    assert _names(node) == {"cutoff", "fringe", "cfg", "dim", ".dim"}


def test_a_method_is_guarded_apart_from_its_class():
    tree = ast.parse("class C:\n    x: int = 0\n    def used(self):\n        return 1\n"
                     "    def unused(self):\n        return 2\n    def _private(self):\n        return 3\n")
    found = {(owner, name): body for owner, name, body in _definitions("m.py", tree)}
    assert set(found) == {("m.py", "C"), ("m.py:C", ".used"), ("m.py:C", ".unused")}
    assert "_private" in {n.name for n in found["m.py", "C"] if isinstance(n, ast.FunctionDef)}
