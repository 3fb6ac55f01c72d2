"""No library surface that only tests reach.

Every top-level function and class of ``src/leanforge``, and every method of
such a class, must be named by some code under ``src/`` other than its own
definition: called, subclassed, used as a type, or named in a string such as
``getattr(backend, "close")``. Docstrings do not count, and dunder methods
are called by the language. A name is matched by its spelling alone, so a
method is taken as reached when any attribute of that name is read.

A module-level name that an assignment binds, such as a constant, must be
read by some code under ``src/`` other than its own assignment.

An exception class is kept only where ``src/`` tells it apart: some
``except`` clause or ``isinstance`` call under ``src/`` names it. One that
no code catches by name raises a type its callers already catch.
"""

import ast
import builtins
import collections
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "leanforge")

# ``module.name`` -> why it stays although no code under src/ names it.
ALLOWED = {
    "corpus.lex_lean": (
        "the benchmark's tracer keys an observer on it and "
        "tests/test_bench_names.py checks that name; it goes when the "
        "benchmark measures lexing without it"),
}


# ``module.Class`` -> why the exception class stays although no ``except``
# clause or ``isinstance`` call under src/ names it.
UNCAUGHT_ALLOWED = {
    "genclient.Halted": (
        "it is raised into a stage's work, and exists so that no "
        "GenClientError handler there takes it for a failed request"),
}


def _modules():
    for filename in sorted(os.listdir(SRC)):
        if filename.endswith(".py"):
            with open(os.path.join(SRC, filename), encoding="utf-8") as source:
                yield filename[:-3], ast.parse(source.read(), filename)


def _docstrings(tree):
    """The ids of the docstring nodes of ``tree``."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                out.add(id(first.value))
    return out


def references(tree, docstrings) -> collections.Counter:
    """How often each name is read in ``tree``: as a name, an attribute, or
    a string that spells one, docstrings left out."""
    counts = collections.Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            counts[node.id] += 1
        elif isinstance(node, ast.Attribute):
            counts[node.attr] += 1
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier() and id(node) not in docstrings):
            counts[node.value] += 1
    return counts


def definitions(module, tree):
    """``(qualified name, name, node)`` of each top-level function and class
    and of each method of such a class but the dunders."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if (isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (member.name.startswith("__")
                                 and member.name.endswith("__"))):
                    yield f"{module}.{node.name}.{member.name}", member.name, member


def constants(module, tree):
    """``(qualified name, name, node)`` of each name a module-level
    assignment binds, with that assignment as its node."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield f"{module}.{name.id}", name.id, node


def unreached(defined=definitions):
    """The qualified names ``defined`` yields that no code under src/ reads
    but their own node."""
    modules = list(_modules())
    docstrings = set().union(*(_docstrings(tree) for _, tree in modules))
    total = collections.Counter()
    for _, tree in modules:
        total += references(tree, docstrings)
    return sorted(
        qualified for module, tree in modules
        for qualified, name, node in defined(module, tree)
        if total[name] - references(node, docstrings)[name] <= 0)


def _spelled(node):
    """The class names an ``except`` type or ``isinstance`` argument spells:
    a name, an attribute, or a tuple of them."""
    if isinstance(node, ast.Tuple):
        return {name for element in node.elts for name in _spelled(element)}
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    return set()


def uncaught():
    """The qualified names of the exception classes under src/ that no
    ``except`` clause or ``isinstance`` call under src/ names."""
    modules = list(_modules())
    caught, bases = set(), {}
    for module, tree in modules:
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                caught |= _spelled(node.type)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "isinstance" and len(node.args) == 2):
                caught |= _spelled(node.args[1])
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                bases[f"{module}.{node.name}"] = (
                    node.name, set().union(*map(_spelled, node.bases)))
    exceptions = {name for name in dir(builtins)
                  if isinstance(getattr(builtins, name), type)
                  and issubclass(getattr(builtins, name), BaseException)}
    grown = True
    while grown:  # a subclass of an exception class under src/ is one too
        found = {name for name, parents in bases.values() if parents & exceptions}
        grown = not found <= exceptions
        exceptions |= found
    return sorted(qualified for qualified, (name, _) in bases.items()
                  if name in exceptions and name not in caught)


def test_every_definition_in_src_is_reached_from_src():
    assert [name for name in unreached() if name not in ALLOWED] == []


@pytest.mark.parametrize("name", sorted(ALLOWED))
def test_every_allowed_name_is_still_unreached(name):
    # an allowance outlives its reason once src/ reaches the name again
    assert name in unreached()


def test_every_module_constant_in_src_is_read_from_src():
    assert unreached(constants) == []


def test_every_exception_class_in_src_is_caught_by_name_in_src():
    assert [name for name in uncaught() if name not in UNCAUGHT_ALLOWED] == []


@pytest.mark.parametrize("name", sorted(UNCAUGHT_ALLOWED))
def test_every_allowed_exception_class_is_still_uncaught(name):
    assert name in uncaught()
