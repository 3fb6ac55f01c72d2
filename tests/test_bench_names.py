"""The names the benchmark's tracer keys on exist in leanforge.

``perfbench/tracing.py`` wraps functions and methods by name and counts
what their calls return; a name it keys on that no longer resolves is
skipped without an error, so its counts read 0 and the traced run's checks
(no verifier error verdicts, the lexing budget) pass for nothing. The tracer
is loaded from its file, as the benchmark runs it, and not changed.
"""

import importlib
import importlib.util
import inspect
import os

import pytest

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracing.py")


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()

# Span names the tracer's observers and summary look for, beyond OBSERVERS.
ACTIVE_SPANS = ("prover.run_iteration", "trainprep.emit_training_set",
                "bootstrap.bootstrap_theorem")


def lookup(name):
    """The function or method ``name`` names, or None."""
    module_name, *path = name.split(".")
    module = importlib.import_module(f"leanforge.{module_name}")
    if len(path) == 1:
        obj = getattr(module, path[0], None)
        return obj if getattr(obj, "__module__", None) == module.__name__ else None
    cls_name, method = path
    cls = getattr(module, cls_name, None)
    return vars(cls).get(method) if inspect.isclass(cls) else None


def resolves(name):
    """Whether ``name`` is a span the tracer opens: a public function
    defined in its module, or a method defined on its class."""
    return inspect.isfunction(lookup(name))


@pytest.mark.parametrize("name", sorted(tracing.OBSERVERS))
def test_every_observed_name_resolves(name):
    assert resolves(name)


@pytest.mark.parametrize("name", [".".join(entry) for entry in tracing.METHODS])
def test_every_traced_method_resolves(name):
    assert resolves(name)


@pytest.mark.parametrize("name", ACTIVE_SPANS)
def test_every_span_the_summary_keys_on_resolves(name):
    assert resolves(name)


@pytest.mark.parametrize("name", ACTIVE_SPANS)
def test_no_span_the_summary_keys_on_is_a_generator(name):
    """Observers read ``tracer.active(name)`` while the work runs. A
    generator function's span closes when it returns the generator, before
    its body runs, so nothing counted in the body would be counted."""
    assert not inspect.isgeneratorfunction(lookup(name))
