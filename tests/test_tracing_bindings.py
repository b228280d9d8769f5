"""Every binding the benchmark's tracer wraps must exist in the library,
or its span silently reads 0: a renamed or moved function needs the
same change in ``perfbench/tracing.py``."""

import dataclasses

import pytest

from bsca.core import CompositeProblem

from conftest import tracing

# bindings whose functions left the phase-retrieval module before this
# test existed; their spans read 0 until the tracer drops them
KNOWN_UNRESOLVED = {
    ("bsca.phase_retrieval", "inexact_inner_loop"),
    ("bsca.phase_retrieval", "exact_quartic_step"),
    ("bsca.phase_retrieval", "pr_outer_stepsize"),
    ("bsca.phase_retrieval", "_audit_outer_profile"),
}

SPAN_BINDINGS = [(name, binding) for name, bindings in tracing.SPANS.items()
                 for binding in bindings]


@pytest.mark.parametrize("name,binding", SPAN_BINDINGS,
                         ids=[f"{n}:{m}.{a}" for n, (m, a) in SPAN_BINDINGS])
def test_span_binding_resolves(name, binding):
    found = tracing._resolve(*binding)
    if binding in KNOWN_UNRESOLVED:
        assert found is None, f"{binding} resolves again; drop it from the list"
    else:
        assert found is not None, f"span {name}: {binding} does not resolve"
        owner, attr = found
        assert callable(getattr(owner, attr))


@pytest.mark.parametrize("binding", list(tracing.PROBLEM_FACTORIES))
def test_problem_factory_binding_resolves(binding):
    assert tracing._resolve(*binding) is not None
    _, closures = tracing.PROBLEM_FACTORIES[binding]
    fields = {f.name for f in dataclasses.fields(CompositeProblem)}
    assert set(closures) <= fields


def test_every_known_unresolved_binding_is_still_listed():
    assert KNOWN_UNRESOLVED <= {binding for _, binding in SPAN_BINDINGS}
