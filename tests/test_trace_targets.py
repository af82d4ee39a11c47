"""The benchmark's tracer (perfbench/tracing.py) wraps netsir functions
by their import paths, so renaming or removing one breaks a traced
benchmark run at install. The tracer is read here without being
imported as a module, so no bytecode lands beside it."""

import importlib
import runpy
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_trace_target_resolves():
    targets = runpy.run_path(str(TRACING))["TARGETS"]
    assert targets
    for module, path, _, _ in targets:
        owner = importlib.import_module(module)
        for part in path.split("."):
            assert hasattr(owner, part), f"{module}.{path} is gone"
            owner = getattr(owner, part)
        assert callable(owner), f"{module}.{path} is not callable"


def test_tracer_only_aliases_are_their_entries():
    """The names kept only for the tracer stay aliases, so none of them
    becomes a second code path."""
    from netsir import bound, gp, simulator
    assert bound.build_isolation_system is bound.build_sir_system
    assert simulator.simulate_sir_isolation is simulator.simulate_sir
    assert gp.solve is gp.solve_compiled
    assert gp.to_log_convex is gp.LogConvexProblem
