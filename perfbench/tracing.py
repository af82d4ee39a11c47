"""Spans recorded from outside the program.

`Tracer.install` replaces each public netsir function named in `TARGETS`
with a wrapper, on the module or class where its callers look it up, so
the program's own files stay as they are. Every call becomes a span
(name, start, end, parent, round) kept in memory; `dump` writes them out
once the run ends. A layer's time is the self time of its spans: the
span's duration minus the wrapped calls made inside it. The wrappers'
own time, outside the calls they wrap, is the tracing overhead.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict


def _gp_size(args, kwargs, result):
    problem = args[0] if args else kwargs["problem"]
    variables = problem.variables() | set(problem.box)
    boxes = sum(2 for lo, hi in problem.box.values() if lo != hi)
    return {"steps": result.newton_iters, "vars": len(variables),
            "constraints": len(problem.ineq_constraints)
            + len(problem.eq_constraints) + boxes}


def _hurwitz_dim(args, kwargs, result):
    m = args[0] if args else kwargs["m"]
    return {"dim": len(m)}


def _estimate(args, kwargs, result):
    params = args[1] if len(args) > 1 else kwargs["params"]
    return {"replicas": result.replicas, "mean": result.mean,
            "plain": params.isolation is None,
            "k0": len(params.initially_infected)}


# (module, attribute path, span name, note taken from the call)
TARGETS = [
    ("netsir.cli", "main", "cli", None),
    ("netsir.cli", "load_edge_list", "graph.load", None),
    ("netsir.graph", "Graph.adjacency_matrix", "graph.adjacency", None),
    ("netsir.allocator", "build_problem1", "allocator.build", None),
    ("netsir.allocator", "build_problem2", "allocator.build", None),
    ("netsir.allocator", "fit_monomial_bound", "allocator.fit", None),
    ("netsir.allocator", "solve_allocation", "allocator.solve", None),
    ("netsir.gp", "solve", "gp.solve", _gp_size),
    ("netsir.gp", "to_log_convex", "gp.compile", None),
    ("netsir.bound", "build_sir_system", "bound.build", None),
    ("netsir.bound", "build_isolation_system", "bound.build", None),
    ("netsir.bound", "isolation_system_from", "bound.build", None),
    ("netsir.bound", "is_hurwitz_metzler", "bound.hurwitz", _hurwitz_dim),
    ("netsir.bound", "lambda_bound", "bound.lambda", None),
    ("netsir.bound", "verify_certificate", "bound.certificate", None),
    ("netsir.bound", "certificate_for", "bound.certificate", None),
    ("netsir.simulator", "estimate_lambda", "simulator.estimate", _estimate),
    ("netsir.simulator", "simulate_sir", "simulator.record", None),
    ("netsir.simulator", "simulate_sir_isolation", "simulator.record", None),
    ("netsir.exact_oracle", "exact_lambda", "exact_oracle.exact", None),
]

# per-layer metric -> span name whose self time it sums
SELF_TIMES = {
    "cli.self_s": "cli",
    "graph.load_s": "graph.load",
    "graph.adjacency_s": "graph.adjacency",
    "allocator.build_s": "allocator.build",
    "allocator.fit_s": "allocator.fit",
    "allocator.self_s": "allocator.solve",
    "gp.compile_s": "gp.compile",
    "gp.solve_s": "gp.solve",
    "simulator.estimate_s": "simulator.estimate",
    "simulator.record_s": "simulator.record",
    "exact_oracle.exact_s": "exact_oracle.exact",
    "bound.build_s": "bound.build",
    "bound.hurwitz_s": "bound.hurwitz",
    "bound.solve_s": "bound.lambda",
    "bound.certificate_s": "bound.certificate",
}


class Tracer:
    def __init__(self):
        self.spans = []    # dicts: name, start, end, parent, round, note
        self._stack = []
        self.round = 0
        self.overhead = defaultdict(float)     # round -> wrapper seconds

    def install(self):
        import importlib
        for module, path, name, note in TARGETS:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            setattr(owner, attr, self._wrap(getattr(owner, attr), name, note))

    def _wrap(self, fn, name, note):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = time.perf_counter()
            span = {"name": name, "start": None, "end": None,
                    "parent": self._stack[-1] if self._stack else None,
                    "round": self.round, "note": None}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if note is not None:
                span["note"] = note(args, kwargs, result)
            self.overhead[span["round"]] += (
                span["start"] - entered + time.perf_counter() - span["end"])
            return result
        return traced

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)

    def layer_metrics(self, rnd):
        """Per-layer metrics of one round."""
        child_time = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        self_time = defaultdict(float)
        count = defaultdict(int)
        notes = defaultdict(list)
        for k, s in enumerate(self.spans):
            if s["round"] != rnd:
                continue
            self_time[s["name"]] += s["end"] - s["start"] - child_time[k]
            count[s["name"]] += 1
            if s["note"] is not None:
                notes[s["name"]].append(s["note"])
        out = {metric: self_time[name] for metric, name in SELF_TIMES.items()}
        out["trace.overhead_s"] = self.overhead[rnd]

        solves = notes["gp.solve"]
        steps = sum(n["steps"] for n in solves)
        out["gp.solve_calls"] = count["gp.solve"]
        out["gp.newton_steps"] = steps
        out["gp.step_ms"] = 1e3 * out["gp.solve_s"] / steps if steps else 0.0
        out["gp.vars"] = max((n["vars"] for n in solves), default=0)
        out["gp.constraints"] = max((n["constraints"] for n in solves),
                                    default=0)

        hurwitz = notes["bound.hurwitz"]
        out["bound.hurwitz_calls"] = count["bound.hurwitz"]
        out["bound.dim"] = max((n["dim"] for n in hurwitz), default=0)

        est = [(k, s) for k, s in enumerate(self.spans)
               if s["round"] == rnd and s["name"] == "simulator.estimate"]
        replicas = sum(s["note"]["replicas"] for _, s in est)
        est_time = sum(s["end"] - s["start"] for _, s in est)
        out["simulator.replicas_per_s"] = replicas / est_time if est else 0.0
        # a plain replica has one infection per node infected after t=0
        # and one removal per node ever infected: 2 * infections + k0
        plain = [s for _, s in est if s["note"]["plain"]]
        events = sum(s["note"]["replicas"]
                     * (2 * s["note"]["mean"] + s["note"]["k0"])
                     for s in plain)
        plain_time = sum(s["end"] - s["start"] for s in plain)
        out["simulator.events_per_s"] = events / plain_time if plain else 0.0
        return out
