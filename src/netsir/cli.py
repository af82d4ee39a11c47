"""Command-line front end: experiment configs in, CSV/JSON results out.

Subcommands: simulate | bound | optimize | validate | compare. A single
JSON config describes the experiment; --seed/--replicas/--out/--mode
override config fields. Every command is deterministic given its
config, including all Monte Carlo output.

Exit codes: 0 success, 2 infeasible model, 3 validation failure (also
an optimized allocation whose solve did not converge or whose
certificate failed re-verification), 4 config or I/O error (also a
malformed graph file, a mistyped config field, a seed of 2**128 or
more, a malformed rate, a misordered or non-positive rate box, a
malformed initially infected set and an initially infected node outside
the graph).

Each command builds one `EpidemicParams`, plain or with isolation
laws, and hands it to the one entry of each layer: `simulate_sir`,
`build_sir_system`, `exact_lambda` and `estimate_lambda`.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import allocator, bound, exact_oracle, simulator
from .allocator import (AllocationInfeasible, BudgetModelError,
                        CertificateError, allocation_csv_rows)
from .graph import (EdgeListParseError, Graph, GraphValidationError,
                    load_edge_list)
from .phase_type import erlang_laws
from .simulator import EpidemicParams


class ConfigError(ValueError):
    pass


def _integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _positive_number(value) -> bool:
    return not isinstance(value, bool) and isinstance(value, (int, float)) \
        and 0 < value < math.inf


@dataclass
class ExperimentConfig:
    """One experiment bundle; round-trips losslessly through JSON."""

    graph: str
    initially_infected: object = None     # list of ints or {"random": k, "seed": s}
    mode: str = "plain"
    beta: object = None                   # scalar or per-node list
    delta: object = None
    gamma: object = None
    erlang_shape: int = 1
    beta_box: Optional[list] = None
    delta_box: Optional[list] = None
    gamma_box: Optional[list] = None
    budget: Optional[float] = None
    lambda_cap: Optional[float] = None
    replicas: int = 10_000
    seed: int = 0
    epsilon: float = 1e-6
    solver_tol: float = 1e-6
    out_dir: str = "results"

    def __post_init__(self):
        if self.mode not in ("plain", "isolation"):
            raise ConfigError(f"mode must be plain or isolation, got {self.mode!r}")
        for name, least in (("replicas", 1), ("seed", 0),
                            ("erlang_shape", 1)):
            value = getattr(self, name)
            if not _integer(value):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
            if value < least:
                raise ConfigError(f"{name} must be >= {least}, got {value}")
        if self.seed >= 2 ** 128:   # a Philox key has 128 bits
            raise ConfigError(f"seed must be < 2**128, got {self.seed}")
        for name in ("budget", "lambda_cap", "epsilon", "solver_tol"):
            value = getattr(self, name)
            if value is None and name in ("budget", "lambda_cap"):
                continue
            if not _positive_number(value):
                raise ConfigError(
                    f"{name} must be a positive number, got {value!r}")
        for name in ("graph", "out_dir"):
            value = getattr(self, name)
            if not isinstance(value, str):
                raise ConfigError(f"{name} must be a path string, got {value!r}")
        for name in ("beta_box", "delta_box", "gamma_box"):
            value = getattr(self, name)
            if value is not None and not (
                    isinstance(value, (list, tuple)) and len(value) == 2
                    and all(map(_positive_number, value))):
                raise ConfigError(f"{name} must be a list of two positive "
                                  f"numbers, got {value!r}")

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        extra = set(doc) - known
        if extra:
            raise ConfigError(f"unknown config fields: {sorted(extra)}")
        if "graph" not in doc:
            raise ConfigError("config needs a 'graph' path")
        return cls(**doc)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def load(cls, path: str) -> "ExperimentConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        return cls.from_dict(doc)


def _load_graph(cfg: ExperimentConfig) -> Graph:
    try:
        with open(cfg.graph, "r", encoding="utf-8") as fh:
            return load_edge_list(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read graph {cfg.graph}: {exc}") from exc
    except (EdgeListParseError, GraphValidationError,
            UnicodeDecodeError) as exc:
        raise ConfigError(f"graph {cfg.graph}: {exc}") from exc


def _infected_set(cfg: ExperimentConfig, g: Graph) -> frozenset:
    spec = cfg.initially_infected
    if spec is None:
        raise ConfigError("config needs initially_infected")
    malformed = ConfigError(
        "initially_infected must be a list of node ids or "
        f'{{"random": k, "seed": s}}, got {spec!r}')
    if not isinstance(spec, (dict, list, tuple)):
        raise malformed
    if isinstance(spec, dict) and not (
            "random" in spec and set(spec) <= {"random", "seed"}
            and all(map(_integer, spec.values()))):
        raise malformed
    try:
        if isinstance(spec, dict):
            k = spec["random"]
            rng = np.random.default_rng(spec.get("seed", 0))
        else:
            nodes = frozenset(int(i) for i in spec)
    except (TypeError, ValueError):
        raise malformed from None
    if isinstance(spec, dict):
        if not 1 <= k <= g.node_count:
            raise ConfigError(f"random infected count {k} out of range")
        return frozenset(int(i) for i in
                         rng.choice(g.node_count, size=k, replace=False))
    if not nodes:
        raise ConfigError("initially_infected must be non-empty")
    bad = sorted(i for i in nodes if not 0 <= i < g.node_count)
    if bad:
        raise ConfigError(f"initially infected nodes out of range: {bad}")
    return nodes


def _per_node(cfg: ExperimentConfig, name: str, n: int) -> np.ndarray:
    """Config rate `name` as a new array of n floats, from a scalar or a
    per-node list."""
    value = getattr(cfg, name)
    try:
        return np.broadcast_to(np.asarray(value, float), (n,)).copy()
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be a number or a list of {n} "
                          f"numbers, got {value!r}") from None


def _rates(cfg: ExperimentConfig, g: Graph) -> EpidemicParams:
    if cfg.beta is None or cfg.delta is None:
        raise ConfigError("this command needs 'beta' and 'delta' rates")
    n = g.node_count
    infected = _infected_set(cfg, g)
    beta, delta = _per_node(cfg, "beta", n), _per_node(cfg, "delta", n)
    isolation = None
    if cfg.mode == "isolation":
        if cfg.gamma is None:
            raise ConfigError("isolation mode needs 'gamma'")
        gamma = _per_node(cfg, "gamma", n)
        if not np.all(gamma > 0):
            raise ConfigError(f"gamma must be positive, got {cfg.gamma!r}")
        isolation = erlang_laws(cfg.erlang_shape, gamma)
    try:
        return EpidemicParams.build(n, beta, delta, infected,
                                    isolation=isolation)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _write_csv(path: Path, header, rows):
    lines = [",".join(header)]
    lines += [",".join(_fmt(c) for c in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_json(path: Path, doc):
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")


def _out_dir(cfg: ExperimentConfig) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _cost_model(cfg: ExperimentConfig) -> allocator.CostModel:
    if cfg.beta_box is None or cfg.budget is None:
        raise ConfigError("optimization needs 'beta_box' and 'budget'")
    if cfg.mode == "plain":
        if cfg.delta_box is None:
            raise ConfigError("plain mode needs 'delta_box'")
        boxes = {"delta_box": tuple(cfg.delta_box)}
    else:
        if cfg.gamma_box is None:
            raise ConfigError("isolation mode needs 'gamma_box'")
        boxes = {"gamma_box": tuple(cfg.gamma_box)}
    try:
        return allocator.CostModel(beta_box=tuple(cfg.beta_box),
                                   budget=float(cfg.budget), **boxes)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _build_allocation_problem(cfg: ExperimentConfig, g: Graph,
                              infected) -> allocator.AllocationProblem:
    costs = _cost_model(cfg)
    if cfg.mode == "plain":
        return allocator.build_problem1(g, infected, costs,
                                        lambda_cap=cfg.lambda_cap,
                                        epsilon=cfg.epsilon)
    if cfg.delta is None:
        raise ConfigError("isolation optimization needs fixed 'delta'")
    delta = _per_node(cfg, "delta", g.node_count)
    if not np.all(delta >= 0):
        raise ConfigError(f"delta must be nonnegative, got {cfg.delta!r}")
    p = cfg.erlang_shape
    x_lo, x_hi = p / cfg.gamma_box[1], p / cfg.gamma_box[0]
    # one fit per distinct delta: a scalar delta needs a single fit
    values, which = np.unique(delta, return_inverse=True)
    fits = [allocator.fit_monomial_bound(d, (x_lo, x_hi))
            for d in values.tolist()]
    fits = [fits[k] for k in which]
    return allocator.build_problem2(g, infected, costs, fits, p=p,
                                    delta=delta, lambda_cap=cfg.lambda_cap,
                                    epsilon=cfg.epsilon)


def cmd_simulate(cfg: ExperimentConfig) -> int:
    g = _load_graph(cfg)
    params = _rates(cfg, g)
    out = _out_dir(cfg)
    outcome = simulator.simulate_sir(g, params,
                                     simulator.replica_rng(cfg.seed, 0))
    _write_csv(out / "counts.csv", ["t", "sigma_S", "sigma_I", "sigma_R"],
               [tuple(row) for row in outcome.counts_series])
    est = simulator.estimate_lambda(g, params, cfg.replicas, cfg.seed)
    _write_json(out / "lambda.json",
                {"mean": est.mean, "std_error": est.std_error,
                 "replicas": est.replicas, "seed": est.seed})
    print(f"lambda = {est.mean:.6g} +/- {est.std_error:.3g} "
          f"({est.replicas} replicas) -> {out / 'lambda.json'}")
    return 0


def cmd_bound(cfg: ExperimentConfig) -> int:
    g = _load_graph(cfg)
    params = _rates(cfg, g)
    sys_ = bound.build_sir_system(g, params)
    val = bound.lambda_bound(sys_)
    out = _out_dir(cfg)
    _write_json(out / "bound.json",
                {"mode": cfg.mode,
                 "hurwitz": math.isfinite(val),
                 "lambda_bound": val if math.isfinite(val) else "unbounded",
                 "sigma_I0": sys_.sigma_I0,
                 "dimension": sys_.dim})
    print(f"certified bound: "
          f"{val if math.isfinite(val) else 'unbounded'} -> {out / 'bound.json'}")
    return 0


def cmd_optimize(cfg: ExperimentConfig) -> int:
    g = _load_graph(cfg)
    infected = _infected_set(cfg, g)
    prob = _build_allocation_problem(cfg, g, infected)
    alloc = allocator.solve_allocation(prob, tol=cfg.solver_tol)
    out = _out_dir(cfg)
    doc = alloc.to_json_dict()
    doc["budget"] = cfg.budget
    doc["infected"] = sorted(infected)
    _write_json(out / "allocation.json", doc)
    _write_csv(out / "allocation.csv",
               ["node", "degree", "prevention_cost", "correction_cost"],
               allocation_csv_rows(alloc, g, prob.costs))
    print(f"lambda_bar = {alloc.lambda_bar:.6g}, "
          f"cost = {alloc.total_cost:.6g} / {cfg.budget} "
          f"-> {out / 'allocation.json'}")
    return 0


def cmd_validate(cfg: ExperimentConfig) -> int:
    g = _load_graph(cfg)
    params = _rates(cfg, g)
    exact = exact_oracle.exact_lambda(g, params)
    est = simulator.estimate_lambda(g, params, cfg.replicas, cfg.seed)
    sys_ = bound.build_sir_system(g, params)
    cert = bound.lambda_bound(sys_)
    bound_ok = exact <= cert + 1e-9
    mc_tol = 4.0 * max(est.std_error, 1e-12)
    mc_ok = abs(est.mean - exact) <= mc_tol
    out = _out_dir(cfg)
    row = (exact, est.mean, est.std_error,
           cert if math.isfinite(cert) else "unbounded",
           "pass" if bound_ok else "fail",
           "pass" if mc_ok else "fail")
    _write_csv(out / "validation.csv",
               ["exact_lambda", "mc_lambda", "mc_stderr", "certified_bound",
                "bound_check", "mc_check"], [row])
    _write_json(out / "validation.json",
                {"exact_lambda": exact, "mc_lambda": est.mean,
                 "mc_stderr": est.std_error,
                 "certified_bound": cert if math.isfinite(cert) else "unbounded",
                 "bound_ok": bound_ok, "mc_ok": mc_ok})
    print(f"exact={exact:.6g} mc={est.mean:.6g}+/-{est.std_error:.3g} "
          f"bound={cert if math.isfinite(cert) else 'unbounded'} "
          f"[{'pass' if bound_ok and mc_ok else 'FAIL'}]")
    return 0 if (bound_ok and mc_ok) else 3


def cmd_compare(cfg: ExperimentConfig) -> int:
    g = _load_graph(cfg)
    infected = _infected_set(cfg, g)
    prob = _build_allocation_problem(cfg, g, infected)
    costs = prob.costs
    allocations = [allocator.solve_allocation(prob, tol=cfg.solver_tol),
                   allocator.baseline_uniform(g, infected, costs,
                                              delta_fixed=prob.delta_fixed,
                                              p=prob.p)]
    if cfg.mode == "plain":
        allocations.append(allocator.baseline_sis_spectral(
            g, infected, costs, tol=cfg.solver_tol))
    results = []
    for alloc in allocations:
        params = allocator.allocation_params(
            infected, alloc.mode, alloc.beta,
            alloc.delta if alloc.mode == "plain" else alloc.gamma,
            prob.delta_fixed, prob.p)
        est = simulator.estimate_lambda(g, params, cfg.replicas, cfg.seed)
        results.append((alloc.strategy, est.mean, est.std_error))
    lam_opt = results[0][1]
    rows = []
    for strategy, mean, se in results:
        improvement = 0.0 if strategy == "optimized" or mean <= 0 \
            else (mean - lam_opt) / mean
        rows.append((strategy, mean, se, improvement))
    out = _out_dir(cfg)
    _write_csv(out / "comparison.csv",
               ["strategy", "lambda_mean", "lambda_stderr",
                "relative_improvement"], rows)
    for strategy, mean, se, imp in rows:
        print(f"{strategy:>14}: lambda = {mean:.4f} +/- {se:.4f}"
              + (f"  ({imp:+.1%} vs optimized)" if strategy != "optimized"
                 else ""))
    return 0


_COMMANDS = {
    "simulate": cmd_simulate,
    "bound": cmd_bound,
    "optimize": cmd_optimize,
    "validate": cmd_validate,
    "compare": cmd_compare,
}


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="netsir",
        description="Networked SIR simulation, certified bounds, and "
                    "budgeted resource allocation.")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__)
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--seed", type=int, help="override config seed")
        p.add_argument("--replicas", type=int, help="override replica count")
        p.add_argument("--out", help="override output directory")
        p.add_argument("--mode", choices=["plain", "isolation"],
                       help="override model mode")
    return ap


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = ExperimentConfig.load(args.config)
        overrides = {"seed": args.seed, "replicas": args.replicas,
                     "out_dir": args.out, "mode": args.mode}
        # replace() runs the field checks again on the overridden values
        cfg = dataclasses.replace(cfg, **{k: v for k, v in overrides.items()
                                          if v is not None})
        return _COMMANDS[args.command](cfg)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (AllocationInfeasible, BudgetModelError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except CertificateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except exact_oracle.StateSpaceTooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
