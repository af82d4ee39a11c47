"""netsir benchmark: the command that runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Each workload runs in fresh processes
(perfbench/child.py) that call `netsir.cli.main` in-process, as the
`netsir` command does. With --trace 0 the last line of standard output
is a JSON object with the end-to-end metrics; with --trace 1 it holds
the per-layer metrics of a traced run and the tracing overhead. See
perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("optimize-social68", "mc-social68", "validate-small",
             "certify-sparse2k")
SETUP_PROBES = 2            # extra fresh processes that only set up
DEADLINE_S = 170.0          # the whole invocation, children included

END_TO_END = {"setup_s": "s", "wall_s": "s", "plain_s": "s",
              "isolation_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "cli.self_s": "s",
    "graph.load_s": "s", "graph.adjacency_s": "s",
    "allocator.build_s": "s", "allocator.fit_s": "s",
    "allocator.self_s": "s",
    "gp.compile_s": "s", "gp.solve_s": "s", "gp.solve_calls": "count",
    "gp.newton_steps": "count", "gp.step_ms": "ms", "gp.vars": "count",
    "gp.constraints": "count",
    "simulator.estimate_s": "s", "simulator.record_s": "s",
    "simulator.replicas_per_s": "1/s", "simulator.events_per_s": "1/s",
    "exact_oracle.exact_s": "s",
    "bound.build_s": "s", "bound.hurwitz_s": "s", "bound.solve_s": "s",
    "bound.certificate_s": "s", "bound.hurwitz_calls": "count",
    "bound.dim": "count",
    "process.cpu_s": "s",
    "trace.overhead_s": "s",
}


class ChildFailed(RuntimeError):
    pass


def _spawn(args, run_dir: Path, tag: str, deadline: float, *extra) -> dict:
    result = run_dir / f"{tag}.json"
    cmd = [sys.executable, str(HERE / "child.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--dir", str(run_dir / tag),
           "--result", str(result), *extra]
    started = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=sys.stderr,
                            start_new_session=True)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        # the child leads its own process group, pool workers included
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise ChildFailed(f"{tag} ran past the deadline") from None
    if code != 0:
        raise ChildFailed(f"{tag} exited with {code}")
    doc = json.loads(result.read_text())
    doc["setup_s"] = doc["ready"] - started
    return doc


def _median(rounds, key):
    return statistics.median(r[key] for r in rounds)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "netsir" / "__init__.py").is_file():
        print(f"error: no netsir sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    run_dir = (ROOT / ".perfbench_out"
               / f"{args.workload}-seed{args.seed}-trace{args.trace}"
                 f"-{os.getpid()}")
    run_dir.mkdir(parents=True, exist_ok=True)

    try:
        if args.trace:
            children = [_spawn(args, run_dir, "traced", deadline,
                               "--trace", "1")]
            layers = children[0]["layers"]
            metrics = {k: statistics.median(r[k] for r in layers)
                       for k in PER_LAYER}
            units = PER_LAYER
        else:
            setups = [_spawn(args, run_dir, f"probe{k}", deadline,
                             "--probe")["setup_s"]
                      for k in range(SETUP_PROBES)]
            children = [_spawn(args, run_dir, "main", deadline)]
            rounds = children[0]["rounds"]
            setups.append(children[0]["setup_s"])
            metrics = {"setup_s": statistics.median(setups),
                       "wall_s": _median(rounds, "wall_s"),
                       "plain_s": _median(rounds, "plain_s"),
                       "isolation_s": _median(rounds, "isolation_s"),
                       "peak_rss_mb": children[0]["peak_rss_mb"]}
            units = END_TO_END
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for child in children:
        for err in child["errors"]:
            print(f"failed: {err}", file=sys.stderr)
    info = children[-1]
    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"rounds={len(info['rounds'])} workers={info['workers']} "
          f"blas_threads={info['blas_threads']}")
    print(json.dumps({
        "correct": all(c["correct"] for c in children),
        "attempted": sum(c["attempted"] for c in children),
        "failed": sum(c["failed"] for c in children),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
