"""One workload in one fresh process: set up, time whole rounds, check.

Started by run.py. Set-up is everything from process start to the first
CLI call: the interpreter, `import netsir` and writing the inputs. Then
the process runs rounds of all the workload's operations until
--seconds have passed (and at least the workload's minimum number of
rounds), records peak memory, and only then runs the checks. With
--probe it stops after set-up.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _clock():
    # CLOCK_MONOTONIC is shared by all processes, so the parent can
    # subtract its own reading taken just before it started this one
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _cpu_seconds():
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def _peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _blas_threads():
    """Thread count of every OpenBLAS loaded here, as it stands by default."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower()})
    except OSError:
        return []
    counts = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                counts.append(fn())
                break
    return counts


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--dir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import workloads    # imports netsir: part of set-up
    run_dir = Path(args.dir)
    wl = workloads.make(args.workload, args.seed, run_dir / "inputs")
    ready = _clock()
    report = {"ready": ready}
    if args.probe:
        Path(args.result).write_text(json.dumps(report))
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

    rounds, results = [], []
    start = time.perf_counter()
    while (len(rounds) < wl.min_rounds
           or time.perf_counter() - start < args.seconds):
        r = len(rounds)
        if tracer is not None:
            tracer.round = r
        cpu0 = _cpu_seconds()
        t0 = time.perf_counter()
        spent = {"plain": 0.0, "isolation": 0.0}
        for op in wl.ops:
            t = time.perf_counter()
            try:
                res = op.run(run_dir / f"round{r}" / op.name)
            except Exception as exc:  # an operation that fails is counted
                res = exc
            spent[op.mode] += time.perf_counter() - t
            results.append((op, res))
        rounds.append({"wall_s": time.perf_counter() - t0,
                       "plain_s": spent["plain"],
                       "isolation_s": spent["isolation"],
                       "process.cpu_s": _cpu_seconds() - cpu0})
    report["peak_rss_mb"] = _peak_rss_mb()

    failed, errors, correct = 0, [], True
    for op, res in results:
        if isinstance(res, Exception):
            msg = f"raised {type(res).__name__}: {res}"
        else:
            try:
                msg = op.check(res)
            except Exception as exc:
                msg = f"check raised {type(exc).__name__}: {exc}"
        if msg is not None:
            failed += 1
            correct = correct and op.known_fault
            errors.append(f"{op.name}: {msg}")

    report.update(rounds=rounds, attempted=len(results), failed=failed,
                  correct=correct, errors=sorted(set(errors)),
                  workers=os.cpu_count(), blas_threads=_blas_threads())
    if tracer is not None:
        report["layers"] = [{**tracer.layer_metrics(r),
                             "process.cpu_s": rnd["process.cpu_s"]}
                            for r, rnd in enumerate(rounds)]
        tracer.dump(run_dir / "spans.json")
    Path(args.result).write_text(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
