"""Benchmark of the staircase identity engine.

    python3 perfbench/run.py --workload hopf4 --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all

Run from the repository root.  One run measures set-up time (fresh
interpreters running a trivial CLI command), then replays the workload
in a fresh worker interpreter (worker.py) with STAIRCASE_GROTH_THREADS
removed from its environment.  Times are scaled to a reference machine
speed (speed.py); the run details also give them as measured.  It
prints each metric by name and unit,
a JSON line describing the run and its environment, and, as the last
line, one JSON object with the keys correct, attempted, failed and
metrics.  With --trace 1 the metrics are the per-layer ones.  The exit
code is 1 when any case fails its identity or its reference digest, and
2 when the library source or a benchmark file is missing or the worker
fails.

--workload all runs every workload once, untraced, and prints a table.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

E2E_UNITS = {"wall_s": "s", "case_p50_ms": "ms", "case_tail_ms": "ms",
             "peak_rss_mb": "MB", "setup_s": "s"}
# a trivial CLI invocation and its expected output
SETUP_ARGS = ("-m", "staircase_groth", "compute", "--kind", "g",
              "--shape", "2,1/1", "--deg", "2")
SETUP_OUTPUT = "m[2]=1 m[1,1]=2"
SETUP_SPAWNS = 11
WORKER_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def load_meta() -> dict:
    return json.loads((HERE / "workloads.json").read_text())


def source_digest() -> str:
    """SHA-256 over the library's source files, in path order."""
    h = hashlib.sha256()
    for path in sorted((SRC / "staircase_groth").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_revision() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("STAIRCASE_GROTH_THREADS", None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup(env: dict) -> tuple[float, float]:
    """Median time of fresh interpreters running a trivial command, scaled
    to the reference speed (see speed.py) and as measured.

    One spawn before the measured ones writes the bytecode caches.
    """
    scaled, raw = [], []
    for i in range(SETUP_SPAWNS + 1):
        before = speed.sample()
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, *SETUP_ARGS], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        elapsed = time.perf_counter() - t0
        after = speed.sample()
        if proc.returncode != 0 or proc.stdout.strip() != SETUP_OUTPUT:
            raise BenchError(f"set-up command failed: {proc.stderr.strip()}")
        if i:
            scaled.append(speed.scale(elapsed, before, after))
            raw.append(elapsed)
    return statistics.median(scaled), statistics.median(raw)


def run_worker(workload: str, seed: int, seconds: float, trace: int,
               env: dict) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: worker exceeded {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"{workload}: worker exited {proc.returncode}\n"
                         f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share"):
        return "ratio"
    return "count"


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def environment(load_start: tuple) -> dict:
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "git_revision": git_revision(),
            "src_sha256": source_digest(),
            "loadavg_start": load_start,
            "loadavg_end": os.getloadavg()}


def run_one(args, env: dict, load_start: tuple) -> int:
    if not args.trace:
        setup_s, setup_raw = measure_setup(env)
    res = run_worker(args.workload, args.seed, args.seconds, args.trace, env)
    if args.trace:
        trace = res["trace"]
        metrics = {k: metric(v, layer_unit(k))
                   for k, v in trace["layers"].items()}
        for check in trace["attribution"]:
            line = (f"attribution {check['check']}: share {check['share']} "
                    f"{'ok' if check['ok'] else 'FAILED'}")
            print(line)
            if not check["ok"]:
                sys.stderr.write(line + "\n")
        print(f"spans: {trace['spans']} written to {trace['spans_file']}")
    else:
        metrics = {k: metric(res[k], u) for k, u in E2E_UNITS.items()
                   if k != "setup_s"}
        metrics["setup_s"] = metric(setup_s, "s")
        res["as_measured"]["setup_s"] = setup_raw
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"failed_share {res['failed'] / res['attempted']:.6g} ratio")
    for failure in res["failures"]:
        sys.stderr.write(f"FAILED {failure['case']}: {failure['error']}\n")
    print(json.dumps({"env": environment(load_start), "run": res}))
    print(json.dumps({"correct": res["failed"] == 0,
                      "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": metrics}))
    return 0 if res["failed"] == 0 else 1


def run_all(args, env: dict, load_start: tuple) -> int:
    meta = load_meta()["workloads"]
    setup_s = measure_setup(env)[0]
    print(f"setup_s {setup_s:.4f} s")
    header = ("workload", "wall_s", "case_p50_ms", "case_tail_ms",
              "peak_rss_mb", "failed_share", "passes")
    print("  ".join(f"{h:>14}" for h in header))
    attempted = failed = 0
    metrics = {"setup_s": metric(setup_s, "s")}
    runs = {}
    for workload in meta:
        res = run_worker(workload, meta[workload]["default_seed"],
                         args.seconds, 0, env)
        runs[workload] = res
        attempted += res["attempted"]
        failed += res["failed"]
        row = [workload, f"{res['wall_s']:.4f}", f"{res['case_p50_ms']:.4f}",
               f"{res['case_tail_ms']:.4f} (p{res['tail_percentile']:g} "
               f"of {res['cases']})", f"{res['peak_rss_mb']:.1f}",
               f"{res['failed'] / res['attempted']:.4g}", str(res["passes"])]
        print("  ".join(f"{c:>14}" for c in row))
        for failure in res["failures"]:
            sys.stderr.write(f"FAILED {workload} {failure['case']}: "
                             f"{failure['error']}\n")
        for k, u in E2E_UNITS.items():
            if k != "setup_s":
                metrics[f"{workload}.{k}"] = metric(res[k], u)
    print(json.dumps({"env": environment(load_start), "runs": runs}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark of the staircase identity engine.")
    parser.add_argument("--workload", required=True,
                        help="a workload of workloads.json, or all")
    parser.add_argument("--seed", type=int, default=None,
                        help="default: the workload's default_seed")
    parser.add_argument("--seconds", type=float, default=28.0,
                        help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "staircase_groth" / "__init__.py").is_file():
        sys.stderr.write(f"library source not found under {SRC}\n")
        return 2
    try:
        meta = load_meta()["workloads"]
    except OSError as exc:
        sys.stderr.write(f"{exc}\n")
        return 2
    if args.workload != "all" and args.workload not in meta:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(meta)} or all")
    if args.seed is None and args.workload != "all":
        args.seed = meta[args.workload]["default_seed"]
    load_start = os.getloadavg()
    env = child_env()
    try:
        if args.workload == "all":
            return run_all(args, env, load_start)
        return run_one(args, env, load_start)
    except BenchError as exc:
        sys.stderr.write(f"{exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
