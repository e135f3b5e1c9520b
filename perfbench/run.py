"""The rih benchmark: one workload, checked answers, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout that holds ``src/rih``; the package is
imported from that source tree, never from an installed copy.  Every request
sequence runs in a fresh interpreter (``worker.py``), one request after
another, so nothing is cached when a sequence starts.

``--trace 0`` serves sequences until ``--seconds`` have passed (at least one)
and reports the medians of the end-to-end metrics named in BENCHMARK.json;
set-up is also timed in ``SETUP_SAMPLES`` interpreters that only set up, half
before the sequences and half after.
``--trace 1`` serves one untraced and one traced sequence and reports the
per-layer metrics from the traced one, with the tracing overhead.  Earlier
stdout lines carry the environment and the per-request records; the last line
is the result object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench_work"
SETUP_SAMPLES = 10  # set-up-only interpreters per run, besides the sequences' own
DEADLINE_S = 170  # a run must end within 180 s
THREAD_VARIABLES = ("RIH_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class WorkerFailed(RuntimeError):
    pass


def _clock():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env():
    env = dict(os.environ)
    # the thread-pool knob is measured at its default
    env.pop("RIH_THREADS", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def start_worker(workload, seed, mode, deadline):
    """Run one worker to completion; return its result and set-up seconds."""
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--mode", mode,
        "--workdir", str(WORKDIR),
    ]
    started = _clock()
    try:
        proc = subprocess.run(
            cmd,
            env=child_env(),
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - started),
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"{mode} worker passed the run's deadline") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(
            f"{mode} worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        )
    result = json.loads(lines[-1])
    return result, result["ready_at"] - started


def setup(workload, seed, deadline):
    return start_worker(workload, seed, "setup", deadline)[1]


def sequence_metrics(result):
    records = result["records"]
    return {
        "wall_s": sum(r["seconds"] for r in records),
        "cold_s": sum(r["seconds"] for r in records if r["cold"]),
        "cpu_s": sum(r["cpu_s"] for r in records),
        "peak_rss_mb": result["peak_rss_mib"],
    }


def environment(libraries):
    commit = None
    if (ROOT / ".git").exists():
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
        )
        commit = out.stdout.strip() or None
    return {
        "python": platform.python_version(),
        **libraries,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "env": {name: os.environ.get(name) for name in THREAD_VARIABLES},
        "worker_RIH_THREADS": None,  # removed from every worker's environment
        "commit": commit,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "rih" / "__init__.py").is_file():
        print(f"error: no rih source tree at {ROOT / 'src' / 'rih'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    WORKDIR.mkdir(exist_ok=True)
    deadline = _clock() + DEADLINE_S
    w, seed = args.workload, args.seed
    try:
        if args.trace:
            runs = [start_worker(w, seed, mode, deadline) for mode in ("run", "trace")]
        else:
            # set-up is sampled before and after the sequences, so that its
            # median spans the run's drift in machine speed
            began = _clock()
            setups = [setup(w, seed, deadline) for _ in range(SETUP_SAMPLES // 2)]
            runs = []
            while not runs or _clock() - began < args.seconds:
                runs.append(start_worker(w, seed, "run", deadline))
            setups += [setup(w, seed, deadline) for _ in range(SETUP_SAMPLES - len(setups))]
            setups += [s for _, s in runs]
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    records = [r for result, _ in runs for r in result["records"]]
    failed = sum(r["error"] is not None for r in records)
    for result, _ in runs:
        print(json.dumps({"records": result["records"]}))
    print(json.dumps({"environment": environment(runs[0][0]["libraries"])}))

    if args.trace:
        plain, traced = (result for result, _ in runs)
        values = {**traced["counts"], **traced["measured"]}
        values["trace.overhead_s"] = (
            traced["measured"]["trace.wall_s"] - sequence_metrics(plain)["wall_s"]
        )
        values["failed_ratio"] = failed / len(records)
        wanted = bench["per_layer"]
    else:
        per_run = [sequence_metrics(result) for result, _ in runs]
        values = {
            key: statistics.median(m[key] for m in per_run)
            for key in ("wall_s", "cold_s", "cpu_s", "peak_rss_mb")
        }
        values["setup_s"] = statistics.median(setups)
        wanted = bench["end_to_end"]
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in wanted
        if m["name"] in values
    }
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": len(records),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
