"""algcert benchmark: run one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; algcert is imported from ``src``.  Every
step runs in a fresh single-threaded interpreter, one at a time:

* set-up (import algcert, build and write the documents) runs SETUP_REPEATS
  times; ``setup_s`` is the median;
* with ``--trace 0``, passes run until S seconds of passes have been
  measured (at least one); each pass makes every call of the workload once.
  ``pass_s`` is the median pass, ``peak_rss_mib`` the largest peak RSS of a
  pass process, ``ok_frac`` the share of calls whose output was right;
* with ``--trace 1``, one untraced and one traced pass run, and the traced
  pass gives the per-layer metrics (see tracer.py) and ``trace_overhead``.

``setup_s`` and ``pass_s`` are reference seconds: wall time scaled by the
host speed sampled while it ran (hostprobe.py), so that a shared host's
swings in throughput do not read as changes in algcert.  The wall times and
sampled speeds are printed above the result line.

The last line of stdout is {"correct", "attempted", "failed", "metrics"}.
Exits non-zero without that line if a step fails or algcert is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import monotonic

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
SETUP_REPEATS = 5
DEADLINE_S = 170            # the whole run, set-up included


def declared_units(trace: bool) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


class StepFailed(RuntimeError):
    pass


class Runner:
    def __init__(self, workload: str, seed: int, workdir: Path):
        self.args = [workload, str(seed), str(workdir)]
        self.deadline = monotonic() + DEADLINE_S
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")

    def step(self, role: str, *extra: str) -> dict:
        timeout = self.deadline - monotonic()
        if timeout <= 0:
            raise StepFailed("run deadline passed")
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), role, *self.args, *extra],
                env=self.env, capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise StepFailed(f"{role} step timed out") from exc
        if proc.returncode != 0:
            raise StepFailed(f"{role} step exited {proc.returncode}:\n{proc.stderr}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def wrong_calls(result: dict) -> int:
    return sum(not call["ok"] for call in result["calls"])


def measure(runner: Runner, seconds: int, trace: bool) -> dict:
    setups = [runner.step("setup") for _ in range(1 if trace else SETUP_REPEATS)]
    passes = []
    while not passes or (not trace and sum(p["pass_s"] for p in passes) < seconds):
        passes.append(runner.step("pass", "0"))
    if trace:
        passes.append(runner.step("pass", "1"))
    attempted = sum(len(p["calls"]) for p in passes)
    failed = sum(wrong_calls(p) for p in passes)
    if trace:
        untraced, traced = passes
        metrics = dict(traced["layers"])
        metrics["trace_overhead"] = traced["wall_s"] / (untraced["wall_s"]
                                                         - untraced["probe_s"])
        metrics["failed_frac"] = wrong_calls(traced) / len(traced["calls"])
    else:
        metrics = {"pass_s": statistics.median(p["pass_s"] for p in passes),
                   "setup_s": statistics.median(s["setup_s"] for s in setups),
                   "peak_rss_mib": max(p["peak_rss_mib"] for p in passes),
                   "ok_frac": (attempted - failed) / attempted}
    units = declared_units(trace)
    if units.keys() != metrics.keys():
        raise StepFailed(f"metrics differ from BENCHMARK.json: "
                         f"{sorted(units.keys() ^ metrics.keys())}")
    for s in setups:
        print(f"setup: {s['setup_s']:.4f} reference s, {s['wall_s']:.4f} wall s")
    for p in passes:
        for name in p["missing_names"]:
            print(f"not traced: {name} is not defined")
        speed = (f"{p['pass_s']:.3f} reference s at host speed {p['host_speed']:.3f}, "
                 if p["host_speed"] is not None else "")
        print(f"pass {'traced' if p['layers'] else 'untraced'}: {speed}"
              f"{p['wall_s']:.3f} wall s, {len(p['calls'])} calls")
        for call in p["calls"]:
            ref = (f"{call['ref_seconds']:8.3f} reference s"
                   if call["ref_seconds"] is not None else "")
            print(f"  {call['name']:<24} {call['seconds']:8.3f} wall s {ref} "
                  f"{'ok' if call['ok'] else 'WRONG'}")
            if not call["ok"]:
                print(f"wrong output: {call['name']} exit={call['exit']} "
                      f"{call['stderr']}", file=sys.stderr)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # On SIGTERM unwind normally: subprocess.run kills and reaps the running
    # step, and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not (SRC / "algcert" / "__init__.py").is_file():
        print(f"error: no algcert package under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        result = measure(Runner(args.workload, args.seed, workdir),
                         args.seconds, bool(args.trace))
    except StepFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
