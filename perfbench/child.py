"""One benchmark step in a fresh interpreter; ``run.py`` starts it.

    python3 child.py setup WORKLOAD SEED WORKDIR
        imports algcert, builds the workload's documents and writes them to
        WORKDIR; prints {"setup_s": ..., "wall_s": ...}.
    python3 child.py pass WORKLOAD SEED WORKDIR TRACE
        runs every call of the workload once through ``algcert.cli.main``,
        checks each output, and prints the pass result as one JSON line.

Untraced steps run under a ``HostProbe`` and report their time in reference
seconds (see hostprobe.py) as well as in wall seconds.  The traced pass runs
without the probe, whose samples would land in the layers' self times.

Both need algcert importable (``run.py`` puts the checkout's ``src`` on
PYTHONPATH).
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

import workloads
from hostprobe import HostProbe


def setup(workload: str, seed: int, workdir: Path) -> dict:
    probe = HostProbe()
    t0 = perf_counter()
    with probe:
        import algcert.cli  # noqa: F401  (import time is part of set-up)
        docs, _ = workloads.build(workload, seed)
        workloads.write_documents(docs, workdir)
    wall = perf_counter() - t0
    return {"setup_s": probe.scaled(wall), "wall_s": wall}


def run_pass(calls: list, expected: dict, workdir: Path, trace: bool) -> dict:
    """Run each call once; returns timings, output checks and trace metrics."""
    from algcert import cli
    from tracer import Tracer

    tracer = Tracer() if trace else None
    probes = []
    results = []
    elapsed = 0.0
    if tracer:
        tracer.install()
    try:
        for call in calls:
            gc.collect()
            out, err = io.StringIO(), io.StringIO()
            code = None
            probe = None if trace else HostProbe()
            t0 = perf_counter()
            try:
                with probe or contextlib.nullcontext(), \
                        contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.main(call.argv(workdir))
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a crash is a failed call, not a crashed run
                err.write(f"{type(exc).__name__}: {exc}")
            dt = perf_counter() - t0
            elapsed += dt
            if probe:
                probes.append(probe)
            stdout = out.getvalue()
            want_code, want = expected[call.name]
            results.append({
                "name": call.name, "seconds": dt, "exit": code,
                "ref_seconds": probe.scaled(dt) if probe else None,
                "ok": code == want_code and workloads.output_matches(want, stdout),
                "sha256": hashlib.sha256(stdout.encode("utf-8")).hexdigest(),
                "stderr": err.getvalue()[-300:]})
    finally:
        if tracer:
            tracer.restore()
    probe = HostProbe.combined(probes) if probes else None
    return {"pass_s": probe.scaled(elapsed) if probe else elapsed,
            "wall_s": elapsed,
            "probe_s": probe.probe_s if probe else 0.0,
            "host_speed": probe.speed() if probe else None,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "calls": results,
            "layers": tracer.metrics() if tracer else None,
            "missing_names": tracer.missing if tracer else []}


def main(argv: list) -> int:
    role, workload, seed, workdir = argv[:4]
    seed, workdir = int(seed), Path(workdir)
    if role == "setup":
        print(json.dumps(setup(workload, seed, workdir)))
        return 0
    _, calls = workloads.build(workload, seed)
    result = run_pass(calls, workloads.expected_outputs(workload), workdir,
                      trace=argv[4] == "1")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
