"""Self-tests of the benchmark, on the fastest call of each workload.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import importlib
import json
import pkgutil
import random
import signal
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import child  # noqa: E402
import hostprobe  # noqa: E402
import workloads  # noqa: E402


def _smallest(workload: str, tmp_path: Path):
    docs, calls = workloads.build(workload, seed=3)
    workloads.write_documents(docs, tmp_path)
    return [c for c in calls if c.name == workloads.SMALLEST[workload]]


def _bindings() -> dict:
    algcert = importlib.import_module("algcert")
    mods = [algcert] + [importlib.import_module(f"algcert.{m.name}")
                        for m in pkgutil.iter_modules(algcert.__path__)]
    out = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
    out["multiply"] = mods[0].StructureAlgebra.multiply
    return out


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_run_matches_untraced(workload, tmp_path):
    calls = _smallest(workload, tmp_path)
    expected = workloads.expected_outputs(workload)
    before = _bindings()
    plain = child.run_pass(calls, expected, tmp_path, trace=False)
    traced = child.run_pass(calls, expected, tmp_path, trace=True)
    after = _bindings()
    assert all(after[k] is v for k, v in before.items()), "a wrapped name was not restored"
    assert [c["ok"] for c in plain["calls"]] == [True]
    assert [c["ok"] for c in traced["calls"]] == [True]
    assert plain["calls"][0]["sha256"] == traced["calls"][0]["sha256"]
    layers = traced["layers"]
    assert layers["cli.s"] > 0
    assert layers["linalg.rref_q.calls"] + layers["linalg.rref_gfp.calls"] > 0


def test_generator_is_deterministic(tmp_path):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for path, seed in ((a, 5), (b, 5), (c, 6)):
        path.mkdir()
        workloads.write_documents(workloads.build("der_dense", seed)[0], path)
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    assert all((a / n).read_bytes() == (b / n).read_bytes() for n in names)
    assert any((a / n).read_bytes() != (c / n).read_bytes() for n in names)


def test_basis_change_is_an_isomorphism():
    table, one = workloads.upper_triangular_algebra(3)
    d = len(one)
    t, t_inv = workloads.transvection_basis(d, random.Random(1))
    assert all(sum(t[i][k] * t_inv[k][j] for k in range(d)) == int(i == j)
               for i in range(d) for j in range(d))
    new, new_one = workloads.change_basis(table, one, t, t_inv)

    def to_e(v):            # f coordinates -> e coordinates
        return [sum(t[a][k] * v[k] for k in range(d)) for a in range(d)]

    def mul_e(x, y):
        return [sum(x[a] * y[b] * table[a][b][c] for a in range(d) for b in range(d))
                for c in range(d)]

    basis = [[int(k == i) for k in range(d)] for i in range(d)]
    assert to_e(new_one) == one
    assert all(to_e(new[i][j]) == mul_e(to_e(basis[i]), to_e(basis[j]))
               for i in range(d) for j in range(d))


def test_tracer_skips_names_algcert_lacks(monkeypatch):
    import tracer

    layers = dict(tracer.LAYERS, gone=("algcert.algebra", ["no_such_function"]))
    monkeypatch.setattr(tracer, "LAYERS", layers)
    before = _bindings()
    trace = tracer.Tracer()
    trace.install()
    trace.restore()
    assert trace.missing == ["algcert.algebra.no_such_function"]
    assert all(_bindings()[k] is v for k, v in before.items())


def test_wrong_expected_output_counts_as_failure(tmp_path):
    calls = _smallest("certify_gfp", tmp_path)
    expected = workloads.expected_outputs("certify_gfp")
    name = calls[0].name
    wrong = dict(expected, **{name: (expected[name][0], "0" * 64)})
    result = child.run_pass(calls, wrong, tmp_path, trace=False)
    assert [c["ok"] for c in result["calls"]] == [False]
    der = _smallest("der_dense", tmp_path)
    bad = workloads.expected_outputs("der_dense")
    bad[der[0].name] = (0, {"dim_der": 0, "dim_ker_phi_lie": None})
    assert not child.run_pass(der, bad, tmp_path, trace=False)["calls"][0]["ok"]


def test_expected_file_covers_every_call():
    table = json.loads(workloads.EXPECTED_FILE.read_text(encoding="utf-8"))
    for workload in sorted(workloads.WORKLOADS):
        names = {c.name for c in workloads.build(workload, seed=1)[1]}
        assert names == set(workloads.expected_outputs(workload))
        if workload != "der_dense":
            assert names == set(table[workload])


def test_host_probe_samples_and_disarms():
    before = signal.getsignal(signal.SIGALRM)
    blocks = [hostprobe.HostProbe(), hostprobe.HostProbe()]
    for block in blocks:
        with block:
            end = hostprobe.perf_counter() + 0.2
            while hostprobe.perf_counter() < end:
                hostprobe.chunk()
    probe = hostprobe.HostProbe.combined(blocks)
    assert probe.samples == sum(block.samples for block in blocks)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert probe.samples >= 10
    assert 0 < probe.probe_s < 0.4
    assert 0.05 < probe.speed() < 20
    assert 0 < probe.scaled(0.4) < 0.4 * probe.speed()
