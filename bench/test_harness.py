"""Tests of the benchmark harness itself: `python3 -m pytest bench -q`.

They cover the self-time arithmetic, the tracer's patching and restoring,
the output gate, and a shrunk run of each workload through the same code
the benchmark uses.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, first_difference, load_output, verdict_failures  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_time_subtracts_children_once():
    spans = [
        ["root", -1, 0.0, 10.0, 0.0],
        ["a", 0, 1.0, 4.0, 0.0],
        ["a.inner", 1, 2.0, 3.0, 0.0],
        ["b", 0, 5.0, 6.5, 0.0],
        ["b", 0, 6.0, 7.0, 0.0],  # overlaps the previous child: counted once
    ]
    assert tracing.self_times(spans) == pytest.approx([10 - 3 - 2, 2, 1, 1.5, 1])
    table = tracing.summarize(spans)
    assert table["b"]["calls"] == 2
    assert table["b"]["s"] == pytest.approx(2.5)
    assert table["root"]["self_s"] == pytest.approx(5)


def _bindings():
    """Every module-level binding and class attribute of the thermomeas package."""
    import thermomeas.cli  # noqa: F401  (loads every module the CLI uses)

    seen = {}
    for name, module in sys.modules.items():
        if name == "thermomeas" or name.startswith("thermomeas."):
            for key, value in vars(module).items():
                seen[(name, key)] = value
                if isinstance(value, type):
                    for attr, member in vars(value).items():
                        seen[(name, key, attr)] = member
    return seen


def test_tracer_patches_every_binding_and_restores_them():
    import thermomeas
    from thermomeas import scenario, schemes, thermo

    before = _bindings()
    original = schemes.validate_free_scheme
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # thermo and the package namespace imported the function by name
        assert thermo.validate_free_scheme is not original
        assert thermomeas.validate_free_scheme is thermo.validate_free_scheme
        assert scenario.validate_free_scheme is schemes.validate_free_scheme
        h = [0.0, 1.0]
        raw = WORKLOADS["audit_d4"].scenario(3)
        raw.update(system_hamiltonian=h, probe_hamiltonian=h, states={"count": 1})
        raw["scheme"]["pointer"] = {"effects": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]}
        raw["checks"] = ["second_law"]
        assert scenario.run_scenario(raw).verdict
    finally:
        tracer.restore()
    assert tracer.installed == 0
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    counts = {k: v["calls"] for k, v in tracing.summarize(tracer.spans).items()}
    assert counts["schemes.validate_free_scheme"] == 1
    assert counts["thermo.second_law_report"] == 1
    assert counts["objects.KrausChannel.apply_dual"] == 4


def test_gate_accepts_reference_and_rejects_changes():
    for workload in WORKLOADS.values():
        reference = run.REFERENCE_DIR / f"{workload.name}{workload.output_suffix}"
        gate = run.Gate(workload, run.DEFAULT_SEED)
        assert gate.failure(run.Op(1.0, 1.0, 0), reference) is None
        assert gate.failure(run.Op(1.0, 1.0, 1), reference) == "exit code 1"

    report = load_output((run.REFERENCE_DIR / "scheme_d8.json").read_text(), ".json")
    nudged = json.loads(json.dumps(report))
    nudged["checks"][0]["yanase_defect"] += 1e-15
    assert first_difference(nudged, report) is None
    nudged["checks"][1]["fixed_point_defect"] = 1e-9
    assert "fixed_point_defect" in first_difference(nudged, report)
    nudged = json.loads(json.dumps(report))
    nudged["checks"][2]["verdict"] = False
    assert verdict_failures(nudged, ".json") == ["covariant"]

    table = load_output((run.REFERENCE_DIR / "sweep_d3.csv").read_text(), ".csv")
    changed = [row[:] for row in table]
    changed[5][changed[0].index("heat")] = repr(float(changed[5][changed[0].index("heat")]) * 1.01)
    assert "[5]" in first_difference(changed, table)
    changed = [row[:] for row in table]
    changed[7][changed[0].index("second_law_verdict")] = "False"
    assert verdict_failures(changed, ".csv") == ["row 7"]
    changed[7][changed[0].index("second_law_verdict")] = "True"
    changed[7][changed[0].index("state")] = "random_0001"
    assert "[7][4]" in first_difference(changed, table)


SHRUNK = {
    # name: (shrunk workload, expected traced call counts)
    "audit_d4": (
        dataclasses.replace(WORKLOADS["audit_d4"], states={"count": 2}),
        {"schemes.validate_free_scheme": 3, "schemes.induced_instrument": 5,
         "schemes.conjugate_channel": 4, "objects.KrausChannel.apply_dual": 12},
    ),
    "scheme_d8": (
        dataclasses.replace(WORKLOADS["scheme_d8"], dim=4),
        {"objects.KrausChannel.apply_dual": 8, "schemes.validate_free_scheme": 1},
    ),
    "sweep_d3": (
        dataclasses.replace(WORKLOADS["sweep_d3"], points=3),
        {"schemes.random_free_scheme": 3, "schemes.validate_free_scheme": 6},
    ),
}


@pytest.mark.parametrize("name", sorted(SHRUNK))
def test_shrunk_workload_runs_through_the_benchmark(name):
    workload, counts = SHRUNK[name]
    plain = run.run_workload(ROOT, workload, seed=1, seconds=0, trace=False)
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] == 1
    assert set(plain["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in plain["metrics"].values())

    traced = run.run_workload(ROOT, workload, seed=1, seconds=0, trace=True)
    assert traced["correct"] and traced["failed"] == 0 and traced["attempted"] == 2
    assert set(traced["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for function, calls in counts.items():
        assert traced["metrics"][f"{function}.calls"]["value"] == calls
    assert traced["metrics"]["cli.main.calls"]["value"] == 1


def test_benchmark_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "audit_d4", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
