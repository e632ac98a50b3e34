"""The seed-0 benchmark inputs reproduce `bench/reference/` through the CLI, in-process.

`bench/workloads.py` is loaded by path and not modified. Each workload's
output must pass every verdict and agree with its reference to the
benchmark's own relative tolerance (`workloads.REL_TOL`).
"""

import importlib.util
import json
import sys
import warnings
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest

from thermomeas import thermo
from thermomeas.cli import main
from thermomeas.scenario import parse_scenario, run_scenario
from thermomeas.schemes import SchemeBatch, conjugate_channel

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses resolve annotations through sys.modules
    spec.loader.exec_module(module)
    return module


workloads = load_workloads()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_zero_output_matches_reference(name, tmp_path, capsys):
    workload = workloads.WORKLOADS[name]
    suffix = workload.output_suffix
    source = tmp_path / "input.json"
    source.write_text(json.dumps(workload.input_document(0)))
    output = tmp_path / f"output{suffix}"
    assert main([workload.command, str(source), "--out", str(output)]) == 0, capsys.readouterr()
    got = workloads.load_output(output.read_text(encoding="utf-8"), suffix)
    want = workloads.load_output((BENCH / "reference" / f"{name}{suffix}").read_text(), suffix)
    assert workloads.verdict_failures(got, suffix) == []
    assert workloads.first_difference(got, want) is None


@pytest.mark.parametrize("checks,entropies", [(["heat_duality"], 0), (None, 2)])
def test_a_check_derives_only_the_entropies_it_reads(checks, entropies, monkeypatch):
    # heat duality reads the heats alone; the second law's work needs the
    # states' and outputs' entropies, one stacked solve each
    calls, entropy = [], thermo.von_neumann_entropy

    def counted(*args, **kwargs):
        calls.append(args)
        return entropy(*args, **kwargs)

    monkeypatch.setattr(thermo, "von_neumann_entropy", counted)
    scenario = workloads.WORKLOADS["audit_d4"].scenario(0)
    report = run_scenario(dict(scenario, checks=checks or scenario["checks"]))
    assert report.verdict and len(calls) == entropies


def conjugate_formations(monkeypatch) -> list:
    """The batches whose ``SchemeBatch.conjugate_kraus`` is formed from now on, one entry
    per formation; a cached property is formed on its first read."""
    formed, form = [], SchemeBatch.conjugate_kraus.func

    def counted(batch):
        formed.append(batch)
        return form(batch)

    recorded = cached_property(counted)
    recorded.__set_name__(SchemeBatch, "conjugate_kraus")
    monkeypatch.setattr(SchemeBatch, "conjugate_kraus", recorded)
    return formed


def test_the_conjugate_channel_is_formed_only_when_a_heat_is_read(monkeypatch):
    formed = conjugate_formations(monkeypatch)
    scenario = workloads.WORKLOADS["scheme_d8"].scenario(0)
    parse_scenario(scenario)
    report = run_scenario(scenario)
    assert report.verdict and formed == []  # none of its checks reads a heat
    report = run_scenario(dict(scenario, checks=["heat_duality"]))
    assert report.verdict and formed == [report.scenario.scheme]


def test_the_audit_input_passes_at_the_smallest_normal_beta(tmp_path):
    # the smallest beta accepted: D / beta stays finite on d = 4, and nothing warns
    source = tmp_path / "input.json"
    document = workloads.WORKLOADS["audit_d4"].input_document(0)
    document["beta"] = 2.2250738585072014e-308
    source.write_text(json.dumps(document))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["check", str(source), "--out", str(tmp_path / "report.json")]) == 0


def test_each_state_alone_has_the_bits_of_its_entry_in_a_stack():
    # audit_d4's seed-0 instrument, conjugate channel and interaction, each on the 200
    # states alone and stacked; and each state's rows, alone and in the check's report
    report = run_scenario(workloads.WORKLOADS["audit_d4"].scenario(0))
    scenario = report.scenario
    scheme, states = scenario.scheme, scenario.audit.states[0]
    outputs = scenario.instrument.apply(states)
    for i, rho in enumerate(states):
        assert scenario.instrument.apply(rho).tobytes() == outputs[:, i].tobytes()
    xi = scheme.frame.probe_state.matrix
    joint = np.array([np.kron(rho, xi) for rho in states])
    for channel, inputs in ((conjugate_channel(scheme), states), (scheme.interaction, joint)):
        stacked = channel.apply(inputs)
        for one, entry in zip(inputs, stacked):
            assert channel.apply(one).tobytes() == entry.tobytes()
    rows = {check["name"]: check.get("per_state") for check in report.checks}
    h, tol = scenario.system_hamiltonian, scenario.tol_for("second_law")
    for i, rho in enumerate(states):
        assert thermo.second_law_report(scheme, rho, tol) == without_state(rows["second_law"][i])
        assert thermo.heat_absorbed(scheme, rho) == without_state(rows["heat_duality"][i])
        chain = thermo.skew_information_chain(scenario.instrument, rho, h)
        assert chain == without_state(rows["skew_chain"][i])


def without_state(row: dict) -> dict:
    return {key: value for key, value in row.items() if key != "state"}
