import json
import re
from pathlib import Path

import numpy as np
import pytest

from thermomeas import objects, schemes, thermo
from thermomeas import scenario as scenario_module
from thermomeas.errors import ValidationError
from thermomeas.sampling import ginibre, random_povm, rng_from_seed
from thermomeas.scenario import (
    KNOWN_CHECKS,
    MAX_GRID_SIZE,
    MAX_STATE_COUNT,
    decode_channel,
    decode_hamiltonian,
    decode_matrix,
    decode_observable,
    encode_channel,
    encode_matrix,
    encode_observable,
    parse_scenario,
    run_scenario,
    run_sweep,
)
from thermomeas.schemes import swap_channel

Z_EFFECTS = [[[[1, 0], [0, 0]], [[0, 0], [0, 0]]], [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]]
Z_POINTER = {"outcomes": ["z0", "z1"], "effects": Z_EFFECTS}


def random_block_scenario(checks, n_states=20, seed=7):
    return {
        "schema_version": 1,
        "seed": seed,
        "beta": 1.0,
        "system_hamiltonian": [0.0, 1.0],
        "probe_hamiltonian": [0.0, 1.0],
        "scheme": {"kind": "random_block", "mixture_size": 3, "pointer": Z_POINTER},
        "states": {"count": n_states, "seed": 5},
        "checks": checks,
    }


class TestSerializationRoundTrip:
    def test_matrix_round_trip_is_exact(self):
        m = ginibre(3, 3, rng_from_seed(0))
        back = decode_matrix(encode_matrix(m))
        assert np.array_equal(m, back)

    def test_diagonal_hamiltonian_shortcut(self):
        h = decode_hamiltonian([0.0, 1.5, 2.25], "h")
        assert np.array_equal(h, np.diag([0.0, 1.5, 2.25]).astype(complex))

    def test_observable_round_trip(self):
        obs = random_povm(2, 3, rng_from_seed(1))
        back = decode_observable(encode_observable(obs))
        assert back.outcomes == obs.outcomes
        for a, b in zip(back.effects, obs.effects):
            assert np.array_equal(a, b)

    def test_channel_round_trip(self):
        ch = swap_channel(2)
        back = decode_channel(encode_channel(ch))
        for a, b in zip(back.kraus, ch.kraus):
            assert np.array_equal(a, b)

    def test_scenario_echo_is_a_fixed_point(self):
        raw = random_block_scenario(["free_scheme"], n_states=2)
        echo = parse_scenario(raw).echo
        again = parse_scenario(echo).echo
        assert json.dumps(echo, sort_keys=True) == json.dumps(again, sort_keys=True)

    def test_bad_matrix_entry_rejected(self):
        with pytest.raises(ValidationError, match="entries"):
            decode_matrix([["zero"]])


class TestParseScenario:
    def test_defaults_resolved(self):
        raw = random_block_scenario(["free_scheme"], n_states=1)
        sc = parse_scenario(raw)
        assert sc.tolerances["default"] == 1e-8
        assert sc.tolerances["validation"] == 1e-9
        assert sc.echo["tolerances"]["default"] == 1e-8

    def test_unknown_check_rejected(self):
        raw = random_block_scenario(["not_a_check"])
        with pytest.raises(ValidationError) as caught:
            parse_scenario(raw)
        assert str(caught.value) == (
            "unknown check 'not_a_check'; known checks: free_scheme, second_law, covariant, "
            "gibbs_preserving, nuclear, prop2, quasi_complete, thermal_observable, "
            "joint_observable, post_processing, refine, moments, skew_chain, heat_duality"
        )

    def test_readme_lists_the_known_checks(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        listed = re.search(r"Known checks: (.*?)\.\n", readme, re.S).group(1)
        assert tuple(re.findall(r"`(\w+)`", listed)) == KNOWN_CHECKS

    def test_scheme_required_for_scheme_checks(self):
        raw = {
            "beta": 1.0,
            "system_hamiltonian": [0.0, 1.0],
            "observable": Z_POINTER,
            "checks": ["second_law"],
        }
        with pytest.raises(ValidationError, match="requires a scheme"):
            parse_scenario(raw)

    def test_missing_required_fields(self):
        with pytest.raises(ValidationError, match="system_hamiltonian"):
            parse_scenario({"beta": 1.0, "checks": ["free_scheme"]})
        with pytest.raises(ValidationError, match="beta"):
            parse_scenario({"system_hamiltonian": [0.0, 1.0], "checks": ["free_scheme"]})

    def test_named_states(self):
        raw = {
            "beta": 1.0,
            "system_hamiltonian": [0.0, 1.0],
            "observable": Z_POINTER,
            "states": ["gibbs", "ground", "maximally_mixed"],
            "checks": ["thermal_observable"],
        }
        sc = parse_scenario(raw)
        assert sc.state_names == ("gibbs", "ground", "maximally_mixed")
        assert sc.states.shape == (3, 2, 2)
        np.testing.assert_allclose(sc.states[1], np.diag([1.0, 0.0]), atol=1e-14)

    @pytest.mark.parametrize(
        "matrix,message",
        [
            (np.eye(3).tolist(), r"state 'odd' has shape \(3, 3\), expected \(2, 2\)"),
            ([[1.0, 0.0], [0.0, 1.0]], "state 'odd': state trace differs from 1"),
        ],
    )
    def test_explicit_state_refusal_names_the_state(self, matrix, message):
        raw = {
            "beta": 1.0,
            "system_hamiltonian": [0.0, 1.0],
            "observable": Z_POINTER,
            "states": ["gibbs", {"name": "odd", "matrix": matrix}, "ground"],
            "checks": ["thermal_observable"],
        }
        with pytest.raises(ValidationError, match=message):
            parse_scenario(raw)

    def test_swap_scheme_uses_top_level_observable(self):
        raw = {
            "beta": 1.0,
            "system_hamiltonian": [0.0, 1.0],
            "observable": Z_POINTER,
            "scheme": {"kind": "swap"},
            "checks": ["free_scheme"],
        }
        sc = parse_scenario(raw)
        assert sc.scheme.pointer.outcomes == ("z0", "z1")

    def test_explicit_kraus_scheme(self):
        swap = swap_channel(2)
        raw = {
            "beta": 1.0,
            "system_hamiltonian": [0.0, 1.0],
            "scheme": {
                "kind": "kraus",
                "kraus": [encode_matrix(k) for k in swap.kraus],
                "pointer": Z_POINTER,
            },
            "checks": ["free_scheme"],
        }
        report = run_scenario(raw)
        assert report.verdict

    def test_state_count_is_bounded(self):
        raw = random_block_scenario(["free_scheme"], n_states=MAX_STATE_COUNT + 1)
        with pytest.raises(ValidationError, match="states.count"):
            parse_scenario(raw)

    @pytest.mark.parametrize("where", ["system_hamiltonian", "probe_hamiltonian"])
    def test_non_finite_hamiltonian_rejected(self, where):
        raw = random_block_scenario(["free_scheme"], n_states=1)
        raw[where] = [0.0, float("inf")]
        with pytest.raises(ValidationError, match=f"{where} has non-finite"):
            parse_scenario(raw)

    def test_non_finite_tolerance_rejected(self):
        raw = random_block_scenario(["free_scheme"], n_states=1)
        raw["tolerances"] = {"second_law": float("nan")}
        with pytest.raises(ValidationError, match="tolerance 'second_law' must be finite"):
            parse_scenario(raw)
        with pytest.raises(ValidationError, match="tolerance 'default' must be finite"):
            parse_scenario(random_block_scenario(["free_scheme"]), tol_override=float("inf"))

    def test_seed_override_wins(self):
        raw = random_block_scenario(["free_scheme"], n_states=1, seed=7)
        sc = parse_scenario(raw, seed_override=99)
        assert sc.seed == 99
        assert sc.echo["scheme"]["seed"] == 99


class TestRunScenario:
    def test_full_free_scheme_scenario_passes(self):
        raw = random_block_scenario(
            ["free_scheme", "second_law", "covariant", "gibbs_preserving"], n_states=200
        )
        report = run_scenario(raw)
        assert report.verdict
        by_name = {c["name"]: c for c in report.checks}
        assert by_name["second_law"]["n_states"] == 200
        assert by_name["second_law"]["worst_prop1_slack"] >= -1e-8
        assert by_name["covariant"]["verdict"]

    def test_luders_x_basis_scenario_fails(self):
        raw = {
            "beta": 1.0,
            "system_hamiltonian": [0.0, 1.0],
            "observable": {
                "outcomes": ["p", "m"],
                "effects": [
                    [[[0.5, 0], [0.5, 0]], [[0.5, 0], [0.5, 0]]],
                    [[[0.5, 0], [-0.5, 0]], [[-0.5, 0], [0.5, 0]]],
                ],
            },
            "checks": ["covariant", "thermal_observable"],
        }
        report = run_scenario(raw)
        assert not report.verdict
        assert all(not c["verdict"] for c in report.checks)

    def test_reports_are_deterministic(self):
        raw = random_block_scenario(["free_scheme", "second_law"], n_states=10)
        a = run_scenario(raw).to_json()
        b = run_scenario(raw).to_json()
        assert a == b

    def test_timing_only_on_request(self):
        raw = random_block_scenario(["free_scheme"], n_states=1)
        raw["checks"] = ["free_scheme", "second_law", "free_scheme"]
        report = run_scenario(raw)
        assert "timing_ms" not in report.to_dict()
        assert "check_timing_ms" not in report.to_dict()
        timed = report.to_dict(include_timing=True)
        assert "timing_ms" in timed
        assert report.timing_ms > 0
        # one entry per check name; a repeated check adds up its runs
        assert sorted(timed["check_timing_ms"]) == ["free_scheme", "second_law"]
        assert all(ms > 0 for ms in report.check_timing_ms.values())
        assert sum(report.check_timing_ms.values()) <= report.timing_ms
        assert {k: v for k, v in timed.items() if k not in ("timing_ms", "check_timing_ms")} == (
            report.to_dict()
        )

    def test_classifier_only_run_uses_luders(self):
        raw = {
            "beta": 1.0,
            "system_hamiltonian": [0.0, 1.0],
            "observable": Z_POINTER,
            "checks": ["covariant", "gibbs_preserving", "nuclear", "quasi_complete"],
        }
        report = run_scenario(raw)
        by_name = {c["name"]: c for c in report.checks}
        assert by_name["covariant"]["verdict"]
        assert not by_name["gibbs_preserving"]["verdict"]
        assert by_name["nuclear"]["verdict"]
        assert by_name["quasi_complete"]["verdict"]

    def test_structural_checks_on_induced_observable(self):
        raw = random_block_scenario(
            ["thermal_observable", "joint_observable", "post_processing", "refine", "moments"],
            n_states=1,
        )
        report = run_scenario(raw)
        assert report.verdict

    def test_scheme_objects_are_derived_once(self, monkeypatch):
        counts = {"dilation": 0, "moment": 0, "instrument_apply": 0, "audit": 0}

        def counted(key, fn):
            def wrapper(*args):
                counts[key] += 1
                return fn(*args)

            return wrapper

        sandwiches = []

        def recorded(ks, m):
            sandwiches.append((ks, m.shape))
            return sandwich(ks, m)

        parsed = []

        def kept(*args, **kwargs):
            parsed.append(parse(*args, **kwargs))
            return parsed[-1]

        sandwich, parse = objects._sandwich, scenario_module.parse_scenario
        monkeypatch.setattr(objects, "_sandwich", recorded)
        monkeypatch.setattr(scenario_module, "parse_scenario", kept)
        monkeypatch.setattr(schemes, "_dilation", counted("dilation", schemes._dilation))
        monkeypatch.setattr(
            schemes, "energy_moment_defect", counted("moment", schemes.energy_moment_defect)
        )
        monkeypatch.setattr(
            objects.Instrument, "apply", counted("instrument_apply", objects.Instrument.apply)
        )
        monkeypatch.setattr(
            thermo.StateAudit, "__init__", counted("audit", thermo.StateAudit.__init__)
        )
        raw = random_block_scenario(
            ["free_scheme", "second_law", "moments", "skew_chain", "heat_duality"]
        )
        raw.update(system_hamiltonian=[0.0, 1.0, 2.0], probe_hamiltonian=[0.0, 1.0, 2.0])
        raw["scheme"]["pointer"] = {
            "outcomes": ["low", "high"],
            "effects": [np.diag([1.0, 0.0, 0.0]).tolist(), np.diag([0.0, 1.0, 1.0]).tolist()],
        }
        report = run_scenario(raw)
        assert report.verdict
        assert report.checks[1]["n_states"] == 20
        # one dilation for the instrument, one for the conjugate channel
        assert counts == {"dilation": 2, "moment": 4, "instrument_apply": 1, "audit": 1}
        # each outcome's Kraus stack and the conjugate channel meet the
        # 20-state stack once, in one application each
        scheme = parsed[0].scheme
        for ks in (*scheme.instrument.kraus_sets, scheme.conjugate.kraus):
            assert [shape for other, shape in sandwiches if other is ks] == [(20, 3, 3)]

    def test_luders_instrument_is_built_once(self, monkeypatch):
        calls = []
        luders = objects.Instrument.luders.__func__

        def counted(cls, observable):
            calls.append(observable)
            return luders(cls, observable)

        monkeypatch.setattr(objects.Instrument, "luders", classmethod(counted))
        raw = {
            "beta": 1.0,
            "system_hamiltonian": [0.0, 1.0],
            "observable": Z_POINTER,
            "checks": ["covariant", "gibbs_preserving", "nuclear", "quasi_complete", "skew_chain"],
        }
        report = run_scenario(raw)
        assert [c["name"] for c in report.checks] == raw["checks"]
        assert len(calls) == 1

    def test_prop2_precondition_is_input_error(self):
        raw = {
            "beta": 1.0,
            "system_hamiltonian": [0.0, 1.0],
            "observable": Z_POINTER,
            "checks": ["prop2"],
        }
        with pytest.raises(ValueError, match="Gibbs-preserving"):
            run_scenario(raw)

    def test_post_processing_check_owns_its_verdict(self):
        # commutes with H within tol (the gap is small) yet is far from diagonal at that tol
        eps = 5e-6
        raw = {
            "beta": 1.0,
            "system_hamiltonian": [0.0, 1e-3],
            "observable": {"effects": [[[0.5, eps], [eps, 0.5]], [[0.5, -eps], [-eps, 0.5]]]},
            "checks": ["thermal_observable", "post_processing"],
        }
        thermal, post = run_scenario(raw).checks
        assert thermal["verdict"]
        assert not post["verdict"]
        assert abs(post["reconstruction_defect"] - 2**0.5 * eps) < 1e-15


class TestRunSweep:
    def test_beta_grid_on_swap_scheme(self):
        sweep = {
            "axis": {"name": "beta", "values": [0.1, 0.5, 1.0, 2.0, 5.0]},
            "scenario": {
                "beta": 1.0,
                "system_hamiltonian": [0.0, 1.0],
                "scheme": {"kind": "swap", "pointer": Z_POINTER},
                "states": ["ground"],
                "checks": ["second_law"],
            },
        }
        table, all_pass = run_sweep(sweep)
        assert all_pass
        lines = table.strip().split("\n")
        assert len(lines) == 6
        header = lines[0].split(",")
        idx = header.index("prop1_slack")
        beta_idx = header.index("beta")
        betas = []
        for line in lines[1:]:
            fields = line.split(",")
            assert float(fields[idx]) >= -1e-8
            assert fields[-1] == "True"
            betas.append(float(fields[beta_idx]))
        assert betas == [0.1, 0.5, 1.0, 2.0, 5.0]

    def test_seed_range_on_random_schemes(self):
        sweep = {
            "axis": {"name": "seed", "range": [1, 100]},
            "scenario": {
                "beta": 1.0,
                "system_hamiltonian": [0.0, 1.0],
                "scheme": {"kind": "random_block", "pointer": Z_POINTER},
                "states": {"count": 3},
                "checks": ["second_law"],
            },
        }
        table, all_pass = run_sweep(sweep)
        assert all_pass
        lines = table.strip().split("\n")
        assert len(lines) == 101
        seeds = [int(line.split(",")[2]) for line in lines[1:]]
        assert seeds == list(range(1, 101))
        assert all(line.split(",")[-1] == "True" for line in lines[1:])

    @staticmethod
    def swap_sweep(axis):
        return {
            "axis": axis,
            "scenario": {
                "beta": 1.0,
                "system_hamiltonian": [0.0, 1.0],
                "scheme": {"kind": "swap", "pointer": Z_POINTER},
                "checks": ["second_law"],
            },
        }

    def test_empty_axis_is_refused(self):
        for axis in ({"name": "beta", "values": []}, {"name": "seed", "range": [5, 1]}):
            with pytest.raises(ValidationError, match="sweep grid must have 1 to .* points, got 0"):
                run_sweep(self.swap_sweep(axis))

    def test_grid_size_is_bounded(self):
        # a range of 10**12 points is refused before any grid point is built
        with pytest.raises(ValidationError, match=f"got {10**12}"):
            run_sweep(self.swap_sweep({"name": "seed", "range": [1, 10**12]}))
        too_many = {"name": "seed", "range": [1, MAX_GRID_SIZE + 1]}
        with pytest.raises(ValidationError, match=f"got {MAX_GRID_SIZE + 1}"):
            run_sweep(self.swap_sweep(too_many))

    def test_sweep_is_deterministic(self):
        sweep = {
            "axis": {"name": "seed", "values": [3, 4]},
            "scenario": {
                "beta": 0.7,
                "system_hamiltonian": [0.0, 1.0],
                "scheme": {"kind": "random_block", "pointer": Z_POINTER},
                "states": {"count": 4},
                "checks": ["second_law"],
            },
        }
        a, _ = run_sweep(sweep)
        b, _ = run_sweep(sweep)
        assert a == b

    def test_bad_axis_rejected(self):
        with pytest.raises(ValidationError, match="axis"):
            run_sweep({"axis": {"name": "gamma", "values": [1]}, "scenario": {}})
