import copy
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from oracles import sweep_row
from thermomeas import objects, schemes, thermo
from thermomeas import scenario as scenario_module
from thermomeas.errors import ValidationError
from thermomeas.sampling import ginibre, random_povm, rng_from_seed
from thermomeas.scenario import (
    KNOWN_CHECKS,
    MAX_GRID_SIZE,
    MAX_MIXTURE_SIZE,
    MAX_STATE_COUNT,
    decode_channel,
    decode_hamiltonian,
    decode_matrix,
    decode_observable,
    encode_matrix,
    encode_observable,
    parse_scenario,
    run_scenario,
    run_sweep,
)
from thermomeas.schemes import swap_channel

Z_EFFECTS = [[[[1, 0], [0, 0]], [[0, 0], [0, 0]]], [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]]
Z_POINTER = {"outcomes": ["z0", "z1"], "effects": Z_EFFECTS}


#: A d = 4 observable that parses but whose rank-1 refinement is refused.
REFINE_REFUSED = {
    "beta": 1.0,
    "system_hamiltonian": [0.0, 1.0, 2.0, 3.0],
    "scheme": {
        "kind": "random_block",
        "pointer": {"effects": [np.diag([1, 1, 0, 0]).tolist(), np.diag([0, 0, 1, 1]).tolist()]},
    },
    "observable": {
        "effects": [
            np.diag([1, 1, -9e-10, -9e-10]).tolist(),
            np.diag([0, 0, 1 + 9e-10, 1 + 9e-10]).tolist(),
        ]
    },
    "checks": ["thermal_observable", "refine"],
}


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


BAD_ENTRY = (
    "system_hamiltonian row {} column {}: matrix entries must be numbers or [re, im] pairs, got {}"
)


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
        # a kraus scheme's echo encodes its interaction; decoding it gives the channel back
        ch = swap_channel(2)
        raw = {
            "beta": 1.0,
            "system_hamiltonian": [0.0, 1.0],
            "scheme": {"kind": "kraus", "pointer": Z_POINTER, "kraus": [encode_matrix(ch.kraus[0])]},
            "checks": ["free_scheme"],
        }
        back = decode_channel(parse_scenario(raw).echo["scheme"])
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

    def test_bare_entries_decode_as_their_pairs(self):
        m = decode_matrix([[1, 0.5], [[0, -2], [3, 4.25]]])
        assert np.array_equal(m, np.array([[1, 0.5], [-2j, 3 + 4.25j]]))

    @pytest.mark.parametrize(
        "hamiltonian,message",
        [
            ([[[1, "x"]]], BAD_ENTRY.format(0, 0, "[1, 'x']")),
            ([[0, 0], [0, [None, 0]]], BAD_ENTRY.format(1, 1, "[None, 0]")),
            ([[[1, 0], True]], BAD_ENTRY.format(0, 1, "True")),
            ([[[[1], 0]]], BAD_ENTRY.format(0, 0, "[[1], 0]")),
            ([[1, 0], [0]], "system_hamiltonian: row 1 has 1 entries, row 0 has 2"),
            ([True, False], "system_hamiltonian entry 0: expected a number, got True"),
            ([0, "1"], "system_hamiltonian entry 1: expected a number, got '1'"),
        ],
    )
    def test_malformed_hamiltonian_entry_is_refused_by_position(self, hamiltonian, message):
        raw = random_block_scenario(["free_scheme"], n_states=1)
        raw["system_hamiltonian"] = hamiltonian
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            parse_scenario(raw)


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

    def test_readme_lists_the_inputs_each_check_needs(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        sentence = re.search(r"a check whose inputs are missing: (.*?);\n", readme, re.S).group(1)
        scheme, states = re.fullmatch(
            r"(.*) need a scheme, and (.*) at least one input state", " ".join(sentence.split())
        ).groups()
        checks = scenario_module._CHECKS
        assert re.findall(r"`(\w+)`", scheme) == [n for n in checks if checks[n].needs_scheme]
        assert re.findall(r"`(\w+)`", states) == [n for n in checks if checks[n].needs_states]

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
        assert sc.state_spec.names == ("gibbs", "ground", "maximally_mixed")
        assert sc.audit.states.shape == (1, 3, 2, 2)
        np.testing.assert_allclose(sc.audit.states[0, 1], np.diag([1.0, 0.0]), atol=1e-14)

    @pytest.mark.parametrize(
        "matrix,message",
        [
            (
                np.eye(3).tolist(),
                r"^state 'odd' must be 2 x 2 to match the system Hamiltonian, got \(3, 3\)$",
            ),
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
        assert sc.scheme.frame.pointer.outcomes == ("z0", "z1")

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

    def test_readme_example_scenario_parses(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = re.search(r"```json\n(.*?)```", readme, re.S).group(1)
        sc = parse_scenario(json.loads(block))
        assert sc.checks == ("free_scheme", "second_law", "covariant", "gibbs_preserving")
        assert sc.audit.states.shape == (1, 100, 2, 2)

    @pytest.mark.parametrize(
        "patch,message",
        [
            ({"tolerance": {"default": 1e-3}}, "scenario: unknown key 'tolerance'"),
            ({"states": {"cont": 5}}, "states: unknown key 'cont'"),
            ({"tolerances": {"second_lw": 1e-3}}, "tolerances: unknown key 'second_lw'"),
            (
                {"scheme": {"kind": "random_block", "mixture": 1, "pointer": Z_POINTER}},
                "scheme 'random_block': unknown key 'mixture'",
            ),
            (
                {"scheme": {"kind": "swap", "seed": 1, "pointer": Z_POINTER}},
                "scheme 'swap': unknown key 'seed'",
            ),
            (
                {"scheme": {"kind": "swap", "pointer": {"outcome": ["a"], "effects": Z_EFFECTS}}},
                "scheme.pointer: unknown key 'outcome'",
            ),
            (
                {"observable": {"outcome": ["a", "b"], "effects": Z_EFFECTS}},
                "observable: unknown key 'outcome'",
            ),
            (
                {"states": ["gibbs", {"nam": "odd", "matrix": [[0.5, 0], [0, 0.5]]}]},
                "states\\[1\\]: unknown key 'nam'",
            ),
        ],
    )
    def test_unknown_key_rejected(self, patch, message):
        raw = dict(random_block_scenario(["free_scheme"], n_states=1), **patch)
        with pytest.raises(ValidationError, match=f"^{message}; allowed keys: "):
            parse_scenario(raw)

    @pytest.mark.parametrize(
        "scheme,message",
        [
            (
                {"kind": "swap", "pointer": {"effects": 5}},
                "scheme.pointer: 'effects' must be a list, got int",
            ),
            (
                {"kind": "swap", "pointer": dict(Z_POINTER, outcomes=5)},
                "scheme.pointer: 'outcomes' must be a list, got int",
            ),
            (
                {"kind": "swap", "pointer": dict(Z_POINTER, outcomes="ab")},
                "scheme.pointer: 'outcomes' must be a list, got str",
            ),
            (
                {"kind": "swap", "pointer": dict(Z_POINTER, outcomes=[])},
                r"scheme.pointer: 'outcomes' must not be empty; omit it for x0, x1, \.\.\.",
            ),
            (
                {"kind": "kraus", "kraus": 5, "pointer": Z_POINTER},
                "channel: 'kraus' must be a list, got int",
            ),
        ],
    )
    def test_non_list_field_rejected(self, scheme, message):
        raw = dict(random_block_scenario(["free_scheme"], n_states=1), scheme=scheme)
        with pytest.raises(ValidationError, match=f"^{message}$"):
            parse_scenario(raw)

    def test_mixture_size_is_bounded_before_any_draw(self, monkeypatch):
        raw = random_block_scenario(["free_scheme"], n_states=1)
        raw["scheme"]["mixture_size"] = MAX_MIXTURE_SIZE
        assert parse_scenario(raw).echo["scheme"]["mixture_size"] == MAX_MIXTURE_SIZE

        def forbidden(*args):
            raise AssertionError("a scheme was drawn")

        monkeypatch.setattr(scenario_module, "random_free_schemes", forbidden)
        raw["scheme"]["mixture_size"] = MAX_MIXTURE_SIZE + 1
        with pytest.raises(ValidationError, match=f"^scheme.mixture_size must be at most "
                           f"{MAX_MIXTURE_SIZE}, got {MAX_MIXTURE_SIZE + 1}$"):
            parse_scenario(raw)

    def test_every_check_tolerance_is_a_known_key(self):
        raw = random_block_scenario(["free_scheme"], n_states=1)
        raw["tolerances"] = {name: 1e-7 for name in ("default", *KNOWN_CHECKS)}
        sc = parse_scenario(raw)
        assert all(sc.tol_for(name) == 1e-7 for name in KNOWN_CHECKS)

    def test_negative_tolerance_rejected(self):
        raw = random_block_scenario(["free_scheme"], n_states=1)
        raw["tolerances"] = {"default": -1}
        with pytest.raises(ValidationError, match="tolerance 'default' must be finite and non-neg"):
            parse_scenario(raw)
        with pytest.raises(ValidationError, match="tolerance 'default' must be finite"):
            parse_scenario(random_block_scenario(["free_scheme"]), tol_override=-1e-8)
        raw["tolerances"] = {"default": 0}
        assert parse_scenario(raw).tol_for("free_scheme") == 0.0

    @pytest.mark.parametrize("probe", [[0.0, 5.0], [0.0, 1.0, 2.0]])
    def test_swap_scheme_refuses_another_probe(self, probe):
        raw = {
            "beta": 1.0,
            "system_hamiltonian": [0.0, 1.0],
            "probe_hamiltonian": probe,
            "scheme": {"kind": "swap", "pointer": Z_POINTER},
            "checks": ["free_scheme"],
        }
        with pytest.raises(ValidationError, match="scheme 'swap': probe_hamiltonian must equal"):
            parse_scenario(raw)
        raw["probe_hamiltonian"] = [[0.0, 0.0], [0.0, 1.0]]
        assert parse_scenario(raw).echo["probe_hamiltonian"] == encode_matrix(np.diag([0.0, 1.0]))

    def test_refinement_is_derived_at_parse(self, monkeypatch):
        sc = parse_scenario(random_block_scenario(["refine"], n_states=1))
        refined, relabel = sc.refinement
        assert refined.is_rank_one() and set(relabel.values()) == {"z0", "z1"}
        assert parse_scenario(random_block_scenario(["covariant"], n_states=1)).refinement is None

        def forbidden(observable):
            raise AssertionError("refined after parse")

        monkeypatch.setattr(scenario_module.classify, "refine_to_rank_one", forbidden)
        assert scenario_module._run_check(sc, "refine")["verdict"]

    def test_refinement_refused_at_parse(self, monkeypatch):
        # each effect is within VALIDATION_TOL of positive, but dropping the
        # -9e-10 eigenvalues leaves a refinement 1.27e-9 from complete
        def forbidden(sc, name):
            raise AssertionError("a check ran")

        monkeypatch.setattr(scenario_module, "_run_check", forbidden)
        with pytest.raises(ValidationError, match="check 'refine': rank-1 refinement refused: "
                           "effects sum differs from identity by 1.273e-09"):
            parse_scenario(REFINE_REFUSED)
        assert parse_scenario(dict(REFINE_REFUSED, checks=["thermal_observable"]))

    @pytest.mark.parametrize("states", [{"count": 0}, []])
    @pytest.mark.parametrize("check", ["second_law", "skew_chain", "heat_duality"])
    def test_state_check_without_states_rejected(self, check, states):
        raw = dict(random_block_scenario(["free_scheme", check]), states=states)
        with pytest.raises(ValidationError, match=f"check '{check}' requires at least one input"):
            parse_scenario(raw)


class TestRunScenario:
    @pytest.mark.parametrize(
        "check",
        [
            "free_scheme", "second_law", "covariant", "gibbs_preserving", "nuclear", "prop2",
            "quasi_complete", "thermal_observable", "joint_observable", "post_processing",
            "refine", "moments",
        ],
    )
    def test_each_check_runs_at_its_own_tolerance(self, check):
        def reported(entry):
            if entry["name"] == "second_law":
                return {row["second_law"]["tol"] for row in entry["per_state"]}
            return {entry.get("tol")}

        raw = {
            "beta": 1.0,
            "system_hamiltonian": [0.0, 1.0],
            "scheme": {"kind": "swap", "pointer": Z_POINTER},
            "states": {"count": 2, "seed": 1},
            "checks": list(KNOWN_CHECKS),
            "tolerances": {check: 3.5e-6},
        }
        tols = {entry["name"]: reported(entry) for entry in run_scenario(raw).checks}
        assert tols.pop(check) == {3.5e-6}
        assert all(t in ({1e-8}, {None}) for t in tols.values())
        assert sum(t == {1e-8} for t in tols.values()) == 11

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

    @pytest.mark.parametrize("run", [run_scenario, run_sweep])
    def test_a_file_descriptor_is_refused_and_left_open(self, tmp_path, run):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(random_block_scenario(["free_scheme"], n_states=1)))
        fd = os.open(path, os.O_RDONLY)
        try:
            message = "expected a dict or the path of a JSON file, got int"
            with pytest.raises(ValidationError, match=f"^{message}$"):
                run(fd)
            os.fstat(fd)
        finally:
            os.close(fd)

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

    def test_a_report_is_one_line_of_sorted_key_ascii_json(self):
        sharp = [np.diag(np.eye(3)[x]).tolist() for x in range(3)]
        raw = {
            "beta": 1.0,
            "system_hamiltonian": [0.0, 1.0, 2.0],
            "probe_hamiltonian": [0.0, 1.0, 2.0],
            "scheme": {
                "kind": "swap",
                "pointer": {"outcomes": ["ψ0", "ψ1", "ψ2"], "effects": sharp},
            },
            "states": {"count": 3},
            "checks": list(KNOWN_CHECKS),
        }
        report = run_scenario(raw)
        assert [c["name"] for c in report.checks] == list(KNOWN_CHECKS)
        text = report.to_json()
        assert text.endswith("\n") and text.count("\n") == 1
        assert text == json.dumps(report.to_dict(), sort_keys=True) + "\n"
        assert json.loads(text) == report.to_dict()
        assert text.isascii()
        assert all(f'"\\u03c8{x}"' in text for x in range(3))
        assert json.loads(text)["scenario"]["scheme"]["pointer"]["outcomes"] == [
            "ψ0", "ψ1", "ψ2"
        ]

    def test_changing_the_dict_of_a_report_leaves_the_report_as_it_is(self):
        report = run_scenario(random_block_scenario(["free_scheme", "second_law"], n_states=2))
        text, echo = report.to_json(), copy.deepcopy(report.scenario.echo)
        d = report.to_dict()
        d["scenario"]["beta"] = 99.0
        d["checks"][0]["verdict"] = "tampered"
        d["checks"].append({"name": "extra"})
        assert report.to_json() == text
        assert report.scenario.echo == echo
        assert report.checks[0]["verdict"] is True
        assert report.to_dict() == json.loads(text)

    def test_timing_only_on_request(self):
        report = run_scenario(random_block_scenario(["free_scheme", "second_law"], n_states=1))
        assert "timing_ms" not in report.to_dict()
        assert "check_timing_ms" not in report.to_dict()
        timed = report.to_dict(include_timing=True)
        assert "timing_ms" in timed
        assert report.timing_ms > 0
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
        counts = {"dilation": 0, "moment": 0, "audit": 0, "instrument_apply": 0}

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
        monkeypatch.setattr(schemes, "_moment_defect", counted("moment", schemes._moment_defect))
        monkeypatch.setattr(
            thermo.AuditBatch, "__init__", counted("audit", thermo.AuditBatch.__init__)
        )
        monkeypatch.setattr(
            objects.Instrument, "apply", counted("instrument_apply", objects.Instrument.apply)
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
        # one dilation, shared by the instrument and the conjugate channel; the
        # states meet the instrument only in the audit, and outside it only the
        # interaction acts, on the joint Gibbs state
        assert counts == {"dilation": 1, "moment": 4, "audit": 1, "instrument_apply": 0}
        # only each outcome's Kraus stack meets the 20-state stack, once, as a
        # batch of one point, in the second law's audit; the conjugate channel's
        # heat is read off its dual; and the moments check applies the
        # interaction to the 9 x 9 joint Gibbs state
        scheme = parsed[0].scheme
        expected = scheme.instrument.kraus_sets
        shapes = [shape for _, shape in sandwiches]
        assert shapes == [(1, 20, 3, 3)] * len(expected) + [(9, 9)]
        for (ks, _), want in zip(sandwiches, expected):
            assert np.array_equal(ks, want[None])
        assert sandwiches[-1][0] is scheme.interaction.kraus

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

    def test_every_check_result_keeps_its_schema(self):
        sharp = [np.diag(np.eye(3)[x]).tolist() for x in range(3)]
        raw = {
            "beta": 1.0,
            "system_hamiltonian": [0.0, 1.0, 2.0],
            "probe_hamiltonian": [0.0, 1.0, 2.0],
            "scheme": {"kind": "swap", "pointer": {"effects": sharp}},
            "states": {"count": 3},
            "checks": list(KNOWN_CHECKS),
        }
        classifier = ["defect", "name", "tol", "verdict", "witness"]
        per_state = ["n_states", "name", "per_state", "verdict"]
        schema = {
            "free_scheme": (
                ["bistochastic_defect", "energy_conservation_defects", "gibbs_probe_ok"]
                + ["name", "tol", "verdict", "yanase_defect"],
                None,
            ),
            "second_law": (per_state + ["worst_prop1_slack"], None),
            "covariant": (classifier, ["sample_times", "sampled_time_defect", "worst_outcome"]),
            "gibbs_preserving": (classifier, ["worst_outcome"]),
            "nuclear": (classifier, ["worst_outcome"]),
            "prop2": (classifier, ["n_outcomes_tested", "worst_outcome"]),
            "quasi_complete": (classifier, ["worst_outcome", "worst_rank"]),
            "thermal_observable": (classifier, ["worst_outcome"]),
            "joint_observable": (["marginal_defect", "n_effects", "name", "tol", "verdict"], None),
            "post_processing": (
                ["energies", "matrix", "name", "reconstruction_defect", "tol", "verdict"],
                None,
            ),
            "refine": (["coarse_grain_defect", "n_refined", "name", "tol", "verdict"], None),
            "moments": (["fixed_point_defect", "moment_defects", "name", "tol", "verdict"], None),
            "skew_chain": (per_state + ["worst_slack"], None),
            "heat_duality": (per_state + ["worst_duality_defect"], None),
        }
        checks = run_scenario(raw).checks
        assert [check["name"] for check in checks] == list(schema)
        for check in checks:
            keys, witness_keys = schema[check["name"]]
            assert sorted(check) == keys, check["name"]
            if witness_keys is not None:
                assert sorted(check["witness"]) == witness_keys, check["name"]
                assert json.loads(json.dumps(check["witness"])) == check["witness"]


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

    @pytest.mark.parametrize(
        "patch,message",
        [
            (
                {"states": [], "checks": ["free_scheme"]},
                "check 'second_law' requires at least one input state",
            ),
            (
                {"scheme": None, "observable": Z_POINTER, "checks": ["thermal_observable"]},
                "check 'free_scheme' requires a scheme",
            ),
        ],
    )
    def test_template_without_inputs_is_refused_before_any_check(
        self, monkeypatch, patch, message
    ):
        def forbidden(sc, name):
            raise AssertionError("a check ran")

        monkeypatch.setattr(scenario_module, "_run_check", forbidden)
        sweep = self.swap_sweep({"name": "beta", "values": [1.0, 2.0]})
        sweep["scenario"].update(patch)
        with pytest.raises(ValidationError, match=message):
            run_sweep(sweep)

    def test_bad_axis_rejected(self):
        with pytest.raises(ValidationError, match="axis"):
            run_sweep({"axis": {"name": "gamma", "values": [1]}, "scenario": {}})

    @pytest.mark.parametrize(
        "sweep,message",
        [
            (5, "sweep: expected a JSON object at top level"),
            ([{"axis": {}}], "sweep: expected a JSON object at top level"),
            (
                {"axis": {"name": "seed", "range": [1, 2]}, "scenario": [1]},
                "sweep: 'scenario' must be an object",
            ),
            (
                {"axis": {"name": "seed", "range": [1, 2]}, "scenario": {}, "seed": 3},
                "sweep: unknown key 'seed'; allowed keys: axis, scenario",
            ),
            (
                {"axis": {"name": "seed", "rnge": [1, 2]}, "scenario": {}},
                "sweep axis: unknown key 'rnge'; allowed keys: name, values, range",
            ),
            (
                {"axis": {"name": "seed", "range": [1, 2], "values": [5]}, "scenario": {}},
                "sweep axis: give 'values' or 'range', not both",
            ),
        ],
    )
    def test_malformed_sweep_is_refused(self, tmp_path, sweep, message):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(sweep))
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            run_sweep(str(path))

    def test_grid_points_leave_the_template_alone(self):
        sweep = self.swap_sweep({"name": "beta", "values": [0.5, 2.0]})
        before = json.dumps(sweep, sort_keys=True)
        table, _ = run_sweep(sweep)
        assert json.dumps(sweep, sort_keys=True) == before
        assert [row.split(",")[3] for row in table.strip().split("\n")[1:]] == ["0.5", "2.0"]

    @pytest.mark.parametrize(
        "axis",
        [
            {"name": "seed", "range": [4, 9]},
            {"name": "beta", "values": [0.3, 1.0, 2.5, 7.0]},
        ],
    )
    @pytest.mark.parametrize(
        "states", [{"count": 3}, {"count": 2, "seed": 11}, ["gibbs", "ground"]]
    )
    def test_each_row_is_its_grid_point_run_alone(self, axis, states):
        template = {
            "seed": 2,
            "beta": 0.8,
            "system_hamiltonian": [0.0, 1.0, 2.0],
            "scheme": {
                "kind": "random_block",
                "mixture_size": 2,
                "pointer": {
                    "effects": [np.diag([1.0, 0, 0]).tolist(), np.diag([0, 1.0, 1]).tolist()]
                },
            },
            "states": states,
            "checks": ["second_law"],
        }
        table, all_pass = run_sweep({"axis": axis, "scenario": template})
        assert all_pass
        rows = [line.split(",") for line in table.strip().split("\n")[1:]]
        name = axis["name"]
        values = axis.get("values") or range(axis["range"][0], axis["range"][1] + 1)
        assert len(rows) == len(values)
        for row, value in zip(rows, values):
            point = dict(template, checks=["free_scheme", "second_law"], **{name: value})
            assert row == sweep_row(name, value, run_scenario(point))

    def test_seed_sweep_derives_the_frame_once(self, monkeypatch):
        counts = {"hamiltonian": 0, "observable": 0, "pointer_roots": 0, "total_eigh": 0}

        def counted(key, fn, keep=lambda *args: True):
            def wrapper(*args, **kwargs):
                counts[key] += bool(keep(*args))
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            scenario_module, "decode_hamiltonian",
            counted("hamiltonian", scenario_module.decode_hamiltonian),
        )
        monkeypatch.setattr(
            scenario_module, "decode_observable",
            counted("observable", scenario_module.decode_observable),
        )
        monkeypatch.setattr(schemes, "psd_sqrt", counted("pointer_roots", schemes.psd_sqrt))
        # the total Hamiltonian is the only 9 x 9 matrix a d = 3 sweep diagonalises
        monkeypatch.setattr(
            np.linalg, "eigh",
            counted("total_eigh", np.linalg.eigh, keep=lambda a: np.shape(a)[-2:] == (9, 9)),
        )
        n = 7
        sweep = {
            "axis": {"name": "seed", "range": [1, n]},
            "scenario": {
                "beta": 1.0,
                "system_hamiltonian": [0.0, 1.0, 2.0],
                "probe_hamiltonian": [0.0, 1.0, 2.0],
                "scheme": {
                    "kind": "random_block",
                    "pointer": {"effects": [np.diag(row).tolist() for row in np.eye(3)]},
                },
                "states": {"count": 1},
                "checks": ["second_law"],
            },
        }
        table, all_pass = run_sweep(sweep)
        assert all_pass and len(table.strip().split("\n")) == n + 1
        assert counts == {"hamiltonian": 2, "observable": 1, "pointer_roots": 1, "total_eigh": 1}

    def test_seed_override_on_a_seed_axis_is_refused(self):
        sweep = {
            "axis": {"name": "seed", "range": [0, 3]},
            "scenario": random_block_scenario(["second_law"], n_states=1),
        }
        conflict = r"^sweep: the seed override \(5\) conflicts with the 'seed' axis"
        with pytest.raises(ValidationError, match=conflict):
            run_sweep(sweep, seed=5)
        table, _ = run_sweep(dict(sweep, axis={"name": "beta", "values": [1.0, 2.0]}), seed=5)
        assert [row.split(",")[2] for row in table.strip().split("\n")[1:]] == ["5", "5"]

    @pytest.mark.parametrize(
        "values,message",
        [
            ([1, 2, -1], "axis.beta[2]: beta must be positive and finite, got -1.0"),
            ([0.5, float("nan")], "axis.beta[1]: beta must be positive and finite, got nan"),
            ([0, 1], "axis.beta[0]: beta must be positive and finite, got 0.0"),
            ([1, "2"], "axis.beta[1]: expected a number, got '2'"),
        ],
    )
    def test_bad_axis_value_is_refused_before_any_point(self, monkeypatch, values, message):
        def forbidden(*args, **kwargs):
            raise AssertionError("a grid point was derived")

        monkeypatch.setattr(scenario_module.Scenario, "derive", forbidden)
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            run_sweep(self.swap_sweep({"name": "beta", "values": values}))

    def test_refusal_at_a_grid_point_names_its_axis_value(self):
        sweep = {"axis": {"name": "seed", "values": [3, 8]}, "scenario": REFINE_REFUSED}
        # the top-level observable is refined once, with the template, before any grid point
        with pytest.raises(
            ValidationError, match=r"^check 'refine': rank-1 refinement refused: effects sum"
        ):
            run_sweep(sweep)
