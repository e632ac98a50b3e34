import json
import subprocess
import sys

import pytest

SCENARIO_PASS = {
    "schema_version": 1,
    "seed": 7,
    "beta": 1.0,
    "system_hamiltonian": [0.0, 1.0],
    "scheme": {
        "kind": "random_block",
        "mixture_size": 2,
        "pointer": {
            "outcomes": ["z0", "z1"],
            "effects": [
                [[[1, 0], [0, 0]], [[0, 0], [0, 0]]],
                [[[0, 0], [0, 0]], [[0, 0], [1, 0]]],
            ],
        },
    },
    "states": {"count": 5, "seed": 3},
    "checks": ["free_scheme", "second_law", "gibbs_preserving"],
}

SCENARIO_FAIL = {
    "beta": 1.0,
    "system_hamiltonian": [0.0, 1.0],
    "observable": {
        "outcomes": ["p", "m"],
        "effects": [
            [[[0.5, 0], [0.5, 0]], [[0.5, 0], [0.5, 0]]],
            [[[0.5, 0], [-0.5, 0]], [[-0.5, 0], [0.5, 0]]],
        ],
    },
    "checks": ["thermal_observable", "covariant"],
}

SWEEP_POINTER = {
    "outcomes": ["0", "1"],
    "effects": [
        [[[1, 0], [0, 0]], [[0, 0], [0, 0]]],
        [[[0, 0], [0, 0]], [[0, 0], [1, 0]]],
    ],
}

SWEEP = {
    "axis": {"name": "beta", "values": [0.5, 1.0, 2.0]},
    "scenario": {
        "beta": 1.0,
        "system_hamiltonian": [0.0, 1.0],
        "scheme": {"kind": "swap", "pointer": SWEEP_POINTER},
        "states": ["ground"],
        "checks": ["second_law"],
    },
}


def cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "thermomeas", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(SCENARIO_PASS))
    return path


class TestCheckCommand:
    def test_passing_scenario_exits_zero(self, scenario_file):
        result = cli("check", str(scenario_file))
        assert result.returncode == 0
        report = json.loads(result.stdout)
        assert report["verdict"] is True
        assert report["schema_version"] == 1
        assert "timing_ms" not in report
        assert "check_timing_ms" not in report

    def test_reports_are_byte_reproducible(self, scenario_file, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        first = cli("check", str(scenario_file), "--out", str(out1))
        second = cli("check", str(scenario_file), "--out", str(out2))
        assert first.returncode == second.returncode == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert "second_law: PASS" in first.stdout

    def test_timing_flag_adds_field(self, scenario_file):
        result = cli("check", str(scenario_file), "--timing")
        assert result.returncode == 0
        report = json.loads(result.stdout)
        assert "timing_ms" in report
        per_check = report["check_timing_ms"]
        assert sorted(per_check) == sorted(SCENARIO_PASS["checks"])
        assert all(ms >= 0 for ms in per_check.values())
        assert sum(per_check.values()) <= report["timing_ms"]
        untimed = cli("check", str(scenario_file))
        assert untimed.stdout == json.dumps(
            {k: v for k, v in report.items() if k not in ("timing_ms", "check_timing_ms")},
            indent=2, sort_keys=True,
        ) + "\n"

    def test_failing_scenario_exits_one(self, tmp_path):
        path = tmp_path / "fail.json"
        path.write_text(json.dumps(SCENARIO_FAIL))
        result = cli("check", str(path))
        assert result.returncode == 1
        report = json.loads(result.stdout)
        assert report["verdict"] is False

    def test_seed_override_changes_report(self, scenario_file):
        base = cli("check", str(scenario_file))
        other = cli("check", str(scenario_file), "--seed", "99")
        assert json.loads(base.stdout)["scenario"]["seed"] == 7
        assert json.loads(other.stdout)["scenario"]["seed"] == 99

    def test_malformed_json_exits_two(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{ not json")
        result = cli("check", str(path))
        assert result.returncode == 2
        error = json.loads(result.stderr)
        assert "line" in error["error"]

    def test_unknown_check_exits_two(self, tmp_path):
        scenario = dict(SCENARIO_PASS, checks=["nope"])
        path = tmp_path / "unknown.json"
        path.write_text(json.dumps(scenario))
        result = cli("check", str(path))
        assert result.returncode == 2
        assert "unknown check" in json.loads(result.stderr)["error"]

    def test_jobs_flag_is_gone(self, scenario_file):
        assert cli("check", "--jobs", "2", str(scenario_file)).returncode == 2

    def test_non_finite_hamiltonian_exits_two(self, tmp_path):
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(dict(SCENARIO_PASS, system_hamiltonian=[0.0, float("nan")])))
        assert "NaN" in path.read_text()
        result = cli("check", str(path))
        assert result.returncode == 2
        assert result.stdout == ""
        assert "system_hamiltonian has non-finite" in json.loads(result.stderr)["error"]

    def test_huge_state_count_is_refused_promptly(self, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(dict(SCENARIO_PASS, states={"count": 10**12})))
        result = subprocess.run(
            [sys.executable, "-m", "thermomeas", "check", str(path)],
            capture_output=True, text=True, timeout=60,
        )
        assert result.returncode == 2
        assert "states.count" in json.loads(result.stderr)["error"]

    @pytest.mark.parametrize(
        "field,patch",
        [
            ("beta", {"beta": [1]}),
            ("seed", {"seed": {}}),
            ("tolerances.default", {"tolerances": {"default": None}}),
            ("states.count", {"states": {"count": None}}),
        ],
    )
    def test_wrong_typed_scalar_exits_two(self, tmp_path, field, patch):
        path = tmp_path / "typed.json"
        path.write_text(json.dumps(dict(SCENARIO_PASS, **patch)))
        result = cli("check", str(path))
        assert result.returncode == 2
        assert result.stdout == ""
        assert json.loads(result.stderr)["error"].startswith(f"{field}: expected a number")

    @pytest.mark.parametrize(
        "field,patch",
        [
            ("states.count", {"states": {"count": 2.7}}),
            ("seed", {"seed": 3.9}),
            ("beta", {"beta": True}),
            ("beta", {"beta": "2.5"}),
        ],
    )
    def test_inexact_scalar_exits_two(self, tmp_path, field, patch):
        path = tmp_path / "inexact.json"
        path.write_text(json.dumps(dict(SCENARIO_PASS, **patch)))
        result = cli("check", str(path))
        assert result.returncode == 2
        assert result.stdout == ""
        assert json.loads(result.stderr)["error"].startswith(f"{field}: expected a")

    @pytest.mark.parametrize(
        "hamiltonian,message",
        [
            ([[[1, "x"]]], "system_hamiltonian row 0 column 0: matrix entries must be"),
            ([[[None, 0]]], "system_hamiltonian row 0 column 0: matrix entries must be"),
            ([True, False], "system_hamiltonian entry 0: expected a number, got True"),
            ([[[[1], 0]]], "system_hamiltonian row 0 column 0: matrix entries must be"),
        ],
    )
    def test_malformed_matrix_entry_exits_two_naming_it(self, tmp_path, hamiltonian, message):
        path = tmp_path / "entry.json"
        path.write_text(json.dumps(dict(SCENARIO_PASS, system_hamiltonian=hamiltonian)))
        result = cli("check", str(path))
        assert result.returncode == 2
        assert result.stdout == ""
        assert "Traceback" not in result.stderr
        assert json.loads(result.stderr)["error"].startswith(message)

    def test_invalid_state_in_the_middle_exits_two_naming_it(self, tmp_path):
        states = [
            "gibbs",
            {"name": "fine", "matrix": [[0.5, 0], [0, 0.5]]},
            {"name": "negative", "matrix": [[1.5, 0], [0, -0.5]]},
            "ground",
        ]
        path = tmp_path / "bad_state.json"
        path.write_text(json.dumps(dict(SCENARIO_PASS, states=states)))
        result = cli("check", str(path))
        assert result.returncode == 2
        assert result.stdout == ""
        error = json.loads(result.stderr)["error"]
        assert error.startswith("state 'negative': ")
        assert "negative eigenvalue -5.000e-01" in error

    @pytest.mark.parametrize(
        "patch,message",
        [
            ({"tolerance": {"default": 1e-3}}, "scenario: unknown key 'tolerance'"),
            ({"states": {"cont": 5}}, "states: unknown key 'cont'"),
            ({"tolerances": {"second_lw": 1e-3}}, "tolerances: unknown key 'second_lw'"),
            (
                {"scheme": dict(SCENARIO_PASS["scheme"], mixture=1)},
                "scheme 'random_block': unknown key 'mixture'",
            ),
            ({"tolerances": {"default": -1}}, "tolerance 'default' must be finite and non-neg"),
            ({"tolerances": {"validation": 1e-6}}, "tolerances.validation: "),
            (
                {
                    "scheme": {"kind": "swap", "pointer": SCENARIO_PASS["scheme"]["pointer"]},
                    "probe_hamiltonian": [0.0, 5.0],
                },
                "scheme 'swap': probe_hamiltonian must equal system_hamiltonian",
            ),
            ({"states": []}, "check 'second_law' requires at least one input state"),
            (
                {
                    "scheme": dict(
                        SCENARIO_PASS["scheme"],
                        pointer={"outcome": ["a", "b"], "effects": SWEEP_POINTER["effects"]},
                    )
                },
                "scheme.pointer: unknown key 'outcome'",
            ),
            (
                {"states": [{"nam": "odd", "matrix": [[0.5, 0], [0, 0.5]]}]},
                "states[0]: unknown key 'nam'",
            ),
            (
                {"scheme": dict(SCENARIO_PASS["scheme"], pointer={"effects": 5})},
                "scheme.pointer: 'effects' must be a list, got int",
            ),
            ({"observable": {"effects": 5}}, "observable: 'effects' must be a list, got int"),
            (
                {"scheme": dict(SCENARIO_PASS["scheme"], pointer=dict(SWEEP_POINTER, outcomes=5))},
                "scheme.pointer: 'outcomes' must be a list, got int",
            ),
            (
                {"observable": dict(SWEEP_POINTER, outcomes="ab")},
                "observable: 'outcomes' must be a list, got str",
            ),
            (
                {"scheme": {"kind": "kraus", "kraus": 5, "pointer": SWEEP_POINTER}},
                "channel: 'kraus' must be a list, got int",
            ),
            (
                {"scheme": dict(SCENARIO_PASS["scheme"], mixture_size=101)},
                "scheme.mixture_size must be at most 100, got 101",
            ),
        ],
    )
    def test_refused_input_exits_two_naming_it(self, tmp_path, patch, message):
        path = tmp_path / "refused.json"
        path.write_text(json.dumps(dict(SCENARIO_PASS, **patch)))
        result = cli("check", str(path))
        assert result.returncode == 2
        assert result.stdout == ""
        assert "Traceback" not in result.stderr
        assert json.loads(result.stderr)["error"].startswith(message)

    def test_refused_refinement_exits_two_before_any_check(self, tmp_path):
        # both effects validate, but the rank-1 refinement drops the -9e-10
        # eigenvalues and so lies 1.27e-9 from complete
        scenario = {
            "beta": 1.0,
            "system_hamiltonian": [0.0, 1.0, 2.0, 3.0],
            "scheme": {
                "kind": "random_block",
                "pointer": {
                    "effects": [
                        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
                        [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
                    ]
                },
            },
            "observable": {
                "effects": [
                    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -9e-10, 0], [0, 0, 0, -9e-10]],
                    [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1 + 9e-10, 0], [0, 0, 0, 1 + 9e-10]],
                ]
            },
            "checks": ["thermal_observable", "refine"],
        }
        path = tmp_path / "refine.json"
        path.write_text(json.dumps(scenario))
        result = cli("check", str(path), "--out", str(tmp_path / "report.json"))
        assert result.returncode == 2
        assert result.stdout == ""  # no check ran, so none printed its status
        assert json.loads(result.stderr)["error"] == (
            "check 'refine': rank-1 refinement refused: "
            "effects sum differs from identity by 1.273e-09 > 1.0e-09"
        )

    def test_missing_file_exits_two(self, tmp_path):
        result = cli("check", str(tmp_path / "absent.json"))
        assert result.returncode == 2


class TestSweepCommand:
    def test_sweep_to_stdout(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(SWEEP))
        result = cli("sweep", str(path))
        assert result.returncode == 0
        lines = result.stdout.strip().split("\n")
        assert len(lines) == 4
        assert lines[0].startswith("axis,axis_value,seed,beta,state,extractable_work")

    def test_sweep_to_file_reproducible(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(SWEEP))
        out1, out2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
        assert cli("sweep", str(path), "--out", str(out1)).returncode == 0
        assert cli("sweep", str(path), "--out", str(out2)).returncode == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_empty_axis_exits_two(self, tmp_path):
        sweep = dict(SWEEP, axis={"name": "beta", "values": []})
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(sweep))
        result = cli("sweep", str(path))
        assert result.returncode == 2
        assert result.stdout == ""
        assert "sweep grid" in json.loads(result.stderr)["error"]

    def test_template_without_states_exits_two(self, tmp_path):
        sweep = dict(SWEEP, scenario=dict(SWEEP["scenario"], states=[], checks=["free_scheme"]))
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(sweep))
        result = cli("sweep", str(path))
        assert result.returncode == 2
        assert result.stdout == ""
        assert "'second_law' requires at least one input state" in json.loads(result.stderr)["error"]

    @pytest.mark.parametrize(
        "sweep,message",
        [
            (5, "sweep: expected a JSON object at top level"),
            (
                {"axis": {"name": "seed", "range": [1, 2]}, "scenario": [1]},
                "sweep: 'scenario' must be an object",
            ),
            (
                dict(SWEEP, axis={"name": "seed", "range": [1, 2], "values": [5]}),
                "sweep axis: give 'values' or 'range', not both",
            ),
            (dict(SWEEP, axes={}), "sweep: unknown key 'axes'"),
        ],
    )
    def test_malformed_sweep_exits_two(self, tmp_path, sweep, message):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(sweep))
        result = cli("sweep", str(path))
        assert result.returncode == 2
        assert result.stdout == ""
        assert "Traceback" not in result.stderr
        assert json.loads(result.stderr)["error"].startswith(message)

    def test_seed_flag_on_a_seed_axis_exits_two(self, tmp_path):
        sweep = {"axis": {"name": "seed", "range": [0, 3]}, "scenario": SCENARIO_PASS}
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(sweep))
        result = cli("sweep", str(path), "--seed", "5")
        assert result.returncode == 2
        assert result.stdout == ""
        error = json.loads(result.stderr)["error"]
        assert error.startswith("sweep: the seed override (5) conflicts with the 'seed' axis")
        result = cli("sweep", str(path))
        assert result.returncode == 0
        rows = result.stdout.strip().split("\n")[1:]
        assert [row.split(",")[2] for row in rows] == ["0", "1", "2", "3"]
        assert len(set(row.split(",", 3)[3] for row in rows)) == 4  # four distinct schemes

    @pytest.mark.parametrize(
        "values,message",
        [
            ([1, 2, -1], "axis.beta[2]: beta must be positive and finite, got -1.0"),
            ([1, float("nan")], "axis.beta[1]: beta must be positive and finite, got nan"),
        ],
    )
    def test_bad_beta_on_the_axis_exits_two_before_any_row(self, tmp_path, values, message):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(dict(SWEEP, axis={"name": "beta", "values": values})))
        out = tmp_path / "table.csv"
        result = cli("sweep", str(path), "--out", str(out))
        assert result.returncode == 2
        assert not out.exists()
        assert json.loads(result.stderr)["error"] == message

    def test_sweep_input_error(self, tmp_path):
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"axis": {"name": "beta", "values": [1.0]}}))
        result = cli("sweep", str(path))
        assert result.returncode == 2


def test_version_flag():
    result = cli("--version")
    assert result.returncode == 0
    assert "thermomeas" in result.stdout


def scheme_d8(seed: int) -> dict:
    """The benchmark's d = 8 scheme check: a lower and an upper half as the pointer."""
    energies = [float(e) for e in range(8)]
    halves = [[[1.0 if i == j and (i < 4) == low else 0.0 for j in range(8)] for i in range(8)]
              for low in (True, False)]
    return {
        "seed": seed,
        "beta": 1.0,
        "system_hamiltonian": energies,
        "probe_hamiltonian": energies,
        "scheme": {
            "kind": "random_block",
            "mixture_size": 3,
            "pointer": {"outcomes": ["low", "high"], "effects": halves},
        },
        "states": ["gibbs"],
        "checks": ["free_scheme", "moments", "covariant", "gibbs_preserving",
                   "thermal_observable", "joint_observable", "post_processing", "refine"],
    }


def test_a_zero_tolerance_reports_its_verdicts(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scheme_d8(0)))
    result = cli("check", str(path), "--tol", "0")
    assert result.returncode == 1, result.stderr
    checks = {check["name"]: check for check in json.loads(result.stdout)["checks"]}
    assert list(checks) == scheme_d8(0)["checks"]
    joint = checks["joint_observable"]
    assert joint["tol"] == 0.0 and joint["verdict"] == (joint["marginal_defect"] <= 0.0)
    assert cli("check", str(path)).returncode == 0


def sharp_scenario(d: int, states, checks) -> dict:
    """A benchmark-style d x d random block scheme with one pointer outcome per level."""
    energies = [float(e) for e in range(d)]
    sharp = [[[1.0 if i == j == k else 0.0 for j in range(d)] for i in range(d)] for k in range(d)]
    return {
        "seed": 0,
        "beta": 1.0,
        "system_hamiltonian": energies,
        "probe_hamiltonian": energies,
        "scheme": {
            "kind": "random_block",
            "mixture_size": 3,
            "pointer": {"outcomes": [f"p{k}" for k in range(d)], "effects": sharp},
        },
        "states": states,
        "checks": checks,
    }


def test_a_zero_tolerance_audits_the_second_law_of_a_free_scheme(tmp_path):
    # the d = 4 audit: its freeness defects are round-off, above 0 but not a refusal
    path = tmp_path / "scenario.json"
    checks = ["free_scheme", "second_law", "covariant", "gibbs_preserving", "skew_chain",
              "heat_duality"]
    path.write_text(json.dumps(sharp_scenario(4, {"count": 200}, checks)))
    result = cli("check", str(path), "--tol", "0")
    assert result.returncode == 1, result.stderr
    report = {check["name"]: check for check in json.loads(result.stdout)["checks"]}
    assert list(report) == checks
    assert report["free_scheme"]["verdict"] is False
    law = report["second_law"]
    assert law["n_states"] == 200
    assert law["verdict"] == all(row["second_law"]["verdict"] for row in law["per_state"])
    assert cli("check", str(path)).returncode == 0


def test_a_zero_tolerance_sweep_gives_every_row_its_verdicts(tmp_path):
    path = tmp_path / "sweep.json"
    scenario = sharp_scenario(3, {"count": 1}, ["second_law"])
    path.write_text(json.dumps({"axis": {"name": "seed", "range": [0, 399]}, "scenario": scenario}))
    result, loose = cli("sweep", str(path), "--tol", "0"), cli("sweep", str(path))
    assert (result.returncode, loose.returncode) == (1, 0), result.stderr
    rows = [line.split(",") for line in result.stdout.strip().split("\n")]
    assert len(rows) == 401 and {row[14] for row in rows[1:]} == {"False"}
    # the tolerance moves only the verdict columns
    assert [row[:14] for row in rows] == [
        line.split(",")[:14] for line in loose.stdout.strip().split("\n")
    ]


@pytest.mark.parametrize("command", ["check", "sweep"])
def test_an_input_that_is_a_directory_exits_two_naming_it(tmp_path, command):
    result = cli(command, str(tmp_path))
    assert result.returncode == 2
    assert result.stdout == "" and "Traceback" not in result.stderr
    assert json.loads(result.stderr)["error"] == f"cannot open {str(tmp_path)!r}: Is a directory"


@pytest.mark.parametrize("command", ["check", "sweep"])
def test_an_input_that_is_not_utf8_exits_two_naming_it(tmp_path, command):
    path = tmp_path / "input.json"
    path.write_bytes(b'\xff{"beta": 1.0}')
    result = cli(command, str(path))
    assert result.returncode == 2
    assert result.stdout == "" and "Traceback" not in result.stderr
    assert json.loads(result.stderr)["error"] == (
        f"{str(path)!r} is not UTF-8 text: 'utf-8' codec can't decode byte 0xff "
        "in position 0: invalid start byte"
    )
