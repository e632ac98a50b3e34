"""Stress cases off the happy path: rotated bases, unequal dimensions, null effects."""

import json
import subprocess
import sys

import numpy as np
import pytest

from oracles import direct_instrument_action, direct_probe_state
from thermomeas.errors import ValidationError
from thermomeas.linalg import dag, frobenius
from thermomeas.objects import Instrument, Observable, gibbs_state, spectral_observable
from thermomeas.sampling import haar_unitary, random_density_matrix, rng_from_seed
from thermomeas.scenario import parse_scenario
from thermomeas.schemes import (
    MeasurementScheme,
    conjugate_channel,
    induced_instrument,
    random_free_scheme,
    swap_channel,
    validate_free_scheme,
)
from thermomeas.thermo import (
    groenewold_gain,
    heat_absorbed,
    outcome_divergence,
    second_law_report,
    work_report,
)
from thermomeas.classify import is_covariant_instrument, is_gibbs_preserving, is_nuclear, is_quasi_complete


H2 = np.diag([0.0, 1.0]).astype(complex)


def rotated(h, u):
    return u @ h @ dag(u)


class TestRotatedBases:
    """Nothing may depend on Hamiltonians being diagonal."""

    @pytest.mark.parametrize("seed", range(3))
    def test_free_scheme_in_rotated_bases(self, seed):
        rng = rng_from_seed(seed)
        u_sys = haar_unitary(2, rng)
        u_probe = haar_unitary(2, rng)
        h_sys = rotated(np.diag([0.0, 1.0]).astype(complex), u_sys)
        h_probe = rotated(np.diag([0.0, 1.0]).astype(complex), u_probe)
        pointer = spectral_observable(h_probe)
        scheme = random_free_scheme(h_sys, h_probe, 1.0, pointer, seed=60 + seed)
        report = validate_free_scheme(scheme)
        assert report.verdict, report.to_dict()

        ins = induced_instrument(scheme)
        rho = random_density_matrix(2, rng)
        for out, ref in zip(ins.apply(rho), direct_instrument_action(scheme, rho)):
            assert frobenius(out - ref) < 1e-12

        tau = scheme.system_gibbs
        q = ins.induced_observable.probabilities(tau)
        for qx, out in zip(q, ins.apply(tau)):
            assert frobenius(out - qx * tau.matrix) < 1e-8
        assert is_covariant_instrument(ins, h_sys).verdict
        law, _ = second_law_report(scheme, rho)
        assert law.verdict


class TestUnequalDimensions:
    """Qubit system, qutrit probe: the conjugate channel is genuinely rectangular."""

    def build(self, seed=31, beta=0.9):
        h_sys = np.diag([0.0, 1.0]).astype(complex)
        h_probe = np.diag([0.0, 1.0, 2.0]).astype(complex)  # shares the level spacing
        pointer = spectral_observable(h_probe)
        return random_free_scheme(h_sys, h_probe, beta, pointer, seed=seed, mixture_size=2)

    def test_scheme_validates(self):
        assert validate_free_scheme(self.build()).verdict

    def test_instrument_matches_direct_formula(self):
        scheme = self.build()
        ins = induced_instrument(scheme)
        assert ins.dim == 2
        rho = random_density_matrix(2, rng_from_seed(1))
        for out, ref in zip(ins.apply(rho), direct_instrument_action(scheme, rho)):
            assert frobenius(out - ref) < 1e-12

    def test_conjugate_channel_shape_and_action(self):
        scheme = self.build()
        lam = conjugate_channel(scheme)
        assert (lam.dim_out, lam.dim_in) == (3, 2)
        rho = random_density_matrix(2, rng_from_seed(2))
        np.testing.assert_allclose(lam.apply(rho), direct_probe_state(scheme, rho), atol=1e-12)

    def test_heat_duality_and_second_law(self):
        scheme = self.build()
        rng = rng_from_seed(3)
        for _ in range(5):
            rho = random_density_matrix(2, rng)
            assert heat_absorbed(scheme, rho).duality_defect < 1e-8
            law, _ = second_law_report(scheme, rho)
            assert law.verdict

    def test_gibbs_preservation(self):
        scheme = self.build()
        ins = induced_instrument(scheme)
        assert is_gibbs_preserving(ins, scheme.system_hamiltonian, scheme.beta).verdict


class TestNullEffects:
    def test_zero_effect_outcome_is_skipped_everywhere(self):
        zero = np.zeros((2, 2), dtype=complex)
        obs = Observable(["all", "never"], [np.eye(2), zero])
        rho = random_density_matrix(2, rng_from_seed(4))
        assert abs(outcome_divergence(obs, rho, np.diag([0.0, 1.0]), 1.0)) < 1e-14

        ins = Instrument(["all", "never"], [[np.eye(2)], [zero]])
        assert abs(groenewold_gain(ins, rho)) < 1e-12
        assert is_quasi_complete(ins).verdict
        nuclear = is_nuclear(ins)
        assert "never" not in nuclear.witness.get("sigmas", {})

    def test_probabilities_sum_with_null_outcome(self):
        zero = np.zeros((2, 2), dtype=complex)
        ins = Instrument(["all", "never"], [[np.eye(2)], [zero]])
        rho = random_density_matrix(2, rng_from_seed(5))
        probs = ins.probabilities(rho)
        assert abs(probs.sum() - 1.0) < 1e-12
        assert probs[1] == 0.0


class TestCliNonFreeScheme:
    def test_second_law_on_non_free_scheme_is_input_error(self, tmp_path):
        from thermomeas.scenario import encode_matrix

        u = haar_unitary(4, rng_from_seed(6))
        scenario = {
            "beta": 1.0,
            "system_hamiltonian": [0.0, 1.0],
            "probe_hamiltonian": [0.0, 1.0],
            "scheme": {
                "kind": "kraus",
                "kraus": [encode_matrix(u)],
                "pointer": {
                    "outcomes": ["0", "1"],
                    "effects": [
                        [[[1, 0], [0, 0]], [[0, 0], [0, 0]]],
                        [[[0, 0], [0, 0]], [[0, 0], [1, 0]]],
                    ],
                },
            },
            "checks": ["second_law"],
        }
        path = tmp_path / "nonfree.json"
        path.write_text(json.dumps(scenario))
        result = subprocess.run(
            [sys.executable, "-m", "thermomeas", "check", str(path)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 2
        assert "not thermodynamically free" in json.loads(result.stderr)["error"]

    def test_free_scheme_check_on_non_free_scheme_is_verdict_false(self, tmp_path):
        # asking *whether* a scheme is free is a diagnosis, not a precondition
        from thermomeas.scenario import encode_matrix

        u = haar_unitary(4, rng_from_seed(7))
        scenario = {
            "beta": 1.0,
            "system_hamiltonian": [0.0, 1.0],
            "probe_hamiltonian": [0.0, 1.0],
            "scheme": {
                "kind": "kraus",
                "kraus": [encode_matrix(u)],
                "pointer": {
                    "outcomes": ["0", "1"],
                    "effects": [
                        [[[1, 0], [0, 0]], [[0, 0], [0, 0]]],
                        [[[0, 0], [0, 0]], [[0, 0], [1, 0]]],
                    ],
                },
            },
            "checks": ["free_scheme"],
        }
        path = tmp_path / "nonfree2.json"
        path.write_text(json.dumps(scenario))
        result = subprocess.run(
            [sys.executable, "-m", "thermomeas", "check", str(path)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 1
        assert json.loads(result.stdout)["verdict"] is False


class TestToleranceKnobs:
    def test_cluster_tolerance_controls_degeneracy(self):
        from thermomeas.linalg import CLUSTER_TOL, eig_hermitian

        # gaps below CLUSTER_TOL (relative to the spectral range) merge, larger ones do not
        h = np.diag([0.0, 1e-5, 1.0]).astype(complex)
        assert eig_hermitian(h).multiplicities == (1, 1, 1)
        h = np.diag([0.0, CLUSTER_TOL / 10, 1.0]).astype(complex)
        assert eig_hermitian(h).multiplicities == (2, 1)

    def test_support_tolerance_controls_infinity(self):
        import math

        from thermomeas.linalg import SUPPORT_TOL, relative_entropy

        rho = np.eye(2) / 2
        # an eigenvalue of sigma at or below SUPPORT_TOL is outside its support
        sigma = np.diag([1.0 - 1e-12, 1e-12])
        assert relative_entropy(rho, sigma) == math.inf
        sigma = np.diag([1.0 - 100 * SUPPORT_TOL, 100 * SUPPORT_TOL])
        assert math.isfinite(relative_entropy(rho, sigma))

    def test_cli_tol_override_reaches_checks(self, tmp_path):
        scenario = {
            "beta": 1.0,
            "system_hamiltonian": [0.0, 1.0],
            "scheme": {
                "kind": "random_block",
                "pointer": {
                    "outcomes": ["0", "1"],
                    "effects": [
                        [[[1, 0], [0, 0]], [[0, 0], [0, 0]]],
                        [[[0, 0], [0, 0]], [[0, 0], [1, 0]]],
                    ],
                },
            },
            "checks": ["free_scheme"],
        }
        path = tmp_path / "s.json"
        path.write_text(json.dumps(scenario))
        ok = subprocess.run(
            [sys.executable, "-m", "thermomeas", "check", str(path)],
            capture_output=True, text=True,
        )
        assert ok.returncode == 0
        # machine-precision defects cannot beat an absurdly tight tolerance
        tight = subprocess.run(
            [sys.executable, "-m", "thermomeas", "check", str(path), "--tol", "1e-20"],
            capture_output=True, text=True,
        )
        assert tight.returncode == 1


class TestInverseTemperature:
    """Every library entry point that takes a beta refuses the same values with one message."""

    @pytest.mark.parametrize("beta", [0.0, -1.0, float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "build",
        [
            lambda beta: gibbs_state(H2, beta),
            lambda beta: MeasurementScheme(H2, H2, beta, swap_channel(2), spectral_observable(H2)),
            lambda beta: work_report(Instrument.luders(spectral_observable(H2)), np.eye(2) / 2, H2, beta),
        ],
        ids=["gibbs_state", "MeasurementScheme", "work_report"],
    )
    def test_non_positive_or_non_finite_beta_is_refused(self, build, beta):
        with pytest.raises(ValidationError, match="inverse temperature must be positive and finite"):
            build(beta)


# An effect 1.4e-7 from Hermitian and an interaction 1.4e-7 from trace preserving:
# refused at the default validation tolerance, accepted at tolerances.validation = 1e-6.
SKEWED_OBSERVABLE = {
    "outcomes": ["0", "1"],
    "effects": [[[1, 1e-7], [0, 0]], [[0, -1e-7], [0, 1]]],
}
STRETCH = 1 + 3.5e-8  # ||K^dag K - 1||_F = 4 * 3.5e-8 on the 4-dimensional joint space
SLOPPY_KRAUS_SCHEME = {
    "kind": "kraus",
    "kraus": [[[STRETCH if i == j else 0.0 for j in range(4)] for i in range(4)]],
    "pointer": {
        "outcomes": ["0", "1"],
        "effects": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]],
    },
}


class TestValidationTolerance:
    """``tolerances.validation`` is what sets the observable and Kraus channel tolerances."""

    @staticmethod
    def scenario(case, tolerances=None):
        raw = {"beta": 1.0, "system_hamiltonian": [0.0, 1.0]}
        if case == "observable":
            raw.update(observable=SKEWED_OBSERVABLE, checks=["thermal_observable"])
        else:
            raw.update(scheme=SLOPPY_KRAUS_SCHEME, checks=["free_scheme"])
        if tolerances is not None:
            raw["tolerances"] = tolerances
        return raw

    def run_cli(self, tmp_path, raw):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(raw))
        return subprocess.run(
            [sys.executable, "-m", "thermomeas", "check", str(path)], capture_output=True, text=True
        )

    @pytest.mark.parametrize(
        "case,defect", [("observable", "not Hermitian"), ("kraus", "not trace preserving")]
    )
    def test_default_tolerance_refuses(self, tmp_path, case, defect):
        with pytest.raises(ValidationError, match=defect):
            parse_scenario(self.scenario(case))
        result = self.run_cli(tmp_path, self.scenario(case))
        assert result.returncode == 2
        assert defect in json.loads(result.stderr)["error"]

    @pytest.mark.parametrize("case", ["observable", "kraus"])
    def test_loosened_tolerance_accepts(self, tmp_path, case):
        loose = {"validation": 1e-6}
        sc = parse_scenario(self.scenario(case, loose))
        assert sc.tolerances["validation"] == 1e-6
        # accepted, then judged: each defect still exceeds the 1e-8 theorem tolerance
        result = self.run_cli(tmp_path, self.scenario(case, loose))
        assert result.returncode == 1, result.stderr
        (check,) = json.loads(result.stdout)["checks"]
        assert check["verdict"] is False


class TestLargerDimensions:
    def test_four_by_four_resonant_pair(self):
        h = np.diag([0.0, 1.0, 2.0, 3.0]).astype(complex)
        pointer = spectral_observable(h)
        scheme = random_free_scheme(h, h, 0.6, pointer, seed=77, mixture_size=2)
        assert validate_free_scheme(scheme).verdict
        ins = induced_instrument(scheme)
        rho = random_density_matrix(4, rng_from_seed(8))
        for out, ref in zip(ins.apply(rho), direct_instrument_action(scheme, rho)):
            assert frobenius(out - ref) < 1e-11
        law, _ = second_law_report(scheme, rho)
        assert law.verdict
        assert is_covariant_instrument(ins, h).verdict
