"""Stress cases off the happy path: rotated bases, unequal dimensions, null effects,
and free scenarios across temperature."""

import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import direct_instrument_action, direct_probe_state
from thermomeas.errors import PreconditionError, ValidationError
from thermomeas.linalg import THEOREM_TOL, dag, frobenius
from thermomeas.objects import Instrument, Observable, gibbs_state, spectral_observable
from thermomeas.sampling import haar_unitary, random_density_matrix, rng_from_seed
from thermomeas.scenario import parse_scenario, run_scenario
from thermomeas.schemes import (
    MeasurementScheme,
    SchemeFrame,
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
        scheme = random_free_scheme(SchemeFrame(h_sys, h_probe, 1.0, pointer), seed=60 + seed)
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
        frame = SchemeFrame(h_sys, h_probe, beta, pointer)
        return random_free_scheme(frame, seed=seed, mixture_size=2)

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
        probs = np.trace(ins.apply(rho), axis1=1, axis2=2).real
        np.testing.assert_allclose(probs, ins.induced_observable.probabilities(rho), atol=1e-14)
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
            lambda beta: MeasurementScheme(
                SchemeFrame(H2, H2, beta, spectral_observable(H2)), swap_channel(2)
            ),
            lambda beta: work_report(Instrument.luders(spectral_observable(H2)), np.eye(2) / 2, H2, beta),
        ],
        ids=["gibbs_state", "MeasurementScheme", "work_report"],
    )
    def test_non_positive_or_non_finite_beta_is_refused(self, build, beta):
        with pytest.raises(ValidationError, match="inverse temperature must be positive and finite"):
            build(beta)


# An effect 1.4e-7 from Hermitian and an interaction 1.4e-7 from trace preserving:
# refused at the validation tolerance, which a scenario cannot loosen.
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
    """Parsed observables and Kraus channels validate at ``VALIDATION_TOL``, as derived ones do."""

    @staticmethod
    def scenario(case, tolerances=None, checks=("free_scheme",)):
        raw = {"beta": 1.0, "system_hamiltonian": [0.0, 1.0]}
        if case == "observable":
            raw.update(observable=SKEWED_OBSERVABLE, checks=["thermal_observable"])
        else:
            raw.update(scheme=SLOPPY_KRAUS_SCHEME, checks=list(checks))
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

    @pytest.mark.parametrize(
        "case,checks",
        [
            ("observable", ()),
            ("kraus", ("free_scheme",)),
            ("kraus", ("free_scheme", "covariant")),
            ("kraus", ("free_scheme", "second_law")),
        ],
    )
    def test_loosened_tolerance_is_refused(self, tmp_path, case, checks):
        raw = self.scenario(case, {"validation": 1e-6}, checks)
        with pytest.raises(ValidationError, match=r"^tolerances\.validation: .* got 1e-06$"):
            parse_scenario(raw)
        result = self.run_cli(tmp_path, raw)
        assert result.returncode == 2
        assert result.stdout == ""
        assert json.loads(result.stderr)["error"].startswith("tolerances.validation: ")

    def test_fixed_tolerance_is_accepted(self):
        raw = {
            "beta": 1.0,
            "system_hamiltonian": [0.0, 1.0],
            "scheme": dict(SLOPPY_KRAUS_SCHEME, kraus=[np.eye(4).tolist()]),
            "checks": ["free_scheme"],
            "tolerances": {"validation": 1e-9},
        }
        assert parse_scenario(raw).tolerances["validation"] == 1e-9
        with pytest.raises(ValidationError, match="not trace preserving"):
            parse_scenario(self.scenario("kraus", {"validation": 1e-9}))

    @pytest.mark.parametrize("checks", [("free_scheme",), ("free_scheme", "covariant")])
    def test_derived_instrument_is_refused_at_parse(self, tmp_path, checks):
        # The pointer's completeness defect, sqrt(2) * 7e-10, is within 1e-9 on the
        # 2-level probe; the induced instrument's, 2 * 7e-10 on the 4-level system, is not.
        stretch = 1 + 7e-10
        pointer = {"outcomes": ["0", "1"], "effects": [[[stretch, 0], [0, 0]], [[0, 0], [0, stretch]]]}
        Observable(pointer["outcomes"], pointer["effects"])
        raw = {
            "beta": 1.0,
            "system_hamiltonian": [0.0, 1.0, 2.0, 3.0],
            "probe_hamiltonian": [0.0, 1.0],
            "scheme": {"kind": "kraus", "kraus": [np.eye(8).tolist()], "pointer": pointer},
            "checks": list(checks),
        }
        with pytest.raises(ValidationError, match="total channel is not trace preserving"):
            parse_scenario(raw)
        result = self.run_cli(tmp_path, raw)
        assert result.returncode == 2
        assert result.stdout == ""
        assert "total channel is not trace preserving" in json.loads(result.stderr)["error"]


class TestLargerDimensions:
    def test_four_by_four_resonant_pair(self):
        h = np.diag([0.0, 1.0, 2.0, 3.0]).astype(complex)
        pointer = spectral_observable(h)
        scheme = random_free_scheme(SchemeFrame(h, h, 0.6, pointer), seed=77, mixture_size=2)
        assert validate_free_scheme(scheme).verdict
        ins = induced_instrument(scheme)
        rho = random_density_matrix(4, rng_from_seed(8))
        for out, ref in zip(ins.apply(rho), direct_instrument_action(scheme, rho)):
            assert frobenius(out - ref) < 1e-11
        law, _ = second_law_report(scheme, rho)
        assert law.verdict
        assert is_covariant_instrument(ins, h).verdict

    def test_free_scheme_and_moments_at_d16(self):
        # the energy-moment check on a 256-dimensional joint space: seconds
        # with an O(k D^3) dual action, minutes with an O(k D^4) one
        d = 16
        low = np.diag((np.arange(d) < d // 2).astype(float))
        raw = {
            "seed": 0,
            "beta": 1.0,
            "system_hamiltonian": [float(e) for e in range(d)],
            "probe_hamiltonian": [float(e) for e in range(d)],
            "scheme": {
                "kind": "random_block",
                "mixture_size": 3,
                "pointer": {"effects": [low.tolist(), (np.eye(d) - low).tolist()]},
            },
            "checks": ["free_scheme", "moments"],
        }
        report = run_scenario(raw)
        assert [(c["name"], c["verdict"]) for c in report.checks] == [
            ("free_scheme", True),
            ("moments", True),
        ]
        moments = report.checks[1]["moment_defects"]
        assert len(moments) == 4
        assert max(moments) <= THEOREM_TOL


#: The theorem checks a free scenario must pass at every temperature.
THEOREM_CHECKS = [
    "free_scheme", "second_law", "covariant", "gibbs_preserving",
    "thermal_observable", "moments", "skew_chain", "heat_duality",
]


@st.composite
def spectra(draw, dim):
    """Energies of order 1: equally spaced, degenerate or non-resonant."""
    kind = draw(st.sampled_from(["equal", "degenerate", "non_resonant"]))
    if kind == "equal":
        return [float(e) for e in range(dim)]
    if kind == "degenerate":
        levels = draw(st.lists(st.integers(0, 2), min_size=dim, max_size=dim))
        return sorted(float(e) for e in levels)
    gaps = draw(st.lists(st.floats(0.3, 1.0), min_size=dim - 1, max_size=dim - 1))
    return [0.0, *np.cumsum(gaps).tolist()]


@st.composite
def free_scenarios(draw):
    """A ``random_block`` scenario with a sharp or grouped Yanase pointer, at a
    beta whose product with the system's smallest level spacing is log-uniform
    on [1e-2, 1e4]."""
    d_s, d_a = draw(st.integers(2, 4)), draw(st.integers(2, 3))
    h_s, h_a = draw(spectra(d_s)), draw(spectra(d_a))
    spacings = np.diff(np.unique(h_s))
    gap = float(spacings.min()) if len(spacings) else 1.0
    if draw(st.booleans()):  # sharp: the probe's spectral projectors
        levels = np.unique(h_a, return_inverse=True)[1]
        effects = [np.diag(levels == k).astype(float) for k in range(levels.max() + 1)]
    else:  # grouped: the probe levels below a cut, and the rest
        low = np.diag(np.arange(d_a) < draw(st.integers(1, d_a - 1))).astype(float)
        effects = [low, np.eye(d_a) - low]
    return {
        "seed": draw(st.integers(0, 10_000)),
        "beta": 10.0 ** draw(st.floats(-2.0, 4.0)) / gap,
        "system_hamiltonian": h_s,
        "probe_hamiltonian": h_a,
        "scheme": {
            "kind": "random_block",
            "mixture_size": draw(st.integers(1, 3)),
            "pointer": {"effects": [e.tolist() for e in effects]},
        },
        "states": {"count": draw(st.integers(1, 3)), "seed": draw(st.integers(0, 10_000))},
        "checks": THEOREM_CHECKS,
    }


class TestAcrossTemperature:
    """Every theorem check of a free scheme passes, from beta * gap = 1e-2 to 1e4."""

    @given(raw=free_scenarios())
    @example(  # Gibbs weights far below round-off: once a false second-law FAIL
        raw={
            "seed": 757,
            "beta": 1259.9085717901467,
            "system_hamiltonian": [0.0, 0.0, 1.0],
            "probe_hamiltonian": [0.0, 1.0],
            "scheme": {
                "kind": "random_block",
                "mixture_size": 1,
                "pointer": {"effects": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]]},
            },
            "states": {"count": 3, "seed": 673},
            "checks": THEOREM_CHECKS,
        }
    )
    @settings(max_examples=300, deadline=None)
    def test_every_check_passes_or_the_scenario_is_refused(self, raw):
        try:
            report = run_scenario(raw)
        except (ValidationError, PreconditionError) as refusal:
            assert str(refusal).strip(), "a refusal must name its defect"
            return
        assert [c["name"] for c in report.checks if not c["verdict"]] == []

    @pytest.mark.xfail(
        strict=True,
        reason="freeness compares energy moments with an absolute tolerance, so it "
        "fails on round-off at energies of order 100",
    )
    def test_free_scheme_passes_at_large_energy_scale(self):
        # the physics of energies [0, 1, 2, 3] at beta = 1, in units 100 times smaller
        low = np.diag([1.0, 1.0, 0.0, 0.0])
        raw = {
            "seed": 0,
            "beta": 0.01,
            "system_hamiltonian": [0.0, 100.0, 200.0, 300.0],
            "probe_hamiltonian": [0.0, 100.0, 200.0, 300.0],
            "scheme": {
                "kind": "random_block",
                "mixture_size": 3,
                "pointer": {"effects": [low.tolist(), (np.eye(4) - low).tolist()]},
            },
            "checks": ["free_scheme"],
        }
        assert run_scenario(raw).checks[0]["verdict"]
