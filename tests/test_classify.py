import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import liouville_covariance_defect
from test_schemes import SPECTRA, build_scheme, scheme_inputs
from thermomeas.classify import (
    COVARIANCE_SAMPLE_TIMES,
    check_prop2,
    is_covariant_instrument,
    is_gibbs_preserving,
    is_nuclear,
    is_quasi_complete,
    is_thermal_observable,
    joint_with_hamiltonian,
    post_processing_decomposition,
    refine_to_rank_one,
)
from thermomeas.errors import PreconditionError
from thermomeas.linalg import commutator_defect, frobenius
from thermomeas.objects import (
    Instrument,
    Observable,
    gibbs_state,
    spectral_observable,
    time_evolution,
)
from thermomeas.sampling import (
    haar_unitary,
    random_commuting_povm,
    random_density_matrix,
    random_povm,
    rng_from_seed,
)
from thermomeas.schemes import induced_instrument, random_free_scheme, trivial_scheme
from thermomeas.thermo import groenewold_gain

H2 = np.diag([0.0, 1.0]).astype(complex)
H4 = np.diag([0.0, 1.0, 2.0, 3.0]).astype(complex)
Z_SHARP = spectral_observable(H2)
PLUS = np.full((2, 2), 0.5, dtype=complex)
MINUS = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
X_BASIS = Observable(["p", "m"], [PLUS, MINUS])
TRIVIAL2 = Observable(["a", "b"], [np.eye(2) / 2, np.eye(2) / 2])


class TestThermalObservable:
    def test_spectral_measure_is_thermal(self):
        verdict = is_thermal_observable(Z_SHARP, H2)
        assert verdict.verdict and verdict.defect < 1e-14

    def test_x_basis_is_not(self):
        verdict = is_thermal_observable(X_BASIS, H2)
        assert not verdict.verdict
        assert abs(verdict.defect - 1 / math.sqrt(2)) < 1e-12

    def test_trivial_observable_always_thermal(self):
        rng = rng_from_seed(0)
        h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        h = (h + h.conj().T) / 2
        assert is_thermal_observable(TRIVIAL2, h).verdict

    def test_equivalence_with_swap_construction(self):
        rng = rng_from_seed(1)
        obs = random_commuting_povm(H2, 3, rng)
        assert is_thermal_observable(obs, H2).verdict
        scheme = trivial_scheme(obs, H2, beta=1.0)
        induced = induced_instrument(scheme).induced_observable
        for a, b in zip(induced.effects, obs.effects):
            assert frobenius(a - b) < 1e-8
        with pytest.raises(PreconditionError):
            trivial_scheme(X_BASIS, H2, beta=1.0)


def rotated_spectrum(d, spectrum, rotate, rng):
    u = haar_unitary(d, rng) if rotate else np.eye(d)
    return (u * SPECTRA[spectrum](d)) @ u.conj().T


@st.composite
def instruments_and_hamiltonians(draw):
    """Lueders instruments of random POVMs (not covariant) or instruments of random free schemes."""
    if draw(st.booleans()):
        scheme = build_scheme(*draw(scheme_inputs()))
        return scheme.instrument, scheme.system_hamiltonian
    d = draw(st.sampled_from([2, 3, 4, 5]))
    rng = rng_from_seed(draw(st.integers(min_value=0, max_value=10_000)))
    h = rotated_spectrum(d, draw(st.sampled_from(sorted(SPECTRA))), draw(st.booleans()), rng)
    return Instrument.luders(random_povm(d, draw(st.integers(2, 4)), rng)), h


def per_probe_sampled_defect(instrument, h):
    """The witness's sampled-time defect, one probe and one instrument application at a time."""
    rng = rng_from_seed(20100526)  # the probe seed is_covariant_instrument fixes
    probes = [random_density_matrix(instrument.dim, rng).matrix for _ in range(3)]
    sampled = 0.0
    for t in COVARIANCE_SAMPLE_TIMES:
        u = time_evolution(h, t)
        for r in probes:
            for a, b in zip(instrument.apply(u @ r @ u.conj().T), instrument.apply(r)):
                sampled = max(sampled, frobenius(a - u @ b @ u.conj().T))
    return sampled


class TestCovariantInstrument:
    @given(case=instruments_and_hamiltonians())
    @settings(max_examples=60, deadline=None)
    def test_choi_defect_is_the_liouville_commutator(self, case):
        instrument, h = case
        oracle = [liouville_covariance_defect(ops, h) for ops in instrument.kraus_sets]
        verdict = is_covariant_instrument(instrument, h)
        assert abs(verdict.defect - max(oracle)) <= 1e-12 * max(1.0, max(oracle))
        if max(oracle) > 1e-6:
            assert verdict.witness["worst_outcome"] == instrument.outcomes[int(np.argmax(oracle))]

    @pytest.mark.parametrize("case", ["sharp", "x_basis", "rotated_povm", "free_scheme"])
    def test_stacked_cross_check_is_the_per_probe_loop(self, case):
        rng = rng_from_seed(31)
        h3 = rotated_spectrum(3, "non_resonant", True, rng)
        instrument, h = {
            "sharp": (Instrument.luders(Z_SHARP), H2),
            "x_basis": (Instrument.luders(X_BASIS), H2),
            "rotated_povm": (Instrument.luders(random_povm(3, 3, rng)), h3),
            "free_scheme": (random_free_scheme(H4, H2, 0.7, Z_SHARP, seed=5).instrument, H4),
        }[case]
        stacked = is_covariant_instrument(instrument, h).witness["sampled_time_defect"]
        looped = per_probe_sampled_defect(instrument, h)
        assert abs(stacked - looped) <= 1e-14 * max(1.0, looped)

    def test_one_instrument_application(self, monkeypatch):
        shapes = []
        apply = Instrument.apply

        def counted(self, rho):
            shapes.append(np.shape(rho))
            return apply(self, rho)

        instrument = random_free_scheme(H4, H2, 1.0, Z_SHARP, seed=3).instrument
        monkeypatch.setattr(Instrument, "apply", counted)
        is_covariant_instrument(instrument, H4)
        assert shapes == [(12, 4, 4)]  # 3 probes and their rotations at 3 times

    def test_luders_eigenbasis_is_covariant(self):
        verdict = is_covariant_instrument(Instrument.luders(Z_SHARP), H2)
        assert verdict.verdict
        assert verdict.witness["sampled_time_defect"] < 1e-8

    def test_free_scheme_instrument_is_covariant(self):
        scheme = random_free_scheme(H2, H2, 1.0, Z_SHARP, seed=17)
        verdict = is_covariant_instrument(induced_instrument(scheme), H2)
        assert verdict.verdict and verdict.defect < 1e-8

    def test_x_basis_luders_is_not_covariant(self):
        verdict = is_covariant_instrument(Instrument.luders(X_BASIS), H2)
        assert not verdict.verdict
        assert verdict.defect > 0.1

    def test_covariance_implies_invariant_observable(self):
        for seed in range(4):
            scheme = random_free_scheme(H2, H2, 0.9, Z_SHARP, seed=700 + seed)
            ins = induced_instrument(scheme)
            assert is_covariant_instrument(ins, H2).verdict
            assert is_thermal_observable(ins.induced_observable, H2).verdict


class TestGibbsPreserving:
    def test_trivial_thermal_instrument(self):
        obs = random_commuting_povm(H2, 2, rng_from_seed(2))
        ins = induced_instrument(trivial_scheme(obs, H2, beta=1.0))
        assert is_gibbs_preserving(ins, H2, 1.0).verdict

    def test_luders_eigenbasis_fails(self):
        verdict = is_gibbs_preserving(Instrument.luders(Z_SHARP), H2, 1.0)
        assert not verdict.verdict
        assert verdict.defect > 0.01

    def test_free_scheme_instrument_passes(self):
        scheme = random_free_scheme(H2, H2, 1.2, Z_SHARP, seed=21)
        assert is_gibbs_preserving(induced_instrument(scheme), H2, 1.2).verdict

    def test_non_thermality_witness(self):
        # covariant yet not Gibbs-preserving: no free scheme can implement it
        luders = Instrument.luders(Z_SHARP)
        assert is_covariant_instrument(luders, H2).verdict
        assert not is_gibbs_preserving(luders, H2, 1.0).verdict


class TestNuclear:
    def test_trivial_thermal_instrument_sigma_is_gibbs(self):
        beta = 0.8
        obs = random_commuting_povm(H2, 3, rng_from_seed(3))
        ins = induced_instrument(trivial_scheme(obs, H2, beta))
        verdict = is_nuclear(ins)
        assert verdict.verdict
        tau = gibbs_state(H2, beta).matrix
        for sigma in verdict.witness["sigmas"].values():
            assert frobenius(sigma - tau) < 1e-9

    def test_luders_rank_one_sharp(self):
        verdict = is_nuclear(Instrument.luders(Z_SHARP))
        assert verdict.verdict
        np.testing.assert_allclose(
            verdict.witness["sigmas"]["0"], np.diag([1.0, 0.0]), atol=1e-12
        )

    def test_luders_rank_two_projective_not_nuclear(self):
        p01 = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
        p23 = np.diag([0.0, 0.0, 1.0, 1.0]).astype(complex)
        obs = Observable(["low", "high"], [p01, p23])
        verdict = is_nuclear(Instrument.luders(obs))
        assert not verdict.verdict
        assert verdict.defect > 0.5


class TestProp2:
    def test_trivial_thermal_instrument_passes(self):
        beta = 1.0
        obs = random_commuting_povm(H2, 2, rng_from_seed(4))
        ins = induced_instrument(trivial_scheme(obs, H2, beta))
        verdict = check_prop2(ins, H2, beta)
        assert verdict.verdict and verdict.defect < 1e-9

    def test_luders_gate_behavior(self):
        with pytest.raises(PreconditionError, match="Gibbs-preserving"):
            check_prop2(Instrument.luders(Z_SHARP), H2, 1.0)

    def test_nuclear_free_scheme_instruments_thermalise(self):
        # whenever a free-scheme instrument happens to be nuclear, it must thermalise
        rng = rng_from_seed(5)
        tested = 0
        for seed in range(10):
            obs = random_commuting_povm(H2, 2, rng)
            scheme = trivial_scheme(obs, H2, beta=1.1)
            ins = induced_instrument(scheme)
            if is_nuclear(ins).verdict:
                assert check_prop2(ins, H2, 1.1).verdict
                tested += 1
        assert tested > 0


class TestQuasiComplete:
    def test_luders_of_unsharp_povm(self):
        obs = random_povm(2, 3, rng_from_seed(6))
        assert is_quasi_complete(Instrument.luders(obs)).verdict

    def test_trivial_thermal_is_not(self):
        obs = random_commuting_povm(H2, 2, rng_from_seed(7))
        ins = induced_instrument(trivial_scheme(obs, H2, beta=1.0))
        verdict = is_quasi_complete(ins)
        assert not verdict.verdict
        assert verdict.witness["worst_rank"] > 1

    def test_unitary_single_outcome(self):
        ins = Instrument(["u"], [[haar_unitary(3, rng_from_seed(8))]])
        assert is_quasi_complete(ins).verdict

    def test_quasi_complete_implies_nonnegative_gain(self):
        rng = rng_from_seed(9)
        for _ in range(10):
            obs = random_povm(2, 2, rng)
            ins = Instrument.luders(obs)
            assert is_quasi_complete(ins).verdict
            rho = random_density_matrix(2, rng)
            assert groenewold_gain(ins, rho) >= -1e-8


class TestJointObservable:
    def test_spectral_measure_with_itself(self):
        joint = joint_with_hamiltonian(Z_SHARP, H2)
        assert joint.outcomes == ("0|0", "0|1", "1|0", "1|1")
        np.testing.assert_allclose(joint.effect("0|0"), np.diag([1.0, 0.0]), atol=1e-14)
        np.testing.assert_allclose(joint.effect("0|1"), np.zeros((2, 2)), atol=1e-14)
        np.testing.assert_allclose(joint.effect("1|1"), np.diag([0.0, 1.0]), atol=1e-14)

    def test_trivial_observable(self):
        joint = joint_with_hamiltonian(TRIVIAL2, H2)
        np.testing.assert_allclose(joint.effect("a|0"), np.diag([0.5, 0.0]), atol=1e-14)

    def test_unsharp_commuting_pair(self):
        obs = Observable(
            ["hot", "cold"], [np.diag([0.8, 0.3]), np.diag([0.2, 0.7])]
        )
        joint = joint_with_hamiltonian(obs, H2)
        np.testing.assert_allclose(joint.effect("hot|0"), np.diag([0.8, 0.0]), atol=1e-14)
        np.testing.assert_allclose(joint.effect("cold|1"), np.diag([0.0, 0.7]), atol=1e-14)
        # marginals are exact
        for x, e in zip(obs.outcomes, obs.effects):
            marg = sum(joint.effect(f"{x}|{m}") for m in ("0", "1"))
            assert frobenius(marg - e) < 1e-10

    def test_refuses_noncommuting(self):
        with pytest.raises(PreconditionError, match="commute"):
            joint_with_hamiltonian(X_BASIS, H2)


class TestPostProcessing:
    def test_sharp_observable_is_permutation(self):
        post = post_processing_decomposition(Z_SHARP, H2)
        np.testing.assert_allclose(post.matrix, np.eye(2), atol=1e-12)

    def test_trivial_observable_uniform(self):
        post = post_processing_decomposition(TRIVIAL2, H2)
        np.testing.assert_allclose(post.matrix, np.full((2, 2), 0.5), atol=1e-12)

    def test_random_diagonal_povm_read_back(self):
        h = np.diag([0.0, 1.0, 2.0]).astype(complex)
        rng = rng_from_seed(10)
        obs = random_commuting_povm(h, 3, rng)
        post = post_processing_decomposition(obs, h)
        assert post.reconstruction_defect < 1e-10
        for row, e in zip(post.matrix, obs.effects):
            np.testing.assert_allclose(row, np.diag(e).real, atol=1e-12)

    def test_refuses_degenerate_spectrum(self):
        h = np.diag([0.0, 1.0, 1.0]).astype(complex)
        obs = spectral_observable(h)
        with pytest.raises(PreconditionError, match="degenerate"):
            post_processing_decomposition(obs, h)

    def test_refuses_noncommuting(self):
        with pytest.raises(PreconditionError, match="commute"):
            post_processing_decomposition(X_BASIS, H2)


class TestRefineToRankOne:
    def test_rank_one_sharp_is_fixed_point(self):
        refined, relabel = refine_to_rank_one(Z_SHARP)
        assert refined.n_outcomes == 2
        for label, e in zip(refined.outcomes, refined.effects):
            assert frobenius(e - Z_SHARP.effect(relabel[label])) < 1e-12

    def test_identity_single_outcome_splits(self):
        obs = Observable(["all"], [np.eye(2)])
        refined, relabel = refine_to_rank_one(obs)
        assert refined.n_outcomes == 2
        assert set(relabel.values()) == {"all"}
        total = sum(refined.effects)
        np.testing.assert_allclose(total, np.eye(2), atol=1e-14)

    def test_rank_two_projective_pair(self):
        p01 = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
        p23 = np.diag([0.0, 0.0, 1.0, 1.0]).astype(complex)
        obs = Observable(["low", "high"], [p01, p23])
        refined, relabel = refine_to_rank_one(obs)
        assert refined.n_outcomes == 4
        assert refined.is_rank_one()
        for y, original in zip(obs.outcomes, obs.effects):
            coarse = sum(
                e for label, e in zip(refined.outcomes, refined.effects) if relabel[label] == y
            )
            assert frobenius(coarse - original) < 1e-10

    def test_refinement_of_random_povm_is_nuclear_when_measured(self):
        # rank-1 observables admit only nuclear instruments; check the Lueders one
        rng = rng_from_seed(11)
        obs = random_povm(3, 2, rng)
        refined, _ = refine_to_rank_one(obs)
        assert refined.is_rank_one()
        assert is_nuclear(Instrument.luders(refined)).verdict


class TestNondegenerateCommutation:
    def test_thermal_observables_pairwise_compatible(self):
        h = np.diag([0.0, 1.0, 2.0]).astype(complex)
        rng = rng_from_seed(12)
        first = random_commuting_povm(h, 3, rng)
        second = random_commuting_povm(h, 2, rng)
        assert is_thermal_observable(first, h).verdict
        assert is_thermal_observable(second, h).verdict
        for a in first.effects:
            for b in second.effects:
                assert commutator_defect(a, b) < 1e-8
