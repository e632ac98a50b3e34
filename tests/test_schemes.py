import math

import typing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    blockwise_free_kraus,
    direct_instrument_action,
    direct_probe_state,
    liouville_covariance_defect,
)
from thermomeas.errors import PreconditionError, ValidationError
from thermomeas.linalg import commutator_defect
from thermomeas.objects import (
    KrausChannel,
    Observable,
    State,
    _from_validated,
    gibbs_state,
    spectral_observable,
    time_evolution,
)
from thermomeas.sampling import (
    haar_unitary,
    random_commuting_povm,
    random_density_matrix,
    rng_from_seed,
)
from thermomeas.schemes import (
    MeasurementScheme,
    SchemeFrame,
    conjugate_channel,
    energy_moment_defect,
    induced_instrument,
    random_free_scheme,
    swap_channel,
    trivial_scheme,
    validate_free_scheme,
)
from thermomeas.thermo import heat_absorbed, second_law_report

H2 = np.diag([0.0, 1.0]).astype(complex)
H3 = np.diag([0.0, 1.0, 2.0]).astype(complex)
PLUS = np.full((2, 2), 0.5, dtype=complex)
MINUS = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)


def sharp_z(dim=2):
    return spectral_observable(np.diag(np.arange(float(dim))))


def amplitude_damping_times_identity(gamma=0.3):
    a0 = np.array([[1, 0], [0, math.sqrt(1 - gamma)]], dtype=complex)
    a1 = np.array([[0, math.sqrt(gamma)], [0, 0]], dtype=complex)
    return KrausChannel([np.kron(a0, np.eye(2)), np.kron(a1, np.eye(2))])


def resonant_random_scheme(seed=7, beta=1.0, mixture_size=3, dim=2):
    h = np.diag(np.arange(float(dim))).astype(complex)
    return random_free_scheme(SchemeFrame(h, h, beta, sharp_z(dim)), seed, mixture_size)


SPECTRA = {
    "resonant": lambda d: np.arange(float(d)),
    "degenerate": lambda d: np.repeat([0.0, 1.0], [d // 2, d - d // 2]),
    "non_resonant": lambda d: np.sqrt(np.arange(d) + 2.0) - math.sqrt(2.0),
}


@st.composite
def scheme_inputs(draw):
    """Arguments of :func:`build_scheme`: unequal dimensions, spectra, rotation, beta, seed."""
    return (
        *draw(st.sampled_from([(2, 3), (2, 4), (3, 2), (3, 4), (4, 2), (4, 3)])),
        draw(st.sampled_from(sorted(SPECTRA))),
        draw(st.sampled_from(sorted(SPECTRA))),
        draw(st.booleans()),
        10.0 ** draw(st.floats(min_value=-3.0, max_value=3.0)),
        draw(st.integers(min_value=0, max_value=10_000)),
    )


def build_scheme(d_s, d_a, spectrum_s, spectrum_a, rotate, beta, seed):
    """A random free scheme; ``rotate`` turns both Hamiltonians to a Haar-random basis."""
    rng = rng_from_seed(seed)
    hamiltonians = []
    for d, spectrum in ((d_s, spectrum_s), (d_a, spectrum_a)):
        u = haar_unitary(d, rng) if rotate else np.eye(d)
        hamiltonians.append((u * SPECTRA[spectrum](d)) @ u.conj().T)
    h_s, h_a = hamiltonians
    return random_free_scheme(SchemeFrame(h_s, h_a, beta, spectral_observable(h_a)), seed)


class TestValidateFreeScheme:
    def test_swap_scheme_passes_tightly(self):
        scheme = trivial_scheme(sharp_z(), H2, beta=1.0)
        report = validate_free_scheme(scheme)
        assert report.verdict
        assert report.worst_defect < 1e-12
        assert report.gibbs_probe_ok

    def test_yanase_violation_detected(self):
        pointer = Observable(["p", "m"], [PLUS, MINUS])
        scheme = MeasurementScheme(SchemeFrame(H2, H2, 1.0, pointer), swap_channel(2))
        report = validate_free_scheme(scheme)
        assert not report.verdict
        # defined metric: max_x ||[Z_x, H_probe]||_F = 1/sqrt(2) for the X basis
        assert abs(report.yanase_defect - 1 / math.sqrt(2)) < 1e-12
        assert report.bistochastic_defect < 1e-12

    def test_non_unital_interaction_detected(self):
        frame = SchemeFrame(H2, H2, 1.0, sharp_z())
        scheme = MeasurementScheme(frame, amplitude_damping_times_identity())
        report = validate_free_scheme(scheme)
        assert not report.verdict
        assert report.bistochastic_defect > 0.1

    def test_non_conserving_unitary_detected(self):
        u = haar_unitary(4, rng_from_seed(99))
        scheme = MeasurementScheme(SchemeFrame(H2, H2, 1.0, sharp_z()), KrausChannel([u]))
        report = validate_free_scheme(scheme)
        assert not report.verdict
        assert report.energy_conservation_defects[0] > 1e-3


class TestInducedInstrument:
    def test_swap_scheme_thermalises(self):
        rng = rng_from_seed(0)
        observable = random_commuting_povm(H2, 3, rng)
        scheme = trivial_scheme(observable, H2, beta=1.3)
        ins = induced_instrument(scheme)
        tau = gibbs_state(H2, 1.3)
        for _ in range(10):
            rho = random_density_matrix(2, rng)
            p = observable.probabilities(rho)
            for x, out in enumerate(ins.apply(rho)):
                assert np.linalg.norm(out - p[x] * tau.matrix) < 1e-12

    def test_identity_interaction_leaves_state_alone(self):
        scheme = MeasurementScheme(SchemeFrame(H2, H2, 1.0, sharp_z()), KrausChannel([np.eye(4)]))
        assert validate_free_scheme(scheme).verdict
        ins = induced_instrument(scheme)
        xi = scheme.probe_state
        q = scheme.pointer.probabilities(xi)
        rho = random_density_matrix(2, rng_from_seed(1))
        for x, out in enumerate(ins.apply(rho)):
            assert np.linalg.norm(out - q[x] * rho.matrix) < 1e-12

    @pytest.mark.parametrize("dim,seed", [(2, 7), (2, 8), (3, 21)])
    def test_action_matches_direct_formula(self, dim, seed):
        scheme = resonant_random_scheme(seed=seed, dim=dim)
        ins = induced_instrument(scheme)
        rng = rng_from_seed(seed + 1)
        for _ in range(5):
            rho = random_density_matrix(dim, rng)
            direct = direct_instrument_action(scheme, rho)
            for out, ref in zip(ins.apply(rho), direct, strict=True):
                assert np.linalg.norm(out - ref) < 1e-12

    @given(inputs=scheme_inputs())
    @settings(max_examples=25, deadline=None)
    def test_action_matches_direct_formula_unequal_dims(self, inputs):
        scheme = build_scheme(*inputs)
        rho = random_density_matrix(scheme.dim_system, rng_from_seed(inputs[-1] + 1))
        outputs = scheme.instrument.apply(rho)
        for out, ref in zip(outputs, direct_instrument_action(scheme, rho), strict=True):
            assert np.linalg.norm(out - ref) < 1e-12
        probe = scheme.conjugate.apply(rho)
        assert np.linalg.norm(probe - direct_probe_state(scheme, rho)) < 1e-12

    def test_gibbs_input_reproduces_gibbs(self):
        scheme = resonant_random_scheme(seed=3)
        ins = induced_instrument(scheme)
        tau = scheme.system_gibbs
        q = ins.induced_observable.probabilities(tau)
        for x, out in enumerate(ins.apply(tau)):
            assert np.linalg.norm(out - q[x] * tau.matrix) < 1e-9

    def test_phase_unitary_when_total_spectrum_nondegenerate(self):
        # detuned pair: total spectrum {0, 2.3, 1, 3.3} has no repeats
        h_probe = np.diag([0.0, 2.3]).astype(complex)
        frame = SchemeFrame(H2, h_probe, 1.0, sharp_z())
        scheme = random_free_scheme(frame, seed=5, mixture_size=1)
        u = scheme.interaction.kraus[0]
        off_diag = u - np.diag(np.diag(u))
        assert np.linalg.norm(off_diag) < 1e-12
        ins = induced_instrument(scheme)
        xi = scheme.probe_state
        q = scheme.pointer.probabilities(xi)
        rho = random_density_matrix(2, rng_from_seed(6))
        for x, out in enumerate(ins.apply(rho)):
            # diagonal entries exactly q_x rho_mm; coherences only pick up phases
            np.testing.assert_allclose(np.diag(out), q[x] * np.diag(rho.matrix), atol=1e-12)
            assert np.all(np.abs(out) <= q[x] * np.abs(rho.matrix) + 1e-12)
            ref = direct_instrument_action(scheme, rho)[x]
            assert np.linalg.norm(out - ref) < 1e-12

    def test_bad_pointer_effect_rejected(self):
        effects = np.array([np.diag([1.0, -0.2]), np.diag([0.0, 1.2])], dtype=complex)
        bad = _from_validated(Observable, ("a", "b"), effects)  # past validation, on purpose
        scheme = MeasurementScheme(SchemeFrame(H2, H2, 1.0, bad), swap_channel(2))
        with pytest.raises(ValidationError, match="pointer effect"):
            induced_instrument(scheme)


class TestConjugateChannel:
    def test_swap_hands_system_state_to_probe(self):
        scheme = trivial_scheme(sharp_z(), H2, beta=1.0)
        lam = conjugate_channel(scheme)
        rho = random_density_matrix(2, rng_from_seed(2))
        np.testing.assert_allclose(lam.apply(rho), rho.matrix, atol=1e-12)

    def test_identity_interaction_leaves_probe_alone(self):
        scheme = MeasurementScheme(SchemeFrame(H2, H2, 1.0, sharp_z()), KrausChannel([np.eye(4)]))
        lam = conjugate_channel(scheme)
        rho = random_density_matrix(2, rng_from_seed(3))
        np.testing.assert_allclose(lam.apply(rho), scheme.probe_state.matrix, atol=1e-12)

    def test_gibbs_is_fixed_point_pair(self):
        scheme = resonant_random_scheme(seed=11, beta=0.7)
        lam = conjugate_channel(scheme)
        tau = scheme.system_gibbs
        assert np.linalg.norm(lam.apply(tau) - scheme.probe_state.matrix) < 1e-9

    def test_matches_direct_partial_trace(self):
        scheme = resonant_random_scheme(seed=13, dim=3)
        lam = conjugate_channel(scheme)
        rho = random_density_matrix(3, rng_from_seed(4))
        np.testing.assert_allclose(lam.apply(rho), direct_probe_state(scheme, rho), atol=1e-12)


class TestTrivialScheme:
    def test_spectral_measure_accepted(self):
        scheme = trivial_scheme(sharp_z(), H2, beta=2.0)
        assert validate_free_scheme(scheme).verdict

    def test_trivial_observable_accepted_for_any_hamiltonian(self):
        trivial_obs = Observable(["a", "b"], [np.eye(2) / 2, np.eye(2) / 2])
        scheme = trivial_scheme(trivial_obs, H2, beta=1.0)
        assert validate_free_scheme(scheme).worst_defect < 1e-12

    def test_noncommuting_observable_rejected(self):
        obs = Observable(["p", "m"], [PLUS, MINUS])
        with pytest.raises(PreconditionError, match="commute") as err:
            trivial_scheme(obs, H2, beta=1.0)
        assert f"{1 / math.sqrt(2):.3e}" in str(err.value)


class TestRandomFreeScheme:
    def test_resonant_qubits_verdict_and_nontrivial(self):
        scheme = resonant_random_scheme(seed=7, mixture_size=3)
        assert validate_free_scheme(scheme).verdict
        induced = induced_instrument(scheme).induced_observable
        assert induced.triviality_defect() > 1e-3

    def test_determinism(self):
        a = resonant_random_scheme(seed=42)
        b = resonant_random_scheme(seed=42)
        for ka, kb in zip(a.interaction.kraus, b.interaction.kraus):
            assert np.array_equal(ka, kb)

    def test_yanase_precondition(self):
        pointer = Observable(["p", "m"], [PLUS, MINUS])
        with pytest.raises(PreconditionError, match="Yanase"):
            random_free_scheme(SchemeFrame(H2, H2, 1.0, pointer), seed=0)

    @pytest.mark.parametrize("seed", range(5))
    def test_gibbs_preservation_property(self, seed):
        scheme = resonant_random_scheme(seed=seed, beta=0.9)
        ins = induced_instrument(scheme)
        tau = scheme.system_gibbs
        q = ins.induced_observable.probabilities(tau)
        for x, out in enumerate(ins.apply(tau)):
            assert np.linalg.norm(out - q[x] * tau.matrix) < 1e-8

    @pytest.mark.parametrize("seed", range(3))
    def test_covariance_property(self, seed):
        scheme = resonant_random_scheme(seed=seed + 50, dim=3)
        ins = induced_instrument(scheme)
        h = scheme.system_hamiltonian
        rng = rng_from_seed(seed)
        for ops in ins.kraus_sets:
            assert liouville_covariance_defect(ops, h) < 1e-8
        for t in (0.37, 1.0, 2.5):
            u = time_evolution(h, t)
            rho = random_density_matrix(3, rng)
            rotated = ins.apply(u @ rho.matrix @ u.conj().T)
            plain = ins.apply(rho)
            for a, b in zip(rotated, plain):
                assert np.linalg.norm(a - u @ b @ u.conj().T) < 1e-8

    @pytest.mark.parametrize("seed", range(3))
    def test_joint_gibbs_fixed_point(self, seed):
        scheme = resonant_random_scheme(seed=seed + 80, beta=1.4)
        joint = np.kron(scheme.system_gibbs.matrix, scheme.probe_state.matrix)
        assert np.linalg.norm(scheme.interaction.apply(joint) - joint) < 1e-8

    @pytest.mark.parametrize("seed", range(3))
    def test_heat_duality_property(self, seed):
        scheme = resonant_random_scheme(seed=seed + 60, beta=0.8)
        ins = induced_instrument(scheme)
        lam = conjugate_channel(scheme)
        xi = scheme.probe_state.matrix
        rng = rng_from_seed(seed)
        for _ in range(3):
            rho = random_density_matrix(2, rng).matrix
            probe_side = np.trace(scheme.probe_hamiltonian @ (xi - lam.apply(rho))).real
            system_side = np.trace(
                scheme.system_hamiltonian @ (sum(ins.apply(rho)) - rho)
            ).real
            assert abs(probe_side - system_side) < 1e-8

    @pytest.mark.parametrize("seed", range(3))
    def test_induced_observable_invariance(self, seed):
        scheme = resonant_random_scheme(seed=seed + 70, dim=3)
        induced = induced_instrument(scheme).induced_observable
        for e in induced.effects:
            assert commutator_defect(e, scheme.system_hamiltonian) < 1e-8


class TestBatchedDraw:
    """The batched draw of ``random_free_scheme`` against the per-block loop of the oracle."""

    @staticmethod
    def frame(d_s, d_a, spectrum_s, spectrum_a, rotate, seed=0):
        rng = rng_from_seed(1000 + seed)
        hamiltonians = []
        for d, spectrum in ((d_s, spectrum_s), (d_a, spectrum_a)):
            u = haar_unitary(d, rng) if rotate else np.eye(d)
            hamiltonians.append((u * SPECTRA[spectrum](d)) @ u.conj().T)
        return SchemeFrame(*hamiltonians, 1.0, spectral_observable(hamiltonians[1]))

    @pytest.mark.parametrize("mixture_size", [1, 2, 3, 4])
    @pytest.mark.parametrize(
        "dims,spectra",
        [
            ((2, 2), ("resonant", "resonant")),
            ((3, 3), ("resonant", "resonant")),
            ((4, 4), ("degenerate", "degenerate")),
            ((3, 3), ("non_resonant", "non_resonant")),
            ((4, 2), ("resonant", "resonant")),
            ((3, 4), ("degenerate", "resonant")),
            ((2, 4), ("non_resonant", "degenerate")),
            ((8, 8), ("resonant", "resonant")),
        ],
    )
    def test_diagonal_spectra_draw_the_oracle_bit_for_bit(self, dims, spectra, mixture_size):
        frame = self.frame(*dims, *spectra, rotate=False)
        for seed in range(3):
            ks = random_free_scheme(frame, seed, mixture_size).interaction.kraus
            reference = blockwise_free_kraus(
                frame.system_hamiltonian, frame.probe_hamiltonian, seed, mixture_size
            )
            assert ks.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("mixture_size", [1, 2, 3, 4])
    @pytest.mark.parametrize("spectrum", sorted(SPECTRA))
    @pytest.mark.parametrize("dims", [(2, 3), (3, 3), (4, 2)])
    def test_rotated_spectra_draw_the_oracle_within_round_off(self, dims, spectrum, mixture_size):
        for seed in range(3):
            frame = self.frame(*dims, spectrum, spectrum, rotate=True, seed=seed)
            ks = random_free_scheme(frame, seed, mixture_size).interaction.kraus
            reference = blockwise_free_kraus(
                frame.system_hamiltonian, frame.probe_hamiltonian, seed, mixture_size
            )
            np.testing.assert_allclose(ks, reference, rtol=0, atol=1e-13)

    def test_schemes_of_one_frame_share_its_derived_data(self):
        frame = self.frame(3, 3, "resonant", "resonant", rotate=False)
        a, b = (random_free_scheme(frame, seed) for seed in (1, 2))
        assert a.frame is b.frame is frame
        assert a.energy_blocks is b.energy_blocks
        assert a.pointer_roots is b.pointer_roots
        assert a.instrument is not b.instrument
        with pytest.raises(AttributeError, match="immutable"):
            frame.beta = 2.0


class TestEnergyMoments:
    def test_swap_conserves_all_moments(self):
        h_total = np.kron(H2, np.eye(2)) + np.kron(np.eye(2), H2)
        ch = swap_channel(2)
        for k in range(1, 5):
            assert energy_moment_defect(ch, h_total, k) < 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_random_free_interactions_conserve_moments(self, seed):
        scheme = resonant_random_scheme(seed=seed + 200, dim=3)
        h_total = scheme.total_hamiltonian
        for k in range(1, 5):
            assert energy_moment_defect(scheme.interaction, h_total, k) < 1e-9

    def test_generic_unitary_breaks_first_moment(self):
        h_total = np.kron(H2, np.eye(2)) + np.kron(np.eye(2), H2)
        rng = rng_from_seed(123)
        ch = KrausChannel([haar_unitary(4, rng)])
        assert energy_moment_defect(ch, h_total, 1) > 1e-3

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError, match="match"):
            energy_moment_defect(swap_channel(2), H2, 1)


def test_scheme_annotations_resolve():
    hints = typing.get_type_hints(SchemeFrame.probe_state.func)
    assert hints["return"] is State


class TestCompiledScheme:
    def test_attributes_cannot_be_reassigned(self):
        scheme = resonant_random_scheme()
        for name in ("interaction", "pointer", "beta", "system_hamiltonian", "probe_hamiltonian"):
            with pytest.raises(AttributeError, match="immutable"):
                setattr(scheme, name, getattr(scheme, name))
            with pytest.raises(AttributeError, match="immutable"):
                delattr(scheme, name)

    def test_hamiltonians_are_read_only(self):
        h = H2.copy()
        scheme = MeasurementScheme(SchemeFrame(h, h, 1.0, sharp_z()), swap_channel(2))
        for m in (scheme.system_hamiltonian, scheme.probe_hamiltonian):
            with pytest.raises(ValueError, match="read-only"):
                m[0, 0] = 5.0
        h[1, 1] = 5.0  # the caller's array is not the scheme's
        assert scheme.system_hamiltonian[1, 1] == 1.0
        assert h.flags.writeable

    def test_derived_objects_are_kept(self):
        scheme = resonant_random_scheme()
        assert scheme.instrument is scheme.instrument
        assert scheme.conjugate is scheme.conjugate
        assert scheme.system_gibbs is scheme.system_gibbs
        assert scheme.freeness(1e-3).tol == 1e-3
        assert scheme.freeness(1e-3).energy_conservation_defects == (
            validate_free_scheme(scheme).energy_conservation_defects
        )
        ins = scheme.instrument
        assert ins.induced_observable is ins.induced_observable

    @given(inputs=scheme_inputs())
    @settings(max_examples=25, deadline=None)
    def test_warm_scheme_reports_what_a_fresh_one_does(self, inputs):
        warm = build_scheme(*inputs)
        rng = rng_from_seed(inputs[-1] + 1)
        earlier, rho = (random_density_matrix(warm.dim_system, rng) for _ in range(2))
        second_law_report(warm, earlier)
        heat_absorbed(warm, earlier)
        law, work = second_law_report(warm, rho)
        assert (law, work) == second_law_report(build_scheme(*inputs), rho)
        assert heat_absorbed(warm, rho) == heat_absorbed(build_scheme(*inputs), rho)
        assert law.verdict
