import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import dual_action, operation_effect, partial_trace, time_evolution
from thermomeas.errors import ValidationError
from thermomeas.linalg import VALIDATION_TOL, dag
from thermomeas.objects import (
    Instrument,
    KrausChannel,
    Observable,
    State,
    _bistochastic_defects,
    _dual,
    _from_validated,
    _gram,
    choi_of_operation,
    choi_rank,
    gibbs_state,
    pure_state,
    spectral_observable,
)
from thermomeas.sampling import (
    ginibre,
    haar_unitary,
    random_density_matrix,
    random_povm,
    rng_from_seed,
)
from thermomeas.schemes import SchemeFrame, conjugate_channel, random_free_scheme

KET0 = np.array([1.0, 0.0], dtype=complex)
KET1 = np.array([0.0, 1.0], dtype=complex)
P0 = np.outer(KET0, KET0)
P1 = np.outer(KET1, KET1)


def random_channel(n_kraus, d_out, d_in, rng):
    """Ginibre Kraus stack ``K_k`` made trace preserving as ``K_k (sum K† K)^(-1/2)``."""
    raw = np.array([ginibre(d_out, d_in, rng) for _ in range(n_kraus)])
    gram = sum(k.conj().T @ k for k in raw)
    evals, vecs = np.linalg.eigh(gram)
    return KrausChannel(raw @ ((vecs / np.sqrt(evals)) @ vecs.conj().T))


def amplitude_damping(gamma):
    a0 = np.array([[1, 0], [0, math.sqrt(1 - gamma)]], dtype=complex)
    a1 = np.array([[0, math.sqrt(gamma)], [0, 0]], dtype=complex)
    return KrausChannel([a0, a1])


class TestState:
    def test_valid_state(self):
        s = State(np.eye(2) / 2)
        assert s.dim == 2
        assert not s.matrix.flags.writeable

    def test_rejects_bad_trace(self):
        with pytest.raises(ValidationError, match="trace"):
            State(np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValidationError, match="negative eigenvalue"):
            State(np.diag([1.5, -0.5]))

    def test_rejects_large_hermiticity_defect(self):
        m = np.eye(2, dtype=complex) / 2
        m[0, 1] = 1e-4
        with pytest.raises(ValidationError, match="not Hermitian"):
            State(m)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_entry(self, bad):
        m = np.eye(2, dtype=complex) / 2
        m[1, 1] = bad
        with pytest.raises(ValidationError, match="state has non-finite"):
            State(m)

    def test_symmetrizes_tiny_defect(self):
        m = np.eye(2, dtype=complex) / 2
        m[0, 1] = 1e-11
        s = State(m)
        assert np.linalg.norm(s.matrix - s.matrix.conj().T) == 0.0

    def test_pure_state_normalizes(self):
        s = pure_state([2.0, 0.0])
        np.testing.assert_allclose(s.matrix, P0, atol=1e-15)


class TestObservable:
    def test_projective_pair(self):
        obs = Observable(["x1", "x2"], [P0, P1])
        assert obs.is_sharp()
        assert not obs.is_trivial()

    def test_trivial_observable(self):
        obs = Observable(["x1", "x2"], [np.eye(2) / 2, np.eye(2) / 2])
        assert obs.is_trivial()
        assert not obs.is_sharp()

    def test_rejects_out_of_range_effect(self):
        with pytest.raises(ValidationError, match=r"effect 'x[12]' has an eigenvalue"):
            Observable(["x1", "x2"], [np.diag([1.2, 0.0]), np.diag([-0.2, 1.0])])

    def test_rejects_incomplete_sum(self):
        with pytest.raises(ValidationError, match="identity"):
            Observable(["x1", "x2"], [P0 / 2, P1])

    def test_born_rule_probabilities(self):
        obs = Observable(["x1", "x2"], [P0, P1])
        probs = obs.probabilities(np.diag([0.25, 0.75]))
        np.testing.assert_allclose(probs, [0.25, 0.75], atol=1e-14)

    @pytest.mark.parametrize("d,other", [(2, 3), (3, 2)])
    def test_probabilities_refuse_a_state_of_another_dimension(self, d, other):
        obs = Observable(["all"], [np.eye(d)])
        message = rf"observable input must be {d} x {d}, got \({other}, {other}\)"
        with pytest.raises(ValidationError, match=message):
            obs.probabilities(np.eye(other) / other)

    def test_rank_one_test(self):
        assert Observable(["a", "b"], [P0, P1]).is_rank_one()
        assert not Observable(["a"], [np.eye(2)]).is_rank_one()

    def test_effects_are_one_read_only_stack(self):
        obs = random_povm(3, 4, rng_from_seed(15))
        assert isinstance(obs.effects, np.ndarray) and obs.effects.shape == (4, 3, 3)
        with pytest.raises(ValueError, match="read-only"):
            obs.effects[0, 0, 0] = 1.0

    @pytest.mark.parametrize(
        "outcomes,effects,message",
        [
            ([], [], "observable needs at least one outcome"),
            (["x0", "x0"], [P0, P1], "outcome labels must be unique"),
            (["x0", "x1"], [np.eye(2)], "2 outcomes but 1 effects supplied"),
            (["x0"], [np.ones(2)], "expected a matrix, got array of ndim 1"),
            (["x0", "x1"], [P0, np.ones((2, 3))], "effect 'x1' must be square, got shape (2, 3)"),
            (["x0", "x1"], [P0, np.eye(3)], "effect 'x1' has dimension 3, expected 2"),
            (
                ["x0", "x1"],
                [P0, np.array([[math.nan, 0.0], [0.0, 1.0]])],
                "effect 'x1' has non-finite (NaN or infinite) entries",
            ),
            (
                ["a", "b"],
                [np.array([[math.inf, 0.0], [0.0, 0.5]]), np.eye(2) / 2],
                "effect 'a' has non-finite (NaN or infinite) entries",
            ),
            (
                ["x0", "x1"],
                [np.eye(2) / 2, np.array([[0.5, 1.0], [0.0, 0.5]])],
                "effect 'x1' is not Hermitian: ||A - A^dag||_F = 1.414e+00 > 1.0e-09",
            ),
            (
                ["x0", "x1"],
                [np.diag([1.2, 0.5]), np.diag([-0.2, 0.5])],
                "effect 'x1' has an eigenvalue 2.000e-01 outside [0, 1] "
                "(worst violation over all effects; tolerance 1.0e-09)",
            ),
            (
                ["a", "b", "c"],
                [np.diag([1.1, 0.0]), np.diag([-0.3, 0.5]), np.diag([0.2, 0.5])],
                "effect 'b' has an eigenvalue 3.000e-01 outside [0, 1] "
                "(worst violation over all effects; tolerance 1.0e-09)",
            ),
            (
                ["x0", "x1"],
                [np.eye(2) / 2, np.eye(2) / 3],
                "effects sum differs from identity by 2.357e-01 > 1.0e-09",
            ),
        ],
    )
    def test_refusal_messages(self, outcomes, effects, message):
        with pytest.raises(ValidationError) as refusal:
            Observable(outcomes, effects)
        assert str(refusal.value) == message


class TestGibbsState:
    def test_degenerate_hamiltonian_maximally_mixed(self):
        tau = gibbs_state(np.zeros((2, 2)), beta=3.7)
        np.testing.assert_allclose(tau.matrix, np.eye(2) / 2, atol=1e-14)

    def test_closed_form_partition_function(self):
        tau = gibbs_state(np.diag([0.0, math.log(2)]), beta=1.0)
        np.testing.assert_allclose(tau.matrix, np.diag([2 / 3, 1 / 3]), atol=1e-14)

    def test_large_beta_ground_projector(self):
        h = np.diag([0.0, 1.0, 2.0])
        # independent evaluation of the Boltzmann weights
        weights = np.exp(-30.0 * np.array([0.0, 1.0, 2.0]))
        expected = np.diag(weights / weights.sum())
        tau = gibbs_state(h, beta=30.0)
        np.testing.assert_allclose(tau.matrix, expected, atol=1e-15)
        assert np.linalg.norm(tau.matrix - np.diag([1.0, 0.0, 0.0])) < 1e-10

    def test_boltzmann_ratios(self):
        rng = rng_from_seed(4)
        h = ginibre(3, 3, rng)
        h = (h + h.conj().T) / 2
        beta = 1.3
        tau = gibbs_state(h, beta)
        evals_h = np.linalg.eigvalsh(h)
        evals_tau = np.linalg.eigvalsh(tau.matrix)[::-1]  # descending: ground first
        for i in range(3):
            for j in range(3):
                ratio = evals_tau[i] / evals_tau[j]
                assert abs(ratio - math.exp(-beta * (evals_h[i] - evals_h[j]))) < 1e-9

    def test_commutes_with_hamiltonian(self):
        rng = rng_from_seed(5)
        h = ginibre(4, 4, rng)
        h = (h + h.conj().T) / 2
        tau = gibbs_state(h, 0.8)
        assert np.linalg.norm(tau.matrix @ h - h @ tau.matrix) < 1e-10

    @pytest.mark.parametrize("beta", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_beta(self, beta):
        with pytest.raises(ValidationError, match="inverse temperature"):
            gibbs_state(np.diag([0.0, 1.0]), beta)


class TestKrausChannel:
    def test_identity_channel(self):
        ch = KrausChannel([np.eye(2)])
        rho = random_density_matrix(2, rng_from_seed(0))
        np.testing.assert_allclose(ch.apply(rho), rho.matrix, atol=1e-14)

    def test_swap_semantics(self):
        rng = rng_from_seed(1)
        rho = random_density_matrix(2, rng).matrix
        xi = random_density_matrix(2, rng).matrix
        swap = np.zeros((4, 4), dtype=complex)
        for a in range(2):
            for b in range(2):
                swap[b * 2 + a, a * 2 + b] = 1.0
        ch = KrausChannel([swap])
        np.testing.assert_allclose(ch.apply(np.kron(rho, xi)), np.kron(xi, rho), atol=1e-14)

    def test_unitary_dual_is_unital(self):
        u = haar_unitary(3, rng_from_seed(2))
        ch = KrausChannel([u])
        np.testing.assert_allclose(ch.apply_dual(np.eye(3)), np.eye(3), atol=1e-14)

    def test_trace_duality(self):
        rng = rng_from_seed(3)
        ch = amplitude_damping(0.3)
        for _ in range(5):
            a = ginibre(2, 2, rng)
            a = a + a.conj().T
            b = random_density_matrix(2, rng).matrix
            lhs = np.trace(a @ ch.apply(b))
            rhs = np.trace(ch.apply_dual(a) @ b)
            assert abs(lhs - rhs) < 1e-12

    def test_rejects_non_trace_preserving(self):
        with pytest.raises(ValidationError, match="trace preserving"):
            KrausChannel([np.eye(2) * 0.5])

    @pytest.mark.parametrize("bad", [math.nan, -math.inf])
    def test_rejects_non_finite_kraus(self, bad):
        k = np.eye(2, dtype=complex)
        k[0, 1] = bad
        with pytest.raises(ValidationError, match="Kraus operator 1 has non-finite"):
            KrausChannel([np.eye(2), k])

    @pytest.mark.parametrize("n_kraus,d_out,d_in,n", [
        (1, 3, 3, 1), (9, 3, 3, 1), (9, 3, 3, 4), (4, 3, 3, 20), (5, 2, 4, 3), (6, 4, 2, 7),
    ])
    def test_apply_matches_the_kraus_sum_on_stacks(self, n_kraus, d_out, d_in, n):
        # rectangular Kraus stacks, more or fewer operators than inputs, non-Hermitian inputs
        rng = rng_from_seed(40 + n_kraus + n)
        ch = random_channel(n_kraus, d_out, d_in, rng)
        inputs = np.array([ginibre(d_in, d_in, rng) for _ in range(n)])
        reference = np.array([sum(k @ m @ k.conj().T for k in ch.kraus) for m in inputs])
        np.testing.assert_allclose(ch.apply(inputs), reference, atol=1e-13)
        np.testing.assert_allclose(ch.apply(inputs[0]), reference[0], atol=1e-13)
        with pytest.raises(ValidationError, match="channel input must be"):
            ch.apply(np.zeros((n, d_in + 1, d_in + 1)))

    @given(
        n_kraus=st.integers(1, 6),
        d_out=st.integers(1, 6),
        d_in=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_apply_dual_matches_the_three_operand_contraction(self, n_kraus, d_out, d_in, seed):
        # rectangular stacks (trace preserving needs k d_out >= d_in), dense non-Hermitian A
        assume(d_in != d_out and n_kraus * d_out >= d_in)
        rng = rng_from_seed(seed)
        ch = random_channel(n_kraus, d_out, d_in, rng)
        a = ginibre(d_out, d_out, rng)
        got, reference = ch.apply_dual(a), dual_action(ch.kraus, a)
        assert got.shape == (d_in, d_in)
        assert np.abs(got - reference).max() <= 1e-12 * max(1.0, np.abs(reference).max())
        with pytest.raises(ValidationError, match="dual input must be"):
            ch.apply_dual(np.eye(d_out + 1))

    @given(
        n_points=st.integers(0, 3),
        n_kraus=st.integers(1, 5),
        d_out=st.integers(1, 6),
        d_in=st.integers(1, 6),
        levels=st.lists(
            st.just(0.0) | st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=3,
        ),
        picks=st.lists(st.integers(0, 2), min_size=6, max_size=6),
        power=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n_points=0, n_kraus=2, d_out=3, d_in=2, levels=[0.0], picks=[0] * 6, power=1, seed=0)
    @example(
        n_points=2, n_kraus=3, d_out=4, d_in=4, levels=[1e6, -1e6], picks=[0, 1] * 3, power=4,
        seed=1,
    )
    @settings(max_examples=80, deadline=None)
    def test_dual_of_a_diagonal_operator_is_bit_for_bit_the_reference(
        self, n_points, n_kraus, d_out, d_in, levels, picks, power, seed
    ):
        # Zero, negative, degenerate (picks repeat a level) and large diagonal
        # entries, up to fourth powers near 1e24; rectangular stacks as
        # conjugate channels have; with n_points > 0 a (P, k, d_out, d_in)
        # stack, each of whose points must give what its stack alone gives.
        rng = rng_from_seed(seed)
        diagonal = [levels[i % len(levels)] for i in picks[:d_out]]
        a = np.diag(np.array(diagonal) ** power).astype(complex)
        stacks = np.array(
            [[ginibre(d_out, d_in, rng) for _ in range(n_kraus)] for _ in range(max(n_points, 1))]
        )
        alone = [_dual(ks, a) for ks in stacks]
        for ks, got in zip(stacks, alone):
            assert got.tobytes() == dual_action(ks, a).tobytes()
        if n_points:
            batch = _dual(stacks, a)
            assert batch.shape == (n_points, d_in, d_in)
            assert all(point.tobytes() == one.tobytes() for point, one in zip(batch, alone))

    @given(
        d_out=st.integers(1, 4),
        d_in=st.integers(1, 4),
        n_kraus=st.integers(1, 12),
        n=st.integers(1, 50),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(d_out=1, d_in=3, n_kraus=3, n=50, seed=0)
    @example(d_out=3, d_in=2, n_kraus=4, n=17, seed=1)
    @settings(max_examples=80, deadline=None)
    def test_apply_gives_an_operator_alone_the_bits_it_has_in_a_stack(
        self, d_out, d_in, n_kraus, n, seed
    ):
        # A one-row output (d_out = 1) too, whose last product a matrix-vector
        # kernel would round by the stack's row count.
        assume(n_kraus * d_out >= d_in)  # else no Kraus stack is trace preserving
        rng = rng_from_seed(seed)
        ch = random_channel(n_kraus, d_out, d_in, rng)
        inputs = np.array([ginibre(d_in, d_in, rng) for _ in range(n)])
        stacked = ch.apply(inputs)
        assert all(ch.apply(m).tobytes() == out.tobytes() for m, out in zip(inputs, stacked))

    @pytest.mark.parametrize("d", range(2, 9))
    def test_apply_dual_on_diagonal_energy_powers_is_bit_for_bit_the_reference(self, d):
        # The free-scheme check takes Phi*(H^k), k = 1..4, with H diagonal on
        # every spectrum the benchmark uses. Each entry of conj(K) H^k then has
        # one nonzero term, so only the sum over k and b can move the round-off
        # its reference outputs hold, which is the three-operand contraction's.
        h = np.diag(np.arange(d, dtype=float)).astype(complex)
        low = np.diag((np.arange(d) < d // 2).astype(float))
        pointer = Observable(["low", "high"], [low, np.eye(d) - low])
        scheme = random_free_scheme(SchemeFrame(h, h, 1.0, pointer), seed=d)
        for channel, energy in (
            (scheme.interaction, scheme.frame.total_hamiltonian),
            (conjugate_channel(scheme), h),
        ):
            for k in range(1, 5):
                power = np.linalg.matrix_power(energy, k)
                got = channel.apply_dual(power)
                assert np.array_equal(got, dual_action(channel.kraus, power)), (
                    f"apply_dual(H^{k}) on the {channel.dim_out}x{channel.dim_in} channel "
                    "differs from the three-operand contraction in its round-off"
                )


def bistochastic_defects(channel) -> tuple:
    """The trace and unital defects of a square channel, as the freeness check forms them."""
    ks = channel.kraus
    return tuple(float(d) for d in _bistochastic_defects(_gram(ks), _gram(dag(ks))))


class TestBistochastic:
    def test_unitary_channel(self):
        trace_defect, unital_defect = bistochastic_defects(
            KrausChannel([haar_unitary(3, rng_from_seed(8))])
        )
        assert max(trace_defect, unital_defect) <= VALIDATION_TOL
        assert trace_defect < 1e-14 and unital_defect < 1e-14

    def test_amplitude_damping_fails_unitality(self):
        gamma = 0.3
        trace_defect, unital_defect = bistochastic_defects(amplitude_damping(gamma))
        assert not max(trace_defect, unital_defect) <= VALIDATION_TOL
        assert abs(unital_defect - gamma * math.sqrt(2)) < 1e-12
        assert trace_defect < 1e-14

    def test_mixture_of_unitaries(self):
        rng = rng_from_seed(9)
        kraus = [math.sqrt(0.5) * haar_unitary(2, rng) for _ in range(2)]
        assert max(bistochastic_defects(KrausChannel(kraus))) <= VALIDATION_TOL


@given(
    lead=st.lists(st.integers(1, 3), max_size=2),
    n_kraus=st.integers(1, 5),
    rows=st.integers(1, 5),
    cols=st.integers(1, 5),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_gram_is_the_literal_sum_of_kraus_products(lead, n_kraus, rows, cols, seed):
    # entry (i, j) sums n_kraus * rows products, each at most ||K||_F^2 in size,
    # in the stacked product's order and in the oracle's
    rng = rng_from_seed(seed)
    shape = (*lead, n_kraus, rows, cols)
    ks = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    got = _gram(ks)
    assert got.shape == (*lead, cols, cols)
    for index in np.ndindex(*lead):
        bound = 2 * (n_kraus * rows + 2) * np.finfo(float).eps * np.sum(np.abs(ks[index]) ** 2)
        assert np.abs(got[index] - operation_effect(ks[index])).max() <= bound


class TestInstrument:
    def test_luders_induces_original_observable(self):
        obs = random_povm(3, 3, rng_from_seed(10))
        ins = Instrument.luders(obs)
        induced = ins.induced_observable
        for a, b in zip(induced.effects, obs.effects):
            assert np.linalg.norm(a - b) < 1e-10

    def test_single_outcome_unitary(self):
        ins = Instrument(["only"], [[haar_unitary(2, rng_from_seed(11))]])
        induced = ins.induced_observable
        np.testing.assert_allclose(induced.effects[0], np.eye(2), atol=1e-12)

    def test_projective_kraus_sets(self):
        ins = Instrument(["x1", "x2"], [[P0], [P1]])
        induced = ins.induced_observable
        assert induced.is_sharp()
        np.testing.assert_allclose(induced.effects[0], P0, atol=1e-14)

    def test_rejects_non_finite_kraus(self):
        with pytest.raises(ValidationError, match="outcome 'x2' has non-finite"):
            Instrument(["x1", "x2"], [[P0], [P1 * math.nan]])

    def test_luders_refusal_names_the_outcome(self):
        effects = np.array([np.diag([1 + 5e-7, 0.5]), np.diag([-5e-7, 0.5])], dtype=complex)
        loose = _from_validated(Observable, ("a", "b"), effects)  # past validation, on purpose
        with pytest.raises(ValidationError) as refusal:
            Instrument.luders(loose)
        assert str(refusal.value) == (
            "effect 'b': operator is not positive semidefinite: "
            "min eigenvalue -5.000e-07 < -1.0e-09"
        )

    def test_rejects_non_trace_preserving_total(self):
        with pytest.raises(ValidationError, match="trace preserving"):
            Instrument(["x1", "x2"], [[P0], [P1 * 0.5]])

    def test_born_rule_consistency(self):
        rng = rng_from_seed(12)
        obs = random_povm(2, 3, rng)
        ins = Instrument.luders(obs)
        for _ in range(5):
            rho = random_density_matrix(2, rng)
            probs = np.trace(ins.apply(rho), axis1=1, axis2=2).real
            np.testing.assert_allclose(probs, obs.probabilities(rho), atol=1e-9)
            np.testing.assert_allclose(
                probs, ins.induced_observable.probabilities(rho), atol=1e-14
            )
            assert abs(probs.sum() - 1.0) < 1e-9

    def test_apply_on_a_stack_is_apply_on_each_entry(self):
        rng = rng_from_seed(41)
        ins = Instrument.luders(random_povm(3, 3, rng))
        states = np.array([random_density_matrix(3, rng).matrix for _ in range(5)])
        stacked = ins.apply(states)
        assert isinstance(stacked, np.ndarray) and stacked.shape == (3, 5, 3, 3)
        assert ins.apply(states[0]).shape == (3, 3, 3)
        for i, rho in enumerate(states):
            for out, single in zip(stacked, ins.apply(rho)):
                np.testing.assert_allclose(out[i], single, atol=1e-14)
        with pytest.raises(ValidationError, match="instrument input must be 3 x 3"):
            ins.apply(np.eye(2))

    def test_choi_stack_holds_each_outcomes_choi_matrix(self):
        ins = Instrument.luders(random_povm(3, 2, rng_from_seed(42)))
        assert ins.choi is ins.choi
        assert ins.choi.shape == (2, 9, 9) and not ins.choi.flags.writeable
        units = np.eye(9).reshape(9, 3, 3)  # |i><j| at index 3 i + j
        outputs = ins.apply(units)
        for x, ops in enumerate(ins.kraus_sets):
            np.testing.assert_array_equal(ins.choi[x], choi_of_operation(ops))
            direct = sum(np.kron(out, unit) for out, unit in zip(outputs[x], units))
            np.testing.assert_allclose(ins.choi[x], direct, atol=1e-14)

    def test_outputs_sum_to_total_channel(self):
        rng = rng_from_seed(13)
        obs = random_povm(2, 2, rng)
        ins = Instrument.luders(obs)
        rho = random_density_matrix(2, rng)
        total = KrausChannel(np.concatenate(ins.kraus_sets))
        np.testing.assert_allclose(sum(ins.apply(rho)), total.apply(rho), atol=1e-12)


def held_arrays(value):
    """Every array held by an object's attributes, inside tuples and lists too."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from held_arrays(item)
    elif hasattr(value, "__dict__"):
        for item in vars(value).values():
            yield from held_arrays(item)


def test_kraus_storage_is_read_only():
    channel = amplitude_damping(0.3)
    instrument = Instrument.luders(random_povm(2, 3, rng_from_seed(14)))
    arrays = list(held_arrays([channel, instrument]))
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[0, 0, 0] = 1.0
    # each Kraus set once (one stack, then one per outcome), then the instrument's Gram stack
    assert len(arrays) == 1 + 3 + 1


class TestChoi:
    def test_identity_operation_is_entangled_projector(self):
        choi = choi_of_operation([np.eye(2)])
        omega = np.zeros(4, dtype=complex)
        omega[0] = omega[3] = 1.0
        np.testing.assert_allclose(choi, np.outer(omega, omega), atol=1e-14)
        assert choi_rank(choi) == 1

    def test_luders_rank_one_effect(self):
        effect = 0.7 * P0
        choi = choi_of_operation([np.sqrt(0.7) * P0])
        assert choi_rank(choi) == 1
        np.testing.assert_allclose(partial_trace(choi, (2, 2), "probe").T, effect, atol=1e-14)

    def test_thermalizing_operation_rank(self):
        # rho -> tr[E rho] tau with rank-1 E and full-rank tau: Choi = tau (x) E^T, rank 2
        tau = gibbs_state(np.diag([0.0, 1.0]), beta=1.0).matrix
        evals, vecs = np.linalg.eigh(tau)
        effect = P0
        kraus = [
            math.sqrt(evals[i]) * np.outer(vecs[:, i], e) @ effect
            for i in range(2)
            for e in (KET0, KET1)
        ]
        choi = choi_of_operation(kraus)
        # independent oracle: build the Choi from the defining action
        direct = np.zeros((4, 4), dtype=complex)
        for i in range(2):
            for j in range(2):
                unit = np.zeros((2, 2), dtype=complex)
                unit[i, j] = 1.0
                out = np.trace(effect @ unit) * tau
                direct += np.kron(out, unit)
        np.testing.assert_allclose(choi, direct, atol=1e-12)
        assert choi_rank(choi) == 2

    def test_rank_counts_eigenvalues_above_support_tol(self):
        assert choi_rank(np.diag([1.0, 2e-10, 1e-10, -1.0])) == 2
        rng = rng_from_seed(14)
        ops = [0.6 * haar_unitary(3, rng), 0.4 * ginibre(3, 3, rng)]
        choi = choi_of_operation(ops)
        np.testing.assert_array_equal(choi, choi.conj().T)
        assert choi_rank(choi) == 2


class TestSpectralObservable:
    def test_labels_follow_ascending_order(self):
        obs = spectral_observable(np.diag([3.0, 1.0, 1.0]))
        assert obs.outcomes == ("0", "1")
        np.testing.assert_allclose(obs.effects[0], np.diag([0.0, 1.0, 1.0]), atol=1e-12)

    def test_time_evolution_unitary(self):
        h = np.diag([0.0, 1.0, 2.5])
        u = time_evolution(h, 0.37)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(3), atol=1e-13)
        np.testing.assert_allclose(u, np.diag(np.exp(-1j * 0.37 * np.diag(h))), atol=1e-13)
