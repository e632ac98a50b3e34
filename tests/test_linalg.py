import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermomeas.errors import ValidationError
from thermomeas.linalg import (
    commutator_defect,
    density_matrix,
    eig_hermitian,
    partial_trace,
    psd_sqrt,
    relative_entropy,
    require_hermitian,
    von_neumann_entropy,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def random_hermitian(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2


def random_state_matrix(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return m / np.trace(m).real


class TestEigHermitian:
    def test_projectors_are_one_read_only_stack(self):
        decomp = eig_hermitian(np.diag([0.0, 1.0, 1.0]).astype(complex))
        assert isinstance(decomp.projectors, np.ndarray) and decomp.projectors.shape == (2, 3, 3)
        with pytest.raises(ValueError, match="read-only"):
            decomp.projectors[0, 0, 0] = 1.0

    def test_identity_single_cluster(self):
        decomp = eig_hermitian(np.eye(3, dtype=complex))
        assert decomp.eigenvalues.tolist() == [1.0]
        assert decomp.multiplicities == (3,)
        np.testing.assert_allclose(decomp.projectors[0], np.eye(3), atol=1e-14)

    def test_already_diagonal(self):
        decomp = eig_hermitian(np.diag([0.0, 1.0]).astype(complex))
        np.testing.assert_allclose(decomp.eigenvalues, [0.0, 1.0], atol=1e-14)
        np.testing.assert_allclose(decomp.projectors[0], np.diag([1.0, 0.0]), atol=1e-14)
        np.testing.assert_allclose(decomp.projectors[1], np.diag([0.0, 1.0]), atol=1e-14)

    def test_pauli_x_eigenbasis(self):
        decomp = eig_hermitian(X)
        np.testing.assert_allclose(decomp.eigenvalues, [-1.0, 1.0], atol=1e-14)
        minus = 0.5 * np.array([[1, -1], [-1, 1]], dtype=complex)
        plus = 0.5 * np.array([[1, 1], [1, 1]], dtype=complex)
        np.testing.assert_allclose(decomp.projectors[0], minus, atol=1e-14)
        np.testing.assert_allclose(decomp.projectors[1], plus, atol=1e-14)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError, match="not Hermitian"):
            eig_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_rejects_non_square(self):
        with pytest.raises(ValidationError, match="square"):
            eig_hermitian(np.zeros((2, 3)))

    @pytest.mark.parametrize("dim", [2, 3, 5, 8])
    def test_reconstruction_and_projector_algebra(self, dim):
        rng = np.random.default_rng(dim)
        for _ in range(5):
            a = random_hermitian(dim, rng)
            decomp = eig_hermitian(a)
            assert np.linalg.norm(a - decomp.reconstruct()) < 1e-10
            total = sum(decomp.projectors)
            assert np.linalg.norm(total - np.eye(dim)) < 1e-10
            for i, p in enumerate(decomp.projectors):
                for j, q in enumerate(decomp.projectors):
                    target = p if i == j else np.zeros_like(p)
                    assert np.linalg.norm(p @ q - target) < 1e-10

    def test_degenerate_clustering(self):
        # resonant pair spectrum {0, 1, 1, 2}
        h = np.diag([0.0, 1.0, 1.0, 2.0]).astype(complex)
        decomp = eig_hermitian(h)
        assert decomp.multiplicities == (1, 2, 1)
        assert not decomp.nondegenerate


class TestPartialTrace:
    def test_product_state_factorization(self):
        rng = np.random.default_rng(0)
        rho = random_state_matrix(2, rng)
        xi = random_state_matrix(3, rng)
        joint = np.kron(rho, xi)
        np.testing.assert_allclose(partial_trace(joint, (2, 3), "system"), rho, atol=1e-12)
        np.testing.assert_allclose(partial_trace(joint, (2, 3), "probe"), xi, atol=1e-12)

    def test_bell_state_marginal(self):
        phi = np.zeros(4, dtype=complex)
        phi[0] = phi[3] = 1 / math.sqrt(2)
        bell = np.outer(phi, phi.conj())
        np.testing.assert_allclose(partial_trace(bell, (2, 2), "system"), np.eye(2) / 2, atol=1e-14)

    def test_linearity_and_trace_preservation(self):
        rng = np.random.default_rng(1)
        a = random_hermitian(6, rng)
        b = random_hermitian(6, rng)
        for keep in ("system", "probe"):
            left = partial_trace(2.0 * a - 0.5 * b, (2, 3), keep)
            right = 2.0 * partial_trace(a, (2, 3), keep) - 0.5 * partial_trace(b, (2, 3), keep)
            np.testing.assert_allclose(left, right, atol=1e-12)
            assert abs(np.trace(partial_trace(a, (2, 3), keep)) - np.trace(a)) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError, match="partial trace"):
            partial_trace(np.eye(5), (2, 3), "system")

    def test_bad_keep_tag(self):
        with pytest.raises(ValidationError, match="keep"):
            partial_trace(np.eye(6), (2, 3), "bath")


class TestEntropy:
    def test_pure_state_zero(self):
        assert von_neumann_entropy(np.diag([1.0, 0.0])) == 0.0

    def test_maximally_mixed_qubit(self):
        assert abs(von_neumann_entropy(np.eye(2) / 2) - math.log(2)) < 1e-14

    def test_two_point_closed_form(self):
        expected = math.log(3) - (2 / 3) * math.log(2)
        assert abs(von_neumann_entropy(np.diag([2 / 3, 1 / 3])) - expected) < 1e-14

    def test_rejects_invalid_state(self):
        with pytest.raises(ValidationError, match="trace"):
            von_neumann_entropy(np.eye(2))

    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=6))
    @settings(max_examples=40, deadline=None)
    def test_entropy_bounds(self, seed, dim):
        rho = random_state_matrix(dim, np.random.default_rng(seed))
        s = von_neumann_entropy(rho)
        assert 0.0 <= s <= math.log(dim) + 1e-10


class TestRelativeEntropy:
    def test_identical_arguments(self):
        rho = random_state_matrix(3, np.random.default_rng(2))
        assert abs(relative_entropy(rho, rho)) < 1e-12

    def test_pure_vs_mixed_closed_form(self):
        assert abs(relative_entropy(np.diag([1.0, 0.0]), np.eye(2) / 2) - math.log(2)) < 1e-14

    def test_support_violation_is_infinite(self):
        assert relative_entropy(np.eye(2) / 2, np.diag([1.0, 0.0])) == math.inf

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError, match="mismatch"):
            relative_entropy(np.eye(2) / 2, np.eye(3) / 3)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_klein_inequality(self, seed):
        rng = np.random.default_rng(seed)
        rho = random_state_matrix(3, rng)
        sigma = random_state_matrix(3, rng)
        value = relative_entropy(rho, sigma)
        assert value >= -1e-10
        if np.linalg.norm(rho - sigma) >= 1e-6:
            assert value > 1e-10


class TestCommutatorDefect:
    def test_self_commutation(self):
        assert commutator_defect(X, X) == 0.0

    def test_diagonal_matrices_commute(self):
        assert commutator_defect(np.diag([1.0, 2.0]), np.diag([3.0, -4.0])) == 0.0

    def test_pauli_pair(self):
        assert abs(commutator_defect(X, Z) - 2 * math.sqrt(2)) < 1e-14

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError, match="mismatch"):
            commutator_defect(np.eye(2), np.eye(3))
        with pytest.raises(ValidationError, match="mismatch"):
            commutator_defect(np.array([np.eye(2)]), np.eye(3))

    def test_stack_gives_one_defect_per_entry(self):
        stack = np.array([X, Z, X + 2j * Z])
        defects = commutator_defect(stack, Z)
        assert defects.shape == (3,)
        assert defects.tolist() == [commutator_defect(m, Z) for m in stack]


class TestHermitianRepair:
    def test_small_defect_symmetrized(self):
        a = np.eye(2, dtype=complex)
        a[0, 1] = 1e-10
        out = require_hermitian(a)
        assert np.linalg.norm(out - out.conj().T) == 0.0

    def test_large_defect_rejected(self):
        a = np.eye(2, dtype=complex)
        a[0, 1] = 1e-6
        with pytest.raises(ValidationError, match="not Hermitian"):
            require_hermitian(a)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_rejected_by_name(self, bad):
        a = np.eye(2, dtype=complex)
        a[1, 1] = bad
        with pytest.raises(ValidationError, match="probe Hamiltonian has non-finite"):
            require_hermitian(a, name="probe Hamiltonian")

    def test_psd_sqrt_squares_back(self):
        rng = np.random.default_rng(3)
        m = random_state_matrix(4, rng)
        root = psd_sqrt(m)
        np.testing.assert_allclose(root @ root, m, atol=1e-12)

    def test_psd_sqrt_rejects_negative(self):
        with pytest.raises(ValidationError, match="positive semidefinite"):
            psd_sqrt(np.diag([1.0, -0.5]))


class TestStacks:
    """``psd_sqrt``, ``density_matrix`` and ``von_neumann_entropy`` on ``(n, d, d)`` stacks."""

    def test_each_entry_as_alone(self):
        rng = np.random.default_rng(21)
        states = np.array([random_state_matrix(3, rng) for _ in range(6)] + [np.diag([1.0, 0, 0])])
        np.testing.assert_array_equal(density_matrix(states), [density_matrix(m) for m in states])
        entropies = von_neumann_entropy(states)
        assert entropies.shape == (7,)
        for s, m in zip(entropies, states):
            assert abs(s - von_neumann_entropy(m)) <= 1e-15
        roots = psd_sqrt(states)
        for root, m in zip(roots, states):
            np.testing.assert_allclose(root, psd_sqrt(m), atol=1e-15)

    def test_empty_stack(self):
        assert density_matrix(np.zeros((0, 2, 2))).shape == (0, 2, 2)
        assert von_neumann_entropy(np.zeros((0, 2, 2)), validate=False).shape == (0,)

    @pytest.mark.parametrize(
        "bad,message",
        [
            (np.diag([1.5, -0.5]), "state 2 has negative eigenvalue -5.000e-01"),
            (np.diag([0.6, 0.6]), "state 2 trace differs from 1 by 2.000e-01"),
            (np.array([[0.5, 1.0], [0.0, 0.5]]), "state 2 is not Hermitian"),
            (np.array([[math.nan, 0.0], [0.0, 1.0]]), "state 2 has non-finite"),
        ],
    )
    def test_refusal_names_the_first_bad_entry(self, bad, message):
        states = np.array([np.eye(2) / 2, np.diag([1.0, 0.0]), bad, bad], dtype=complex)
        with pytest.raises(ValidationError, match=message):
            density_matrix(states)
        with pytest.raises(ValidationError, match=message.replace("state 2", "state")):
            density_matrix(bad)

    def test_psd_sqrt_refusal_names_the_entry(self):
        with pytest.raises(ValidationError, match="operator 1 is not positive semidefinite"):
            psd_sqrt(np.array([np.eye(2), -np.eye(2)]))
