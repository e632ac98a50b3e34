import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import haar_unitary_by_qr, partial_trace
from thermomeas.errors import ValidationError
from thermomeas.linalg import (
    commutator_defect,
    density_matrix,
    eig_hermitian,
    frobenius_each,
    logsumexp,
    psd_sqrt,
    relative_entropy,
    require_hermitian,
    von_neumann_entropy,
)
from thermomeas.objects import Observable
from thermomeas.schemes import SchemeFrame

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)


def random_hermitian(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2


def random_state_matrix(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return m / np.trace(m).real


@st.composite
def matrix_stacks(draw):
    """Real or complex ``(..., rows, cols)`` stacks with 0-2 leading axes, some entries
    zero, the others of magnitude 1 to 10 times one scale among 1e-150, 1 and 1e150, so
    that no square is subnormal."""
    lead = draw(st.lists(st.integers(0, 3), max_size=2))
    shape = (*lead, draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    entries = st.just(0.0) | st.floats(1.0, 10.0) | st.floats(-10.0, -1.0)
    scale = draw(st.sampled_from([1e-150, 1.0, 1e150]))
    m = draw(arrays(float, shape, elements=entries)) * scale
    if draw(st.booleans()):
        m = m + 1j * draw(arrays(float, shape, elements=entries)) * scale
    return m


@given(m=matrix_stacks())
@settings(max_examples=200, deadline=None)
def test_frobenius_each_is_numpys_norm_within_its_summation_round_off(m):
    # two sums of the same n nonnegative squares, in other orders, each within
    # (n - 1) u of the exact sum; the square root halves that
    ours, numpys = frobenius_each(m), np.linalg.norm(m, axis=(-2, -1))
    assert ours.shape == numpys.shape == m.shape[:-2]
    n = m.shape[-2] * m.shape[-1] * (2 if np.iscomplexobj(m) else 1)
    u = np.finfo(float).eps / 2
    assert np.all(np.abs(ours - numpys) <= (n + 1) * u * numpys)


def level_sizes(projectors) -> list:
    """Each level's multiplicity: its projector's trace, rounded."""
    return [round(t) for t in np.trace(projectors, axis1=1, axis2=2).real]


class TestEigHermitian:
    def test_projectors_are_one_read_only_stack(self):
        _, projectors = eig_hermitian(np.diag([0.0, 1.0, 1.0]).astype(complex))
        assert isinstance(projectors, np.ndarray) and projectors.shape == (2, 3, 3)
        with pytest.raises(ValueError, match="read-only"):
            projectors[0, 0, 0] = 1.0

    def test_identity_single_cluster(self):
        energies, projectors = eig_hermitian(np.eye(3, dtype=complex))
        assert energies.tolist() == [1.0]
        assert level_sizes(projectors) == [3]
        np.testing.assert_allclose(projectors[0], np.eye(3), atol=1e-14)

    def test_already_diagonal(self):
        energies, projectors = eig_hermitian(np.diag([0.0, 1.0]).astype(complex))
        np.testing.assert_allclose(energies, [0.0, 1.0], atol=1e-14)
        np.testing.assert_allclose(projectors[0], np.diag([1.0, 0.0]), atol=1e-14)
        np.testing.assert_allclose(projectors[1], np.diag([0.0, 1.0]), atol=1e-14)

    def test_pauli_x_eigenbasis(self):
        energies, projectors = eig_hermitian(X)
        np.testing.assert_allclose(energies, [-1.0, 1.0], atol=1e-14)
        minus = 0.5 * np.array([[1, -1], [-1, 1]], dtype=complex)
        plus = 0.5 * np.array([[1, 1], [1, 1]], dtype=complex)
        np.testing.assert_allclose(projectors[0], minus, atol=1e-14)
        np.testing.assert_allclose(projectors[1], plus, atol=1e-14)

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
            energies, projectors = eig_hermitian(a)
            rebuilt = np.tensordot(energies, projectors, axes=1)
            assert np.linalg.norm(a - rebuilt) < 1e-10
            total = sum(projectors)
            assert np.linalg.norm(total - np.eye(dim)) < 1e-10
            for i, p in enumerate(projectors):
                for j, q in enumerate(projectors):
                    target = p if i == j else np.zeros_like(p)
                    assert np.linalg.norm(p @ q - target) < 1e-10

    def test_degenerate_clustering(self):
        # resonant pair spectrum {0, 1, 1, 2}
        h = np.diag([0.0, 1.0, 1.0, 2.0]).astype(complex)
        assert level_sizes(eig_hermitian(h)[1]) == [1, 2, 1]

    @pytest.mark.parametrize("scale", [1e-21, 1e-9, 1.0, 1e6])
    def test_a_rotated_multiple_of_the_identity_is_one_level(self, scale):
        u = haar_unitary_by_qr(4, np.random.default_rng(0))
        energies, projectors = eig_hermitian(scale * 3.0 * u @ u.conj().T)
        assert level_sizes(projectors) == [4]
        np.testing.assert_allclose(energies, [3.0 * scale], rtol=1e-14)


@st.composite
def integer_spectra(draw, max_dim=3):
    """An integer ladder of 1 to ``max_dim`` levels in [-3, 3], repeats allowed, and
    whether to rotate it by a Haar unitary of the drawn seed."""
    levels = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=max_dim))
    return np.array(levels, dtype=float), draw(st.booleans())


def hamiltonian(levels, rotate, scale, seed):
    """``scale * U diag(levels) U^dag``, with ``U`` a Haar unitary of ``seed`` or ``1``."""
    h = np.diag(levels).astype(complex)
    if rotate:
        u = haar_unitary_by_qr(len(levels), np.random.default_rng(seed))
        h = u @ h @ u.conj().T
    return scale * (h + h.conj().T) / 2


def exact_levels(levels):
    """The distinct values of ``levels`` and the ``(start, stop)`` of each in sorted order."""
    values, counts = np.unique(levels, return_counts=True)
    edges = np.concatenate([[0], np.cumsum(counts)]).tolist()
    return values, tuple(zip(edges[:-1], edges[1:]))


@settings(max_examples=150, deadline=None)
@given(
    system=integer_spectra(),
    probe=integer_spectra(),
    exponent=st.floats(-21.0, 6.0),
    seed=st.integers(0, 2**32 - 1),
)
# H_S (x) 1 + 1 (x) H_A cancels to round-off, which is of the terms' size, not of its own
@example(
    system=(np.array([2.0]), False), probe=(np.array([-2.0, -2.0]), True), exponent=0.0, seed=0
)
def test_clustering_is_scale_free(system, probe, exponent, seed):
    # eig_hermitian and energy_blocks find the exact levels of s H at every scale s
    scale = 10.0**exponent
    h_s = hamiltonian(*system, scale, seed)
    h_a = hamiltonian(*probe, scale, seed + 1)

    values, bounds = exact_levels(system[0])
    energies, projectors = eig_hermitian(h_s)
    assert level_sizes(projectors) == [stop - start for start, stop in bounds]
    np.testing.assert_allclose(energies, scale * values, rtol=0, atol=1e-13 * scale)

    pointer = Observable(["all"], [np.eye(len(h_a))])
    frame = SchemeFrame(h_s, h_a, 1.0, pointer)
    total = np.add.outer(system[0], probe[0]).ravel()
    assert frame.energy_blocks[1] == exact_levels(total)[1]


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


class TestLogSumExp:
    def test_large_entries_do_not_overflow(self):
        assert logsumexp(np.array([1000.0, 1000.0])) == pytest.approx(1000.0 + math.log(2.0))

    def test_stack_gives_one_value_per_row(self):
        x = np.array([[0.0, -np.inf, 1.0], [-800.0, -800.0, -800.0]])
        rows = logsumexp(x)
        assert rows.shape == (2,)
        assert np.array_equal(rows, [logsumexp(x[0]), logsumexp(x[1])])
        assert rows[1] == pytest.approx(-800.0 + math.log(3.0))


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

    def test_psd_sqrt_of_a_rank_one_projector_is_itself(self):
        # the zero eigenvalues come out of eigh as round-off near 1e-17, whose
        # roots, near 3e-9, must not enter the root
        rng = np.random.default_rng(5)
        for d in (2, 3, 5, 8):
            v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            p = np.outer(v, v.conj()) / np.vdot(v, v).real
            np.testing.assert_allclose(psd_sqrt(p), p, rtol=0, atol=1e-13)

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

    def test_a_stack_of_stacks_as_its_flattening(self):
        rng = np.random.default_rng(22)
        flat = np.array([random_state_matrix(3, rng) for _ in range(6)], dtype=complex)
        stack = flat.reshape(2, 3, 3, 3)
        for function in (density_matrix, psd_sqrt, von_neumann_entropy):
            got, want = function(stack), function(flat)
            assert got.shape == (2, 3) + want.shape[1:]
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "refuse,message",
        [
            (density_matrix, "state 5 has negative eigenvalue -5.000e-01"),
            (lambda m: psd_sqrt(m, "state"), "state 5 is not positive semidefinite"),
        ],
        ids=["density_matrix", "psd_sqrt"],
    )
    @pytest.mark.parametrize("shape", [(6,), (2, 3)], ids=["flat", "stack_of_stacks"])
    def test_a_refusal_counts_entries_in_the_flattened_stack(self, refuse, message, shape):
        states = np.array([np.eye(2) / 2] * 5 + [np.diag([1.5, -0.5])], dtype=complex)
        with pytest.raises(ValidationError, match=f"^{message}"):
            refuse(states.reshape(*shape, 2, 2))
