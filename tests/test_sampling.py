import math

import numpy as np
import pytest

from oracles import commuting_povm_effects, haar_unitary_by_qr, random_diagonal_hamiltonian
from thermomeas.errors import ValidationError
from thermomeas import objects, sampling
from thermomeas.linalg import commutator_defect, density_matrix
from thermomeas.sampling import (
    haar_unitary,
    haar_unitary_stacks,
    random_density_matrix_stacks,
    random_commuting_povm,
    random_density_matrix,
    random_povm,
    rng_from_seed,
)


def test_haar_unitary_is_unitary():
    u = haar_unitary(5, rng_from_seed(0))
    np.testing.assert_allclose(u @ u.conj().T, np.eye(5), atol=1e-12)


@pytest.mark.parametrize("sizes", [[5], [1, 2, 3, 2, 1], [3, 1, 4, 1, 5, 9, 2, 6] * 3, []])
def test_batched_unitaries_are_the_one_at_a_time_draws(sizes):
    rng, reference_rng = rng_from_seed(4), rng_from_seed(4)
    stacks = haar_unitary_stacks(sizes, [rng])
    assert {n: s.shape for n, s in stacks.items()} == {n: (1, sizes.count(n), n, n) for n in sizes}
    taken = {n: iter(stack[0]) for n, stack in stacks.items()}
    for n in sizes:
        assert next(taken[n]).tobytes() == haar_unitary_by_qr(n, reference_rng).tobytes()
    assert rng.random() == reference_rng.random()  # both generators end in the same state


@pytest.mark.parametrize(
    "draw",
    [
        lambda rng: haar_unitary(0, rng),
        lambda rng: haar_unitary_stacks([2, -1, 3], [rng]),
        lambda rng: random_density_matrix(0, rng),
        lambda rng: random_density_matrix_stacks(-2, 3, [rng]),
    ],
    ids=["haar_unitary", "haar_unitary_stacks", "random_density_matrix", "stacks"],
)
def test_a_dimension_below_one_is_refused_by_name(draw):
    with pytest.raises(ValidationError, match="dimension must be at least 1, got -?[0-9]"):
        draw(rng_from_seed(0))


def test_no_states_is_an_empty_stack():
    stack = random_density_matrix_stacks(3, 0, [rng_from_seed(0), rng_from_seed(1)])
    assert stack.shape == (2, 0, 3, 3)


def test_random_density_matrix_is_full_rank_state():
    rho = random_density_matrix(4, rng_from_seed(1))
    assert np.linalg.eigvalsh(rho.matrix)[0] > 0


def test_random_density_matrix_validates_each_draw_once(monkeypatch):
    calls = []

    def counted(m):
        calls.append(np.shape(m))
        return density_matrix(m)

    monkeypatch.setattr(sampling, "density_matrix", counted)
    monkeypatch.setattr(objects, "density_matrix", counted)
    rng, reference_rng = rng_from_seed(6), rng_from_seed(6)
    rho = random_density_matrix(3, rng)
    assert calls == [(1, 1, 3, 3)]  # one generator's one draw, validated as drawn
    assert rho.dim == 3 and not rho.matrix.flags.writeable
    assert rho.matrix.tobytes() == random_density_matrix_stacks(3, 1, [reference_rng])[0, 0].tobytes()


@pytest.mark.parametrize("dim,n", [(2, 2), (3, 4)])
def test_random_povm_is_valid(dim, n):
    obs = random_povm(dim, n, rng_from_seed(3))
    assert obs.n_outcomes == n  # Observable constructor validates the rest


def test_random_commuting_povm_commutes_with_hamiltonian():
    h = np.diag([0.0, 1.0, 1.0, 2.0]).astype(complex)  # degenerate block included
    obs = random_commuting_povm(h, 3, rng_from_seed(4))
    for e in obs.effects:
        assert commutator_defect(e, h) < 1e-12


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("energies", [[0.0, 1.0, 1.0, 2.0], [0.0, 0.3, 1.7], [1.0]])
def test_random_commuting_povm_draws_as_the_per_level_loop(seed, energies):
    h = np.diag(energies).astype(complex)
    u = haar_unitary(len(energies), rng_from_seed(seed))
    for hamiltonian in (h, u @ h @ u.conj().T):
        got = random_commuting_povm(hamiltonian, 3, rng_from_seed(seed)).effects
        want = commuting_povm_effects(hamiltonian, 3, rng_from_seed(seed))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)


@pytest.mark.parametrize(
    "hamiltonian,message",
    [
        ([[0.0, 1.0], [0.0, 1.0]], "not Hermitian"),
        ([[math.nan, 0.0], [0.0, 1.0]], "non-finite"),
    ],
)
def test_random_commuting_povm_refuses_a_bad_hamiltonian(hamiltonian, message):
    with pytest.raises(ValidationError, match=message):
        random_commuting_povm(np.array(hamiltonian, dtype=complex), 2, rng_from_seed(0))


def test_generators_are_deterministic():
    a = random_povm(3, 2, rng_from_seed(5))
    b = random_povm(3, 2, rng_from_seed(5))
    for x, y in zip(a.effects, b.effects):
        assert np.array_equal(x, y)


def test_random_diagonal_hamiltonian_sorted():
    h = random_diagonal_hamiltonian(4, rng_from_seed(6))
    d = np.diag(h).real
    assert np.all(np.diff(d) >= 0)
