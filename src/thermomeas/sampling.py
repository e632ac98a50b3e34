"""Seeded random generators for states, observables, and unitaries.

Every function takes an explicit ``numpy.random.Generator`` so that all
randomness in the package is reproducible from a single integer seed.
"""

from __future__ import annotations

import numpy as np

from .linalg import dag, density_matrix, eig_hermitian
from .objects import Observable, State


def rng_from_seed(seed) -> np.random.Generator:
    return np.random.default_rng(seed)


def ginibre(dim: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """Complex Gaussian matrix with unit-variance entries."""
    return (rng.standard_normal((dim, cols)) + 1j * rng.standard_normal((dim, cols))) / np.sqrt(2)


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via phase-fixed QR of a Ginibre matrix."""
    q, r = np.linalg.qr(ginibre(dim, dim, rng))
    phases = np.diagonal(r).copy()
    phases /= np.abs(phases)
    return q * phases


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = ginibre(dim, dim, rng)
    return (g + dag(g)) / 2


def _ginibre_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = ginibre(dim, dim, rng)
    m = g @ dag(g)
    return m / np.trace(m).real


def random_density_matrix(dim: int, rng: np.random.Generator) -> State:
    """Full-rank random state from the Ginibre ensemble."""
    return State(_ginibre_state(dim, rng))


def random_density_matrices(dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` draws of :func:`random_density_matrix` as one validated read-only stack.

    The stack is ``(count, dim, dim)``; it draws from ``rng`` exactly as
    ``count`` calls of :func:`random_density_matrix` would.
    """
    draws = [_ginibre_state(dim, rng) for _ in range(count)]
    stack = density_matrix(np.array(draws, dtype=complex).reshape(count, dim, dim))
    stack.flags.writeable = False
    return stack


def random_pure_state(dim: int, rng: np.random.Generator) -> State:
    v = ginibre(dim, 1, rng).reshape(-1)
    v /= np.linalg.norm(v)
    return State(np.outer(v, v.conj()))


def random_povm(dim: int, n_outcomes: int, rng: np.random.Generator) -> Observable:
    """Generic (noncommuting) POVM: Gram-normalized positive operators."""
    raw = []
    for _ in range(n_outcomes):
        g = ginibre(dim, dim, rng)
        raw.append(g @ dag(g))
    total = sum(raw)
    evals, vecs = np.linalg.eigh(total)
    inv_root = (vecs / np.sqrt(evals)) @ dag(vecs)
    effects = [inv_root @ a @ inv_root for a in raw]
    labels = [f"x{i}" for i in range(n_outcomes)]
    return Observable(labels, effects)


def random_commuting_povm(hamiltonian, n_outcomes: int, rng: np.random.Generator) -> Observable:
    """POVM commuting with a Hamiltonian: random post-processing of its spectral measure.

    For each (clustered) energy level a probability vector over outcomes is
    drawn uniformly from the simplex; effect ``E_x = sum_m p(x|m) P_m``.
    """
    projectors = eig_hermitian(hamiltonian).projectors
    weights = rng.dirichlet(np.ones(n_outcomes), size=len(projectors))  # one row per level
    effects = np.einsum("mx,mij->xij", weights, projectors)
    return Observable([f"x{i}" for i in range(n_outcomes)], effects)


def random_diagonal_hamiltonian(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Diagonal Hamiltonian with ascending energies drawn uniformly in [0, 2]."""
    return np.diag(np.sort(rng.uniform(0.0, 2.0, size=dim)).astype(complex))
