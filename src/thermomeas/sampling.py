"""Seeded random generators for states, observables, and unitaries.

Every function takes an explicit ``numpy.random.Generator`` so that all
randomness in the package is reproducible from a single integer seed.
Haar unitaries and Ginibre states each have one kernel, stacked over a list
of generators; :func:`haar_unitary` and :func:`random_density_matrix` slice it.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .linalg import dag, density_matrix, eig_hermitian
from .objects import Observable, State, _from_validated


def rng_from_seed(seed) -> np.random.Generator:
    """The generator of ``seed``; a negative integer seed is refused by name."""
    if isinstance(seed, (int, np.integer)) and seed < 0:
        raise ValidationError(f"seed: expected a non-negative integer, got {seed}")
    return np.random.default_rng(seed)


def ginibre(dim: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """Complex Gaussian matrix with unit-variance entries."""
    return (rng.standard_normal((dim, cols)) + 1j * rng.standard_normal((dim, cols))) / np.sqrt(2)


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via phase-fixed QR of a Ginibre matrix."""
    return haar_unitary_stacks([dim], [rng])[int(dim)][0, 0]


def haar_unitary_stacks(sizes, rngs) -> dict:
    """For each generator of ``rngs``, Haar unitaries of the given sizes, drawn
    in order as :func:`haar_unitary` called once per size would draw them, as
    one ``(len(rngs), count, n, n)`` stack per size ``n``.

    Each generator gives every Ginibre matrix in one ``standard_normal``
    call (real parts, then imaginary parts, size by size). One stacked QR
    per size, phase-fixed by the diagonal of ``R`` (Mezzadri, Notices AMS
    54, 592, 2007), turns the matrices of that size of every generator into
    unitaries; entry ``[g, j]`` is the ``j``-th of size ``n`` from generator ``g``.
    """
    sizes = [int(n) for n in sizes]
    if min(sizes, default=1) < 1:
        raise ValidationError(f"dimension must be at least 1, got {min(sizes)}")
    ends = np.cumsum([2 * n * n for n in sizes], dtype=int)
    total = int(ends[-1]) if sizes else 0
    normals = np.array([rng.standard_normal(total) for rng in rngs]).reshape(len(rngs), total)
    stacks = {}
    for n in sorted(set(sizes)):
        which = [i for i, size in enumerate(sizes) if size == n]
        columns = np.concatenate([np.arange(ends[i] - 2 * n * n, ends[i]) for i in which])
        parts = normals[:, columns].reshape(len(rngs), len(which), 2, n, n)
        q, r = np.linalg.qr((parts[:, :, 0] + 1j * parts[:, :, 1]) / np.sqrt(2))
        phases = np.diagonal(r, axis1=-2, axis2=-1).copy()
        phases /= np.abs(phases)
        stacks[n] = q * phases[..., None, :]
    return stacks


def random_density_matrix(dim: int, rng: np.random.Generator) -> State:
    """Full-rank random state from the Ginibre ensemble."""
    return _from_validated(State, random_density_matrix_stacks(dim, 1, [rng])[0, 0])


def random_density_matrix_stacks(dim: int, count: int, rngs) -> np.ndarray:
    """``count`` draws of :func:`random_density_matrix` from each generator of
    ``rngs``, as one validated read-only ``(len(rngs), count, dim, dim)`` stack.

    Each generator gives the real and imaginary parts of its ``count``
    Ginibre matrices in one ``standard_normal`` call, as ``count`` calls of
    :func:`random_density_matrix` would draw them, one after the other.
    """
    if dim < 1:
        raise ValidationError(f"dimension must be at least 1, got {dim}")
    normals = np.array([rng.standard_normal((count, 2, dim, dim)) for rng in rngs])
    g = (normals[:, :, 0] + 1j * normals[:, :, 1]) / np.sqrt(2)
    m = g @ dag(g)
    m = m / np.trace(m, axis1=-2, axis2=-1).real[..., None, None]
    stack = density_matrix(m)
    stack.flags.writeable = False
    return stack


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
