"""Dense Hermitian linear algebra and entropy primitives.

All operators are plain complex numpy arrays; the higher-level object types
in :mod:`thermomeas.objects` are thin validated wrappers around them, and
every function here also accepts such wrappers (anything with a ``.matrix``
attribute). Logarithms are natural throughout, so entropies are in nats.

Numerical conventions, applied consistently package-wide:

* Hermiticity defects below ``HERMITICITY_TOL`` are repaired by replacing
  ``A`` with ``(A + A†)/2``; larger defects raise, they are never silently
  repaired.
* ``0 * ln 0 := 0`` in every entropy-like sum.
* Eigenvalues closer than ``cluster_tol`` times the spectral range are
  treated as degenerate and merged into a single spectral projector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

#: Hermiticity repair threshold: symmetrize below, raise above.
HERMITICITY_TOL = 1e-9

#: Default relative eigenvalue-clustering tolerance for degeneracy detection.
CLUSTER_TOL = 1e-8

#: Rank tolerance deciding support membership in the relative entropy.
SUPPORT_TOL = 1e-10

#: Default tolerance for object validation (states, effects, channels).
VALIDATION_TOL = 1e-9


def dag(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return a.conj().T


def frobenius(a: np.ndarray) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(a))


def logsumexp(x: np.ndarray) -> float:
    """``ln sum_i exp(x_i)``, shifted by the largest entry so nothing overflows."""
    top = float(np.max(x))
    return top + float(np.log(np.sum(np.exp(x - top))))


def as_matrix(obj) -> np.ndarray:
    """Coerce ``obj`` to a complex 2-D array, unwrapping ``.matrix`` if present."""
    m = getattr(obj, "matrix", obj)
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise ValidationError(f"expected a matrix, got array of ndim {m.ndim}")
    return m


def require_square(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    if m.shape[0] != m.shape[1]:
        raise ValidationError(f"{name} must be square, got shape {m.shape}")
    return m


def require_hermitian(obj, tol: float = HERMITICITY_TOL, name: str = "matrix") -> np.ndarray:
    """Return the symmetrization ``(A + A†)/2`` if the defect is below ``tol``.

    A defect above ``tol`` is an error, not something to repair silently,
    and so is any NaN or infinite entry.
    """
    m = require_square(as_matrix(obj), name)
    if not np.isfinite(m).all():
        raise ValidationError(f"{name} has non-finite (NaN or infinite) entries")
    defect = frobenius(m - dag(m))
    if defect > tol:
        raise ValidationError(
            f"{name} is not Hermitian: ||A - A^dag||_F = {defect:.3e} > {tol:.1e}"
        )
    return (m + dag(m)) / 2


@dataclass(frozen=True)
class SpectralDecomposition:
    """Clustered eigendecomposition of a Hermitian operator.

    ``eigenvalues`` holds one value per cluster, ascending; ``projectors``
    the corresponding orthogonal projectors (rank = multiplicity), which
    are mutually orthogonal and sum to the identity.
    """

    eigenvalues: np.ndarray
    projectors: tuple
    multiplicities: tuple

    @property
    def dim(self) -> int:
        return self.projectors[0].shape[0]

    @property
    def nondegenerate(self) -> bool:
        return all(m == 1 for m in self.multiplicities)

    def reconstruct(self) -> np.ndarray:
        return sum(lam * p for lam, p in zip(self.eigenvalues, self.projectors))


def cluster_indices(values: np.ndarray, cluster_tol: float = CLUSTER_TOL) -> list:
    """Group sorted real values whose consecutive gaps fall below the threshold.

    The absolute threshold is ``cluster_tol * max(spread, 1)``. Returns a
    list of index arrays, one per cluster, in ascending order.
    """
    values = np.asarray(values, dtype=float)
    n = len(values)
    if n == 0:
        return []
    spread = float(values[-1] - values[0])
    thresh = cluster_tol * max(spread, 1.0)
    groups = [[0]]
    for i in range(1, n):
        if values[i] - values[i - 1] > thresh:
            groups.append([])
        groups[-1].append(i)
    return [np.asarray(g, dtype=int) for g in groups]


def eig_hermitian(a, cluster_tol: float = CLUSTER_TOL) -> SpectralDecomposition:
    """Eigendecompose a Hermitian operator, merging near-degenerate eigenvalues.

    Each cluster of eigenvalues within ``cluster_tol`` (relative to the
    spectral range) of each other yields one projector; the reported
    eigenvalue is the cluster mean.
    """
    m = require_hermitian(a)
    evals, vecs = np.linalg.eigh(m)
    projectors = []
    values = []
    mults = []
    for idx in cluster_indices(evals, cluster_tol):
        block = vecs[:, idx]
        projectors.append(block @ dag(block))
        values.append(float(np.mean(evals[idx])))
        mults.append(int(len(idx)))
    return SpectralDecomposition(
        eigenvalues=np.asarray(values), projectors=tuple(projectors), multiplicities=tuple(mults)
    )


def psd_sqrt(a, tol: float = VALIDATION_TOL) -> np.ndarray:
    """Principal square root of a positive semidefinite operator.

    Eigenvalues in ``[-tol, 0)`` are clipped to zero; anything more negative
    raises.
    """
    m = require_hermitian(a, max(tol, HERMITICITY_TOL))
    evals, vecs = np.linalg.eigh(m)
    if evals[0] < -tol:
        raise ValidationError(
            f"operator is not positive semidefinite: min eigenvalue {evals[0]:.3e} < -{tol:.1e}"
        )
    root = np.sqrt(np.clip(evals, 0.0, None))
    return (vecs * root) @ dag(vecs)


def partial_trace(m, dims, keep) -> np.ndarray:
    """Trace out one factor of a bipartite operator.

    Parameters
    ----------
    m : matrix on the product space, dimension ``dims[0] * dims[1]``.
    dims : pair ``(d_system, d_probe)``.
    keep : ``"system"``/``0`` to keep the first factor, ``"probe"``/``1``
        to keep the second.
    """
    mat = as_matrix(m)
    d_s, d_a = int(dims[0]), int(dims[1])
    if mat.shape != (d_s * d_a, d_s * d_a):
        raise ValidationError(
            f"partial trace expected a {d_s * d_a} x {d_s * d_a} matrix for dims {dims}, "
            f"got shape {mat.shape}"
        )
    t = mat.reshape(d_s, d_a, d_s, d_a)
    tag = {0: 0, 1: 1, "system": 0, "probe": 1}.get(keep)
    if tag is None:
        raise ValidationError(f"keep must be 'system', 'probe', 0 or 1, got {keep!r}")
    if tag == 0:
        return np.einsum("iaja->ij", t)
    return np.einsum("iaib->ab", t)


def density_matrix(obj, tol: float = VALIDATION_TOL) -> np.ndarray:
    """Validate and return a density matrix (Hermitian, PSD, unit trace)."""
    m = require_hermitian(obj, max(tol, HERMITICITY_TOL), name="state")
    trace_defect = abs(np.trace(m).real - 1.0)
    if trace_defect > tol:
        raise ValidationError(f"state trace differs from 1 by {trace_defect:.3e} > {tol:.1e}")
    min_eig = float(np.linalg.eigvalsh(m)[0])
    if min_eig < -tol:
        raise ValidationError(f"state has negative eigenvalue {min_eig:.3e} < -{tol:.1e}")
    return m


def von_neumann_entropy(rho, tol: float = VALIDATION_TOL, validate: bool = True) -> float:
    """``-tr[rho ln rho]`` in nats, with the 0 ln 0 := 0 convention.

    ``validate=False`` skips the density-matrix checks (negative eigenvalues
    are still clipped at zero); intended for conditional states obtained by
    normalizing machine-generated instrument outputs.
    """
    if validate:
        m = density_matrix(rho, tol)
    else:
        m = as_matrix(rho)
        m = (m + dag(m)) / 2
    evals = np.clip(np.linalg.eigvalsh(m), 0.0, None)
    pos = evals[evals > 0.0]
    return max(float(-np.sum(pos * np.log(pos))), 0.0)


def relative_entropy(
    rho,
    sigma,
    tol: float = VALIDATION_TOL,
    support_tol: float = SUPPORT_TOL,
    validate: bool = True,
) -> float:
    """Quantum relative entropy ``tr[rho (ln rho - ln sigma)]`` in nats.

    Computed on the numerical support of ``sigma`` (eigenvalues above
    ``support_tol``). Returns ``math.inf`` when ``rho`` carries more than
    ``support_tol`` of weight outside that support.
    """
    if validate:
        r = density_matrix(rho, tol)
        s = density_matrix(sigma, tol)
    else:
        r = as_matrix(rho)
        r = (r + dag(r)) / 2
        s = as_matrix(sigma)
        s = (s + dag(s)) / 2
    if r.shape != s.shape:
        raise ValidationError(f"dimension mismatch: {r.shape} vs {s.shape}")
    a, u = np.linalg.eigh(r)
    b, v = np.linalg.eigh(s)
    a = np.clip(a, 0.0, None)
    # overlap[i, j] = |<u_i|v_j>|^2
    overlap = np.abs(dag(u) @ v) ** 2
    on_support = b > support_tol
    leaked = float(np.sum(a[:, None] * overlap[:, ~on_support]))
    if leaked > support_tol:
        return math.inf
    pos = a > 0.0
    entropy_term = float(np.sum(a[pos] * np.log(a[pos])))
    cross_term = float(np.sum((a[:, None] * overlap[:, on_support]) * np.log(b[on_support])[None, :]))
    return entropy_term - cross_term


def commutator_defect(a, b) -> float:
    """``||AB - BA||_F``, the uniform metric for all commutation checks."""
    ma, mb = as_matrix(a), as_matrix(b)
    require_square(ma, "first operand")
    require_square(mb, "second operand")
    if ma.shape != mb.shape:
        raise ValidationError(f"dimension mismatch: {ma.shape} vs {mb.shape}")
    return frobenius(ma @ mb - mb @ ma)
