"""Dense Hermitian linear algebra and entropy primitives.

All operators are plain complex numpy arrays; the higher-level object types
in :mod:`thermomeas.objects` are thin validated wrappers around them, and
every function here also accepts such wrappers (anything with a ``.matrix``
attribute). Logarithms are natural throughout, so entropies are in nats.

Numerical conventions, applied consistently package-wide. Each numerical
decision has one constant here, and the other modules import it:

* ``VALIDATION_TOL`` decides whether an object is valid. Hermiticity
  defects up to it are repaired by replacing ``A`` with ``(A + A†)/2``;
  larger defects raise, they are never silently repaired. Scenario input
  overrides it for observables and Kraus channels (``tolerances.validation``).
* ``THEOREM_TOL`` decides whether a theorem's defect counts as zero. The
  classifiers, ``freeness`` and ``second_law_report`` take it as a ``tol``
  argument, which scenario input sets (``tolerances.<check>``, ``--tol``).
* ``SUPPORT_TOL`` decides support and rank: eigenvalues at or below it are
  zero.
* ``0 * ln 0 := 0`` in every entropy-like sum.
* Eigenvalues closer than ``CLUSTER_TOL`` times the spectral range are
  treated as degenerate and merged into a single spectral projector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

#: Object validation (states, effects, channels); also the Hermiticity repair threshold.
VALIDATION_TOL = 1e-9

#: Theorem checks: a defect at or below this counts as zero.
THEOREM_TOL = 1e-8

#: Support and rank: eigenvalues at or below this count as zero.
SUPPORT_TOL = 1e-10

#: Outcomes with probability at or below this contribute nothing to conditional sums.
PROBABILITY_CUTOFF = 1e-12

#: Relative eigenvalue-clustering tolerance for degeneracy detection.
CLUSTER_TOL = 1e-8


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


def require_hermitian(obj, tol: float = VALIDATION_TOL, name: str = "matrix") -> np.ndarray:
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


def require_beta(beta) -> float:
    """``float(beta)`` for a positive, finite inverse temperature; anything else raises."""
    if not np.isfinite(beta) or beta <= 0:
        raise ValidationError(f"inverse temperature must be positive and finite, got {beta}")
    return float(beta)


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


def cluster_indices(values: np.ndarray) -> list:
    """Group sorted real values whose consecutive gaps fall below the threshold.

    The absolute threshold is ``CLUSTER_TOL * max(spread, 1)``. Returns a
    list of index arrays, one per cluster, in ascending order.
    """
    values = np.asarray(values, dtype=float)
    n = len(values)
    if n == 0:
        return []
    spread = float(values[-1] - values[0])
    thresh = CLUSTER_TOL * max(spread, 1.0)
    groups = [[0]]
    for i in range(1, n):
        if values[i] - values[i - 1] > thresh:
            groups.append([])
        groups[-1].append(i)
    return [np.asarray(g, dtype=int) for g in groups]


def eig_hermitian(a) -> SpectralDecomposition:
    """Eigendecompose a Hermitian operator, merging near-degenerate eigenvalues.

    Each cluster of eigenvalues within ``CLUSTER_TOL`` (relative to the
    spectral range) of each other yields one projector; the reported
    eigenvalue is the cluster mean.
    """
    m = require_hermitian(a)
    evals, vecs = np.linalg.eigh(m)
    projectors = []
    values = []
    mults = []
    for idx in cluster_indices(evals):
        block = vecs[:, idx]
        projectors.append(block @ dag(block))
        values.append(float(np.mean(evals[idx])))
        mults.append(int(len(idx)))
    return SpectralDecomposition(
        eigenvalues=np.asarray(values), projectors=tuple(projectors), multiplicities=tuple(mults)
    )


def psd_sqrt(a) -> np.ndarray:
    """Principal square root of a positive semidefinite operator.

    Eigenvalues in ``[-VALIDATION_TOL, 0)`` are clipped to zero; anything
    more negative raises.
    """
    m = require_hermitian(a)
    evals, vecs = np.linalg.eigh(m)
    if evals[0] < -VALIDATION_TOL:
        raise ValidationError(
            f"operator is not positive semidefinite: min eigenvalue {evals[0]:.3e} "
            f"< -{VALIDATION_TOL:.1e}"
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


def density_matrix(obj) -> np.ndarray:
    """Validate and return a density matrix (Hermitian, PSD, unit trace)."""
    m = require_hermitian(obj, name="state")
    trace_defect = abs(np.trace(m).real - 1.0)
    if trace_defect > VALIDATION_TOL:
        raise ValidationError(
            f"state trace differs from 1 by {trace_defect:.3e} > {VALIDATION_TOL:.1e}"
        )
    min_eig = float(np.linalg.eigvalsh(m)[0])
    if min_eig < -VALIDATION_TOL:
        raise ValidationError(
            f"state has negative eigenvalue {min_eig:.3e} < -{VALIDATION_TOL:.1e}"
        )
    return m


def von_neumann_entropy(rho, validate: bool = True) -> float:
    """``-tr[rho ln rho]`` in nats, with the 0 ln 0 := 0 convention.

    ``validate=False`` skips the density-matrix checks (negative eigenvalues
    are still clipped at zero); intended for conditional states obtained by
    normalizing machine-generated instrument outputs.
    """
    if validate:
        m = density_matrix(rho)
    else:
        m = as_matrix(rho)
        m = (m + dag(m)) / 2
    evals = np.clip(np.linalg.eigvalsh(m), 0.0, None)
    pos = evals[evals > 0.0]
    return max(float(-np.sum(pos * np.log(pos))), 0.0)


def relative_entropy(rho, sigma) -> float:
    """Quantum relative entropy ``tr[rho (ln rho - ln sigma)]`` in nats.

    Computed on the numerical support of ``sigma`` (eigenvalues above
    ``SUPPORT_TOL``). Returns ``math.inf`` when ``rho`` carries more than
    ``SUPPORT_TOL`` of weight outside that support.
    """
    r = density_matrix(rho)
    s = density_matrix(sigma)
    if r.shape != s.shape:
        raise ValidationError(f"dimension mismatch: {r.shape} vs {s.shape}")
    a, u = np.linalg.eigh(r)
    b, v = np.linalg.eigh(s)
    a = np.clip(a, 0.0, None)
    # overlap[i, j] = |<u_i|v_j>|^2
    overlap = np.abs(dag(u) @ v) ** 2
    on_support = b > SUPPORT_TOL
    leaked = float(np.sum(a[:, None] * overlap[:, ~on_support]))
    if leaked > SUPPORT_TOL:
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
