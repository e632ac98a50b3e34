"""Dense Hermitian linear algebra and entropy primitives.

All operators are plain complex numpy arrays; the higher-level object types
in :mod:`thermomeas.objects` are thin validated wrappers around them, and
every function here also accepts such wrappers (anything with a ``.matrix``
attribute). ``psd_sqrt``, ``density_matrix``, ``von_neumann_entropy`` and
the first operand of ``commutator_defect`` also take a ``(..., d, d)`` stack
and treat each entry as one operator; their messages then name the first
offending entry by its index in the flattened stack. Logarithms are
natural throughout, so entropies are in nats.

Numerical conventions, applied consistently package-wide. Each numerical
decision has one constant here, and the other modules import it:

* ``VALIDATION_TOL`` decides whether an object is valid. Hermiticity
  defects up to it are repaired by replacing ``A`` with ``(A + A†)/2``;
  larger defects raise, they are never silently repaired. Every object,
  parsed from a scenario or derived, validates at it.
* ``THEOREM_TOL`` decides whether a theorem's defect counts as zero. The
  classifiers, ``free_report`` and ``second_law_report`` take it as a ``tol``
  argument, which scenario input sets (``tolerances.<check>``, ``--tol``).
* ``SUPPORT_TOL`` decides support and rank: eigenvalues at or below it are
  zero.
* ``0 * ln 0 := 0`` in every entropy-like sum.
* Eigenvalues closer than ``CLUSTER_TOL`` times the spectral range are
  treated as degenerate and merged into a single spectral projector.
"""

from __future__ import annotations

import math
import sys
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

#: Smallest inverse temperature accepted, the smallest normal float: D / beta overflows below it.
MIN_BETA = float(np.finfo(float).tiny)


def dag(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose (of each entry of a stack)."""
    return a.conj().swapaxes(-1, -2)


def frobenius(a: np.ndarray) -> float:
    """Frobenius norm."""
    return float(np.linalg.norm(a))


def frobenius_each(a: np.ndarray) -> np.ndarray:
    """The Frobenius norm of each matrix of a ``(..., rows, cols)`` stack: one unscaled sum
    of squares per matrix over its float view, within a few ulp of numpy's ``norm``."""
    m = np.ascontiguousarray(a, dtype=np.result_type(a, np.float64))
    rows = m.reshape(*m.shape[:-2], m.shape[-2] * m.shape[-1])
    rows = rows.view(rows.real.dtype)
    return np.sqrt(np.einsum("...i,...i->...", rows, rows))


def logsumexp(x: np.ndarray):
    """``ln sum_i exp(x_i)`` over the last axis, shifted by its largest entry against overflow."""
    top = x.max(-1, keepdims=True)
    return top[..., 0] + np.log(np.exp(x - top).sum(-1))


def as_matrix(obj) -> np.ndarray:
    """Coerce ``obj`` to a complex 2-D array, unwrapping ``.matrix`` if present."""
    m = getattr(obj, "matrix", obj)
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise ValidationError(f"expected a matrix, got array of ndim {m.ndim}")
    return m


def as_matrices(obj) -> np.ndarray:
    """Like :func:`as_matrix`, but a ``(..., rows, cols)`` stack of matrices is accepted too."""
    m = getattr(obj, "matrix", obj)
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2:
        raise ValidationError(
            f"expected a matrix or a stack of matrices, got array of ndim {m.ndim}"
        )
    return m


def _first_failure(values, bad, name) -> tuple:
    """``(value, label)`` of the first entry flagged in ``bad``, which flags one at least.

    ``values`` and ``bad`` hold one entry per matrix of a stack, or a single
    entry for one matrix. The label is ``name`` for one matrix; for entry
    ``i`` of the flattened stack it is ``name[i]`` when ``name`` is a tuple
    of one label per entry, else ``"name i"``.
    """
    i = int(np.argmax(np.ravel(bad)))
    label = name if np.ndim(bad) == 0 else name[i] if isinstance(name, tuple) else f"{name} {i}"
    return np.ravel(values)[i], label


def require_square(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    if m.shape[-1] != m.shape[-2]:
        raise ValidationError(f"{name} must be square, got shape {m.shape}")
    return m


def require_hermitian(obj, name: str = "matrix") -> np.ndarray:
    """Return the symmetrization ``(A + A†)/2`` if the defect is at most ``VALIDATION_TOL``.

    A larger defect is an error, not something to repair silently, and so
    is any NaN or infinite entry.
    """
    return _symmetrized(as_matrix(obj), VALIDATION_TOL, name)


def _symmetrized(m: np.ndarray, tol: float, name) -> np.ndarray:
    """:func:`require_hermitian` of a matrix or of each entry of a stack.

    A refusal names the entry as :func:`_first_failure` does.
    """
    require_square(m, name)
    if not np.isfinite(m).all():
        finite = np.isfinite(m).all(axis=(-2, -1))
        _, label = _first_failure(finite, ~finite, name)
        raise ValidationError(f"{label} has non-finite (NaN or infinite) entries")
    adjoint = dag(m)
    skew = m - adjoint
    if frobenius(skew) > tol:  # the defect of the whole stack bounds each entry's
        defect = frobenius_each(skew)
        if (defect > tol).any():
            worst, label = _first_failure(defect, defect > tol, name)
            raise ValidationError(
                f"{label} is not Hermitian: ||A - A^dag||_F = {worst:.3e} > {tol:.1e}"
            )
    return (m + adjoint) / 2


def require_beta(beta, name: str = "inverse temperature") -> float:
    """``float(beta)`` for a finite inverse temperature of at least ``MIN_BETA``; anything
    else raises, naming it ``name``."""
    if not np.isfinite(beta) or beta <= 0:
        raise ValidationError(f"{name} must be positive and finite, got {beta}")
    if beta < MIN_BETA:
        raise ValidationError(
            f"{name} must be at least {MIN_BETA}, the smallest normal float, got {beta}"
        )
    return float(beta)


def _require_beta_at_dimension(beta: float, d: int, name: str = "beta") -> None:
    """Refuse a ``beta`` at which ``ln(d) / beta`` overflows: a per-state quantity divided
    by ``beta``, such as ``D(rho || tau) / beta``, reaches about that size on ``d`` levels."""
    if beta < (floor := math.log(d) / sys.float_info.max):
        raise ValidationError(
            f"{name} = {beta!r} is below ln(d) / {sys.float_info.max!r} = {floor!r} for the "
            f"system dimension d = {d}: a quantity divided by beta overflows"
        )


@dataclass(frozen=True)
class SpectralDecomposition:
    """Clustered eigendecomposition of a Hermitian operator.

    ``eigenvalues`` holds one value per cluster, ascending; ``projectors``
    the corresponding orthogonal projectors (rank = multiplicity) as one
    read-only ``(n_levels, d, d)`` stack, mutually orthogonal and summing
    to the identity.
    """

    eigenvalues: np.ndarray
    projectors: np.ndarray
    multiplicities: tuple

    @property
    def dim(self) -> int:
        return self.projectors.shape[1]

    @property
    def nondegenerate(self) -> bool:
        return all(m == 1 for m in self.multiplicities)


def _new_clusters(values: np.ndarray) -> np.ndarray:
    """Flags, per consecutive pair of sorted values, of a gap above the clustering threshold.

    The absolute threshold is ``CLUSTER_TOL * max(spread, 1)``.
    """
    return np.diff(values) > CLUSTER_TOL * max(float(values[-1] - values[0]), 1.0)


def cluster_indices(values: np.ndarray) -> list:
    """Group sorted real values whose consecutive gaps fall below the threshold.

    The threshold is that of :func:`_new_clusters`. Returns a list of index
    arrays, one per cluster, in ascending order.
    """
    values = np.asarray(values, dtype=float)
    if len(values) == 0:
        return []
    return np.split(np.arange(len(values)), np.flatnonzero(_new_clusters(values)) + 1)


def eig_hermitian(a) -> SpectralDecomposition:
    """Eigendecompose a Hermitian operator, merging near-degenerate eigenvalues.

    Each cluster of eigenvalues within ``CLUSTER_TOL`` (relative to the
    spectral range) of each other yields one projector; the reported
    eigenvalue is the cluster mean.
    """
    evals, vecs = np.linalg.eigh(require_hermitian(a))
    level = np.concatenate([[0], np.cumsum(_new_clusters(evals))])
    member = level == np.arange(level[-1] + 1)[:, None]  # (n_levels, d): eigenvector in level
    counts = member.sum(axis=1)
    projectors = (vecs * member[:, None, :]) @ dag(vecs)
    projectors.flags.writeable = False
    return SpectralDecomposition(
        eigenvalues=member @ evals / counts,
        projectors=projectors,
        multiplicities=tuple(counts.tolist()),
    )


def psd_sqrt(a, name="operator") -> np.ndarray:
    """Principal square root of a positive semidefinite operator, or of each entry of a stack.

    Eigenvalues at or below ``d u max|lambda|`` of their own matrix (``u`` the
    float64 machine epsilon), whose roots would be round-off, are set to zero,
    as are those in ``[-VALIDATION_TOL, 0)``; anything more negative raises,
    naming the entry as :func:`_first_failure` does.
    """
    evals, vecs = np.linalg.eigh(_symmetrized(as_matrices(a), VALIDATION_TOL, "matrix"))
    lowest = evals[..., 0]
    if (lowest < -VALIDATION_TOL).any():
        worst, label = _first_failure(lowest, lowest < -VALIDATION_TOL, name)
        raise ValidationError(
            f"{label} is not positive semidefinite: min eigenvalue {worst:.3e} "
            f"< -{VALIDATION_TOL:.1e}"
        )
    floor = evals.shape[-1] * np.finfo(float).eps * np.abs(evals).max(axis=-1, keepdims=True)
    root = np.sqrt(np.where(evals > floor, evals, 0.0))
    return (vecs * root[..., None, :]) @ dag(vecs)


def density_matrix(obj) -> np.ndarray:
    """Validate and return a density matrix (Hermitian, PSD, unit trace), or a stack of them."""
    m = _symmetrized(as_matrices(obj), VALIDATION_TOL, "state")
    trace_defect = np.abs(np.trace(m, axis1=-2, axis2=-1).real - 1.0)
    if (trace_defect > VALIDATION_TOL).any():
        worst, label = _first_failure(trace_defect, trace_defect > VALIDATION_TOL, "state")
        raise ValidationError(
            f"{label} trace differs from 1 by {worst:.3e} > {VALIDATION_TOL:.1e}"
        )
    min_eig = np.linalg.eigvalsh(m)[..., 0]
    if (min_eig < -VALIDATION_TOL).any():
        worst, label = _first_failure(min_eig, min_eig < -VALIDATION_TOL, "state")
        raise ValidationError(
            f"{label} has negative eigenvalue {worst:.3e} < -{VALIDATION_TOL:.1e}"
        )
    return m


def von_neumann_entropy(rho, validate: bool = True):
    """``-tr[rho ln rho]`` in nats, with the 0 ln 0 := 0 convention.

    A float for one operator, an array of one entropy per entry for a stack.
    ``validate=False`` skips the density-matrix checks (negative eigenvalues
    are still clipped at zero); intended for conditional states obtained by
    normalizing machine-generated instrument outputs.
    """
    if validate:
        m = density_matrix(rho)
    else:
        m = as_matrices(rho)
        m = (m + dag(m)) / 2
    evals = np.maximum(np.linalg.eigvalsh(m), 0.0)
    log = np.log(evals, out=np.zeros_like(evals), where=evals > 0.0)  # 0 ln 0 := 0
    entropy = np.maximum(-(evals * log).sum(axis=-1), 0.0)
    return float(entropy) if m.ndim == 2 else entropy


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


def commutator_defect(a, b):
    """``||AB - BA||_F``, the uniform metric for all commutation checks.

    A float for one operator ``a``; for a ``(..., d, d)`` stack ``a``, an
    array of one defect per entry.
    """
    ma, mb = as_matrices(a), as_matrix(b)
    require_square(ma, "first operand")
    require_square(mb, "second operand")
    if ma.shape[-2:] != mb.shape:
        raise ValidationError(f"dimension mismatch: {ma.shape} vs {mb.shape}")
    defects = frobenius_each(ma @ mb - mb @ ma)
    return float(defects) if ma.ndim == 2 else defects
