"""Dense Hermitian linear algebra and entropy primitives.

All operators are plain complex numpy arrays; the higher-level object types
in :mod:`thermomeas.objects` are thin validated wrappers around them, and
every function here also accepts such wrappers (anything with a ``.matrix``
attribute). ``psd_sqrt``, ``density_matrix``, ``von_neumann_entropy`` and
the first operand of ``commutator_defect`` also take a ``(..., d, d)`` stack
and treat each entry as one operator; their messages then name the first
offending entry by its index in the flattened stack. Logarithms are
natural throughout, so entropies are in nats. ``_require_dimension`` is
the package's one check that an argument has the dimension of the object
it meets.

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
* Sorted eigenvalues whose consecutive gap is at most ``CLUSTER_TOL``
  times the spread (largest minus smallest), or at most the round-off
  bound ``16 d u max|E|`` on ``d`` levels (``u`` the float64 machine
  epsilon, ``max|E|`` summed over the terms of a sum) when that is larger,
  are one degenerate level with one spectral projector. The rule is
  scale-free: ``s H`` clusters as ``H`` does for any ``s > 0``, and a
  rotated multiple of the identity is one level.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import ValidationError

#: Object validation (states, effects, channels); also the Hermiticity repair threshold.
VALIDATION_TOL = 1e-9

#: Theorem checks: a defect at or below this counts as zero.
THEOREM_TOL = 1e-8

#: Support and rank: eigenvalues at or below this count as zero.
SUPPORT_TOL = 1e-10

#: Outcome probabilities in ``D(p || q)`` and nuclear factor weights at or below this are zero.
PROBABILITY_CUTOFF = 1e-12

#: Relative eigenvalue-clustering tolerance for degeneracy detection: a gap over the spread.
CLUSTER_TOL = 1e-8

#: Smallest inverse temperature accepted, the smallest normal float: D / beta overflows below it.
MIN_BETA = float(np.finfo(float).tiny)


def dag(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose (of each entry of a stack)."""
    return a.conj().swapaxes(-1, -2)


def frobenius_each(a: np.ndarray) -> np.ndarray:
    """The Frobenius norm of a matrix, or of each matrix of a ``(..., rows, cols)`` stack:
    one unscaled sum of squares per matrix over its float view, within a few ulp of
    numpy's ``norm``. A 0-d array for one matrix."""
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


def _require_dimension(d: int, of: str, **matrices) -> None:
    """Refuse each given matrix, or stack of them, unless it is ``d x d`` as ``of`` is;
    a ``None`` is skipped."""
    for name, m in matrices.items():
        shape = np.shape(m)[-2:]
        if m is not None and shape != (d, d):
            raise ValidationError(f"{name} must be {d} x {d} to match the {of}, got {shape}")


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
    defect = frobenius_each(m - adjoint)
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


def _new_clusters(values: np.ndarray, scale: float) -> np.ndarray:
    """Flags, per consecutive pair of ascending values, of a gap that starts a new level.

    A gap starts one when it exceeds both ``CLUSTER_TOL * (values[-1] - values[0])``
    and the round-off bound ``16 d u scale`` of ``d`` eigenvalues, ``scale`` being
    ``max|E|`` of the operator, or ``max|E_S| + max|E_A|`` of ``H_S (x) 1 + 1 (x) H_A``,
    whose terms leave round-off of their size however they cancel: the gaps ``eigh``
    leaves inside a rotated degenerate level were at most ``3.4 d u max|E|`` over
    Haar-rotated integer spectra of d = 2 to 64 at scales 1e-21 to 1e6.
    """
    roundoff = 16 * len(values) * np.finfo(float).eps * scale
    return np.diff(values) > max(CLUSTER_TOL * float(values[-1] - values[0]), roundoff)


def eig_hermitian(a) -> tuple:
    """``(energies, projectors)`` of a Hermitian operator, near-degenerate eigenvalues merged.

    Eigenvalues are grouped into levels by :func:`_new_clusters`. ``energies``
    holds each level's mean eigenvalue, ascending; ``projectors`` the
    orthogonal projectors onto the levels as one read-only ``(n_levels, d, d)``
    stack, mutually orthogonal and summing to the identity. A level's
    multiplicity is its projector's trace.
    """
    evals, vecs = np.linalg.eigh(require_hermitian(a))
    level = np.concatenate([[0], np.cumsum(_new_clusters(evals, float(np.abs(evals).max())))])
    member = level == np.arange(level[-1] + 1)[:, None]  # (n_levels, d): eigenvector in level
    projectors = (vecs * member[:, None, :]) @ dag(vecs)
    projectors.flags.writeable = False
    return member @ evals / member.sum(axis=1), projectors


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
    are still clipped at zero); intended for machine-generated instrument
    outputs, whose traces may be below 1.
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
    r, s = density_matrix(as_matrix(rho)), density_matrix(as_matrix(sigma))
    _require_dimension(len(r), "first state", **{"second state": s})
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
    _require_dimension(len(mb), "second operand", **{"first operand": ma})
    defects = frobenius_each(ma @ mb - mb @ ma)
    return float(defects) if ma.ndim == 2 else defects
