"""Validated quantum objects: states, observables, channels, instruments.

Every library object is immutable after construction: its class derives
from :class:`_Immutable`, which refuses attribute writes and deletions,
and its arrays are read-only. Each validates its defining invariants on
entry, so downstream code can assume well-formed inputs. Validation uses
``VALIDATION_TOL``, for objects parsed from a scenario as for derived
ones. Ranks and supports use ``SUPPORT_TOL``.
"""

from __future__ import annotations

from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .linalg import (
    SUPPORT_TOL,
    VALIDATION_TOL,
    _require_dimension,
    _symmetrized,
    as_matrices,
    as_matrix,
    dag,
    density_matrix,
    eig_hermitian,
    frobenius_each,
    logsumexp,
    psd_sqrt,
    require_beta,
    require_hermitian,
    require_square,
)


class _Immutable:
    """Base of every library object: setting or deleting an attribute is refused.

    A constructor stores its fields with ``vars(self).update``, and a ``cached_property``
    writes to ``__dict__`` directly, so what it derives is computed on first read and kept."""

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")


def _from_validated(cls, *fields):
    """An instance of ``cls`` made from ``fields`` that a stacked kernel has validated.

    ``cls._hold`` sets what the constructor sets once it has validated the
    same fields, so what an object holds is decided by its class alone; what
    the object derives from them, its ``cached_property`` derives on first read.
    """
    obj = object.__new__(cls)
    obj._hold(*fields)
    return obj


def _labels(outcomes: Sequence, what: str, n: int, given: str) -> tuple:
    """``outcomes`` as strings, refused unless nonempty, unique and as many as
    the ``n`` ``given`` items (effects or Kraus sets) of ``what``."""
    labels = tuple(str(x) for x in outcomes)
    if not labels:
        raise ValidationError(f"{what} needs at least one outcome")
    if len(set(labels)) != len(labels):
        raise ValidationError("outcome labels must be unique")
    if n != len(labels):
        raise ValidationError(f"{len(labels)} outcomes but {n} {given} supplied")
    return labels


def _kraus_stack(kraus: Sequence, outcome: str = None) -> np.ndarray:
    """Read-only ``(k, d_out, d_in)`` stack of a Kraus list.

    Refuses an empty list, operators of unequal shape and non-finite
    entries; ``outcome`` names the instrument outcome in error messages.
    """
    ops = [as_matrix(k) for k in kraus]
    where = "" if outcome is None else f" of outcome {outcome!r}"
    if not ops:
        raise ValidationError(f"no Kraus operator given{where}")
    for i, k in enumerate(ops):
        if k.shape != ops[0].shape:
            raise ValidationError(
                f"Kraus operator {i}{where} has shape {k.shape}, expected {ops[0].shape}"
            )
    ks = np.array(ops, dtype=complex)
    _require_finite(ks, where)
    ks.flags.writeable = False
    return ks


def _require_finite(ks: np.ndarray, where: str = "") -> None:
    """Refuse the first Kraus operator of a ``(..., k, rows, cols)`` stack with a non-finite entry.

    The message gives the operator's index within its own ``k`` operators.
    """
    finite = np.isfinite(ks)
    if not finite.all():
        first = int(np.argmin(finite.all(axis=(-2, -1)).reshape(-1)))
        raise ValidationError(
            f"Kraus operator {first % ks.shape[-3]}{where} has non-finite "
            f"(NaN or infinite) entries"
        )


def _require_trace_preserving(grams: np.ndarray, what: str) -> None:
    """Refuse the first ``sum K† K`` of a ``(..., d, d)`` stack that is not the identity."""
    defects = frobenius_each(grams - np.eye(grams.shape[-1])).reshape(-1)
    bad = defects > VALIDATION_TOL
    if bad.any():
        raise ValidationError(
            f"{what} is not trace preserving: ||sum K^dag K - 1||_F = "
            f"{defects[np.argmax(bad)]:.3e} > {VALIDATION_TOL:.1e}"
        )


def _require_effects(stack: np.ndarray, names: tuple) -> None:
    """Refuse the first observable of a ``(..., n, d, d)`` stack of Hermitian effects
    with an eigenvalue outside [0, 1] or effects that do not sum to the identity.

    ``names`` names the ``n`` effects of one observable; the tolerance is ``VALIDATION_TOL``.
    """
    evals = np.linalg.eigvalsh(stack)
    violation = np.maximum(-evals[..., 0], evals[..., -1] - 1.0).reshape(-1, len(names))
    bad = (violation > VALIDATION_TOL).any(axis=1)
    if bad.any():
        row = violation[np.argmax(bad)]
        worst = int(np.argmax(row))
        raise ValidationError(
            f"{names[worst]} has an eigenvalue {row[worst]:.3e} outside [0, 1] "
            f"(worst violation over all effects; tolerance {VALIDATION_TOL:.1e})"
        )
    defects = frobenius_each(stack.sum(axis=-3) - np.eye(stack.shape[-1])).reshape(-1)
    bad = defects > VALIDATION_TOL
    if bad.any():
        raise ValidationError(
            f"effects sum differs from identity by {defects[np.argmax(bad)]:.3e} "
            f"> {VALIDATION_TOL:.1e}"
        )


def _gram(ks: np.ndarray, a: np.ndarray = None) -> np.ndarray:
    """``sum K† K`` over a Kraus stack, or over each of a ``(..., k, rows, cols)`` stack of
    them; with a ``rows x rows`` operator ``a`` in the middle, ``sum K† a K``.

    One matrix product per stack: the ``K`` laid one above the other, a
    view of the stack, times its conjugate transpose on the left. With
    ``a``, the ``K`` are first laid side by side, so that one product forms
    every ``a K``, and both factors are stacked by row, then operator.
    """
    k, rows, cols = ks.shape[-3:]
    lead = ks.shape[:-3]
    if a is None:
        stacked = ks.reshape(*lead, k * rows, cols)
        return dag(stacked) @ stacked
    side_by_side = ks.swapaxes(-3, -2).reshape(*lead, rows, k * cols)
    stacked = side_by_side.reshape(*lead, rows * k, cols)
    return dag(stacked) @ (a @ side_by_side).reshape(stacked.shape)


def _bistochastic_defects(gram: np.ndarray, co_gram: np.ndarray) -> tuple:
    """Trace-preservation and unitality defects of a square channel, or of each of a stack
    of them, from its ``gram = sum K† K`` and ``co_gram = sum K K†``."""
    eye = np.eye(gram.shape[-1])
    return frobenius_each(gram - eye), frobenius_each(co_gram - eye)


def _sandwich(ks: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``sum K m K†`` of each Kraus stack of a ``(..., k, d_out, d_in)`` stack on each of
    the ``n`` operators of its own ``(..., *n, d_in, d_in)`` stack, none for one operator.

    Per block of the ``n`` operators, laid one above the other, two products:
    times every ``K†`` side by side, then each ``(m K†)^T`` side by side times
    every ``K^T`` one above the other, summing over the Kraus operators to
    ``(K m K†)^T``. Only the rows of a product depend on ``n``, and they leave
    a row's bits as they are, so an output has the same bits alone as in a
    stack. For ``d_out = 1`` the second is an elementwise product summed over
    its last axis: a matrix-vector product's bits depend on its row count. A
    block holds ``n d_out // (k d_in)``, one at least, so no intermediate
    outgrows the Kraus stack or the output.
    """
    k, d_out, d_in = ks.shape[-3:]
    points = ks.reshape(-1, k, d_out, d_in)
    p, n = len(points), int(np.prod(m.shape[ks.ndim - 3:-2]))
    above = np.ascontiguousarray(m).reshape(p, n * d_in, d_in)
    adjoints = np.conjugate(points.transpose(0, 3, 1, 2), order="C").reshape(p, d_in, k * d_out)
    transposes = np.ascontiguousarray(points.transpose(0, 1, 3, 2)).reshape(p, k * d_in, d_out)
    block, out = max(1, n * d_out // (k * d_in)), np.empty((p, n * d_out, d_out), dtype=complex)
    for start in range(0, n, block):
        right = above[:, start * d_in:(start + block) * d_in] @ adjoints
        right = right.reshape(p, -1, d_in, k, d_out).transpose(0, 1, 4, 3, 2)
        right = right.reshape(p, -1, k * d_in)
        out[:, start * d_out:(start + block) * d_out] = (
            right @ transposes if d_out > 1
            else (right * transposes.swapaxes(1, 2)).sum(axis=-1, keepdims=True)
        )
    return out.reshape(p, n, d_out, d_out).swapaxes(-1, -2).reshape(*m.shape[:-2], d_out, d_out)


def _outputs(kraus_sets: tuple, m: np.ndarray) -> np.ndarray:
    """:func:`_sandwich` of each outcome's ``(..., k_x, d, d)`` Kraus stack on ``m``, as one
    ``(..., n_outcomes, *n, d, d)`` array: every instrument meets its states here."""
    lead = kraus_sets[0].ndim - 3
    out = np.empty((*m.shape[:lead], len(kraus_sets), *m.shape[lead:]), dtype=complex)
    by_outcome = np.moveaxis(out, lead, 0)
    for x, ks in enumerate(kraus_sets):
        by_outcome[x] = _sandwich(ks, m)
    return out


def _dual(ks: np.ndarray, a: np.ndarray) -> np.ndarray:
    """``sum K† A K`` over a Kraus stack, or over each of a ``(..., k, d_out, d_in)`` stack.

    Two steps, O(k D^3). First ``conj(K) A``, one C-ordered matrix product for
    all Kraus operators: for a diagonal A each entry has one nonzero term, so
    any kernel forms it exactly. Then the sum over k and b, an einsum that
    accumulates in sequence over the merged ``(k, b)`` index, as the
    three-operand einsum does. This is the one summation order in the
    package that the benchmark's reference outputs pin: the d = 8 fourth
    energy moment's defect, about 4e-11, is compared to 1e-12, and a matmul
    kernel, or this einsum on a non-C-ordered operand, sums otherwise.
    """
    left = np.conjugate(ks.swapaxes(-1, -2), order="C")
    left = (left.reshape(-1, a.shape[0]) @ a).reshape(left.shape)
    return np.einsum("...kib,...kbj->...ij", left, ks)


def _choi(ks: np.ndarray) -> np.ndarray:
    """:func:`choi_of_operation` of a Kraus stack.

    Row-major flattening of a Kraus operator is exactly its image of the
    unnormalized maximally entangled vector, so the Choi matrix is the Gram
    sum of the flattened operators.
    """
    vecs = ks.reshape(len(ks), -1)
    choi = vecs.T @ vecs.conj()
    return (choi + dag(choi)) / 2


class State(_Immutable):
    """Density operator: Hermitian, positive semidefinite, unit trace."""

    def __init__(self, matrix):
        m = density_matrix(matrix)
        m.flags.writeable = False
        self._hold(m)

    def _hold(self, matrix: np.ndarray) -> None:
        """Holds a validated, read-only density matrix."""
        vars(self).update(matrix=matrix, dim=matrix.shape[0])

    def __repr__(self):
        return f"State(dim={self.dim})"


def pure_state(vector) -> State:
    """State |v><v| from a (not necessarily normalized) vector."""
    v = np.asarray(vector, dtype=complex).reshape(-1)
    norm = np.linalg.norm(v)
    if norm == 0:
        raise ValidationError("cannot normalize the zero vector")
    v = v / norm
    return State(np.outer(v, v.conj()))


class Observable(_Immutable):
    """Discrete POVM: labeled effects with 0 <= E_x <= 1 summing to identity.

    ``effects`` is one read-only ``(n_outcomes, dim, dim)`` stack.
    """

    def __init__(self, outcomes: Sequence[str], effects: Sequence):
        outcomes = _labels(outcomes, "observable", len(effects), "effects")
        names = tuple(f"effect {x!r}" for x in outcomes)
        matrices = [as_matrix(e) for e in effects]
        dim = matrices[0].shape[0]
        for name, m in zip(names, matrices):
            require_square(m, name)
            if m.shape[0] != dim:
                raise ValidationError(f"{name} has dimension {m.shape[0]}, expected {dim}")
        stack = _symmetrized(np.array(matrices), VALIDATION_TOL, names)
        _require_effects(stack, names)
        stack.flags.writeable = False
        self._hold(outcomes, stack)

    def _hold(self, outcomes: tuple, effects: np.ndarray) -> None:
        vars(self).update(outcomes=outcomes, effects=effects, dim=effects.shape[-1])

    @property
    def n_outcomes(self) -> int:
        return len(self.outcomes)

    def probabilities(self, rho) -> np.ndarray:
        """Born-rule outcome distribution ``tr[E_x rho]``."""
        m = as_matrix(rho)
        _require_dimension(self.dim, "observable", state=m)
        return np.trace(self.effects @ m, axis1=1, axis2=2).real

    def sharpness_defect(self) -> float:
        """Max ``||E_x E_y - delta_xy E_x||_F`` over outcome pairs."""
        e = self.effects
        delta = np.eye(self.n_outcomes)[:, :, None, None]
        return float(frobenius_each(e[:, None] @ e - delta * e[:, None]).max())

    def is_sharp(self) -> bool:
        return self.sharpness_defect() <= VALIDATION_TOL

    def triviality_defect(self) -> float:
        """Max distance of an effect from the span of the identity.

        Zero exactly when every effect is proportional to the identity (or
        the zero operator), i.e. when the observable carries no information.
        """
        mean = np.trace(self.effects, axis1=1, axis2=2).real / self.dim
        spread = self.effects - mean[:, None, None] * np.eye(self.dim)
        return float(frobenius_each(spread).max())

    def is_trivial(self) -> bool:
        return self.triviality_defect() <= VALIDATION_TOL

    def is_rank_one(self) -> bool:
        """True when every effect is a positive multiple of a rank-1 projection."""
        return bool(((np.linalg.eigvalsh(self.effects) > SUPPORT_TOL).sum(axis=1) <= 1).all())

    def __repr__(self):
        return f"Observable(outcomes={list(self.outcomes)}, dim={self.dim})"


class KrausChannel(_Immutable):
    """Trace-preserving completely positive map in Kraus form.

    ``kraus`` is one read-only ``(k, dim_out, dim_in)`` stack; operators may
    be rectangular, and ``sum K† K`` must be the identity on the input space.
    """

    def __init__(self, kraus: Sequence):
        ks = _kraus_stack(kraus)
        _require_trace_preserving(_gram(ks), "channel")
        self._hold(ks)

    def _hold(self, kraus: np.ndarray) -> None:
        vars(self).update(kraus=kraus, dim_out=kraus.shape[1], dim_in=kraus.shape[2])

    @property
    def dim(self) -> int:
        if self.dim_in != self.dim_out:
            raise ValidationError(
                f"channel is rectangular ({self.dim_out} x {self.dim_in}), has no single dim"
            )
        return self.dim_in

    def apply(self, rho) -> np.ndarray:
        """Schroedinger action ``sum K rho K†`` on one operator or on each entry of a stack."""
        m = as_matrices(rho)
        _require_dimension(self.dim_in, "channel's input", state=m)
        return _sandwich(self.kraus, m)

    def apply_dual(self, a) -> np.ndarray:
        """Heisenberg action ``sum K† A K`` (trace dual of :meth:`apply`)."""
        m = as_matrix(a)
        _require_dimension(self.dim_out, "channel's output", operator=m)
        return _dual(self.kraus, m)

    def __repr__(self):
        return f"KrausChannel(n_kraus={len(self.kraus)}, dims={self.dim_out}x{self.dim_in})"


def gibbs_state(hamiltonian, beta: float) -> State:
    """Thermal state ``exp(-beta H) / tr[exp(-beta H)]``, computed spectrally."""
    return gibbs_state_from(*gibbs_log_weights(hamiltonian, require_beta(beta)))


def gibbs_state_from(log_weights: np.ndarray, vecs: np.ndarray) -> State:
    """The thermal state with the :func:`gibbs_log_weights` ``log_weights`` and ``vecs``."""
    return State((vecs * np.exp(log_weights)) @ dag(vecs))


def gibbs_log_weights(hamiltonian, beta: float) -> tuple:
    """Log-weights ``ln tau_i = -beta E_i - ln Z`` and eigenvectors of ``H``, read-only.

    ``ln Z`` is a log-sum-exp, so the weights stay finite for every beta
    whose product with the energy spread ``E_max - E_min`` is finite,
    however small the Gibbs populations of the excited levels; a beta whose
    product overflows is refused, naming both.
    """
    h = require_hermitian(hamiltonian, name="hamiltonian")
    evals, vecs = np.linalg.eigh(h)
    spread = float(evals[-1]) - float(evals[0])
    if not np.isfinite(float(beta) * spread):  # in Python floats an overflow is inf, unwarned
        raise ValidationError(
            f"beta = {beta:.6g} times the energy spread {spread:.6g} of the Hamiltonian "
            f"overflows; the Gibbs weights cannot be formed"
        )
    log_weights = -beta * (evals - evals[0])
    log_weights = log_weights - logsumexp(log_weights)
    log_weights.flags.writeable = False
    vecs.flags.writeable = False
    return log_weights, vecs


class Instrument(_Immutable):
    """Outcome-indexed family of CP trace non-increasing operations.

    Each outcome holds a read-only ``(k_x, dim, dim)`` Kraus stack; together
    the stacks must form a trace-preserving channel (the total channel).
    """

    def __init__(self, outcomes: Sequence[str], kraus_sets: Sequence):
        outcomes = _labels(outcomes, "instrument", len(kraus_sets), "Kraus sets")
        stacks = tuple(_kraus_stack(ops, label) for label, ops in zip(outcomes, kraus_sets))
        dim = stacks[0].shape[1]
        for label, ks in zip(outcomes, stacks):
            if ks.shape[1:] != (dim, dim):
                raise ValidationError(
                    f"outcome {label!r} has Kraus operators of shape {ks.shape[1:]}, "
                    f"expected ({dim}, {dim})"
                )
        grams = np.array([_gram(ks) for ks in stacks])
        grams.flags.writeable = False
        _require_trace_preserving(grams.sum(axis=0), "total channel")
        self._hold(outcomes, stacks, grams)

    def _hold(self, outcomes: tuple, kraus_sets: tuple, grams: np.ndarray) -> None:
        """Holds the outcomes, their Kraus stacks and Gram sums, from which
        :attr:`induced_observable` is derived when it is first read."""
        vars(self).update(
            outcomes=outcomes, kraus_sets=kraus_sets, dim=kraus_sets[0].shape[-1], _grams=grams
        )

    @classmethod
    def luders(cls, observable: Observable) -> "Instrument":
        """Lueders instrument of an observable: Kraus sets ``{sqrt(E_x)}``.

        A refusal of an effect's square root names its outcome.
        """
        names = tuple(f"effect {x!r}: operator" for x in observable.outcomes)
        return cls(observable.outcomes, psd_sqrt(observable.effects, names)[:, None])

    @property
    def n_outcomes(self) -> int:
        return len(self.outcomes)

    def apply(self, rho) -> np.ndarray:
        """All unnormalized outputs ``I_x(rho)`` as one ``(n_outcomes, d, d)`` array.

        For a ``(..., d, d)`` stack of inputs the result is ``(n_outcomes, ..., d, d)``.
        """
        m = as_matrices(rho)
        _require_dimension(self.dim, "instrument", state=m)
        return _outputs(self.kraus_sets, m)

    @cached_property
    def induced_observable(self) -> Observable:
        """The unique observable with ``tr[I_x(rho)] = tr[E_x rho]``, derived once.

        Its effects are the per-outcome Gram sums ``sum K† K`` that the
        trace-preservation check, of the constructor or a scheme's, already took.
        """
        return Observable(self.outcomes, self._grams)

    @cached_property
    def choi(self) -> np.ndarray:
        """The outcomes' Choi matrices as one read-only ``(n_outcomes, dim², dim²)`` stack.

        Entry ``x`` is :func:`choi_of_operation` of outcome ``x``; derived once.
        """
        stack = np.array([_choi(ks) for ks in self.kraus_sets])
        stack.flags.writeable = False
        return stack

    def __repr__(self):
        return f"Instrument(outcomes={list(self.outcomes)}, dim={self.dim})"


def spectral_observable(hamiltonian) -> Observable:
    """Sharp observable of a Hermitian operator's spectral projectors.

    Outcomes are labeled ``"0", "1", ...`` in ascending eigenvalue order.
    """
    _, projectors = eig_hermitian(hamiltonian)
    return Observable([str(i) for i in range(len(projectors))], projectors)


def choi_of_operation(kraus: Sequence) -> np.ndarray:
    """Choi matrix of the CP operation with the given Kraus operators, symmetrized.

    Convention: for an operation ``Phi`` the Choi matrix is
    ``sum_ij Phi(|i><j|) (x) |i><j|`` -- output factor first, input factor
    second -- so the Choi of the identity is the unnormalized maximally
    entangled projector. It is returned as ``(C + C†)/2``.
    """
    return _choi(_kraus_stack(kraus))


def choi_rank(choi: np.ndarray) -> int:
    """Number of eigenvalues of a Choi matrix above ``SUPPORT_TOL``."""
    return int(np.sum(np.linalg.eigvalsh(choi) > SUPPORT_TOL))
