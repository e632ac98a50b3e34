"""Validated quantum objects: states, observables, channels, instruments, Choi forms.

All types are immutable after construction (backing arrays are marked
read-only) and validate their defining invariants on entry, so downstream
code can assume well-formed inputs. Validation uses ``VALIDATION_TOL``;
only ``Observable`` and ``KrausChannel`` take a ``tol``, which scenario
input sets (``tolerances.validation``). Ranks and supports use
``SUPPORT_TOL``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .linalg import (
    SUPPORT_TOL,
    VALIDATION_TOL,
    _psd_sqrt,
    _symmetrized,
    as_matrices,
    as_matrix,
    dag,
    density_matrix,
    eig_hermitian,
    frobenius,
    logsumexp,
    require_beta,
    require_hermitian,
    require_square,
)


def _freeze(m: np.ndarray) -> np.ndarray:
    out = np.array(m, dtype=complex)
    out.flags.writeable = False
    return out


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
    finite = np.isfinite(ks).all(axis=(1, 2))
    if not finite.all():
        raise ValidationError(
            f"Kraus operator {int(np.argmin(finite))}{where} has non-finite "
            f"(NaN or infinite) entries"
        )
    ks.flags.writeable = False
    return ks


def _gram(ks: np.ndarray) -> np.ndarray:
    """``sum K† K`` over a Kraus stack."""
    return np.tensordot(ks.conj(), ks, axes=([0, 1], [0, 1]))


def _sandwich(ks: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``sum K m K†`` over a Kraus stack, for one operator ``m`` or an ``(n, d, d)`` stack.

    Two matrix products per group of Kraus operators: the operators laid
    one above the other times the stack laid side by side, then, with the
    products regrouped, times the ``K†`` laid one above the other, which
    sums over the operators and their inner index. Groups hold
    ``max(1, k // n)`` operators and the sum accumulates in the output, so
    no intermediate is larger than the Kraus stack or, for
    ``d_in <= d_out``, the output.
    """
    stack = m[None] if m.ndim == 2 else m
    n, d_in = stack.shape[:2]
    k, d_out = ks.shape[:2]
    side_by_side = stack.transpose(1, 0, 2).reshape(d_in, n * d_in)
    rows = ks.reshape(k * d_out, d_in)
    cols = dag(ks).reshape(k * d_in, d_out)
    group = max(1, k // n)
    out = np.zeros((d_out * n, d_out), dtype=complex)
    for start in range(0, k, group):
        stop = min(start + group, k)
        left = rows[start * d_out:stop * d_out] @ side_by_side
        left = left.reshape(stop - start, d_out, n, d_in).transpose(1, 2, 0, 3)
        out += left.reshape(d_out * n, (stop - start) * d_in) @ cols[start * d_in:stop * d_in]
    out = out.reshape(d_out, n, d_out).transpose(1, 0, 2)
    return out[0] if m.ndim == 2 else out


def _choi(ks: np.ndarray) -> np.ndarray:
    """Choi matrix of a Kraus stack: the Gram sum of its row-major flattened operators.

    Row-major flattening of a Kraus operator is exactly its image of the
    unnormalized maximally entangled vector (see :class:`ChoiMatrix`).
    """
    vecs = ks.reshape(len(ks), -1)
    return vecs.T @ vecs.conj()


class State:
    """Density operator: Hermitian, positive semidefinite, unit trace."""

    def __init__(self, matrix):
        m = density_matrix(matrix)
        self.matrix = _freeze(m)
        self.dim = m.shape[0]

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


class Observable:
    """Discrete POVM: labeled effects with 0 <= E_x <= 1 summing to identity.

    ``effects`` is one read-only ``(n_outcomes, dim, dim)`` stack.
    """

    def __init__(self, outcomes: Sequence[str], effects: Sequence, tol: float = VALIDATION_TOL):
        outcomes = tuple(str(x) for x in outcomes)
        if not outcomes:
            raise ValidationError("observable needs at least one outcome")
        if len(set(outcomes)) != len(outcomes):
            raise ValidationError("outcome labels must be unique")
        if len(effects) != len(outcomes):
            raise ValidationError(
                f"{len(outcomes)} outcomes but {len(effects)} effects supplied"
            )
        names = tuple(f"effect {x!r}" for x in outcomes)
        matrices = [as_matrix(e) for e in effects]
        dim = matrices[0].shape[0]
        for name, m in zip(names, matrices):
            require_square(m, name)
            if m.shape[0] != dim:
                raise ValidationError(f"{name} has dimension {m.shape[0]}, expected {dim}")
        stack = _symmetrized(np.array(matrices), tol, names)
        evals = np.linalg.eigvalsh(stack)
        violation = np.maximum(-evals[:, 0], evals[:, -1] - 1.0)
        worst = int(np.argmax(violation))
        if violation[worst] > tol:
            raise ValidationError(
                f"{names[worst]} has an eigenvalue {violation[worst]:.3e} outside [0, 1] "
                f"(worst violation over all effects; tolerance {tol:.1e})"
            )
        completeness_defect = frobenius(stack.sum(axis=0) - np.eye(dim))
        if completeness_defect > tol:
            raise ValidationError(
                f"effects sum differs from identity by {completeness_defect:.3e} > {tol:.1e}"
            )
        stack.flags.writeable = False
        self.outcomes = outcomes
        self.effects = stack
        self.dim = dim

    @property
    def n_outcomes(self) -> int:
        return len(self.outcomes)

    def effect(self, label: str) -> np.ndarray:
        return self.effects[self.outcomes.index(str(label))]

    def probabilities(self, rho) -> np.ndarray:
        """Born-rule outcome distribution ``tr[E_x rho]``."""
        return np.trace(self.effects @ as_matrix(rho), axis1=1, axis2=2).real

    def sharpness_defect(self) -> float:
        """Max ``||E_x E_y - delta_xy E_x||_F`` over outcome pairs, one row ``E_x E`` at a time."""
        delta = np.eye(self.n_outcomes)[:, :, None, None]
        return max(
            float(np.linalg.norm(e @ self.effects - d * e, axis=(1, 2)).max())
            for e, d in zip(self.effects, delta)
        )

    def is_sharp(self) -> bool:
        return self.sharpness_defect() <= VALIDATION_TOL

    def triviality_defect(self) -> float:
        """Max distance of an effect from the span of the identity.

        Zero exactly when every effect is proportional to the identity (or
        the zero operator), i.e. when the observable carries no information.
        """
        mean = np.trace(self.effects, axis1=1, axis2=2).real / self.dim
        spread = self.effects - mean[:, None, None] * np.eye(self.dim)
        return float(np.linalg.norm(spread, axis=(1, 2)).max())

    def is_trivial(self) -> bool:
        return self.triviality_defect() <= VALIDATION_TOL

    def is_rank_one(self) -> bool:
        """True when every effect is a positive multiple of a rank-1 projection."""
        return bool(((np.linalg.eigvalsh(self.effects) > SUPPORT_TOL).sum(axis=1) <= 1).all())

    def __repr__(self):
        return f"Observable(outcomes={list(self.outcomes)}, dim={self.dim})"


class KrausChannel:
    """Trace-preserving completely positive map in Kraus form.

    ``kraus`` is one read-only ``(k, dim_out, dim_in)`` stack; operators may
    be rectangular, and ``sum K† K`` must be the identity on the input space.
    """

    def __init__(self, kraus: Sequence, tol: float = VALIDATION_TOL):
        ks = _kraus_stack(kraus)
        tp_defect = frobenius(_gram(ks) - np.eye(ks.shape[2]))
        if tp_defect > tol:
            raise ValidationError(
                f"channel is not trace preserving: ||sum K^dag K - 1||_F = "
                f"{tp_defect:.3e} > {tol:.1e}"
            )
        self.kraus = ks
        self.dim_out, self.dim_in = ks.shape[1:]

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
        if m.shape[-2:] != (self.dim_in, self.dim_in):
            raise ValidationError(
                f"channel input must be {self.dim_in} x {self.dim_in}, got {m.shape}"
            )
        return _sandwich(self.kraus, m)

    def apply_dual(self, a) -> np.ndarray:
        """Heisenberg action ``sum K† A K`` (trace dual of :meth:`apply`)."""
        m = as_matrix(a)
        if m.shape != (self.dim_out, self.dim_out):
            raise ValidationError(
                f"dual input must be {self.dim_out} x {self.dim_out}, got {m.shape}"
            )
        ks = self.kraus
        return np.einsum("kai,ab,kbj->ij", ks.conj(), m, ks)

    def __repr__(self):
        return f"KrausChannel(n_kraus={len(self.kraus)}, dims={self.dim_out}x{self.dim_in})"


@dataclass(frozen=True)
class BistochasticReport:
    """Trace-preservation and unitality defects of a channel."""

    trace_defect: float
    unital_defect: float
    tol: float

    @property
    def verdict(self) -> bool:
        return self.trace_defect <= self.tol and self.unital_defect <= self.tol

    def to_dict(self) -> dict:
        return {
            "trace_defect": self.trace_defect,
            "unital_defect": self.unital_defect,
            "tol": self.tol,
            "verdict": self.verdict,
        }


def is_bistochastic(channel: KrausChannel) -> BistochasticReport:
    """Check that a channel preserves both the trace and the identity."""
    if channel.dim_in != channel.dim_out:
        raise ValidationError("bistochasticity is defined for square channels only")
    eye = np.eye(channel.dim_in)
    ks = channel.kraus
    trace_defect = frobenius(_gram(ks) - eye)
    unital_defect = frobenius(_gram(ks.conj().transpose(0, 2, 1)) - eye)
    return BistochasticReport(trace_defect, unital_defect, VALIDATION_TOL)


def gibbs_state(hamiltonian, beta: float) -> State:
    """Thermal state ``exp(-beta H) / tr[exp(-beta H)]``, computed spectrally."""
    return gibbs_state_from(*gibbs_log_weights(hamiltonian, require_beta(beta)))


def gibbs_state_from(log_weights: np.ndarray, vecs: np.ndarray) -> State:
    """The thermal state with the :func:`gibbs_log_weights` ``log_weights`` and ``vecs``."""
    return State((vecs * np.exp(log_weights)) @ dag(vecs))


def gibbs_log_weights(hamiltonian, beta: float) -> tuple:
    """Log-weights ``ln tau_i = -beta E_i - ln Z`` and eigenvectors of ``H``, read-only.

    ``ln Z`` is a log-sum-exp, so the weights stay finite for every finite
    beta, however small the Gibbs populations of the excited levels.
    """
    h = require_hermitian(hamiltonian, name="hamiltonian")
    evals, vecs = np.linalg.eigh(h)
    log_weights = -beta * (evals - evals[0])
    log_weights = log_weights - logsumexp(log_weights)
    log_weights.flags.writeable = False
    vecs.flags.writeable = False
    return log_weights, vecs


def time_evolution(hamiltonian, t: float) -> np.ndarray:
    """Unitary ``exp(-i t H)`` computed spectrally."""
    h = require_hermitian(hamiltonian, name="hamiltonian")
    evals, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(-1j * t * evals)) @ dag(vecs)


class Instrument:
    """Outcome-indexed family of CP trace non-increasing operations.

    Each outcome holds a read-only ``(k_x, dim, dim)`` Kraus stack; together
    the stacks must form a trace-preserving channel (the total channel).
    """

    def __init__(self, outcomes: Sequence[str], kraus_sets: Sequence):
        outcomes = tuple(str(x) for x in outcomes)
        if not outcomes:
            raise ValidationError("instrument needs at least one outcome")
        if len(set(outcomes)) != len(outcomes):
            raise ValidationError("outcome labels must be unique")
        if len(kraus_sets) != len(outcomes):
            raise ValidationError(
                f"{len(outcomes)} outcomes but {len(kraus_sets)} Kraus sets supplied"
            )
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
        tp_defect = frobenius(grams.sum(axis=0) - np.eye(dim))
        if tp_defect > VALIDATION_TOL:
            raise ValidationError(
                f"total channel is not trace preserving: ||sum K^dag K - 1||_F = "
                f"{tp_defect:.3e} > {VALIDATION_TOL:.1e}"
            )
        self.outcomes = outcomes
        self.kraus_sets = stacks
        self.dim = dim
        self._grams = grams

    @classmethod
    def luders(cls, observable: Observable) -> "Instrument":
        """Lueders instrument of an observable: Kraus sets ``{sqrt(E_x)}``.

        A refusal of an effect's square root names its outcome.
        """
        names = tuple(f"effect {x!r}: operator" for x in observable.outcomes)
        return cls(observable.outcomes, _psd_sqrt(observable.effects, names)[:, None])

    @property
    def n_outcomes(self) -> int:
        return len(self.outcomes)

    def apply(self, rho) -> list:
        """All unnormalized outputs ``[I_x(rho)]`` in outcome order.

        For an ``(n, d, d)`` stack of inputs each output is a stack too.
        """
        m = as_matrices(rho)
        if m.shape[-2:] != (self.dim, self.dim):
            raise ValidationError(
                f"instrument input must be {self.dim} x {self.dim}, got {m.shape}"
            )
        return [_sandwich(ks, m) for ks in self.kraus_sets]

    def probabilities(self, rho) -> np.ndarray:
        return np.array([float(np.trace(out).real) for out in self.apply(rho)])

    def total_channel(self) -> KrausChannel:
        return KrausChannel(np.concatenate(self.kraus_sets))

    @cached_property
    def induced_observable(self) -> Observable:
        """The unique observable with ``tr[I_x(rho)] = tr[E_x rho]``, derived once.

        Its effects are the per-outcome Gram sums ``sum K† K`` that the
        trace-preservation check of the constructor already took.
        """
        return Observable(self.outcomes, self._grams)

    @cached_property
    def choi(self) -> np.ndarray:
        """The outcomes' Choi matrices as one read-only ``(n_outcomes, dim², dim²)`` stack.

        Entry ``x`` is operation ``x``'s matrix in the :class:`ChoiMatrix`
        convention, symmetrized as :class:`ChoiMatrix` does; derived once.
        """
        stack = np.array([_choi(ks) for ks in self.kraus_sets])
        stack = (stack + dag(stack)) / 2
        stack.flags.writeable = False
        return stack

    def __repr__(self):
        return f"Instrument(outcomes={list(self.outcomes)}, dim={self.dim})"


def spectral_observable(hamiltonian) -> Observable:
    """Sharp observable of a Hermitian operator's spectral projectors.

    Outcomes are labeled ``"0", "1", ...`` in ascending eigenvalue order.
    """
    decomp = eig_hermitian(hamiltonian)
    labels = [str(i) for i in range(len(decomp.projectors))]
    return Observable(labels, decomp.projectors)


class ChoiMatrix:
    """Choi operator of a completely positive operation.

    Convention: for an operation ``Phi`` the Choi matrix is
    ``sum_ij Phi(|i><j|) (x) |i><j|`` -- output factor first, input factor
    second -- so the Choi of the identity is the unnormalized maximally
    entangled projector.
    """

    def __init__(self, matrix, dim_out: int, dim_in: int):
        m = require_hermitian(matrix, name="Choi matrix")
        if m.shape[0] != dim_out * dim_in:
            raise ValidationError(
                f"Choi matrix has dimension {m.shape[0]}, expected {dim_out * dim_in}"
            )
        min_eig = float(np.linalg.eigvalsh(m)[0])
        if min_eig < -VALIDATION_TOL:
            raise ValidationError(
                f"Choi matrix is not positive semidefinite: min eigenvalue {min_eig:.3e}"
            )
        self.matrix = _freeze(m)
        self.dim_out = dim_out
        self.dim_in = dim_in

    def rank(self) -> int:
        """Number of eigenvalues above ``SUPPORT_TOL``."""
        return int(np.sum(np.linalg.eigvalsh(self.matrix) > SUPPORT_TOL))

    def to_kraus(self) -> list:
        """Kraus operators from the Choi eigenvectors with eigenvalues above ``SUPPORT_TOL``."""
        evals, vecs = np.linalg.eigh(self.matrix)
        keep = evals > SUPPORT_TOL
        return list((vecs[:, keep] * np.sqrt(evals[keep])).T.reshape(-1, self.dim_out, self.dim_in))

    def __repr__(self):
        return f"ChoiMatrix(dims={self.dim_out}x{self.dim_in})"


def choi_of_operation(kraus: Sequence) -> ChoiMatrix:
    """Choi matrix of the CP operation with the given Kraus operators.

    The Choi matrix is the Gram sum of the flattened Kraus operators.
    """
    ks = _kraus_stack(kraus)
    return ChoiMatrix(_choi(ks), *ks.shape[1:])


def choi_rank(choi: ChoiMatrix) -> int:
    return choi.rank()
