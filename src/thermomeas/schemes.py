"""Measurement schemes and the thermodynamically free subclass.

A measurement scheme couples the system to a probe prepared in a Gibbs
state, lets an interaction channel act on the pair, and reads a pointer
observable off the probe. A scheme is thermodynamically free when the
interaction is bistochastic and conserves the total additive Hamiltonian,
and the pointer commutes with the probe Hamiltonian (the Yanase condition).
The probe state is always constructed internally as the Gibbs state of the
probe Hamiltonian, so the thermality of the probe holds by construction.

A scheme is a :class:`SchemeFrame` (the Hamiltonians, beta and pointer,
with everything derived from them alone) plus an interaction. Schemes that
differ only in their interaction share one frame, so a seed sweep derives
the total Hamiltonian's energy blocks and moment powers, the Yanase defect,
the pointer's square roots and the Gibbs data once; a frame at another beta
shares all of it but the Gibbs data.

What depends on the interaction is derived by stacked kernels with a
leading point axis, over a :class:`SchemeBatch` of interactions on one
frame: the freeness defects, each named as the key of the ``free_scheme``
row (:meth:`SchemeBatch.free_report`) that carries it, and their
verdicts, one dilation per batch, and from it the Kraus stacks of the
induced instruments and of the conjugate channels. A scheme is a batch of
one point: its freeness row is ``scheme.free_report(0, tol)``, its
``interaction`` and ``instrument`` are entry 0 of the batch, and its
conjugate channel is entry 0 of the conjugate stack
(:func:`conjugate_channel`). :class:`MeasurementScheme` validates a frame
and an interaction into one; :func:`random_free_schemes` draws a whole
batch, one stacked QR per block size.

Frames, batches and schemes are immutable, as every library object is: no
attribute can be set or deleted (:class:`~thermomeas.objects._Immutable`), every
array is read-only, and what is derived is computed on first read and kept.

Nontrivial free interactions require degeneracies in the total spectrum:
on a nondegenerate total spectrum every energy-conserving unitary is a
phase unitary. Resonant system/probe pairs (equal level spacings) are the
standard way to obtain interesting instances.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import PreconditionError, ValidationError
from .linalg import (
    THEOREM_TOL,
    commutator_defect,
    dag,
    psd_sqrt,
    require_beta,
    require_hermitian,
)
from .linalg import _new_clusters, frobenius_each
from .objects import (
    Instrument,
    KrausChannel,
    Observable,
    State,
    _Immutable,
    _bistochastic_defects,
    _dual,
    _from_validated,
    _gram,
    _require_finite,
    _require_trace_preserving,
    gibbs_log_weights,
    gibbs_state_from,
)
from .sampling import haar_unitary_stacks, rng_from_seed

#: Kraus operators of a dilation with Frobenius norm at or below this, relative to
#: the amplitude ``sqrt(g_a)`` of their probe level, are dropped.
PRUNE_TOL = 1e-12

#: Energy conservation is checked for the moments ``k = 1..ENERGY_MOMENTS``.
ENERGY_MOMENTS = 4


#: The derived quantities of a frame that do not depend on beta: a frame made by
#: :meth:`SchemeFrame.at_beta` holds the very objects of the frame it came from.
_BETA_FREE = (
    "total_hamiltonian", "energy_powers", "energy_blocks", "yanase_defect", "pointer_roots"
)


class SchemeFrame(_Immutable):
    """The system and probe Hamiltonians, beta and pointer of a scheme, and
    everything derived from them alone.

    Schemes that differ only in their interaction, such as the grid points
    of a seed sweep, share one frame, so each of its derived quantities is
    computed once for all of them: the total Hamiltonian, its powers for
    moments ``k = 1..ENERGY_MOMENTS`` and its energy blocks, the Yanase
    defect and the square roots of the pointer effects, and the Gibbs
    log-weights and states of system and probe, each a ``cached_property``.
    The frames of a beta sweep, made by :meth:`at_beta`, hold the very
    objects of the beta-free ones (``_BETA_FREE``) and derive only their own
    Gibbs data.
    """

    def __init__(self, system_hamiltonian, probe_hamiltonian, beta: float, pointer: Observable):
        h_s = require_hermitian(system_hamiltonian, name="system Hamiltonian")
        h_a = require_hermitian(probe_hamiltonian, name="probe Hamiltonian")
        beta = require_beta(beta)
        if pointer.dim != h_a.shape[0]:
            raise ValidationError(
                f"pointer has dimension {pointer.dim}, expected probe dimension {h_a.shape[0]}"
            )
        h_s.flags.writeable = False
        h_a.flags.writeable = False
        self._hold(h_s, h_a, beta, pointer)

    def _hold(self, h_s, h_a, beta: float, pointer: Observable) -> None:
        vars(self).update(
            system_hamiltonian=h_s,
            probe_hamiltonian=h_a,
            beta=beta,
            dim_system=h_s.shape[0],
            dim_probe=h_a.shape[0],
            pointer=pointer,
        )

    def at_beta(self, beta: float) -> "SchemeFrame":
        """This frame at another ``beta``: it derives its own Gibbs data and holds
        this frame's values of the ``_BETA_FREE`` quantities, derived here first."""
        frame = _from_validated(
            SchemeFrame, self.system_hamiltonian, self.probe_hamiltonian, require_beta(beta),
            self.pointer,
        )
        vars(frame).update((name, getattr(self, name)) for name in _BETA_FREE)
        return frame

    @cached_property
    def total_hamiltonian(self) -> np.ndarray:
        """``H_S (x) 1 + 1 (x) H_A``, read-only."""
        h = np.kron(self.system_hamiltonian, np.eye(self.dim_probe)) + np.kron(
            np.eye(self.dim_system), self.probe_hamiltonian
        )
        h.flags.writeable = False
        return h

    @cached_property
    def energy_powers(self) -> tuple:
        """The total Hamiltonian's powers ``k = 1..ENERGY_MOMENTS``, read-only."""
        powers = tuple(
            np.linalg.matrix_power(self.total_hamiltonian, k) for k in range(1, ENERGY_MOMENTS + 1)
        )
        for hk in powers:
            hk.flags.writeable = False
        return powers

    @cached_property
    def energy_blocks(self) -> tuple:
        """``(vecs, bounds)``: eigenvectors of the total Hamiltonian in ascending
        energy, and the ``(start, stop)`` columns of each degenerate eigenspace."""
        evals, vecs = np.linalg.eigh(self.total_hamiltonian)
        vecs.flags.writeable = False
        terms = (self.system_hamiltonian, self.probe_hamiltonian)
        scale = sum(float(np.abs(np.linalg.eigvalsh(h)).max()) for h in terms)
        edges = [0, *(np.flatnonzero(_new_clusters(evals, scale)) + 1).tolist(), len(evals)]
        return vecs, tuple(zip(edges[:-1], edges[1:]))

    @cached_property
    def yanase_defect(self) -> float:
        """The worst commutator of a pointer effect with the probe Hamiltonian."""
        return float(commutator_defect(self.pointer.effects, self.probe_hamiltonian).max())

    @cached_property
    def pointer_roots(self) -> np.ndarray:
        """Square roots of the pointer effects, one per outcome."""
        names = tuple(f"pointer effect {x!r}: operator" for x in self.pointer.outcomes)
        return psd_sqrt(self.pointer.effects, names)

    @cached_property
    def gibbs_log_weights(self) -> tuple:
        """``gibbs_log_weights(system_hamiltonian, beta)``: log-weights and eigenvectors."""
        return gibbs_log_weights(self.system_hamiltonian, self.beta)

    @cached_property
    def probe_log_weights(self) -> tuple:
        """``gibbs_log_weights(probe_hamiltonian, beta)``: log-weights and eigenvectors."""
        return gibbs_log_weights(self.probe_hamiltonian, self.beta)

    @cached_property
    def probe_state(self) -> State:
        return gibbs_state_from(*self.probe_log_weights)

    @cached_property
    def system_gibbs(self) -> State:
        return gibbs_state_from(*self.gibbs_log_weights)


class SchemeBatch(_Immutable):
    """The schemes of one frame whose interactions are the entries of one stack.

    ``kraus`` is a read-only ``(P, k, D, D)`` stack of validated interactions,
    one per point. What the schemes derive from their interactions is
    computed for all points at once, on first use, and kept: the freeness
    defects, one dilation, and from it the stacks of the induced instruments
    and of the conjugate channels. Each point keeps the dilation's operators
    that :func:`_pruned` keeps; points that keep different ones cannot share
    a stack and are refused, to be derived one at a time.

    A batch of one point is one scheme, its probe in ``gibbs_state(H_A, beta)``
    and no way to supply another. Its ``interaction`` and ``instrument`` (the
    :func:`induced_instrument`) are kept on first use; a larger batch refuses
    both.
    """

    def __init__(self, frame: SchemeFrame, kraus: np.ndarray):
        vars(self).update(frame=frame, kraus=kraus)

    @cached_property
    def interaction(self) -> KrausChannel:
        """The interaction of a batch of one point."""
        return _from_validated(KrausChannel, self.kraus[_only_point(self)])

    @cached_property
    def instrument(self) -> Instrument:
        """The :func:`induced_instrument` of a batch of one point."""
        return induced_instrument(self)

    @cached_property
    def _kraus_gram(self) -> np.ndarray:
        """Per point ``sum K† K``, for a draw's validation and the bistochastic defect."""
        return _gram(self.kraus)

    @cached_property
    def bistochastic_defect(self) -> np.ndarray:
        """Per point the worse of the trace and unital defects, ``(P,)``."""
        return np.maximum(*_bistochastic_defects(self._kraus_gram, _gram(dag(self.kraus))))

    @cached_property
    def energy_conservation_defects(self) -> np.ndarray:
        """Per point the defects of the energy moments ``k = 1..ENERGY_MOMENTS``,
        ``(P, ENERGY_MOMENTS)``."""
        moments = [_moment_defect(self.kraus, hk) for hk in self.frame.energy_powers]
        return np.stack(moments, axis=-1)

    def free_report(self, i: int, tol: float = THEOREM_TOL) -> dict:
        """The ``free_scheme`` check's result for point ``i`` at ``tol``: the defects
        against the conditions of a thermodynamically free scheme, and their verdict.

        ``gibbs_probe_ok`` is always true (the probe state is Gibbs by
        construction) and is recorded for completeness. The energy-conservation
        defects are indexed by moment ``k = 1..ENERGY_MOMENTS``; moments beyond
        the first must vanish automatically once bistochasticity and
        first-moment conservation hold.
        """
        return {
            "gibbs_probe_ok": True,
            "bistochastic_defect": float(self.bistochastic_defect[i]),
            "energy_conservation_defects": self.energy_conservation_defects[i].tolist(),
            "yanase_defect": self.frame.yanase_defect,
            "tol": tol,
            "verdict": bool(self.free_verdicts(tol)[i]),
        }

    def free_verdicts(self, tol: float) -> np.ndarray:
        """Whether each point's defects are all within ``tol``, ``(P,)``."""
        return (
            (self.bistochastic_defect <= tol)
            & (self.energy_conservation_defects <= tol).all(axis=-1)
            & (self.frame.yanase_defect <= tol)
        )

    def require_free(self, tol: float) -> None:
        """Refuse, naming the worst defect of the first, a point whose scheme is not
        thermodynamically free at ``tol``, or at ``THEOREM_TOL`` if that is looser:
        a tighter ``tol`` would refuse round-off rather than a scheme. The second
        law's gate: :meth:`~thermomeas.thermo.AuditBatch.second_law_verdicts` calls it first."""
        tol = max(tol, THEOREM_TOL)
        free = self.free_verdicts(tol)
        if not free.all():
            i = int(np.argmin(free))
            moments, yanase = self.energy_conservation_defects[i], self.frame.yanase_defect
            worst = max(self.bistochastic_defect[i], moments.max(), yanase)
            raise PreconditionError(
                f"scheme is not thermodynamically free: worst defect {worst:.3e} > {tol:.1e}"
            )

    @cached_property
    def dilation(self) -> tuple:
        """:func:`_dilation` of every point: the stack and the probe amplitudes."""
        return _dilation(self.frame, self.kraus)

    @cached_property
    def instrument_stacks(self) -> tuple:
        """``(kraus_sets, grams)`` of the induced instruments, read-only.

        ``kraus_sets`` holds per outcome one ``(P, k', d_s, d_s)`` Kraus stack,
        and ``grams`` is ``(P, n_outcomes, d_s, d_s)``, each outcome's Gram sum.
        Finiteness and the trace preservation of the total channel are
        validated for all points at once; an instrument's induced effects are
        its Gram sums, validated by :class:`Observable` when they are first read.
        """
        frame = self.frame
        outcomes, d_s, n = frame.pointer.outcomes, frame.dim_system, len(self.kraus)
        dilation, amplitudes = self.dilation
        stacks = []
        for label, root in zip(outcomes, frame.pointer_roots):
            ops = root @ dilation.reshape(len(root), -1)
            ops += 0.0  # as in _dilation, so each point derives the same bits in any batch
            ops = _pruned(ops.reshape(dilation.shape).transpose(1, 2, 5, 0, 3, 4), amplitudes)
            if ops.shape[1] == 0:
                ops = np.zeros((n, 1, d_s, d_s), dtype=complex)
            _require_finite(ops, f" of outcome {label!r}")
            ops.flags.writeable = False
            stacks.append(ops)
        grams = np.stack([_gram(ops) for ops in stacks], axis=1)
        grams.flags.writeable = False
        _require_trace_preserving(grams.sum(axis=1), "total channel")
        return tuple(stacks), grams

    @cached_property
    def conjugate_kraus(self) -> np.ndarray:
        """The read-only ``(P, k', d_a, d_s)`` Kraus stack of the conjugate channels,
        validated for all points at once."""
        dilation, amplitudes = self.dilation
        ops = _pruned(dilation.transpose(1, 2, 5, 3, 0, 4), amplitudes)
        if ops.shape[1] == 0:
            raise ValidationError("no Kraus operator given")
        _require_finite(ops)
        _require_trace_preserving(_gram(ops), "channel")
        ops.flags.writeable = False
        return ops


class MeasurementScheme(SchemeBatch):
    """A frame and an interaction channel, validated into the :class:`SchemeBatch`
    of one point whose ``interaction`` holds that channel's Kraus stack."""

    def __init__(self, frame: SchemeFrame, interaction: KrausChannel):
        d = frame.dim_system * frame.dim_probe
        if interaction.dim_in != interaction.dim_out:
            raise ValidationError("interaction channel must be square")
        if interaction.dim_in != d:
            raise ValidationError(
                f"interaction acts on dimension {interaction.dim_in}, expected "
                f"{frame.dim_system} * {frame.dim_probe} = {d}"
            )
        super().__init__(frame, interaction.kraus[None])

    def __repr__(self):
        frame = self.frame
        return (
            f"MeasurementScheme(dims={frame.dim_system}x{frame.dim_probe}, beta={frame.beta}, "
            f"outcomes={list(frame.pointer.outcomes)})"
        )


def _only_point(schemes: SchemeBatch) -> int:
    """0, the index of the one point of ``schemes``; a larger batch is not one scheme."""
    if len(schemes.kraus) != 1:
        raise ValueError(f"a batch of {len(schemes.kraus)} points is not one scheme")
    return 0


def energy_moment_defect(channel: KrausChannel, hamiltonian, k: int) -> float:
    """``||Phi*(H^k) - H^k||_F``: conservation of the k-th energy moment."""
    h = require_hermitian(hamiltonian, name="hamiltonian")
    if channel.dim_in != h.shape[0] or channel.dim_out != h.shape[0]:
        raise ValidationError(
            f"channel dims {channel.dim_out}x{channel.dim_in} do not match "
            f"Hamiltonian dimension {h.shape[0]}"
        )
    return float(_moment_defect(channel.kraus, np.linalg.matrix_power(h, int(k))))


def _moment_defect(kraus: np.ndarray, hk: np.ndarray) -> np.ndarray:
    """``||Phi*(H^k) - H^k||_F`` of the channel of a Kraus stack, or of each of a stack of them."""
    return frobenius_each(_dual(kraus, hk) - hk)


def validate_free_scheme(scheme: SchemeBatch) -> dict:
    """Measure how far a scheme is from being thermodynamically free: its
    ``free_scheme`` row at ``THEOREM_TOL``, ``scheme.free_report(0)``.

    Probe thermality holds by construction, so three defects remain:
    bistochasticity of the interaction, conservation of the total additive
    Hamiltonian (checked in the Heisenberg picture for moments
    ``k = 1..ENERGY_MOMENTS``), and the Yanase defect, the worst commutator
    of a pointer effect with the probe Hamiltonian.
    ``scheme.free_report(0, tol)`` gives the row at any other tol.
    """
    return scheme.free_report(_only_point(scheme))


def _dilation(frame: SchemeFrame, kraus: np.ndarray) -> tuple:
    """``sqrt(g_a) (1 (x) 1) M (1 (x) |a>)`` for each point, and the amplitudes ``sqrt(g_a)``.

    ``kraus`` is a ``(P, k, D, D)`` stack of interactions; the result is
    ``(d_a, P, k, d_s, d_s, d_a)``: probe out, point, interaction Kraus
    operator ``M``, system out, system in, probe level ``|a>``, so that the
    probe basis here and each pointer root are one matrix product over all
    of it. The amplitudes ``sqrt(g_a) = exp(ln g_a / 2)`` come from the log
    Gibbs weights, so they stay positive where ``g_a`` is far below round-off.
    """
    d_s, d_a = frame.dim_system, frame.dim_probe
    log_weights, vecs = frame.probe_log_weights
    amplitudes = np.exp(log_weights / 2)
    t = np.moveaxis(kraus.reshape(len(kraus), -1, d_s, d_a, d_s, d_a), 3, 0)
    by_probe_out = t.reshape(-1, d_a) @ (vecs * amplitudes)
    by_probe_out += 0.0  # a -0.0 becomes +0.0, which the kernel for another P may leave
    return by_probe_out.reshape(t.shape), amplitudes


def _pruned(ks: np.ndarray, amplitudes: np.ndarray) -> np.ndarray:
    """The kept operators of a ``(P, k, d_a, n, rows, cols)`` stack, as ``(P, -1, rows, cols)``.

    Kept are those whose norm exceeds ``PRUNE_TOL`` times the amplitude of
    their probe level. Every point must keep the same ones.
    """
    keep = frobenius_each(ks) > PRUNE_TOL * amplitudes[:, None]
    if (keep != keep[:1]).any():
        raise ValidationError(
            "the points of a scheme batch keep different dilation operators; "
            "derive them one at a time"
        )
    return np.ascontiguousarray(ks[:, keep[0]])


def induced_instrument(scheme: SchemeBatch) -> Instrument:
    """Instrument the scheme implements: ``I_x(rho) = tr_A[(1 (x) Z_x) E(rho (x) xi)]``.

    Realized in Kraus form by applying the square roots of the pointer
    effects to the probe output leg of the dilation; Kraus operators are
    ordered by interaction Kraus operator, probe level and probe output.
    The Kraus decomposition is not unique; only the action is the contract.
    """
    i, (stacks, grams) = _only_point(scheme), scheme.instrument_stacks
    return _from_validated(
        Instrument, scheme.frame.pointer.outcomes, tuple(ops[i] for ops in stacks), grams[i]
    )


def conjugate_channel(scheme: SchemeBatch) -> KrausChannel:
    """Channel describing the probe after the interaction: ``tr_S[E(rho (x) xi)]``.

    Input dimension is the system's, output dimension the probe's. Kraus
    operators are ordered by interaction Kraus operator, probe level and
    system output.
    """
    return _from_validated(KrausChannel, scheme.conjugate_kraus[_only_point(scheme)])


def swap_channel(dim: int) -> KrausChannel:
    """The unitary channel exchanging the two factors of a ``dim x dim`` product space."""
    u = np.zeros((dim * dim, dim * dim), dtype=complex)
    for a in range(dim):
        for b in range(dim):
            u[b * dim + a, a * dim + b] = 1.0
    return KrausChannel([u])


def trivial_scheme(observable: Observable, system_hamiltonian, beta: float) -> MeasurementScheme:
    """Free scheme for an observable commuting with the Hamiltonian.

    Uses a probe identical to the system and a unitary swap interaction,
    with the observable itself as the pointer. The induced instrument is
    the trivial thermalising one, ``I_x(rho) = tr[E_x rho] tau_beta``.
    """
    h = require_hermitian(system_hamiltonian, name="system Hamiltonian")
    if observable.dim != h.shape[0]:
        raise ValidationError(
            f"observable dimension {observable.dim} does not match Hamiltonian "
            f"dimension {h.shape[0]}"
        )
    worst = commutator_defect(observable.effects, h).max()
    if worst > THEOREM_TOL:
        raise PreconditionError(
            f"observable does not commute with the Hamiltonian: worst effect "
            f"commutator defect {worst:.3e} > {THEOREM_TOL:.1e}"
        )
    return MeasurementScheme(SchemeFrame(h, h, beta, observable), swap_channel(h.shape[0]))


def require_free_draw(frame: SchemeFrame, mixture_size: int) -> None:
    """Refuse what :func:`random_free_scheme` refuses before it draws: a
    pointer off the Yanase condition, or a ``mixture_size`` below 1."""
    if frame.yanase_defect > THEOREM_TOL:
        raise PreconditionError(
            f"pointer violates the Yanase condition: worst commutator defect "
            f"{frame.yanase_defect:.3e} > {THEOREM_TOL:.1e}"
        )
    if mixture_size < 1:
        raise ValidationError(f"mixture_size must be at least 1, got {mixture_size}")


def random_free_scheme(frame: SchemeFrame, seed: int, mixture_size: int = 3) -> SchemeBatch:
    """Seeded generator of nontrivial thermodynamically free schemes on ``frame``.

    The interaction is a convex mixture of ``mixture_size`` Haar-random
    unitaries block-diagonal on the degenerate eigenspaces of the total
    Hamiltonian (hence energy conserving), with mixture weights drawn
    uniformly from the simplex. Deterministic for a fixed seed: the batch of
    one point :func:`random_free_schemes` draws for ``[seed]``.
    """
    return random_free_schemes(frame, [seed], mixture_size)


def random_free_schemes(frame: SchemeFrame, seeds, mixture_size: int = 3) -> SchemeBatch:
    """:func:`random_free_scheme` for each of ``seeds``, as one :class:`SchemeBatch`.

    Each seed's generator draws its Ginibre normals, term by term and block
    by block in ascending energy, then its mixture weights. One stacked QR
    per block size turns the normals of every seed into unitaries, and the
    conjugation by the energy eigenbasis, two matrix products over every
    term of every seed, turns each term's block-diagonal matrix into a
    unitary. Trace preservation and finiteness are validated for all seeds
    at once.
    """
    require_free_draw(frame, mixture_size)
    vecs, bounds = frame.energy_blocks
    rngs = [rng_from_seed(seed) for seed in seeds]
    draws = haar_unitary_stacks([stop - start for start, stop in bounds] * mixture_size, rngs)
    taken = dict.fromkeys(draws, 0)
    d, p = len(vecs), len(rngs)
    # (row, point, term, column): each change of basis is then one matrix product
    blocks = np.zeros((d, p, mixture_size, d), dtype=complex)
    for term in range(mixture_size):
        for start, stop in bounds:
            n = stop - start
            blocks[start:stop, :, term, start:stop] = draws[n][:, taken[n]].swapaxes(0, 1)
            taken[n] += 1
    unitaries = ((vecs @ blocks.reshape(d, -1)).reshape(-1, d) @ dag(vecs)).reshape(blocks.shape)
    # numpy's dirichlet at unit concentrations: exponentials times 1 / their running sum
    weights = np.array([rng.standard_exponential(mixture_size) for rng in rngs])
    weights *= 1 / np.cumsum(weights, axis=1)[:, -1:]
    root_weights = np.sqrt(weights)[..., None, None]
    kraus = np.multiply(root_weights, unitaries.transpose(1, 2, 0, 3), order="C")
    kraus += 0.0  # each -0.0 off the blocks becomes +0.0, as a sum over blocks from zero gives
    _require_finite(kraus)
    kraus.flags.writeable = False
    batch = SchemeBatch(frame, kraus)
    _require_trace_preserving(batch._kraus_gram, "channel")
    return batch
