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
frame: the freeness defects and their verdicts, one dilation per batch,
and from it the Kraus stacks of the induced instruments and of the
conjugate channels. A :class:`MeasurementScheme` is a batch of one, which
it holds from construction: its freeness, instrument and conjugate channel
are entry 0 of its batch. :func:`random_free_schemes` draws a whole batch,
one stacked QR per block size.

Nontrivial free interactions require degeneracies in the total spectrum:
on a nondegenerate total spectrum every energy-conserving unitary is a
phase unitary. Resonant system/probe pairs (equal level spacings) are the
standard way to obtain interesting instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import PreconditionError, ValidationError
from .linalg import (
    THEOREM_TOL,
    VALIDATION_TOL,
    cluster_indices,
    commutator_defect,
    dag,
    psd_sqrt,
    require_beta,
    require_hermitian,
)
from .linalg import _symmetrized, frobenius_each
from .objects import (
    Instrument,
    KrausChannel,
    Observable,
    State,
    _bistochastic_defects,
    _dual,
    _from_validated,
    _gram,
    _require_effects,
    _require_finite,
    _require_trace_preserving,
    gibbs_log_weights,
    gibbs_state_from,
)
from .sampling import haar_unitary_stacks

#: Kraus operators of a dilation with Frobenius norm at or below this, relative to
#: the amplitude ``sqrt(g_a)`` of their probe level, are dropped.
PRUNE_TOL = 1e-12

#: Energy conservation is checked for the moments ``k = 1..ENERGY_MOMENTS``.
ENERGY_MOMENTS = 4


class _beta_free(cached_property):
    """A derived quantity of a frame that does not depend on beta: a frame made
    by :meth:`SchemeFrame.at_beta` reads it from the frame it was made from."""

    def __get__(self, frame, owner=None):
        if frame is not None and frame._origin is not frame:
            return getattr(frame._origin, self.attrname)
        return super().__get__(frame, owner)


class SchemeFrame:
    """The system and probe Hamiltonians, beta and pointer of a scheme, and
    everything derived from them alone.

    Schemes that differ only in their interaction, such as the grid points
    of a seed sweep, share one frame, so each of its derived quantities is
    computed once for all of them: the total Hamiltonian, its powers for
    moments ``k = 1..ENERGY_MOMENTS`` and its energy blocks, the Yanase
    defect and the square roots of the pointer effects, and the Gibbs
    log-weights and states of system and probe. The frames of a beta sweep,
    made by :meth:`at_beta`, share all but the Gibbs data.

    A frame is immutable: its attributes cannot be reassigned and its arrays
    are read-only. Derived data is computed on first use and kept; a
    ``cached_property`` stores it in the instance ``__dict__`` directly,
    past the immutability guard.
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
        self._hold(h_s, h_a, beta, pointer, self)

    def _hold(self, h_s, h_a, beta: float, pointer: Observable, origin: "SchemeFrame") -> None:
        """Holds the validated inputs and the frame whose beta-free data this one reads."""
        vars(self).update(
            system_hamiltonian=h_s,
            probe_hamiltonian=h_a,
            beta=beta,
            dim_system=h_s.shape[0],
            dim_probe=h_a.shape[0],
            pointer=pointer,
            _origin=origin,
        )

    def at_beta(self, beta: float) -> "SchemeFrame":
        """This frame at another ``beta``: it derives its own Gibbs data and reads
        everything else (the total Hamiltonian, its eigenbasis and powers, the
        Yanase defect and the pointer roots) from the frame it came from."""
        return _from_validated(
            SchemeFrame, self.system_hamiltonian, self.probe_hamiltonian, require_beta(beta),
            self.pointer, self._origin,
        )

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")

    @_beta_free
    def total_hamiltonian(self) -> np.ndarray:
        """``H_S (x) 1 + 1 (x) H_A``, read-only."""
        h = np.kron(self.system_hamiltonian, np.eye(self.dim_probe)) + np.kron(
            np.eye(self.dim_system), self.probe_hamiltonian
        )
        h.flags.writeable = False
        return h

    @_beta_free
    def energy_powers(self) -> tuple:
        """The total Hamiltonian's powers ``k = 1..ENERGY_MOMENTS``, read-only."""
        powers = tuple(
            np.linalg.matrix_power(self.total_hamiltonian, k) for k in range(1, ENERGY_MOMENTS + 1)
        )
        for hk in powers:
            hk.flags.writeable = False
        return powers

    @_beta_free
    def energy_blocks(self) -> tuple:
        """``(vecs, bounds)``: eigenvectors of the total Hamiltonian in ascending
        energy, and the ``(start, stop)`` columns of each degenerate eigenspace."""
        evals, vecs = np.linalg.eigh(self.total_hamiltonian)
        vecs.flags.writeable = False
        return vecs, tuple((int(idx[0]), int(idx[-1]) + 1) for idx in cluster_indices(evals))

    @_beta_free
    def yanase_defect(self) -> float:
        """The worst commutator of a pointer effect with the probe Hamiltonian."""
        return float(commutator_defect(self.pointer.effects, self.probe_hamiltonian).max())

    @_beta_free
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


class MeasurementScheme:
    """A frame (system and probe Hamiltonians, beta, pointer) and an interaction.

    The probe is prepared in ``gibbs_state(probe_hamiltonian, beta)``; there
    is deliberately no way to supply a different probe state. Every
    attribute of the :class:`SchemeFrame` reads as an attribute of the
    scheme, so ``scheme.beta`` is ``scheme.frame.beta``.

    A scheme is immutable, as its frame is. It is the :class:`SchemeBatch`
    of one point it holds as ``batch``: what depends on the interaction too
    (the freeness defects, the induced instrument and the conjugate channel)
    is entry 0 of that batch's stacked kernels, derived on first use and
    kept for every later use.
    """

    def __init__(self, frame: SchemeFrame, interaction: KrausChannel):
        d = frame.dim_system * frame.dim_probe
        if interaction.dim_in != interaction.dim_out:
            raise ValidationError("interaction channel must be square")
        if interaction.dim_in != d:
            raise ValidationError(
                f"interaction acts on dimension {interaction.dim_in}, expected "
                f"{frame.dim_system} * {frame.dim_probe} = {d}"
            )
        self._hold(frame, interaction, SchemeBatch(frame, interaction.kraus[None]))

    def _hold(self, frame: SchemeFrame, interaction: KrausChannel, batch: SchemeBatch) -> None:
        """Holds the frame, the interaction and the :class:`SchemeBatch` of one they are."""
        vars(self).update(frame=frame, interaction=interaction, batch=batch)

    def __getattr__(self, name):
        # Called only for names the scheme itself lacks.
        if name == "frame":
            raise AttributeError(name)
        return getattr(self.frame, name)

    __setattr__ = SchemeFrame.__setattr__
    __delattr__ = SchemeFrame.__delattr__

    def freeness(self, tol: float = THEOREM_TOL) -> FreeSchemeReport:
        """The :func:`validate_free_scheme` report at ``tol``; its defects are derived once."""
        return self.batch.free_report(0, tol)

    @cached_property
    def instrument(self) -> Instrument:
        """The :func:`induced_instrument` of the scheme."""
        return induced_instrument(self)

    @cached_property
    def conjugate(self) -> KrausChannel:
        """The :func:`conjugate_channel` of the scheme."""
        return conjugate_channel(self)

    def __repr__(self):
        return (
            f"MeasurementScheme(dims={self.dim_system}x{self.dim_probe}, beta={self.beta}, "
            f"outcomes={list(self.pointer.outcomes)})"
        )


def free_verdict(gibbs_probe_ok, bistochastic, energy_conservation, yanase, tol: float):
    """Whether defects against the conditions of a free scheme are all within ``tol``.

    The verdict of :class:`FreeSchemeReport`, of one scheme's scalars, and of
    a :class:`SchemeBatch`, elementwise on arrays with a leading point axis;
    ``energy_conservation`` holds the moment defects on its last axis.
    """
    return (
        (gibbs_probe_ok & (bistochastic <= tol))
        & np.all(np.asarray(energy_conservation) <= tol, axis=-1)
        & (yanase <= tol)
    )


@dataclass(frozen=True)
class FreeSchemeReport:
    """Defects against the four conditions of a thermodynamically free scheme.

    ``gibbs_probe_ok`` is always true (the probe state is Gibbs by
    construction) and is recorded for completeness. Energy-conservation
    defects are indexed by moment ``k = 1..ENERGY_MOMENTS``; moments beyond the
    first must vanish automatically once bistochasticity and first-moment
    conservation hold.
    """

    gibbs_probe_ok: bool
    bistochastic_defect: float
    energy_conservation_defects: tuple
    yanase_defect: float
    tol: float

    @property
    def verdict(self) -> bool:
        return bool(
            free_verdict(
                self.gibbs_probe_ok, self.bistochastic_defect, self.energy_conservation_defects,
                self.yanase_defect, self.tol,
            )
        )

    @property
    def worst_defect(self) -> float:
        return max(
            self.bistochastic_defect,
            max(self.energy_conservation_defects),
            self.yanase_defect,
        )

    def to_dict(self) -> dict:
        return {
            **vars(self),
            "energy_conservation_defects": list(self.energy_conservation_defects),
            "verdict": self.verdict,
        }


class SchemeBatch:
    """The schemes of one frame whose interactions are the entries of one stack.

    ``kraus`` is a read-only ``(P, k, D, D)`` stack of validated interactions,
    one per point. What the schemes derive from their interactions is
    computed for all points at once, on first use, and kept: the freeness
    defects, one dilation, and from it the stacks of the induced instruments
    and of the conjugate channels. Each point keeps the dilation's operators
    that :func:`_pruned` keeps; points that keep different ones cannot share
    a stack and are refused, to be derived one at a time.
    """

    def __init__(self, frame: SchemeFrame, kraus: np.ndarray):
        self.frame = frame
        self.kraus = kraus

    @property
    def scheme(self) -> MeasurementScheme:
        """The :class:`MeasurementScheme` a batch of one point is."""
        if len(self.kraus) != 1:
            raise ValueError(f"a batch of {len(self.kraus)} points is not one scheme")
        return _from_validated(
            MeasurementScheme, self.frame, _from_validated(KrausChannel, self.kraus[0]), self
        )

    @cached_property
    def free_defects(self) -> tuple:
        """``(bistochastic, moments)``: per point the worse of the trace and unital
        defects, ``(P,)``, and the defects of the energy moments ``k =
        1..ENERGY_MOMENTS``, ``(P, ENERGY_MOMENTS)``."""
        trace, unital = _bistochastic_defects(self.kraus)
        moments = [_moment_defect(self.kraus, hk) for hk in self.frame.energy_powers]
        return np.maximum(trace, unital), np.stack(moments, axis=-1)

    def free_report(self, i: int, tol: float = THEOREM_TOL) -> FreeSchemeReport:
        """The :class:`FreeSchemeReport` of point ``i`` at ``tol``."""
        bistochastic, moments = self.free_defects
        return FreeSchemeReport(
            gibbs_probe_ok=True,
            bistochastic_defect=float(bistochastic[i]),
            energy_conservation_defects=tuple(float(d) for d in moments[i]),
            yanase_defect=self.frame.yanase_defect,
            tol=tol,
        )

    def free_verdicts(self, tol: float) -> np.ndarray:
        """The :func:`free_verdict` of every point at ``tol``, ``(P,)``."""
        return free_verdict(True, *self.free_defects, self.frame.yanase_defect, tol)

    def require_free(self, tol: float) -> None:
        """Refuse, naming the worst defect of the first, a point whose scheme is not
        thermodynamically free at ``tol``, or at ``THEOREM_TOL`` if that is looser:
        a tighter ``tol`` would refuse round-off rather than a scheme."""
        tol = max(tol, THEOREM_TOL)
        free = self.free_verdicts(tol)
        if not free.all():
            i = int(np.argmin(free))
            raise PreconditionError(
                f"scheme is not thermodynamically free: worst defect "
                f"{self.free_report(i, tol).worst_defect:.3e} > {tol:.1e}"
            )

    @cached_property
    def dilation(self) -> tuple:
        """:func:`_dilation` of every point: the stack and the probe amplitudes."""
        return _dilation(self.frame, self.kraus)

    @cached_property
    def instrument_stacks(self) -> tuple:
        """``(kraus_sets, grams, effects)`` of the induced instruments, read-only.

        ``kraus_sets`` holds per outcome one ``(P, k', d_s, d_s)`` Kraus stack;
        ``grams`` and ``effects`` are ``(P, n_outcomes, d_s, d_s)``: each
        outcome's Gram sum and the induced effect symmetrized from it.
        Finiteness, the trace preservation of the total channel and the
        induced effects are validated for all points at once.
        """
        frame = self.frame
        outcomes, d_s, n = frame.pointer.outcomes, frame.dim_system, len(self.kraus)
        dilation, amplitudes = self.dilation
        stacks = []
        for label, root in zip(outcomes, frame.pointer_roots):
            ops = _pruned(np.einsum("pb,qmaibj->qmapij", root, dilation), amplitudes)
            if ops.shape[1] == 0:
                ops = np.zeros((n, 1, d_s, d_s), dtype=complex)
            _require_finite(ops, f" of outcome {label!r}")
            ops.flags.writeable = False
            stacks.append(ops)
        grams = np.stack([_gram(ops) for ops in stacks], axis=1)
        grams.flags.writeable = False
        _require_trace_preserving(grams.sum(axis=1), "total channel")
        names = tuple(f"effect {x!r}" for x in outcomes)
        effects = _symmetrized(grams.reshape(-1, d_s, d_s), VALIDATION_TOL, names * n)
        effects = effects.reshape(grams.shape)
        _require_effects(effects, names)
        effects.flags.writeable = False
        return tuple(stacks), grams, effects

    @cached_property
    def conjugate_kraus(self) -> np.ndarray:
        """The read-only ``(P, k', d_a, d_s)`` Kraus stack of the conjugate channels,
        validated for all points at once."""
        ops = _pruned(*self.dilation)
        if ops.shape[1] == 0:
            raise ValidationError("no Kraus operator given")
        _require_finite(ops)
        _require_trace_preserving(_gram(ops), "channel")
        ops.flags.writeable = False
        return ops


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


def validate_free_scheme(scheme: MeasurementScheme) -> FreeSchemeReport:
    """Measure how far a scheme is from being thermodynamically free.

    Probe thermality holds by construction, so three defects remain:
    bistochasticity of the interaction, conservation of the total additive
    Hamiltonian (checked in the Heisenberg picture for moments
    ``k = 1..ENERGY_MOMENTS``), and the Yanase defect, the worst commutator
    of a pointer effect with the probe Hamiltonian. The report's verdict is
    at ``THEOREM_TOL``; ``scheme.freeness(tol)`` gives it at any other tol.
    The defects are read from the scheme's :class:`SchemeBatch`.
    """
    return scheme.batch.free_report(0)


def _dilation(frame: SchemeFrame, kraus: np.ndarray) -> tuple:
    """``sqrt(g_a) (1 (x) 1) M (1 (x) |a>)`` for each point, and the amplitudes ``sqrt(g_a)``.

    ``kraus`` is a ``(P, k, D, D)`` stack of interactions; the result is
    ``(P, k, d_a, d_s, d_a, d_s)``: point, interaction Kraus operator ``M``,
    probe level ``|a>``, then system out, probe out, system in. The
    amplitudes ``sqrt(g_a) = exp(ln g_a / 2)`` come from the log Gibbs
    weights, so they stay positive where ``g_a`` is far below round-off.
    """
    d_s, d_a = frame.dim_system, frame.dim_probe
    log_weights, vecs = frame.probe_log_weights
    amplitudes = np.exp(log_weights / 2)
    t = kraus.reshape(len(kraus), -1, d_s, d_a, d_s, d_a)
    return np.einsum("qmibjc,ca->qmaibj", t, vecs * amplitudes), amplitudes


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
    return ks[:, keep[0]]


def induced_instrument(scheme: MeasurementScheme) -> Instrument:
    """Instrument the scheme implements: ``I_x(rho) = tr_A[(1 (x) Z_x) E(rho (x) xi)]``.

    Realized in Kraus form by applying the square roots of the pointer
    effects to the probe output leg of the dilation; Kraus operators are
    ordered by interaction Kraus operator, probe level and probe output.
    The Kraus decomposition is not unique; only the action is the contract.
    """
    stacks, grams, effects = scheme.batch.instrument_stacks
    outcomes = scheme.pointer.outcomes
    return _from_validated(
        Instrument,
        outcomes,
        tuple(ops[0] for ops in stacks),
        grams[0],
        _from_validated(Observable, outcomes, effects[0]),
    )


def conjugate_channel(scheme: MeasurementScheme) -> KrausChannel:
    """Channel describing the probe after the interaction: ``tr_S[E(rho (x) xi)]``.

    Input dimension is the system's, output dimension the probe's. Kraus
    operators are ordered by interaction Kraus operator, probe level and
    system output.
    """
    return _from_validated(KrausChannel, scheme.batch.conjugate_kraus[0])


def swap_unitary(dim: int) -> np.ndarray:
    """Unitary exchanging the two factors of a ``dim x dim`` product space."""
    u = np.zeros((dim * dim, dim * dim), dtype=complex)
    for a in range(dim):
        for b in range(dim):
            u[b * dim + a, a * dim + b] = 1.0
    return u


def swap_channel(dim: int) -> KrausChannel:
    return KrausChannel([swap_unitary(dim)])


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


def random_free_scheme(frame: SchemeFrame, seed: int, mixture_size: int = 3) -> MeasurementScheme:
    """Seeded generator of nontrivial thermodynamically free schemes on ``frame``.

    The interaction is a convex mixture of ``mixture_size`` Haar-random
    unitaries block-diagonal on the degenerate eigenspaces of the total
    Hamiltonian (hence energy conserving), with mixture weights drawn
    uniformly from the simplex. Deterministic for a fixed seed; the draw of
    :func:`random_free_schemes` for one seed.
    """
    return random_free_schemes(frame, [seed], mixture_size).scheme


def random_free_schemes(frame: SchemeFrame, seeds, mixture_size: int = 3) -> SchemeBatch:
    """:func:`random_free_scheme` for each of ``seeds``, as one :class:`SchemeBatch`.

    Each seed's generator draws its Ginibre normals, term by term and block
    by block in ascending energy, then its mixture weights. One stacked QR
    per block size turns the normals of every seed into unitaries, and one
    conjugation by the energy eigenbasis turns each term's block-diagonal
    matrix into a unitary. Trace preservation and finiteness are validated
    for all seeds at once.
    """
    require_free_draw(frame, mixture_size)
    vecs, bounds = frame.energy_blocks
    rngs = [np.random.default_rng(seed) for seed in seeds]
    draws = haar_unitary_stacks([stop - start for start, stop in bounds] * mixture_size, rngs)
    taken = dict.fromkeys(draws, 0)
    blocks = np.zeros((len(rngs), mixture_size, *vecs.shape), dtype=complex)
    for term in range(mixture_size):
        for start, stop in bounds:
            blocks[:, term, start:stop, start:stop] = draws[stop - start][:, taken[stop - start]]
            taken[stop - start] += 1
    # "+ 0.0" makes each -0.0 off the blocks +0.0, as a sum over blocks from zero does.
    unitaries = vecs @ blocks @ dag(vecs) + 0.0
    weights = np.array([rng.dirichlet(np.ones(mixture_size)) for rng in rngs])
    kraus = np.sqrt(weights)[..., None, None] * unitaries
    _require_finite(kraus)
    _require_trace_preserving(_gram(kraus), "channel")
    kraus.flags.writeable = False
    return SchemeBatch(frame, kraus)
