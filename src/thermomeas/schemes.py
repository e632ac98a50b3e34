"""Measurement schemes and the thermodynamically free subclass.

A measurement scheme couples the system to a probe prepared in a Gibbs
state, lets an interaction channel act on the pair, and reads a pointer
observable off the probe. A scheme is thermodynamically free when the
interaction is bistochastic and conserves the total additive Hamiltonian,
and the pointer commutes with the probe Hamiltonian (the Yanase condition).
The probe state is always constructed internally as the Gibbs state of the
probe Hamiltonian, so the thermality of the probe holds by construction.

Nontrivial free interactions require degeneracies in the total spectrum:
on a nondegenerate total spectrum every energy-conserving unitary is a
phase unitary. Resonant system/probe pairs (equal level spacings) are the
standard way to obtain interesting instances.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import PreconditionError, ValidationError
from .linalg import (
    THEOREM_TOL,
    _psd_sqrt,
    cluster_indices,
    commutator_defect,
    dag,
    frobenius,
    require_beta,
    require_hermitian,
)
from .objects import (
    Instrument,
    KrausChannel,
    Observable,
    State,
    gibbs_log_weights,
    gibbs_state_from,
    is_bistochastic,
)
from .sampling import haar_unitary

#: Kraus operators of a dilation with Frobenius norm at or below this, relative to
#: the amplitude ``sqrt(g_a)`` of their probe level, are dropped.
PRUNE_TOL = 1e-12

#: Energy conservation is checked for the moments ``k = 1..ENERGY_MOMENTS``.
ENERGY_MOMENTS = 4


class MeasurementScheme:
    """Tuple (system Hamiltonian, probe Hamiltonian, beta, interaction, pointer).

    The probe is prepared in ``gibbs_state(probe_hamiltonian, beta)``; there
    is deliberately no way to supply a different probe state.

    A scheme is immutable: its attributes cannot be reassigned and its
    Hamiltonians are read-only. What depends on the scheme alone (the Gibbs
    states and log-weights, the freeness defects, the induced instrument and
    the conjugate channel) is derived on first use, by the function that
    defines it, and kept for every later use: a ``cached_property`` stores
    it in the instance ``__dict__`` directly, past the immutability guard.
    """

    def __init__(
        self,
        system_hamiltonian,
        probe_hamiltonian,
        beta: float,
        interaction: KrausChannel,
        pointer: Observable,
    ):
        h_s = require_hermitian(system_hamiltonian, name="system Hamiltonian")
        h_a = require_hermitian(probe_hamiltonian, name="probe Hamiltonian")
        beta = require_beta(beta)
        d_s, d_a = h_s.shape[0], h_a.shape[0]
        if interaction.dim_in != interaction.dim_out:
            raise ValidationError("interaction channel must be square")
        if interaction.dim_in != d_s * d_a:
            raise ValidationError(
                f"interaction acts on dimension {interaction.dim_in}, expected "
                f"{d_s} * {d_a} = {d_s * d_a}"
            )
        if pointer.dim != d_a:
            raise ValidationError(
                f"pointer has dimension {pointer.dim}, expected probe dimension {d_a}"
            )
        h_s.flags.writeable = False
        h_a.flags.writeable = False
        vars(self).update(
            system_hamiltonian=h_s,
            probe_hamiltonian=h_a,
            beta=beta,
            dim_system=d_s,
            dim_probe=d_a,
            interaction=interaction,
            pointer=pointer,
        )

    def __setattr__(self, name, value):
        raise AttributeError(f"MeasurementScheme is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"MeasurementScheme is immutable: cannot delete {name!r}")

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

    @cached_property
    def _free_defects(self) -> FreeSchemeReport:
        return validate_free_scheme(self)

    def freeness(self, tol: float = THEOREM_TOL) -> FreeSchemeReport:
        """The :func:`validate_free_scheme` report at ``tol``; its defects are derived once."""
        return replace(self._free_defects, tol=tol)

    @cached_property
    def instrument(self) -> Instrument:
        """The :func:`induced_instrument` of the scheme."""
        return induced_instrument(self)

    @cached_property
    def conjugate(self) -> KrausChannel:
        """The :func:`conjugate_channel` of the scheme."""
        return conjugate_channel(self)

    def total_hamiltonian(self) -> np.ndarray:
        return np.kron(self.system_hamiltonian, np.eye(self.dim_probe)) + np.kron(
            np.eye(self.dim_system), self.probe_hamiltonian
        )

    def __repr__(self):
        return (
            f"MeasurementScheme(dims={self.dim_system}x{self.dim_probe}, beta={self.beta}, "
            f"outcomes={list(self.pointer.outcomes)})"
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
        return (
            self.gibbs_probe_ok
            and self.bistochastic_defect <= self.tol
            and all(d <= self.tol for d in self.energy_conservation_defects)
            and self.yanase_defect <= self.tol
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
            "gibbs_probe_ok": self.gibbs_probe_ok,
            "bistochastic_defect": self.bistochastic_defect,
            "energy_conservation_defects": list(self.energy_conservation_defects),
            "yanase_defect": self.yanase_defect,
            "tol": self.tol,
            "verdict": self.verdict,
        }


def energy_moment_defect(channel: KrausChannel, hamiltonian, k: int) -> float:
    """``||Phi*(H^k) - H^k||_F``: conservation of the k-th energy moment."""
    h = require_hermitian(hamiltonian, name="hamiltonian")
    if channel.dim_in != h.shape[0] or channel.dim_out != h.shape[0]:
        raise ValidationError(
            f"channel dims {channel.dim_out}x{channel.dim_in} do not match "
            f"Hamiltonian dimension {h.shape[0]}"
        )
    hk = np.linalg.matrix_power(h, int(k))
    return frobenius(channel.apply_dual(hk) - hk)


def validate_free_scheme(scheme: MeasurementScheme) -> FreeSchemeReport:
    """Measure how far a scheme is from being thermodynamically free.

    Probe thermality holds by construction, so three defects remain:
    bistochasticity of the interaction, conservation of the total additive
    Hamiltonian (checked in the Heisenberg picture for moments
    ``k = 1..ENERGY_MOMENTS``), and the Yanase defect, the worst commutator
    of a pointer effect with the probe Hamiltonian. The report's verdict is
    at ``THEOREM_TOL``; ``scheme.freeness(tol)`` gives it at any other tol.
    """
    bist = is_bistochastic(scheme.interaction)
    h_total = scheme.total_hamiltonian()
    moment_defects = tuple(
        energy_moment_defect(scheme.interaction, h_total, k) for k in range(1, ENERGY_MOMENTS + 1)
    )
    yanase = float(commutator_defect(scheme.pointer.effects, scheme.probe_hamiltonian).max())
    return FreeSchemeReport(
        gibbs_probe_ok=True,
        bistochastic_defect=max(bist.trace_defect, bist.unital_defect),
        energy_conservation_defects=moment_defects,
        yanase_defect=yanase,
        tol=THEOREM_TOL,
    )


def _dilation(scheme: MeasurementScheme) -> tuple:
    """``sqrt(g_a) (1 (x) 1) M (1 (x) |a>)`` and the amplitudes ``sqrt(g_a)``.

    The stack is ``(k, d_a, d_s, d_a, d_s)``: interaction Kraus operator
    ``M``, probe level ``|a>``, then system out, probe out, system in. The
    amplitudes ``sqrt(g_a) = exp(ln g_a / 2)`` come from the log Gibbs
    weights, so they stay positive where ``g_a`` is far below round-off.
    """
    d_s, d_a = scheme.dim_system, scheme.dim_probe
    log_weights, vecs = scheme.probe_log_weights
    amplitudes = np.exp(log_weights / 2)
    t = scheme.interaction.kraus.reshape(-1, d_s, d_a, d_s, d_a)
    return np.einsum("mibjc,ca->maibj", t, vecs * amplitudes), amplitudes


def _pruned(ks: np.ndarray, amplitudes: np.ndarray) -> np.ndarray:
    """The operators of a ``(k, d_a, n, rows, cols)`` stack as one ``(-1, rows, cols)`` stack.

    Kept are those whose norm exceeds ``PRUNE_TOL`` times the amplitude of their probe level.
    """
    return ks[np.linalg.norm(ks, axis=(-2, -1)) > PRUNE_TOL * amplitudes[:, None]]


def induced_instrument(scheme: MeasurementScheme) -> Instrument:
    """Instrument the scheme implements: ``I_x(rho) = tr_A[(1 (x) Z_x) E(rho (x) xi)]``.

    Realized in Kraus form by applying the square roots of the pointer
    effects to the probe output leg of the dilation; Kraus operators are
    ordered by interaction Kraus operator, probe level and probe output.
    The Kraus decomposition is not unique; only the action is the contract.
    """
    d_s, outcomes = scheme.dim_system, scheme.pointer.outcomes
    dilation, amplitudes = _dilation(scheme)
    names = tuple(f"pointer effect {x!r}: operator" for x in outcomes)
    roots = _psd_sqrt(scheme.pointer.effects, names)
    kraus_sets = []
    for root in roots:
        ops = _pruned(np.einsum("pb,maibj->mapij", root, dilation), amplitudes)
        kraus_sets.append(ops if len(ops) else np.zeros((1, d_s, d_s)))
    return Instrument(outcomes, kraus_sets)


def conjugate_channel(scheme: MeasurementScheme) -> KrausChannel:
    """Channel describing the probe after the interaction: ``tr_S[E(rho (x) xi)]``.

    Input dimension is the system's, output dimension the probe's. Kraus
    operators are ordered by interaction Kraus operator, probe level and
    system output.
    """
    return KrausChannel(_pruned(*_dilation(scheme)))


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
    return MeasurementScheme(
        system_hamiltonian=h,
        probe_hamiltonian=h,
        beta=beta,
        interaction=swap_channel(h.shape[0]),
        pointer=observable,
    )


def random_free_scheme(
    system_hamiltonian,
    probe_hamiltonian,
    beta: float,
    pointer: Observable,
    seed: int,
    mixture_size: int = 3,
) -> MeasurementScheme:
    """Seeded generator of nontrivial thermodynamically free schemes.

    The interaction is a convex mixture of ``mixture_size`` Haar-random
    unitaries block-diagonal on the degenerate eigenspaces of the total
    Hamiltonian (hence energy conserving), with mixture weights drawn
    uniformly from the simplex. Deterministic for a fixed seed.
    """
    h_s = require_hermitian(system_hamiltonian, name="system Hamiltonian")
    h_a = require_hermitian(probe_hamiltonian, name="probe Hamiltonian")
    if pointer.dim != h_a.shape[0]:
        raise ValidationError(
            f"pointer dimension {pointer.dim} does not match probe dimension {h_a.shape[0]}"
        )
    yanase = commutator_defect(pointer.effects, h_a).max()
    if yanase > THEOREM_TOL:
        raise PreconditionError(
            f"pointer violates the Yanase condition: worst commutator defect "
            f"{yanase:.3e} > {THEOREM_TOL:.1e}"
        )
    if mixture_size < 1:
        raise ValidationError(f"mixture_size must be at least 1, got {mixture_size}")
    d_s, d_a = h_s.shape[0], h_a.shape[0]
    h_total = np.kron(h_s, np.eye(d_a)) + np.kron(np.eye(d_s), h_a)
    evals, vecs = np.linalg.eigh(h_total)
    blocks = [vecs[:, idx] for idx in cluster_indices(evals)]
    rng = np.random.default_rng(seed)
    unitaries = []
    for _ in range(mixture_size):
        u = np.zeros((d_s * d_a, d_s * d_a), dtype=complex)
        for basis in blocks:
            u += basis @ haar_unitary(basis.shape[1], rng) @ dag(basis)
        unitaries.append(u)
    weights = rng.dirichlet(np.ones(mixture_size))
    kraus = [np.sqrt(w) * u for w, u in zip(weights, unitaries)]
    return MeasurementScheme(
        system_hamiltonian=h_s,
        probe_hamiltonian=h_a,
        beta=beta,
        interaction=KrausChannel(kraus),
        pointer=pointer,
    )
