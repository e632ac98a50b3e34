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

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, ValidationError
from .linalg import (
    cluster_indices,
    commutator_defect,
    dag,
    frobenius,
    psd_sqrt,
    require_hermitian,
)
from .objects import Instrument, KrausChannel, Observable, State, gibbs_state, is_bistochastic
from .sampling import haar_unitary

#: Kraus operators with Frobenius norm below this are dropped from dilations.
PRUNE_TOL = 1e-12

#: Default tolerance for theorem-level (freeness) checks.
FREENESS_TOL = 1e-8


class MeasurementScheme:
    """Tuple (system Hamiltonian, probe Hamiltonian, beta, interaction, pointer).

    The probe is prepared in ``gibbs_state(probe_hamiltonian, beta)``; there
    is deliberately no way to supply a different probe state.
    """

    def __init__(
        self,
        system_hamiltonian,
        probe_hamiltonian,
        beta: float,
        interaction: KrausChannel,
        pointer: Observable,
        tol: float = 1e-9,
    ):
        self.system_hamiltonian = require_hermitian(system_hamiltonian, name="system Hamiltonian")
        self.probe_hamiltonian = require_hermitian(probe_hamiltonian, name="probe Hamiltonian")
        if not np.isfinite(beta) or beta <= 0:
            raise ValidationError(f"inverse temperature must be positive and finite, got {beta}")
        self.beta = float(beta)
        self.dim_system = self.system_hamiltonian.shape[0]
        self.dim_probe = self.probe_hamiltonian.shape[0]
        if interaction.dim_in != interaction.dim_out:
            raise ValidationError("interaction channel must be square")
        if interaction.dim_in != self.dim_system * self.dim_probe:
            raise ValidationError(
                f"interaction acts on dimension {interaction.dim_in}, expected "
                f"{self.dim_system} * {self.dim_probe} = {self.dim_system * self.dim_probe}"
            )
        if pointer.dim != self.dim_probe:
            raise ValidationError(
                f"pointer has dimension {pointer.dim}, expected probe dimension {self.dim_probe}"
            )
        self.interaction = interaction
        self.pointer = pointer
        self._probe_state = None

    @property
    def probe_state(self) -> State:
        if self._probe_state is None:
            self._probe_state = gibbs_state(self.probe_hamiltonian, self.beta)
        return self._probe_state

    def system_gibbs(self) -> State:
        return gibbs_state(self.system_hamiltonian, self.beta)

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
    defects are indexed by moment ``k = 1..max_moment``; moments beyond the
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


def energy_moment_defects(scheme: MeasurementScheme, max_moment: int = 4) -> tuple:
    """Energy-moment defects of the interaction for ``k = 1..max_moment``."""
    h_total = scheme.total_hamiltonian()
    return tuple(
        energy_moment_defect(scheme.interaction, h_total, k) for k in range(1, max_moment + 1)
    )


def validate_free_scheme(
    scheme: MeasurementScheme, tol: float = FREENESS_TOL, max_moment: int = 4
) -> FreeSchemeReport:
    """Measure how far a scheme is from being thermodynamically free.

    Probe thermality holds by construction, so three defects remain:
    bistochasticity of the interaction, conservation of the total additive
    Hamiltonian (checked in the Heisenberg picture for moments
    ``k = 1..max_moment``), and the Yanase defect, the worst commutator of
    a pointer effect with the probe Hamiltonian.
    """
    bist = is_bistochastic(scheme.interaction, tol)
    moment_defects = energy_moment_defects(scheme, max_moment)
    yanase = max(
        commutator_defect(z, scheme.probe_hamiltonian) for z in scheme.pointer.effects
    )
    return FreeSchemeReport(
        gibbs_probe_ok=True,
        bistochastic_defect=max(bist.trace_defect, bist.unital_defect),
        energy_conservation_defects=moment_defects,
        yanase_defect=yanase,
        tol=tol,
    )


def _dilation(scheme: MeasurementScheme) -> np.ndarray:
    """Stack of ``sqrt(g_a) (1 (x) 1) M (1 (x) |a>)``, shaped ``(k, d_s, d_a, d_s)``.

    One entry per interaction Kraus operator ``M`` and probe Gibbs level ``|a>``
    with ``g_a > 0``, in that order; the other axes are system out, probe out, system in.
    """
    d_s, d_a = scheme.dim_system, scheme.dim_probe
    evals, vecs = np.linalg.eigh(scheme.probe_state.matrix)
    kept = evals > 0.0
    probe_in = vecs[:, kept] * np.sqrt(evals[kept])
    t = scheme.interaction.kraus.reshape(-1, d_s, d_a, d_s, d_a)
    return np.einsum("mibjc,ca->maibj", t, probe_in).reshape(-1, d_s, d_a, d_s)


def _pruned(ks: np.ndarray, prune_tol: float) -> np.ndarray:
    return ks[np.linalg.norm(ks, axis=(1, 2)) > prune_tol]


def induced_instrument(
    scheme: MeasurementScheme, tol: float = 1e-9, prune_tol: float = PRUNE_TOL
) -> Instrument:
    """Instrument the scheme implements: ``I_x(rho) = tr_A[(1 (x) Z_x) E(rho (x) xi)]``.

    Realized in Kraus form by applying the square roots of the pointer
    effects to the probe output leg of the dilation; Kraus operators are
    ordered by interaction Kraus operator, probe level and probe output.
    The Kraus decomposition is not unique; only the action is the contract.
    """
    d_s = scheme.dim_system
    dilation = _dilation(scheme)
    kraus_sets = []
    for label, z in zip(scheme.pointer.outcomes, scheme.pointer.effects):
        try:
            sqrt_z = psd_sqrt(z, tol)
        except ValidationError as exc:
            raise ValidationError(f"pointer effect {label!r}: {exc}") from exc
        lifted = np.einsum("pb,kibj->kpij", sqrt_z, dilation).reshape(-1, d_s, d_s)
        ops = _pruned(lifted, prune_tol)
        kraus_sets.append(ops if len(ops) else np.zeros((1, d_s, d_s)))
    return Instrument(scheme.pointer.outcomes, kraus_sets, tol)


def conjugate_channel(
    scheme: MeasurementScheme, tol: float = 1e-9, prune_tol: float = PRUNE_TOL
) -> KrausChannel:
    """Channel describing the probe after the interaction: ``tr_S[E(rho (x) xi)]``.

    Input dimension is the system's, output dimension the probe's. Kraus
    operators are ordered by interaction Kraus operator, probe level and
    system output.
    """
    d_s, d_a = scheme.dim_system, scheme.dim_probe
    return KrausChannel(_pruned(_dilation(scheme).reshape(-1, d_a, d_s), prune_tol), tol)


def swap_unitary(dim: int) -> np.ndarray:
    """Unitary exchanging the two factors of a ``dim x dim`` product space."""
    u = np.zeros((dim * dim, dim * dim), dtype=complex)
    for a in range(dim):
        for b in range(dim):
            u[b * dim + a, a * dim + b] = 1.0
    return u


def swap_channel(dim: int) -> KrausChannel:
    return KrausChannel([swap_unitary(dim)])


def trivial_scheme(
    observable: Observable, system_hamiltonian, beta: float, tol: float = FREENESS_TOL
) -> MeasurementScheme:
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
    worst = max(commutator_defect(e, h) for e in observable.effects)
    if worst > tol:
        raise PreconditionError(
            f"observable does not commute with the Hamiltonian: worst effect "
            f"commutator defect {worst:.3e} > {tol:.1e}"
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
    cluster_tol: float = 1e-8,
    tol: float = FREENESS_TOL,
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
    yanase = max(commutator_defect(z, h_a) for z in pointer.effects)
    if yanase > tol:
        raise PreconditionError(
            f"pointer violates the Yanase condition: worst commutator defect "
            f"{yanase:.3e} > {tol:.1e}"
        )
    if mixture_size < 1:
        raise ValidationError(f"mixture_size must be at least 1, got {mixture_size}")
    d_s, d_a = h_s.shape[0], h_a.shape[0]
    h_total = np.kron(h_s, np.eye(d_a)) + np.kron(np.eye(d_s), h_a)
    evals, vecs = np.linalg.eigh(h_total)
    blocks = [vecs[:, idx] for idx in cluster_indices(evals, cluster_tol)]
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
