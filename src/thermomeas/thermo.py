"""Work, heat, information gain, asymmetry, and the second-law report.

Conventions: entropic quantities are in nats, energies in the units of the
Hamiltonians, and the inverse temperature carries inverse-energy units.
Outcomes with probability below ``PROBABILITY_CUTOFF`` are excluded from
every conditional sum (the 0 ln 0 convention); conditional states are only
defined for outcomes that actually occur.

Every per-state quantity has one implementation, which works on a stack of
states: :class:`StateAudit` and the stack helpers it uses. The single-state
functions call them on a stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import PreconditionError, ValidationError
from .linalg import (
    PROBABILITY_CUTOFF,
    THEOREM_TOL,
    VALIDATION_TOL,
    as_matrix,
    dag,
    density_matrix,
    psd_sqrt,
    require_beta,
    require_hermitian,
    von_neumann_entropy,
)
from .objects import Instrument, gibbs_log_weights
from .schemes import MeasurementScheme


@dataclass(frozen=True)
class WorkReport:
    """The scalar thermodynamic quantities of one (instrument, state) pair.

    ``heat`` is the heat absorbed by the system: probe-side when derived
    from a scheme, system-side (energy increase of the system) when derived
    from a bare instrument.
    """

    extractable_work: float
    average_extractable_work: float
    outcome_divergence: float
    heat: float
    groenewold_gain: float
    beta: float

    def to_dict(self) -> dict:
        return {
            "extractable_work": self.extractable_work,
            "average_extractable_work": self.average_extractable_work,
            "outcome_divergence": self.outcome_divergence,
            "heat": self.heat,
            "groenewold_gain": self.groenewold_gain,
            "beta": self.beta,
        }


@dataclass(frozen=True)
class SecondLawReport:
    """Slack and defect values of the second-law inequalities.

    ``prop1_slack``    : extractable work minus divergence term minus average
                         extractable work; nonnegative for thermal instruments.
    ``eq5_identity_defect`` : violation of the exact energy-entropy balance
                         relating the work gap to heat plus information gain.
    ``eq5_bound_slack``: distance by which heat plus scaled information gain
                         stays below the negative scaled divergence.
    ``heat_bound_slack``: distance by which the heat stays below the negative
                         scaled information gain.
    """

    prop1_slack: float
    eq5_identity_defect: float
    eq5_bound_slack: float
    heat_bound_slack: float
    tol: float

    @property
    def verdict(self) -> bool:
        return (
            self.prop1_slack >= -self.tol
            and self.eq5_identity_defect <= self.tol
            and self.eq5_bound_slack >= -self.tol
            and self.heat_bound_slack >= -self.tol
        )

    def to_dict(self) -> dict:
        return {
            "prop1_slack": self.prop1_slack,
            "eq5_identity_defect": self.eq5_identity_defect,
            "eq5_bound_slack": self.eq5_bound_slack,
            "heat_bound_slack": self.heat_bound_slack,
            "tol": self.tol,
            "verdict": self.verdict,
        }


@dataclass(frozen=True)
class HeatReport:
    """Heat absorbed by the system plus the probe/system bookkeeping defect."""

    heat: float
    duality_defect: float


def _diagonal(m, vecs) -> np.ndarray:
    """Diagonal ``<i|M|i>`` in the eigenbasis ``vecs`` of ``H``, of one operator or of a stack."""
    return np.einsum("ia,...ij,ja->...a", vecs.conj(), m, vecs).real


def _divergence_to_gibbs(rho, entropy, gibbs):
    """``D(rho || tau) = -S(rho) - sum_i <i|rho|i> ln tau_i``, given ``S(rho)``; stacks too."""
    log_weights, vecs = gibbs
    return -entropy - _diagonal(rho, vecs) @ log_weights


def _log_gibbs_probabilities(observable, gibbs) -> np.ndarray:
    """``ln q_x = logsumexp_i(ln <i|E_x|i> + ln tau_i)`` per outcome; NaN where ``q_x = 0``.

    The sum runs over the positive diagonal entries of ``E_x`` in the
    eigenbasis of ``H``, so ``ln q_x`` stays finite at low temperature.
    """
    log_weights, vecs = gibbs
    diagonals = _diagonal(observable.effects, vecs)
    support = diagonals > 0.0
    terms = np.log(diagonals, out=np.full(diagonals.shape, -np.inf), where=support) + log_weights
    occurs = support.any(axis=1)
    terms = terms[occurs]
    top = terms.max(axis=1, keepdims=True)  # log-sum-exp of each row, shifted by its largest term
    log_q = np.full(len(diagonals), np.nan)
    log_q[occurs] = top[:, 0] + np.log(np.exp(terms - top).sum(axis=1))
    return log_q


def _outcome_divergence(observable, states, log_q) -> np.ndarray:
    """``sum_x p_x (ln p_x - ln q_x)`` of each state of a stack, over ``p_x`` above the cutoff."""
    p = np.einsum("xij,nji->xn", observable.effects, states).real
    kept = p > PROBABILITY_CUTOFF
    impossible = kept & np.isnan(log_q)[:, None]
    if impossible.any():
        i = int(np.argmax(impossible.any(axis=0)))
        x = int(np.argmax(impossible[:, i]))
        raise ValidationError(
            f"outcome {observable.outcomes[x]!r} has zero Gibbs probability but "
            f"p = {p[x, i]:.3e}; effects must be zero operators to be skipped"
        )
    log_p = np.log(np.where(kept, p, 1.0))
    return np.where(kept, p * (log_p - log_q[:, None]), 0.0).sum(axis=0)


def _skew_information(h, m) -> np.ndarray:
    """:func:`skew_information` of one operator or of each entry of a stack, all Hermitian."""
    trace = np.trace(m, axis1=-2, axis2=-1).real
    if (trace > 1 + VALIDATION_TOL).any():
        raise ValidationError(f"operator must be sub-normalized, got trace {np.max(trace):.6f}")
    root = psd_sqrt(m)
    comm = root @ h
    comm -= h @ root
    return 0.5 * np.linalg.norm(comm, axis=(-2, -1)) ** 2


class StateAudit:
    """Every per-state quantity of one instrument on a stack of states.

    ``states`` is a validated ``(n, d, d)`` stack, as :func:`density_matrix`
    returns it, and ``hamiltonian`` a Hermitian matrix, as
    :func:`require_hermitian` returns it. Each outcome's Kraus stack is
    applied to the whole stack once; every quantity is derived from those
    outputs on its first use and kept, so the second law, heat duality
    and the skew chain read one shared record and a caller pays only for
    what it reads. Arrays hold one entry per state (per outcome and state
    for ``probabilities``).

    ``hamiltonian`` and ``beta`` are needed only by the quantities that
    use them. With a ``scheme``, the instrument, Hamiltonian and beta
    must be the scheme's; it then supplies the Gibbs data and the
    probe-side heat, and gates :meth:`second_law_reports` on freeness.
    """

    def __init__(
        self, instrument: Instrument, states, hamiltonian=None, beta=None, scheme=None
    ):
        self.instrument = instrument
        self.states = states
        self.hamiltonian = hamiltonian
        self.beta = beta
        self.scheme = scheme

    @classmethod
    def of_scheme(cls, scheme: MeasurementScheme, states) -> "StateAudit":
        return cls(scheme.instrument, states, scheme.system_hamiltonian, scheme.beta, scheme)

    @cached_property
    def gibbs(self) -> tuple:
        """Gibbs log-weights and eigenvectors of the Hamiltonian at ``beta``."""
        if self.scheme is not None:
            return self.scheme.gibbs_log_weights
        return gibbs_log_weights(self.hamiltonian, require_beta(self.beta))

    @cached_property
    def outputs(self) -> np.ndarray:
        """``I_x(rho)`` of every outcome and state, shaped ``(n_outcomes, n, d, d)``."""
        return np.array(self.instrument.apply(self.states))

    @cached_property
    def probabilities(self) -> np.ndarray:
        """``tr I_x(rho)``, shaped ``(n_outcomes, n)``."""
        return np.trace(self.outputs, axis1=-2, axis2=-1).real

    @cached_property
    def _occurring(self) -> np.ndarray:
        return self.probabilities > PROBABILITY_CUTOFF

    def _conditional_states(self) -> np.ndarray:
        """Conditional states ``rho_x`` of the occurring (outcome, state) pairs, not kept."""
        return self.outputs[self._occurring] / self.probabilities[self._occurring][:, None, None]

    def _per_outcome(self, values) -> np.ndarray:
        """``values`` of the occurring pairs spread to ``(n_outcomes, n)``, zero elsewhere."""
        full = np.zeros(self.probabilities.shape)
        full[self._occurring] = values
        return full

    @cached_property
    def entropy(self) -> np.ndarray:
        return von_neumann_entropy(self.states, validate=False)

    @cached_property
    def _conditional_entropy(self) -> np.ndarray:
        return self._per_outcome(von_neumann_entropy(self._conditional_states(), validate=False))

    @cached_property
    def extractable_work(self) -> np.ndarray:
        return _divergence_to_gibbs(self.states, self.entropy, self.gibbs) / self.beta

    @cached_property
    def average_extractable_work(self) -> np.ndarray:
        divergence = _divergence_to_gibbs(
            self._conditional_states(), self._conditional_entropy[self._occurring], self.gibbs
        )
        return (self.probabilities * self._per_outcome(divergence)).sum(axis=0) / self.beta

    @cached_property
    def outcome_divergence(self) -> np.ndarray:
        observable = self.instrument.induced_observable
        log_q = _log_gibbs_probabilities(observable, self.gibbs)
        return _outcome_divergence(observable, self.states, log_q)

    @cached_property
    def groenewold_gain(self) -> np.ndarray:
        return self.entropy - (self.probabilities * self._conditional_entropy).sum(axis=0)

    @cached_property
    def system_heat(self) -> np.ndarray:
        """Increase of the system's expected energy under the instrument's total channel."""
        change = self.outputs.sum(axis=0) - self.states
        return np.einsum("ij,nji->n", self.hamiltonian, change).real

    @cached_property
    def probe_heat(self) -> np.ndarray:
        """Decrease of the probe's expected energy when the scheme acts on each state."""
        scheme = self.scheme
        probe_after = scheme.conjugate.apply(self.states)
        change = scheme.probe_state.matrix - probe_after
        return np.einsum("ij,nji->n", scheme.probe_hamiltonian, change).real

    @cached_property
    def skew_chain(self) -> tuple:
        """``(selective_slack, convexity_slack)`` arrays; see :func:`skew_information_chain`."""
        h, outputs = self.hamiltonian, self.outputs
        k, n, d = outputs.shape[:3]
        before = _skew_information(h, self.states)
        per_outcome = _skew_information(h, outputs.reshape(k * n, d, d)).reshape(k, n).sum(axis=0)
        after_total = _skew_information(h, outputs.sum(axis=0))
        return before - per_outcome, per_outcome - after_total

    def work_reports(self, heat) -> list:
        """One :class:`WorkReport` per state, with the given heat array."""
        columns = (
            self.extractable_work,
            self.average_extractable_work,
            self.outcome_divergence,
            heat,
            self.groenewold_gain,
        )
        return [WorkReport(*map(float, row), beta=self.beta) for row in zip(*columns)]

    def heat_reports(self) -> list:
        """One :class:`HeatReport` per state: probe-side heat and its system-side defect."""
        return [
            HeatReport(heat=float(q), duality_defect=float(abs(q - s)))
            for q, s in zip(self.probe_heat, self.system_heat)
        ]

    def second_law_reports(self, tol: float = THEOREM_TOL) -> list:
        """``(SecondLawReport, WorkReport)`` per state; see :func:`second_law_report`."""
        scheme = self.scheme
        freeness = scheme.freeness(tol)
        if not freeness.verdict:
            raise PreconditionError(
                f"scheme is not thermodynamically free: worst defect "
                f"{freeness.worst_defect:.3e} > {tol:.1e}"
            )
        beta = self.beta
        w, avg_w = self.extractable_work, self.average_extractable_work
        divergence, heat, gain = self.outcome_divergence, self.probe_heat, self.groenewold_gain
        slacks = zip(
            w - divergence / beta - avg_w,
            np.abs(avg_w - w - heat - gain / beta),
            -divergence / beta - heat - gain / beta,
            -gain / beta - heat,
        )
        laws = [SecondLawReport(*map(float, row), tol=tol) for row in slacks]
        return list(zip(laws, self.work_reports(heat)))


def _one_state(rho) -> np.ndarray:
    """A validated density matrix as a stack of one."""
    return density_matrix(as_matrix(rho))[None]


def extractable_work(rho, system_hamiltonian, beta: float) -> float:
    """Nonequilibrium free energy relative to the Gibbs state, over beta.

    This is the maximum work an isothermal process can extract while the
    state relaxes to thermal equilibrium; zero exactly at the Gibbs state.
    """
    beta = require_beta(beta)
    r = density_matrix(as_matrix(rho))
    gibbs = gibbs_log_weights(system_hamiltonian, beta)
    return float(_divergence_to_gibbs(r, von_neumann_entropy(r, validate=False), gibbs)) / beta


def average_extractable_work(instrument: Instrument, rho, system_hamiltonian, beta: float) -> float:
    """Mean post-measurement extractable work under outcome-conditioned feedback."""
    audit = StateAudit(instrument, _one_state(rho), system_hamiltonian, require_beta(beta))
    return float(audit.average_extractable_work[0])


def outcome_divergence(observable, rho, system_hamiltonian, beta: float) -> float:
    """Classical relative entropy between measurement statistics in ``rho`` and in the Gibbs state.

    The Gibbs probabilities are taken in log form,
    ``ln q_x = logsumexp_i(ln <i|E_x|i> + ln tau_i)`` over the positive
    diagonal entries of ``E_x`` in the eigenbasis of ``H``, so they stay
    finite at low temperature.
    """
    log_q = _log_gibbs_probabilities(
        observable, gibbs_log_weights(system_hamiltonian, require_beta(beta))
    )
    return float(_outcome_divergence(observable, as_matrix(rho)[None], log_q)[0])


def groenewold_gain(instrument: Instrument, rho) -> float:
    """Entropy of the input minus the mean entropy of the conditional outputs."""
    return float(StateAudit(instrument, _one_state(rho)).groenewold_gain[0])


def heat_absorbed(scheme: MeasurementScheme, rho) -> HeatReport:
    """Heat the system absorbs from the probe: decrease of probe energy.

    The report carries the defect against the system-side accounting (the
    increase in the system's expected energy); the two agree for schemes
    whose interaction conserves the total Hamiltonian.
    """
    return StateAudit.of_scheme(scheme, _one_state(rho)).heat_reports()[0]


def skew_information(hamiltonian, rho) -> float:
    """Wigner-Yanase skew information ``tr[rho H^2] - tr[sqrt(rho) H sqrt(rho) H]``.

    Defined for sub-normalized positive operators (trace at most 1) and
    linear under scaling ``rho -> p rho``; computed in the manifestly
    nonnegative commutator form.
    """
    h = require_hermitian(hamiltonian, name="hamiltonian")
    m = as_matrix(rho)
    return float(_skew_information(h, (m + dag(m)) / 2))


def skew_information_chain(instrument: Instrument, rho, system_hamiltonian):
    """Slacks of the selective asymmetry-monotonicity chain.

    Returns ``(selective_slack, convexity_slack)``: the asymmetry of the
    input minus the summed asymmetries of the (sub-normalized) outputs, and
    that sum minus the asymmetry of the total channel output. Both are
    nonnegative for covariant instruments.
    """
    h = require_hermitian(system_hamiltonian, name="hamiltonian")
    selective, convexity = StateAudit(instrument, _one_state(rho), h).skew_chain
    return float(selective[0]), float(convexity[0])


def work_report(instrument: Instrument, rho, system_hamiltonian, beta: float) -> WorkReport:
    """Diagnostic work accounting for an arbitrary instrument.

    No freeness is assumed and no verdict is attached; the heat entry is the
    system-side energy increase (for non-free schemes no probe-side heat is
    defined). This is the mode to use for comparative studies such as the
    measurement-and-feedback engine run with a non-thermal instrument.
    """
    beta = require_beta(beta)
    h = require_hermitian(system_hamiltonian, name="system Hamiltonian")
    audit = StateAudit(instrument, _one_state(rho), h, beta)
    return audit.work_reports(audit.system_heat)[0]


def second_law_report(
    scheme: MeasurementScheme, rho, tol: float = THEOREM_TOL
) -> tuple[SecondLawReport, WorkReport]:
    """Full second-law audit of a thermodynamically free scheme on one state.

    The scheme must pass :func:`validate_free_scheme`; the audited
    inequalities are theorems only for thermal instruments, so non-free
    schemes are refused rather than scored. The work accounting is
    :func:`work_report` on the induced instrument, with its system-side heat
    replaced by the probe-side heat of :func:`heat_absorbed`.
    """
    return StateAudit.of_scheme(scheme, _one_state(rho)).second_law_reports(tol)[0]
