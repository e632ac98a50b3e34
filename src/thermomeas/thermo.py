"""Work, heat, information gain, asymmetry, and the second-law report.

Conventions: entropic quantities are in nats, energies in the units of the
Hamiltonians, and the inverse temperature carries inverse-energy units.
Outcomes with probability below ``PROBABILITY_CUTOFF`` are excluded from
every conditional sum (the 0 ln 0 convention); conditional states are only
defined for outcomes that actually occur.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, ValidationError
from .linalg import (
    PROBABILITY_CUTOFF,
    THEOREM_TOL,
    VALIDATION_TOL,
    as_matrix,
    dag,
    density_matrix,
    frobenius,
    logsumexp,
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
    """Diagonal ``<i|M|i>`` of an operator in the eigenbasis ``vecs`` of ``H``."""
    return np.einsum("ia,ij,ja->a", vecs.conj(), m, vecs).real


def _divergence_to_gibbs(rho, entropy: float, gibbs) -> float:
    """``D(rho || tau) = -S(rho) - sum_i <i|rho|i> ln tau_i``, given ``S(rho)``."""
    log_weights, vecs = gibbs
    return -entropy - float(_diagonal(rho, vecs) @ log_weights)


def _conditional_terms(instrument: Instrument, r) -> list:
    """``(p_x, rho_x, S(rho_x))`` of every outcome above the probability cutoff.

    ``r`` must already be a validated density matrix; the conditional states
    are plain Hermitian matrices.
    """
    terms = []
    for out in instrument.apply(r):
        p = float(np.trace(out).real)
        if p > PROBABILITY_CUTOFF:
            cond = (out + dag(out)) / 2 / p
            terms.append((p, cond, von_neumann_entropy(cond, validate=False)))
    return terms


def extractable_work(rho, system_hamiltonian, beta: float) -> float:
    """Nonequilibrium free energy relative to the Gibbs state, over beta.

    This is the maximum work an isothermal process can extract while the
    state relaxes to thermal equilibrium; zero exactly at the Gibbs state.
    """
    beta = require_beta(beta)
    r = density_matrix(rho)
    gibbs = gibbs_log_weights(system_hamiltonian, beta)
    return _divergence_to_gibbs(r, von_neumann_entropy(r, validate=False), gibbs) / beta


def _average_work(terms: list, gibbs, beta: float) -> float:
    total = 0.0
    for p, cond, entropy in terms:
        total += p * _divergence_to_gibbs(cond, entropy, gibbs)
    return float(total / beta)


def average_extractable_work(instrument: Instrument, rho, system_hamiltonian, beta: float) -> float:
    """Mean post-measurement extractable work under outcome-conditioned feedback."""
    beta = require_beta(beta)
    terms = _conditional_terms(instrument, density_matrix(rho))
    return _average_work(terms, gibbs_log_weights(system_hamiltonian, beta), beta)


def _outcome_divergence(observable, rho, gibbs) -> float:
    log_weights, vecs = gibbs
    p = observable.probabilities(rho)
    total = 0.0
    for label, px, effect in zip(observable.outcomes, p, observable.effects):
        if px <= PROBABILITY_CUTOFF:
            continue
        diagonal = _diagonal(effect, vecs)
        support = diagonal > 0.0
        if not support.any():
            raise ValidationError(
                f"outcome {label!r} has zero Gibbs probability but p = {px:.3e}; "
                "effects must be zero operators to be skipped"
            )
        log_q = logsumexp(np.log(diagonal[support]) + log_weights[support])
        total += px * (np.log(px) - log_q)
    return float(total)


def outcome_divergence(observable, rho, system_hamiltonian, beta: float) -> float:
    """Classical relative entropy between measurement statistics in ``rho`` and in the Gibbs state.

    The Gibbs probabilities are taken in log form,
    ``ln q_x = logsumexp_i(ln <i|E_x|i> + ln tau_i)`` over the positive
    diagonal entries of ``E_x`` in the eigenbasis of ``H``, so they stay
    finite at low temperature.
    """
    beta = require_beta(beta)
    return _outcome_divergence(observable, rho, gibbs_log_weights(system_hamiltonian, beta))


def _gain(entropy: float, terms: list) -> float:
    gain = entropy
    for p, _, cond_entropy in terms:
        gain -= p * cond_entropy
    return float(gain)


def groenewold_gain(instrument: Instrument, rho) -> float:
    """Entropy of the input minus the mean entropy of the conditional outputs."""
    r = density_matrix(rho)
    return _gain(von_neumann_entropy(r, validate=False), _conditional_terms(instrument, r))


def _probe_side_heat(scheme: MeasurementScheme, r) -> float:
    """Decrease of the probe's expected energy when the scheme acts on ``r``."""
    xi = scheme.probe_state.matrix
    probe_after = scheme.conjugate.apply(r)
    return float(np.trace(scheme.probe_hamiltonian @ (xi - probe_after)).real)


def _system_side_heat(instrument: Instrument, h, r) -> float:
    """Increase of the system's expected energy under the instrument's total channel."""
    return float(np.trace(h @ (sum(instrument.apply(r)) - r)).real)


def heat_absorbed(scheme: MeasurementScheme, rho) -> HeatReport:
    """Heat the system absorbs from the probe: decrease of probe energy.

    The report carries the defect against the system-side accounting (the
    increase in the system's expected energy); the two agree for schemes
    whose interaction conserves the total Hamiltonian.
    """
    r = density_matrix(rho)
    heat = _probe_side_heat(scheme, r)
    system_side = _system_side_heat(scheme.instrument, scheme.system_hamiltonian, r)
    return HeatReport(heat=heat, duality_defect=abs(heat - system_side))


def skew_information(hamiltonian, rho) -> float:
    """Wigner-Yanase skew information ``tr[rho H^2] - tr[sqrt(rho) H sqrt(rho) H]``.

    Defined for sub-normalized positive operators (trace at most 1) and
    linear under scaling ``rho -> p rho``; computed in the manifestly
    nonnegative commutator form.
    """
    h = require_hermitian(hamiltonian, name="hamiltonian")
    m = as_matrix(rho)
    m = (m + dag(m)) / 2
    trace = float(np.trace(m).real)
    if trace > 1 + VALIDATION_TOL:
        raise ValidationError(f"operator must be sub-normalized, got trace {trace:.6f}")
    root = psd_sqrt(m)
    comm = root @ h - h @ root
    return 0.5 * frobenius(comm) ** 2


def skew_information_chain(instrument: Instrument, rho, system_hamiltonian):
    """Slacks of the selective asymmetry-monotonicity chain.

    Returns ``(selective_slack, convexity_slack)``: the asymmetry of the
    input minus the summed asymmetries of the (sub-normalized) outputs, and
    that sum minus the asymmetry of the total channel output. Both are
    nonnegative for covariant instruments.
    """
    h = require_hermitian(system_hamiltonian, name="hamiltonian")
    r = density_matrix(rho)
    outputs = instrument.apply(r)
    before = skew_information(h, r)
    per_outcome = sum(skew_information(h, out) for out in outputs)
    after_total = skew_information(h, sum(outputs))
    return before - per_outcome, per_outcome - after_total


def work_report(instrument: Instrument, rho, system_hamiltonian, beta: float) -> WorkReport:
    """Diagnostic work accounting for an arbitrary instrument.

    No freeness is assumed and no verdict is attached; the heat entry is the
    system-side energy increase (for non-free schemes no probe-side heat is
    defined). This is the mode to use for comparative studies such as the
    measurement-and-feedback engine run with a non-thermal instrument.
    """
    beta = require_beta(beta)
    h = require_hermitian(system_hamiltonian, name="system Hamiltonian")
    r = density_matrix(rho)
    heat = _system_side_heat(instrument, h, r)
    return _work(instrument, r, beta, gibbs_log_weights(h, beta), heat)


def _work(instrument: Instrument, r, beta: float, gibbs, heat: float) -> WorkReport:
    """Work accounting of a validated state ``r``, given the Gibbs log-weights and the heat."""
    entropy = von_neumann_entropy(r, validate=False)
    terms = _conditional_terms(instrument, r)
    return WorkReport(
        extractable_work=_divergence_to_gibbs(r, entropy, gibbs) / beta,
        average_extractable_work=_average_work(terms, gibbs, beta),
        outcome_divergence=_outcome_divergence(instrument.induced_observable(), r, gibbs),
        heat=heat,
        groenewold_gain=_gain(entropy, terms),
        beta=beta,
    )


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
    freeness = scheme.freeness(tol)
    if not freeness.verdict:
        raise PreconditionError(
            f"scheme is not thermodynamically free: worst defect "
            f"{freeness.worst_defect:.3e} > {tol:.1e}"
        )
    r = density_matrix(rho)
    beta = scheme.beta
    work = _work(scheme.instrument, r, beta, scheme.gibbs_log_weights, _probe_side_heat(scheme, r))
    w, avg_w = work.extractable_work, work.average_extractable_work
    divergence, heat, gain = work.outcome_divergence, work.heat, work.groenewold_gain
    law = SecondLawReport(
        prop1_slack=float(w - divergence / beta - avg_w),
        eq5_identity_defect=float(abs(avg_w - w - heat - gain / beta)),
        eq5_bound_slack=float(-divergence / beta - heat - gain / beta),
        heat_bound_slack=float(-gain / beta - heat),
        tol=tol,
    )
    return law, work
