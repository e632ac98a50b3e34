"""Work, heat, information gain, asymmetry, and the second-law report.

Conventions: entropic quantities are in nats, energies in the units of the
Hamiltonians, and the inverse temperature carries inverse-energy units.
Outcomes with probability below ``PROBABILITY_CUTOFF`` are excluded from
every conditional sum (the 0 ln 0 convention); conditional states are only
defined for outcomes that actually occur.

Every per-state quantity has one implementation, which works on stacks of
states with a leading point axis: :class:`AuditBatch`, whose ``(P, n, d,
d)`` state stack holds each point's states for that point's instrument, and
the stack helpers it uses. :meth:`AuditBatch.of_schemes` audits every
scheme of a :class:`SchemeBatch` on its own states, for a sweep chunk, a
lone scenario and a single scheme alike, and :meth:`AuditBatch.of_instrument`
audits a bare instrument as a batch of one point; the single-state
functions read either on one state. The batch's report methods build
every list of reports, and each second-law verdict, of one state or of a
whole batch, is :func:`second_law_verdict`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .errors import PreconditionError, ValidationError
from .linalg import (
    PROBABILITY_CUTOFF,
    THEOREM_TOL,
    VALIDATION_TOL,
    as_matrix,
    density_matrix,
    frobenius_each,
    logsumexp,
    psd_sqrt,
    require_beta,
    require_hermitian,
    von_neumann_entropy,
)
from .objects import Instrument, _sandwich, gibbs_log_weights
from .schemes import MeasurementScheme, SchemeBatch, SchemeFrame


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
        return dict(vars(self))


def second_law_verdict(prop1_slack, eq5_identity_defect, eq5_bound_slack, heat_bound_slack, tol):
    """Whether the second-law slacks and defect are all within ``tol``.

    The verdict of :class:`SecondLawReport`, of one state's scalars, and of
    an :class:`AuditBatch`, elementwise on its per-state arrays.
    """
    return (
        (prop1_slack >= -tol)
        & (eq5_identity_defect <= tol)
        & (eq5_bound_slack >= -tol)
        & (heat_bound_slack >= -tol)
    )


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
        return bool(
            second_law_verdict(
                self.prop1_slack, self.eq5_identity_defect, self.eq5_bound_slack,
                self.heat_bound_slack, self.tol,
            )
        )

    def to_dict(self) -> dict:
        return {**vars(self), "verdict": self.verdict}


#: The columns of :attr:`AuditBatch.report_rows` in the order it stacks them: the
#: :class:`WorkReport` quantities, then, in an audit of schemes, the
#: :class:`SecondLawReport` slacks and defect.
WORK_COLUMNS = tuple(f.name for f in fields(WorkReport) if f.name != "beta")
LAW_COLUMNS = tuple(f.name for f in fields(SecondLawReport) if f.name != "tol")


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


def _log_gibbs_probabilities(effects, gibbs) -> np.ndarray:
    """``ln q_x = logsumexp_i(ln <i|E_x|i> + ln tau_i)`` per outcome; NaN where ``q_x = 0``.

    ``effects`` is one observable's ``(n_outcomes, d, d)`` stack, or a stack
    of them. The sum runs over the positive diagonal entries of ``E_x`` in
    the eigenbasis of ``H``, so ``ln q_x`` stays finite at low temperature.
    """
    log_weights, vecs = gibbs
    diagonals = _diagonal(effects, vecs)
    support = diagonals > 0.0
    terms = np.log(diagonals, out=np.full(diagonals.shape, -np.inf), where=support) + log_weights
    occurs = support.any(axis=-1)
    log_q = np.full(occurs.shape, np.nan)
    log_q[occurs] = logsumexp(terms[occurs])
    return log_q


def _outcome_divergence(outcomes, p, log_q) -> np.ndarray:
    """``sum_x p_x (ln p_x - ln q_x)`` of each state, over ``p_x`` above the cutoff.

    ``p`` is ``(P, n_outcomes, n)`` and ``log_q`` ``(P, n_outcomes)``: each
    point's outcome probabilities on its own states and at equilibrium.
    """
    kept = p > PROBABILITY_CUTOFF
    impossible = kept & np.isnan(log_q)[..., None]
    if impossible.any():
        point, x, i = np.argwhere(impossible.transpose(0, 2, 1))[0][[0, 2, 1]]
        raise ValidationError(
            f"outcome {outcomes[x]!r} has zero Gibbs probability but "
            f"p = {p[point, x, i]:.3e}; effects must be zero operators to be skipped"
        )
    log_p = np.log(np.where(kept, p, 1.0))
    return np.where(kept, p * (log_p - log_q[..., None]), 0.0).sum(axis=-2)


def _skew_information(h, m) -> np.ndarray:
    """:func:`skew_information` of one operator or of each entry of a stack, all Hermitian."""
    trace = np.trace(m, axis1=-2, axis2=-1).real
    if (trace > 1 + VALIDATION_TOL).any():
        raise ValidationError(f"operator must be sub-normalized, got trace {np.max(trace):.6f}")
    d = m.shape[-1]
    root = psd_sqrt(m if m.ndim <= 3 else m.reshape(-1, d, d)).reshape(m.shape)
    comm = root @ h
    comm -= h @ root
    return 0.5 * frobenius_each(comm) ** 2


def _entropy(m) -> np.ndarray:
    """:func:`von_neumann_entropy` of each matrix of a ``(..., d, d)`` stack, unvalidated."""
    d = m.shape[-1]
    return von_neumann_entropy(m.reshape(-1, d, d), validate=False).reshape(m.shape[:-2])


def _given(value, name: str):
    """``value``; refused, naming the input ``name``, when the audit was not given it."""
    if value is None:
        raise PreconditionError(f"this quantity needs a {name}, and the audit was given none")
    return value


@dataclass(eq=False)
class AuditBatch:
    """Every per-state quantity of several points, each one instrument on its
    own stack of states, as arrays with a leading point axis.

    Each point's instrument has the outcomes ``outcomes`` and as many Kraus
    operators per outcome as the others: ``kraus_sets`` holds per outcome
    one ``(P, k, d, d)`` Kraus stack, and ``effects`` the ``(P, n_outcomes,
    d, d)`` induced effects, as :class:`Instrument` validates them.
    ``states`` is a validated ``(P, n, d, d)`` stack: entry ``[i]`` holds
    the states of point ``i``. ``hamiltonian`` and ``beta`` are shared by
    every point and needed only by the quantities that use them; a quantity
    without its input is refused with a :class:`PreconditionError`. An
    audit of schemes, made by :meth:`of_schemes`, also holds the
    :class:`SchemeFrame` every point's scheme is on as ``frame`` and the
    ``(P, k', d_a, d)`` Kraus stack of their conjugate channels as
    ``conjugates``; the frame then supplies the Gibbs data, the Gibbs
    outcome probabilities (off its pointer) and, with the conjugates, the
    probe-side heat.

    Each outcome's Kraus stacks are applied to the whole ``(P, n, d, d)``
    stack once; every quantity is derived from those outputs on its first
    use and kept, so the second law, heat duality and the skew chain read
    one shared record and a caller pays only for what it reads.
    """

    outcomes: tuple
    kraus_sets: tuple
    effects: np.ndarray
    states: np.ndarray
    hamiltonian: np.ndarray = None
    beta: float = None
    frame: SchemeFrame = None
    conjugates: np.ndarray = None

    @classmethod
    def of_schemes(cls, schemes: SchemeBatch, states):
        """Each scheme of ``schemes`` on its own states, a validated ``(P, n, d, d)``
        stack of the system's dimension: the induced instruments, then the
        conjugate channels, are validated for all points at once."""
        frame = schemes.frame
        _require_dimension(frame.dim_system, "scheme", states=states)
        kraus_sets, _, effects = schemes.instrument_stacks
        return cls(
            frame.pointer.outcomes, kraus_sets, effects, states, frame.system_hamiltonian,
            frame.beta, frame, schemes.conjugate_kraus,
        )

    @classmethod
    def of_instrument(cls, instrument, states, hamiltonian=None, beta=None):
        """A batch of one point: ``instrument`` on a validated ``(n, d, d)`` stack
        ``states``, with a Hermitian ``hamiltonian``, both of its dimension."""
        _require_dimension(instrument.dim, "instrument", states=states, Hamiltonian=hamiltonian)
        return cls(
            instrument.outcomes, tuple(ks[None] for ks in instrument.kraus_sets),
            instrument.induced_observable.effects[None], states[None], hamiltonian, beta,
        )

    @cached_property
    def gibbs(self) -> tuple:
        """Gibbs log-weights and eigenvectors of the Hamiltonian at ``beta``."""
        beta = _given(self.beta, "beta")
        if self.frame is not None:
            return self.frame.gibbs_log_weights
        return gibbs_log_weights(_given(self.hamiltonian, "Hamiltonian"), require_beta(beta))

    @cached_property
    def outputs(self) -> np.ndarray:
        """``I_x(rho)`` of every point, outcome and state, shaped ``(P, n_outcomes, n, d, d)``."""
        p, n, d = self.states.shape[:3]
        outputs = np.empty((p, len(self.outcomes), n, d, d), dtype=complex)
        for x, kraus in enumerate(self.kraus_sets):
            outputs[:, x] = _sandwich(kraus, self.states)
        return outputs

    @cached_property
    def probabilities(self) -> np.ndarray:
        """``tr I_x(rho)``, shaped ``(P, n_outcomes, n)``."""
        return np.trace(self.outputs, axis1=-2, axis2=-1).real

    @cached_property
    def _occurring(self) -> np.ndarray:
        return self.probabilities > PROBABILITY_CUTOFF

    def _conditional_states(self) -> np.ndarray:
        """Conditional states ``rho_x`` of the occurring (outcome, state) pairs, not kept."""
        return self.outputs[self._occurring] / self.probabilities[self._occurring][:, None, None]

    def _per_outcome(self, values) -> np.ndarray:
        """``values`` of the occurring pairs spread to ``(P, n_outcomes, n)``, zero elsewhere."""
        full = np.zeros(self.probabilities.shape)
        full[self._occurring] = values
        return full

    @cached_property
    def entropy(self) -> np.ndarray:
        return _entropy(self.states)

    @cached_property
    def _conditional_entropy(self) -> np.ndarray:
        return self._per_outcome(_entropy(self._conditional_states()))

    @cached_property
    def extractable_work(self) -> np.ndarray:
        return _divergence_to_gibbs(self.states, self.entropy, self.gibbs) / self.beta

    @cached_property
    def average_extractable_work(self) -> np.ndarray:
        divergence = _divergence_to_gibbs(
            self._conditional_states(), self._conditional_entropy[self._occurring], self.gibbs
        )
        return (self.probabilities * self._per_outcome(divergence)).sum(axis=1) / self.beta

    @cached_property
    def outcome_divergence(self) -> np.ndarray:
        """``D(p || q)`` of each state. With a scheme, ``q_x = tr[Z_x xi]`` is read
        off the pointer in the Gibbs probe, which equals ``tr[E_x tau]`` for a free
        scheme and stays exact where the induced effects underflow."""
        if self.frame is None:
            log_q = _log_gibbs_probabilities(self.effects, self.gibbs)
        else:
            pointer = self.frame.pointer.effects
            log_q = _log_gibbs_probabilities(pointer, self.frame.probe_log_weights)[None]
        return _outcome_divergence(self.outcomes, self.probabilities, log_q)

    @cached_property
    def groenewold_gain(self) -> np.ndarray:
        return self.entropy - (self.probabilities * self._conditional_entropy).sum(axis=1)

    @cached_property
    def system_heat(self) -> np.ndarray:
        """Increase of the system's expected energy under the instrument's total channel."""
        h = _given(self.hamiltonian, "Hamiltonian")
        change = self.outputs.sum(axis=1) - self.states
        return np.einsum("ij,pnji->pn", h, change).real

    @cached_property
    def probe_heat(self) -> np.ndarray:
        """Decrease of the probe's expected energy when the scheme acts on each state."""
        frame = _given(self.frame, "scheme")
        change = frame.probe_state.matrix - _sandwich(self.conjugates, self.states)
        return np.einsum("ij,pnji->pn", frame.probe_hamiltonian, change).real

    @cached_property
    def skew_chain(self) -> np.ndarray:
        """``(selective_slack, convexity_slack)`` of each state, shaped ``(P, 2, n)``;
        see :func:`skew_information_chain`."""
        h, outputs = _given(self.hamiltonian, "Hamiltonian"), self.outputs
        before = _skew_information(h, self.states)
        per_outcome = _skew_information(h, outputs).sum(axis=1)
        after_total = _skew_information(h, outputs.sum(axis=1))
        return np.stack([before - per_outcome, per_outcome - after_total], axis=1)

    @cached_property
    def report_rows(self) -> np.ndarray:
        """Per point and state, the ``WORK_COLUMNS`` and, with a scheme, the
        ``LAW_COLUMNS``: ``(P, n, 5)`` or ``(P, n, 9)``, in one stacked
        expression for the whole batch.

        The heat is probe-side with a scheme and system-side without.
        """
        beta = self.beta
        w, avg_w = self.extractable_work, self.average_extractable_work
        divergence, gain = self.outcome_divergence, self.groenewold_gain
        heat = self.system_heat if self.frame is None else self.probe_heat
        columns = [w, avg_w, divergence, heat, gain]
        if self.frame is not None:
            columns += [
                w - divergence / beta - avg_w,
                np.abs(avg_w - w - heat - gain / beta),
                -divergence / beta - heat - gain / beta,
                -gain / beta - heat,
            ]
        return np.stack(columns, axis=-1)

    @cached_property
    def heat_rows(self) -> np.ndarray:
        """Per point and state, the probe-side heat and its system-side defect: ``(P, n, 2)``."""
        heat = self.probe_heat
        return np.stack([heat, np.abs(heat - self.system_heat)], axis=-1)

    def work_reports(self) -> list:
        """One :class:`WorkReport` per point and state, point by point; its heat
        is probe-side with a scheme and system-side without."""
        beta, rows = self.beta, self.report_rows[..., :len(WORK_COLUMNS)].tolist()
        return [WorkReport(*row, beta=beta) for point in rows for row in point]

    def heat_reports(self) -> list:
        """One :class:`HeatReport` per point and state: probe-side heat and its
        system-side defect."""
        return [HeatReport(*row) for point in self.heat_rows.tolist() for row in point]

    def second_law_reports(self, tol: float = THEOREM_TOL) -> list:
        """``(SecondLawReport, WorkReport)`` per point and state, point by point; the
        caller refuses a point whose scheme is not free, as :func:`second_law_report` does."""
        _given(self.frame, "scheme")
        rows = self.report_rows[..., len(WORK_COLUMNS):].tolist()
        laws = [SecondLawReport(*row, tol=tol) for point in rows for row in point]
        return list(zip(laws, self.work_reports()))


def _one_state(rho) -> np.ndarray:
    """A validated density matrix as a stack of one."""
    return density_matrix(as_matrix(rho))[None]


def _require_dimension(d: int, of: str, **matrices) -> None:
    """Refuse each given matrix, or stack of them, unless it is ``d x d`` as ``of`` is."""
    for name, m in matrices.items():
        shape = np.shape(m)[-2:]
        if m is not None and shape != (d, d):
            raise ValidationError(f"{name} must be {d} x {d} to match the {of}, got {shape}")


def extractable_work(rho, system_hamiltonian, beta: float) -> float:
    """Nonequilibrium free energy relative to the Gibbs state, over beta.

    This is the maximum work an isothermal process can extract while the
    state relaxes to thermal equilibrium; zero exactly at the Gibbs state.
    """
    beta, state = require_beta(beta), _one_state(rho)
    h = require_hermitian(system_hamiltonian, name="hamiltonian")
    _require_dimension(h.shape[0], "Hamiltonian", state=state)
    gibbs = gibbs_log_weights(h, beta)
    return float(_divergence_to_gibbs(state, _entropy(state), gibbs)[0]) / beta


def average_extractable_work(instrument: Instrument, rho, system_hamiltonian, beta: float) -> float:
    """Mean post-measurement extractable work under outcome-conditioned feedback."""
    state, beta = _one_state(rho), require_beta(beta)
    h = require_hermitian(system_hamiltonian, name="hamiltonian")
    audit = AuditBatch.of_instrument(instrument, state, h, beta)
    return float(audit.average_extractable_work[0, 0])


def outcome_divergence(observable, rho, system_hamiltonian, beta: float) -> float:
    """Classical relative entropy between measurement statistics in ``rho`` and in the Gibbs state.

    The Gibbs probabilities are taken in log form,
    ``ln q_x = logsumexp_i(ln <i|E_x|i> + ln tau_i)`` over the positive
    diagonal entries of ``E_x`` in the eigenbasis of ``H``, so they stay
    finite at low temperature.
    """
    beta, state = require_beta(beta), _one_state(rho)
    h = require_hermitian(system_hamiltonian, name="hamiltonian")
    _require_dimension(observable.dim, "observable", state=state, Hamiltonian=h)
    log_q = _log_gibbs_probabilities(observable.effects, gibbs_log_weights(h, beta))
    p = observable.probabilities(state[0])
    return float(_outcome_divergence(observable.outcomes, p[None, :, None], log_q[None])[0, 0])


def groenewold_gain(instrument: Instrument, rho) -> float:
    """Entropy of the input minus the mean entropy of the conditional outputs."""
    return float(AuditBatch.of_instrument(instrument, _one_state(rho)).groenewold_gain[0, 0])


def heat_absorbed(scheme: MeasurementScheme, rho) -> HeatReport:
    """Heat the system absorbs from the probe: decrease of probe energy.

    The report carries the defect against the system-side accounting (the
    increase in the system's expected energy); the two agree for schemes
    whose interaction conserves the total Hamiltonian.
    """
    return AuditBatch.of_schemes(scheme.batch, _one_state(rho)[None]).heat_reports()[0]


def skew_information(hamiltonian, rho) -> float:
    """Wigner-Yanase skew information ``tr[rho H^2] - tr[sqrt(rho) H sqrt(rho) H]``.

    Defined for sub-normalized positive operators (trace at most 1) and
    linear under scaling ``rho -> p rho``; computed in the manifestly
    nonnegative commutator form.
    """
    h = require_hermitian(hamiltonian, name="hamiltonian")
    m = require_hermitian(rho, name="operator")
    _require_dimension(h.shape[0], "Hamiltonian", operator=m)
    return float(_skew_information(h, m))


def skew_information_chain(instrument: Instrument, rho, system_hamiltonian):
    """Slacks of the selective asymmetry-monotonicity chain.

    Returns ``(selective_slack, convexity_slack)``: the asymmetry of the
    input minus the summed asymmetries of the (sub-normalized) outputs, and
    that sum minus the asymmetry of the total channel output. Both are
    nonnegative for covariant instruments.
    """
    h = require_hermitian(system_hamiltonian, name="hamiltonian")
    selective, convexity = AuditBatch.of_instrument(instrument, _one_state(rho), h).skew_chain[0]
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
    return AuditBatch.of_instrument(instrument, _one_state(rho), h, beta).work_reports()[0]


def second_law_report(
    scheme: MeasurementScheme, rho, tol: float = THEOREM_TOL
) -> tuple[SecondLawReport, WorkReport]:
    """Full second-law audit of a thermodynamically free scheme on one state.

    The scheme must be free at ``tol`` (:meth:`SchemeBatch.require_free`); the
    audited inequalities are theorems only for thermal instruments, so
    non-free schemes are refused rather than scored. The work accounting is
    :func:`work_report` on the induced instrument, with its system-side heat
    replaced by the probe-side heat of :func:`heat_absorbed`.
    """
    audit = AuditBatch.of_schemes(scheme.batch, _one_state(rho)[None])
    scheme.batch.require_free(tol)
    return audit.second_law_reports(tol)[0]
