"""Work, heat, information gain, asymmetry, and the second-law report.

Conventions: entropic quantities are in nats, energies in the units of the
Hamiltonians, and the inverse temperature carries inverse-energy units.
No conditional state is formed: every outcome's ``p_x S(rho_x) = S(I_x(rho))
+ p_x ln p_x`` (0 ln 0 := 0) is read off its unnormalized output and goes to
0 with ``p_x``. Only ``D(p || q)`` leaves out outcomes at or below
``PROBABILITY_CUTOFF``.

Every per-state quantity has one implementation, which works on stacks of
states with a leading point axis: :class:`AuditBatch`, whose ``(P, n, d,
d)`` state stack holds each point's states for that point's instrument, and
the stack helpers it uses. :meth:`AuditBatch.of_schemes` audits every
scheme of a :class:`SchemeBatch` on its own states, a sweep chunk's and one
scheme's alike, and :meth:`AuditBatch.of_instrument` audits a bare
instrument as a batch of one point. Each per-state quantity
is a batch property named as the row key that carries it, and
:meth:`AuditBatch.named_rows` reads them by name, state by state. Each
state check's per-state row has one builder on the batch
(:meth:`~AuditBatch.second_law_rows`, :meth:`~AuditBatch.heat_duality_rows`,
:meth:`~AuditBatch.skew_chain_rows`, and :meth:`~AuditBatch.work_rows` for
the work part of the first): a check's report reads those rows, a sweep's
CSV the same named columns, and a single-state function returns the row
of its one state, a plain dict, so a caller derives only what it reads. A
quantity a row carries has no function of its own: the work quantities of
one state are the :func:`work_report` keys of those names, and the skew
information is computed only inside the ``skew_chain`` rows. Each
second-law verdict, of one state or of a whole batch, is
:meth:`AuditBatch.second_law_verdicts`, the one place that refuses a scheme
that is not thermodynamically free; the law quantities themselves are not gated.

The heat drawn from the probe, ``Q = tr[H_A (xi - Lambda(rho))]``, is
linear in ``rho``: it is ``tr[H_A xi] - tr[rho Lambda*(H_A)]``, read off one
``d_s x d_s`` operator ``Lambda*(H_A)`` per scheme, so the conjugate channel
never acts on a state; it is formed when a heat is first read.

The second law's energy balance is one residual per state, ``|Q_sys - Q|``,
the scheme's energy conservation on it: ``|tr[(Phi*(H_tot) - H_tot)(rho (x)
xi)]|``. Eq. (5)'s ``avg_w - w = Q + G / beta`` follows, as ``avg_w - w -
G / beta = Q_sys`` exactly for a trace-preserving instrument.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import PreconditionError, ValidationError
from .linalg import (
    PROBABILITY_CUTOFF,
    THEOREM_TOL,
    VALIDATION_TOL,
    _require_beta_at_dimension,
    _require_dimension,
    as_matrix,
    density_matrix,
    frobenius_each,
    logsumexp,
    psd_sqrt,
    require_beta,
    require_hermitian,
    von_neumann_entropy,
)
from .objects import Instrument, _Immutable, _gram, _outputs, gibbs_log_weights
from .schemes import SchemeBatch


#: The per-state work quantities, each an :class:`AuditBatch` property of the same name.
#: With ``beta`` they are a work row (:meth:`AuditBatch.work_rows`), and a sweep's CSV has
#: them as columns, in this order.
WORK_COLUMNS = (
    "extractable_work",
    "average_extractable_work",
    "outcome_divergence",
    "heat",
    "groenewold_gain",
)

#: The per-state second-law slacks and residual, each an :class:`AuditBatch` property of the
#: same name. With ``tol`` and ``verdict`` they are a second-law row
#: (:meth:`AuditBatch.second_law_rows`), and a sweep's CSV has them as columns after the work.
LAW_COLUMNS = ("prop1_slack", "eq5_identity_defect", "eq5_bound_slack", "heat_bound_slack")


def _rows(**columns) -> list:
    """Per point, per state, ``{name: value}`` of the same-shaped ``(P, n)`` arrays ``columns``."""
    names = tuple(columns)
    stacked = np.stack(list(columns.values()), axis=-1).tolist()
    return [[dict(zip(names, row)) for row in point] for point in stacked]


def _diagonal(m, vecs) -> np.ndarray:
    """Diagonal ``<i|M|i>`` in the eigenbasis ``vecs`` of ``H``, of one operator or of a stack:
    ``M vecs``, one matrix product over the whole stack, summed against ``conj(vecs)``."""
    d = len(vecs)
    return ((m.reshape(-1, d) @ vecs).reshape(m.shape) * vecs.conj()).sum(axis=-2).real


def _divergence_to_gibbs(rho, entropy, gibbs):
    """``D(rho || tau) = -S(rho) - sum_i <i|rho|i> ln tau_i``, given ``S(rho)``; stacks too.
    Linear in the pair: ``p rho`` with ``p S(rho)`` gives ``p D(rho || tau)``."""
    log_weights, vecs = gibbs
    # a sum per row, not a matrix-vector product, which sums a row alone otherwise than in a stack
    return -entropy - (_diagonal(rho, vecs) * log_weights).sum(axis=-1)


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
    """Wigner-Yanase skew information ``tr[m H^2] - tr[sqrt(m) H sqrt(m) H]`` of one
    Hermitian operator or of each entry of a stack, in the nonnegative commutator form.

    Defined for sub-normalized positive operators (trace at most 1) and
    linear under scaling ``m -> p m``.
    """
    trace = np.trace(m, axis1=-2, axis2=-1).real
    if (trace > 1 + VALIDATION_TOL).any():
        raise ValidationError(f"operator must be sub-normalized, got trace {np.max(trace):.6f}")
    root = psd_sqrt(m)
    comm = root @ h
    comm -= h @ root
    return 0.5 * frobenius_each(comm) ** 2


def _given(value, name: str):
    """``value``; refused, naming the input ``name``, when the audit was not given it."""
    if value is None:
        raise PreconditionError(f"this quantity needs a {name}, and the audit was given none")
    return value


class AuditBatch(_Immutable):
    """Every per-state quantity of several points, each one instrument on its
    own stack of states, as arrays with a leading point axis.

    Each point's instrument has the outcomes ``outcomes`` and as many Kraus
    operators per outcome as the others: ``kraus_sets`` holds per outcome
    one ``(P, k, d, d)`` Kraus stack. ``effects`` is a bare instrument's
    ``(1, n_outcomes, d, d)`` induced effects, and ``None`` for schemes.
    ``states`` is a validated ``(P, n, d, d)`` stack: entry ``[i]`` holds
    the states of point ``i``. ``hamiltonian`` and ``beta`` are shared by
    every point and needed only by the quantities that use them; a quantity
    without its input is refused with a :class:`PreconditionError`. An
    audit of schemes, made by :meth:`of_schemes`, also holds their
    :class:`SchemeBatch` as ``schemes``; their frame then supplies the Gibbs
    data and the Gibbs outcome probabilities (off its pointer), and their
    conjugate channels the probe-side heat ``tr[H_A xi] - tr[rho
    Lambda*(H_A)]``, with ``Lambda*(H_A)`` formed on its first read.

    Each outcome's Kraus stacks are applied to the whole ``(P, n, d, d)``
    stack once, and nothing else is; every quantity is derived from those
    outputs on its first use and kept, so the second law, heat duality and
    the skew chain read one shared record and a caller pays only for what
    it reads. Every per-state row, of a check's report or of a sweep's CSV,
    is read off these arrays by one helper.
    """

    def __init__(
        self, outcomes: tuple, kraus_sets: tuple, effects: np.ndarray, states: np.ndarray,
        hamiltonian: np.ndarray = None, beta: float = None, schemes: SchemeBatch = None,
    ):
        vars(self).update(
            outcomes=outcomes, kraus_sets=kraus_sets, effects=effects, states=states,
            hamiltonian=hamiltonian, beta=beta, schemes=schemes,
        )

    @classmethod
    def of_schemes(cls, schemes: SchemeBatch, states):
        """Each scheme of ``schemes`` on its own states, a validated ``(P, n, d, d)``
        stack of the system's dimension: the induced instruments are validated
        for all points at once."""
        frame = schemes.frame
        _require_dimension(frame.dim_system, "scheme", states=states)
        if len(states) != len(schemes.kraus):
            raise ValidationError(
                f"{len(schemes.kraus)} schemes need as many state stacks, got {len(states)}"
            )
        kraus_sets, _ = schemes.instrument_stacks
        return cls(
            frame.pointer.outcomes, kraus_sets, None, states, frame.system_hamiltonian,
            frame.beta, schemes,
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
        if self.schemes is not None:
            return self.schemes.frame.gibbs_log_weights
        return gibbs_log_weights(_given(self.hamiltonian, "Hamiltonian"), require_beta(beta))

    @cached_property
    def outputs(self) -> np.ndarray:
        """``I_x(rho)`` of every point, outcome and state, shaped ``(P, n_outcomes, n, d, d)``."""
        return _outputs(self.kraus_sets, self.states)

    @cached_property
    def probabilities(self) -> np.ndarray:
        """``tr I_x(rho)``, shaped ``(P, n_outcomes, n)``."""
        return np.trace(self.outputs, axis1=-2, axis2=-1).real

    @cached_property
    def entropy(self) -> np.ndarray:
        return von_neumann_entropy(self.states, validate=False)

    @cached_property
    def _weighted_entropies(self) -> np.ndarray:
        """``p_x S(rho_x) = S(I_x(rho)) + p_x ln p_x`` of every output, ``(P, n_outcomes, n)``,
        read off the unnormalized output with ``0 ln 0 := 0``, so it vanishes as ``p_x -> 0``."""
        p = self.probabilities
        p_log_p = p * np.log(p, out=np.zeros_like(p), where=p > 0.0)
        return von_neumann_entropy(self.outputs, validate=False) + p_log_p

    @cached_property
    def extractable_work(self) -> np.ndarray:
        return _divergence_to_gibbs(self.states, self.entropy, self.gibbs) / self.beta

    @cached_property
    def average_extractable_work(self) -> np.ndarray:
        """Mean post-measurement extractable work under outcome-conditioned feedback,
        ``sum_x p_x D(rho_x || tau) / beta``, summed over the unnormalized outputs."""
        divergence = _divergence_to_gibbs(self.outputs, self._weighted_entropies, self.gibbs)
        return divergence.sum(axis=1) / self.beta

    @cached_property
    def outcome_divergence(self) -> np.ndarray:
        """``D(p || q)`` of each state. With a scheme, ``q_x = tr[Z_x xi]`` is read
        off the pointer in the Gibbs probe, which equals ``tr[E_x tau]`` for a free
        scheme and stays exact where the induced effects underflow."""
        if self.schemes is None:
            log_q = _log_gibbs_probabilities(self.effects, self.gibbs)
        else:
            frame = self.schemes.frame
            log_q = _log_gibbs_probabilities(frame.pointer.effects, frame.probe_log_weights)[None]
        return _outcome_divergence(self.outcomes, self.probabilities, log_q)

    @cached_property
    def groenewold_gain(self) -> np.ndarray:
        """Entropy of the input minus the mean entropy of the conditional outputs."""
        return self.entropy - self._weighted_entropies.sum(axis=1)

    @cached_property
    def system_heat(self) -> np.ndarray:
        """Increase of the system's expected energy under the instrument's total channel."""
        h = _given(self.hamiltonian, "Hamiltonian")
        change = self.outputs.sum(axis=1) - self.states
        return np.einsum("ij,pnji->pn", h, change).real

    @cached_property
    def probe_heat(self) -> np.ndarray:
        """Decrease of the probe's expected energy when the scheme acts on each state,
        ``tr[H_A xi] - tr[rho Lambda*(H_A)]``, with ``Lambda*(H_A)``, the probe
        Hamiltonian under the dual of each point's conjugate channel, formed here."""
        schemes = _given(self.schemes, "scheme")
        h_a, xi = schemes.frame.probe_hamiltonian, schemes.frame.probe_state.matrix
        before = np.trace(h_a @ xi).real
        dual = _gram(schemes.conjugate_kraus, h_a).swapaxes(-1, -2)[:, None]
        # one sum per state, so each point derives the same bits in any batch
        return before - (self.states * dual).sum(axis=(-2, -1)).real

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
    def heat(self) -> np.ndarray:
        """Heat absorbed by the system: probe-side with a scheme, system-side without."""
        return self.system_heat if self.schemes is None else self.probe_heat

    @cached_property
    def prop1_slack(self) -> np.ndarray:
        """``W - D(p || q) / beta - avg_W``, nonnegative for thermal instruments; each law
        quantity is refused without a scheme."""
        beta = _given(self.schemes, "scheme").frame.beta
        return self.extractable_work - self.outcome_divergence / beta - self.average_extractable_work

    @cached_property
    def eq5_identity_defect(self) -> np.ndarray:
        """The energy-balance residual ``|Q_sys - Q|``, with ``Q`` the probe-side heat."""
        return np.abs(self.probe_heat - self.system_heat)

    @cached_property
    def eq5_bound_slack(self) -> np.ndarray:
        """How far the heat plus the scaled information gain stays below the negative
        scaled divergence, ``-D(p || q) / beta - Q - G / beta``."""
        beta = _given(self.schemes, "scheme").frame.beta
        return -self.outcome_divergence / beta - self.heat - self.groenewold_gain / beta

    @cached_property
    def heat_bound_slack(self) -> np.ndarray:
        """How far the heat stays below the negative scaled information gain, ``-G / beta - Q``."""
        beta = _given(self.schemes, "scheme").frame.beta
        return -self.groenewold_gain / beta - self.heat

    def named_rows(self, names) -> list:
        """Per point, per state, ``{name: value}`` of the same-named quantities ``names``."""
        return _rows(**{name: getattr(self, name) for name in names})

    def work_rows(self) -> list:
        """Per point, per state, the work accounting: the ``WORK_COLUMNS`` and ``beta``.

        Its ``heat`` is probe-side with a scheme and system-side without.
        """
        rows = self.named_rows(WORK_COLUMNS)
        return [[{**row, "beta": self.beta} for row in point] for point in rows]

    def second_law_rows(self, tol: float) -> list:
        """Per point, per state, the ``second_law`` check's row: ``{"work": ..., "second_law":
        ...}``, a :meth:`work_rows` row and the ``LAW_COLUMNS`` with ``tol`` and the
        :meth:`second_law_verdicts` ``verdict`` at ``tol``; refused, as those verdicts
        are, unless every scheme is free at ``tol``."""
        verdicts, laws = self.second_law_verdicts(tol).tolist(), self.named_rows(LAW_COLUMNS)
        return [
            [
                {"work": work, "second_law": {**law, "tol": tol, "verdict": ok}}
                for work, law, ok in zip(*point)
            ]
            for point in zip(self.work_rows(), laws, verdicts)
        ]

    def heat_duality_rows(self) -> list:
        """Per point, per state, the ``heat_duality`` check's row: the ``heat`` and, as
        ``duality_defect``, the energy-balance residual ``eq5_identity_defect``."""
        return _rows(heat=self.heat, duality_defect=self.eq5_identity_defect)

    def skew_chain_rows(self) -> list:
        """Per point, per state, the ``skew_chain`` check's row: its ``selective_slack`` and
        ``convexity_slack``, see :func:`skew_information_chain`."""
        chain = self.skew_chain
        return _rows(selective_slack=chain[:, 0], convexity_slack=chain[:, 1])

    def second_law_verdicts(self, tol: float) -> np.ndarray:
        """Whether the residual is within ``tol`` (in energy units) and each slack, in nats as
        ``beta * slack``, is at least ``-tol`` times the largest of 1 and the terms it is a
        difference of, so that no round-off of large terms FAILs; ``(P, n)``. The
        inequalities are theorems only for thermal instruments: unless every scheme is
        free at ``tol`` (:meth:`SchemeBatch.require_free`) the verdicts are refused."""
        _given(self.schemes, "scheme").require_free(tol)
        b, w, avg_w = self.beta, self.extractable_work, self.average_extractable_work
        d, g, q = self.outcome_divergence, np.abs(self.groenewold_gain), b * np.abs(self.heat)

        def holds(slack, *terms):
            return b * slack >= -tol * np.max([np.ones_like(slack), *terms], axis=0)

        return (
            holds(self.prop1_slack, b * np.abs(w), d, b * np.abs(avg_w))
            & (self.eq5_identity_defect <= tol)
            & holds(self.eq5_bound_slack, d, q, g)
            & holds(self.heat_bound_slack, g, q)
        )


def _one_state(rho) -> np.ndarray:
    """A validated density matrix as a stack of one."""
    return density_matrix(as_matrix(rho))[None]


def heat_absorbed(scheme: SchemeBatch, rho) -> dict:
    """The ``heat_duality`` row of ``rho``: the probe's energy loss to the system, ``heat``,
    and the energy-balance residual ``|Q_sys - Q|``, ``duality_defect``."""
    [[row]] = AuditBatch.of_schemes(scheme, _one_state(rho)[None]).heat_duality_rows()
    return row


def skew_information_chain(instrument: Instrument, rho, system_hamiltonian) -> dict:
    """The ``skew_chain`` row of ``rho``: slacks of the selective asymmetry-monotonicity chain.

    ``selective_slack`` is the asymmetry of the input minus the summed
    asymmetries of the (sub-normalized) outputs, and ``convexity_slack`` that
    sum minus the asymmetry of the total channel output. Both are
    nonnegative for covariant instruments.
    """
    h = require_hermitian(system_hamiltonian, name="hamiltonian")
    [[row]] = AuditBatch.of_instrument(instrument, _one_state(rho), h).skew_chain_rows()
    return row


def work_report(instrument: Instrument, rho, system_hamiltonian, beta: float) -> dict:
    """Diagnostic work accounting for an arbitrary instrument: the work row of ``rho``,
    its ``WORK_COLUMNS`` and ``beta``.

    No freeness is assumed and no verdict is attached; the heat entry is the
    system-side energy increase (for non-free schemes no probe-side heat is
    defined). This is the mode to use for comparative studies such as the
    measurement-and-feedback engine run with a non-thermal instrument.
    """
    beta = require_beta(beta)
    _require_beta_at_dimension(beta, instrument.dim)
    h = require_hermitian(system_hamiltonian, name="system Hamiltonian")
    [[row]] = AuditBatch.of_instrument(instrument, _one_state(rho), h, beta).work_rows()
    return row


def second_law_report(scheme: SchemeBatch, rho, tol: float = THEOREM_TOL) -> dict:
    """Full second-law audit of a thermodynamically free scheme on one state: the
    ``second_law`` row of ``rho``, ``{"work": ..., "second_law": ...}``.

    A scheme not free at ``tol`` is refused, not scored, by
    :meth:`AuditBatch.second_law_verdicts`. The work row is
    :func:`work_report` on the induced instrument, with its system-side heat
    replaced by the probe-side heat of :func:`heat_absorbed`.
    """
    _require_beta_at_dimension(scheme.frame.beta, scheme.frame.dim_system)
    [[row]] = AuditBatch.of_schemes(scheme, _one_state(rho)[None]).second_law_rows(tol)
    return row
