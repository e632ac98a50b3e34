"""The batched per-state core against the single-state functions and the dilation oracle.

:meth:`thermomeas.thermo.AuditBatch.of_instrument`, a batch of one point,
derives every per-state scalar of the second law, heat duality and the skew
chain for a whole stack of states at once. Each scalar must equal the
single-state public function on that state, and the second law's divergence
terms must equal the relative entropy of the classical-register dilation,
computed independently.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import dilation_relative_entropy
from thermomeas.errors import PreconditionError
from thermomeas.linalg import PROBABILITY_CUTOFF, SUPPORT_TOL
from thermomeas.objects import spectral_observable
from thermomeas.sampling import random_density_matrix_stacks, rng_from_seed
from thermomeas.schemes import SchemeFrame, random_free_scheme
from thermomeas.thermo import (
    AuditBatch,
    average_extractable_work,
    extractable_work,
    groenewold_gain,
    heat_absorbed,
    outcome_divergence,
    second_law_report,
    skew_information_chain,
    work_report,
)

#: Batch and single-state scalars, and the oracle, agree to this share of their size (at least 1).
AGREEMENT = 1e-12

DIMS = [(d_s, d_a) for d_s in (2, 3, 4) for d_a in (2, 3, 4)]


def close(a, b) -> bool:
    return abs(a - b) <= AGREEMENT * max(1.0, abs(a), abs(b))


@st.composite
def audit_inputs(draw):
    """``(d_s, d_a, beta, seed, mixture_size, n_eigen, n_random, order)`` of one batch."""
    d_s, d_a = draw(st.sampled_from(DIMS))
    n_eigen = draw(st.integers(min_value=1, max_value=d_s))
    n_random = draw(st.integers(min_value=0, max_value=30 - n_eigen))
    return (
        d_s,
        d_a,
        10.0 ** draw(st.floats(min_value=-3.0, max_value=3.0)),
        draw(st.integers(min_value=0, max_value=10_000)),
        draw(st.integers(min_value=1, max_value=3)),
        n_eigen,
        n_random,
        draw(st.permutations(range(n_eigen + n_random))),
    )


def build(d_s, d_a, beta, seed, mixture_size, n_eigen, n_random, order):
    """A random free scheme, sharp pointer; a stack of energy eigenstates and random states."""
    h_s = np.diag(np.arange(float(d_s))).astype(complex)
    h_a = np.diag(np.arange(float(d_a))).astype(complex)
    frame = SchemeFrame(h_s, h_a, beta, spectral_observable(h_a))
    scheme = random_free_scheme(frame, seed, mixture_size)
    eigenstates = np.array([np.diag(np.eye(d_s)[i]) for i in range(n_eigen)], dtype=complex)
    random_states = random_density_matrix_stacks(d_s, n_random, [rng_from_seed(seed + 1)])[0]
    return scheme, np.concatenate([eigenstates, random_states])[list(order)]


@given(inputs=audit_inputs())
@example(inputs=(3, 2, 1e3, 11, 3, 3, 4, [6, 0, 5, 1, 4, 2, 3]))
@example(inputs=(2, 4, 1e-3, 12, 2, 1, 0, [0]))
@settings(max_examples=30, deadline=None)
def test_batch_equals_single_state_functions_and_oracle(inputs):
    scheme, states = build(*inputs)
    h, beta, instrument = scheme.system_hamiltonian, scheme.beta, scheme.instrument
    audit = AuditBatch.of_instrument(instrument, states, h, beta, scheme)
    laws = audit.second_law_reports()
    heats = audit.heat_reports()
    selective, convexity = audit.skew_chain[0]
    plain = AuditBatch.of_instrument(instrument, states, h, beta)
    plain_work = plain.work_reports()

    tau = scheme.system_gibbs
    q = instrument.induced_observable.probabilities(tau)
    oracle_exact = q.min() * tau.matrix.diagonal().real.min() > SUPPORT_TOL
    for i, rho in enumerate(states):
        law, work = second_law_report(scheme, rho)
        assert all(map(close, laws[i][0].to_dict().values(), law.to_dict().values()))
        assert laws[i][0].verdict == law.verdict
        assert all(map(close, laws[i][1].to_dict().values(), work.to_dict().values()))
        assert all(map(close, plain_work[i].to_dict().values(),
                       work_report(instrument, rho, h, beta).to_dict().values()))
        single_heat = heat_absorbed(scheme, rho)
        assert close(heats[i].heat, single_heat.heat)
        assert close(heats[i].duality_defect, single_heat.duality_defect)
        single_chain = skew_information_chain(instrument, rho, h)
        assert close(selective[i], single_chain[0]) and close(convexity[i], single_chain[1])
        assert close(audit.extractable_work[0, i], extractable_work(rho, h, beta))
        assert close(audit.average_extractable_work[0, i],
                     average_extractable_work(instrument, rho, h, beta))
        assert close(audit.outcome_divergence[0, i],
                     outcome_divergence(instrument.induced_observable, rho, h, beta))
        assert close(audit.groenewold_gain[0, i], groenewold_gain(instrument, rho))
        if oracle_exact:  # no Gibbs block weight falls under the oracle's support cut
            direct = dilation_relative_entropy(instrument.apply(rho), q, tau.matrix)
            divergence, avg_w = audit.outcome_divergence[0, i], audit.average_extractable_work[0, i]
            decomposed = divergence + beta * avg_w
            assert close(direct, decomposed)

    if beta >= 100.0:
        # the ground state is in every stack; at this beta it leaves every
        # pointer outcome but the lowest below the probability cutoff
        assert (audit.probabilities <= PROBABILITY_CUTOFF).any()


def precondition_audit(without) -> AuditBatch:
    """A free scheme's instrument on two states, audited without the inputs ``without``."""
    scheme, states = build(2, 2, 1.0, 5, 2, 2, 0, [0, 1])
    given = {"hamiltonian": scheme.system_hamiltonian, "beta": scheme.beta, "scheme": scheme}
    for name in without:
        del given[name]
    return AuditBatch.of_instrument(scheme.instrument, states, **given)


@pytest.mark.parametrize(
    "without,quantity,named",
    [
        (["scheme"], lambda audit: audit.second_law_reports(), "scheme"),
        (["scheme"], lambda audit: audit.heat_reports(), "scheme"),
        (["scheme"], lambda audit: audit.probe_heat, "scheme"),
        (["scheme", "beta"], lambda audit: audit.extractable_work, "beta"),
        (["scheme", "beta"], lambda audit: audit.work_reports(), "beta"),
        (["scheme", "hamiltonian"], lambda audit: audit.system_heat, "Hamiltonian"),
        (["scheme", "hamiltonian"], lambda audit: audit.skew_chain, "Hamiltonian"),
    ],
    ids=[
        "second_law_reports", "heat_reports", "probe_heat", "extractable_work", "work_reports",
        "system_heat", "skew_chain",
    ],
)
def test_a_quantity_without_its_input_is_refused_by_name(without, quantity, named):
    audit = precondition_audit(without)
    with pytest.raises(PreconditionError, match=rf"needs a {named}, and the audit was given none"):
        quantity(audit)
