"""Instruments as one stack: the stacked per-outcome classifiers against per-outcome loops.

The references in ``oracles`` take one operation at a time, from its Kraus
operators; the library evaluates covariance, Gibbs preservation and
nuclearity in one expression on the ``(n_outcomes, d², d²)`` Choi stack or
the ``(n_outcomes, d, d)`` output array of ``Instrument.apply``. Every
application of Kraus operators to states takes one path, whichever object
asks for it, so the outputs agree bit for bit.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from thermomeas.classify import (
    COVARIANCE_SAMPLE_TIMES,
    _nuclear_factors,
    is_covariant_instrument,
    is_gibbs_preserving,
    is_nuclear,
)
from thermomeas.linalg import PROBABILITY_CUTOFF
from thermomeas.objects import Instrument, KrausChannel, _from_validated, gibbs_state
from thermomeas.sampling import (
    haar_unitary,
    random_commuting_povm,
    random_density_matrix_stacks,
    random_povm,
    rng_from_seed,
)
from thermomeas.schemes import SchemeFrame, random_free_scheme, trivial_scheme
from thermomeas.thermo import AuditBatch


def assert_close(got, want):
    """Every entry within ``1e-12 * max(1, |reference|)`` of the reference."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


@st.composite
def instruments(draw):
    """``(instrument, H, beta)``: Lueders, swap-scheme or random-block-scheme, d = 1-5.

    With ``null`` drawn, the instrument gets one more outcome whose only
    Kraus operator is zero.
    """
    d = draw(st.integers(1, 5))
    n = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["luders", "luders_commuting", "swap", "random_block"]))
    spectrum = draw(st.sampled_from(["degenerate", "non-resonant", "equally spaced"]))
    rotated = draw(st.booleans())
    null = draw(st.booleans())
    beta = draw(st.sampled_from([0.3, 1.0, 2.5]))
    rng = rng_from_seed(draw(st.integers(0, 2**32 - 1)))
    if spectrum == "degenerate":
        energies = rng.integers(0, 2, size=d).astype(float)
    elif spectrum == "non-resonant":
        energies = np.sqrt([2.0, 3.0, 5.0, 7.0, 11.0][:d])
    else:
        energies = np.arange(float(d))
    h = np.diag(energies).astype(complex)
    if rotated:
        u = haar_unitary(d, rng)
        h = u @ h @ u.conj().T
        h = (h + h.conj().T) / 2
    if kind == "luders":
        instrument = Instrument.luders(random_povm(d, n, rng))
    elif kind == "luders_commuting":
        instrument = Instrument.luders(random_commuting_povm(h, n, rng))
    elif kind == "swap":
        instrument = trivial_scheme(random_commuting_povm(h, n, rng), h, beta).instrument
    else:
        pointer = random_commuting_povm(h, n, rng)
        seed = int(rng.integers(2**31))
        instrument = random_free_scheme(SchemeFrame(h, h, beta, pointer), seed, 2).instrument
    if null:
        instrument = Instrument(
            (*instrument.outcomes, "null"), (*instrument.kraus_sets, np.zeros((1, d, d)))
        )
    return instrument, h, beta


def assert_same_bits(got, want):
    """The same shape and the same bytes."""
    assert got.shape == want.shape
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


def assert_worst(reported, labels, defects):
    """The reported worst outcome's reference defect is the largest, up to round-off."""
    by_label = dict(zip(labels, defects))
    assert by_label[reported] >= max(defects) - 1e-12 * max(1.0, max(defects))


@settings(max_examples=60, deadline=None)
@given(instruments())
def test_stacked_per_outcome_classifiers_match_the_loops(case):
    instrument, h, beta = case
    outcomes = instrument.outcomes

    covariant = is_covariant_instrument(instrument, h)
    choi_defects = oracles.covariance_choi_defects(instrument, h)
    assert_close(covariant["defect"], max(choi_defects))
    assert_worst(covariant["witness"]["worst_outcome"], outcomes, choi_defects)
    probes = random_density_matrix_stacks(instrument.dim, 3, [rng_from_seed(20100526)])[0]
    sampled = oracles.sampled_covariance_defect(instrument, h, COVARIANCE_SAMPLE_TIMES, probes)
    assert_close(covariant["witness"]["sampled_time_defect"], sampled)

    gibbs = is_gibbs_preserving(instrument, h, beta)
    gibbs_defects = oracles.gibbs_preservation_defects(instrument, gibbs_state(h, beta))
    assert_close(gibbs["defect"], max(gibbs_defects))
    assert_worst(gibbs["witness"]["worst_outcome"], outcomes, gibbs_defects)

    nuclear = is_nuclear(instrument)
    labels, stacked_sigmas, _ = _nuclear_factors(instrument)
    sigmas, residuals = oracles.nuclear_factors(instrument, PROBABILITY_CUTOFF)
    assert labels == list(sigmas)
    for got, want in zip(stacked_sigmas, sigmas.values()):
        assert_close(got, want)
    assert_close(nuclear["defect"], max(residuals.values()))
    assert_worst(nuclear["witness"]["worst_outcome"], list(residuals), list(residuals.values()))



@settings(max_examples=60, deadline=None)
@given(instruments(), st.sampled_from([(), (3,), (2, 3)]), st.integers(0, 2**32 - 1))
def test_instruments_act_on_states_through_one_path(case, lead, seed):
    # one state, a stack of states and a stack of stacks
    instrument, _, _ = case
    d = instrument.dim
    flat = random_density_matrix_stacks(d, int(np.prod(lead)), [rng_from_seed(seed)])[0]
    states = flat.reshape(*lead, d, d)
    outputs = instrument.apply(states)
    assert outputs.shape == (instrument.n_outcomes, *lead, d, d)
    audit = AuditBatch.of_instrument(instrument, flat).outputs
    assert audit.shape == (1, instrument.n_outcomes, len(flat), d, d)
    for x, kraus in enumerate(instrument.kraus_sets):
        assert_same_bits(_from_validated(KrausChannel, kraus).apply(states), outputs[x])
        assert_same_bits(audit[0, x], outputs[x].reshape(-1, d, d))
        for got, rho in zip(audit[0, x], flat):
            assert_close(got, oracles.operation(kraus, rho))
    if len(lead) == 2:
        # each of several points acts on its own stack as it would alone
        effects = instrument.induced_observable.effects
        points = AuditBatch(
            instrument.outcomes,
            tuple(np.broadcast_to(ks, (lead[0], *ks.shape)) for ks in instrument.kraus_sets),
            np.broadcast_to(effects, (lead[0], *effects.shape)),
            states,
        )
        assert_same_bits(points.outputs, np.stack([instrument.apply(point) for point in states]))
