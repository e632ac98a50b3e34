"""Instruments as one stack: the stacked per-outcome classifiers against per-outcome loops.

The references in ``oracles`` take one operation at a time, from its Kraus
operators; the library evaluates covariance, Gibbs preservation and
nuclearity in one expression on the ``(n_outcomes, d², d²)`` Choi stack or
the ``(n_outcomes, d, d)`` output array of ``Instrument.apply``.
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
from thermomeas.objects import Instrument, gibbs_state
from thermomeas.sampling import (
    haar_unitary,
    random_commuting_povm,
    random_density_matrix_stacks,
    random_povm,
    rng_from_seed,
)
from thermomeas.schemes import SchemeFrame, random_free_scheme, trivial_scheme


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

