"""Effects as one stack: every stacked per-effect quantity against a per-effect loop.

The references in ``oracles`` take one effect and one energy projector at a
time; the library computes each quantity in one expression on the
``(n_outcomes, d, d)`` effect stack and the ``(n_levels, d, d)`` projector
stack.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from thermomeas.classify import (
    is_thermal_observable,
    joint_with_hamiltonian,
    marginal_defect,
    post_processing_decomposition,
    refine_to_rank_one,
)
from thermomeas.linalg import commutator_defect, eig_hermitian
from thermomeas.sampling import (
    haar_unitary,
    random_commuting_povm,
    random_density_matrix,
    random_povm,
    rng_from_seed,
)
from thermomeas.scenario import encode_matrix, encode_observable, run_scenario


def assert_close(got, want):
    """Every entry within ``1e-12 * max(1, |reference|)`` of the reference."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


@st.composite
def observables(draw):
    """``(observable, H, rho)``: a generic or an H-commuting POVM, d = 1-5, 1-6 outcomes."""
    d = draw(st.integers(1, 5))
    n = draw(st.integers(1, 6))
    spectrum = draw(st.sampled_from(["degenerate", "non-resonant", "equally spaced"]))
    rotated = draw(st.booleans())
    commuting = draw(st.booleans())
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
    observable = random_commuting_povm(h, n, rng) if commuting else random_povm(d, n, rng)
    return observable, h, random_density_matrix(d, rng).matrix


@settings(max_examples=80, deadline=None)
@given(observables())
def test_stacked_per_effect_quantities_match_the_loops(case):
    observable, h, rho = case
    effects = list(observable.effects)
    assert_close(observable.probabilities(rho), oracles.probabilities(effects, rho))
    assert_close(observable.sharpness_defect(), oracles.sharpness_defect(effects))
    assert_close(observable.triviality_defect(), oracles.triviality_defect(effects))
    assert observable.is_rank_one() == oracles.is_rank_one(effects)
    assert_close(commutator_defect(observable.effects, h), oracles.commutator_defects(effects, h))
    projectors = oracles.spectral_projectors(h)
    assert_close(eig_hermitian(h).projectors, projectors)

    refined, relabel = refine_to_rank_one(observable)
    labels, pieces = oracles.rank_one_refinement(observable.outcomes, effects)
    assert list(refined.outcomes) == labels
    assert relabel == {label: label.rpartition(":")[0] for label in labels}
    assert_close(refined.effects, pieces)
    report = run_scenario(
        {
            "beta": 1.0,
            "system_hamiltonian": encode_matrix(h),
            "observable": encode_observable(observable),
            "checks": ["refine"],
        }
    )
    coarse = oracles.coarse_grain_defect(observable.outcomes, effects, labels, pieces)
    assert_close(report.checks[0]["coarse_grain_defect"], coarse)

    if not is_thermal_observable(observable, h)["verdict"]:
        return
    joint = joint_with_hamiltonian(observable, h)
    products = oracles.joint_effects(effects, projectors)
    assert_close(joint.effects, products)
    want = oracles.marginal_defect(products, effects, projectors)
    assert_close(marginal_defect(joint, observable, h), want)
    if len(projectors) == len(h):  # the decomposition needs a nondegenerate spectrum
        post = post_processing_decomposition(observable, h)
        weights, defect = oracles.post_processing(effects, projectors)
        assert_close(post["matrix"], weights)
        assert_close(post["reconstruction_defect"], defect)
