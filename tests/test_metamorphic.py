"""Metamorphic relations: a transformation of the input that the physics leaves
unchanged must leave every verdict and every per-state number unchanged too.

Neither relation needs an oracle. An energy shift ``H -> H + c 1`` moves every
energy by ``c`` and no heat, work or skew information. A time translation
``rho -> e^(-i H_S t) rho e^(i H_S t)`` of every audited state leaves the rows of
a covariant instrument unchanged (Marvian & Spekkens, PRA 90, 062110, 2014),
since the Gibbs state, the outcome probabilities and the entropies are all
unchanged by it.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from thermomeas.linalg import THEOREM_TOL, dag, density_matrix
from thermomeas.objects import Observable
from thermomeas.sampling import random_density_matrix, rng_from_seed
from thermomeas.scenario import encode_matrix, encode_observable, run_scenario
from thermomeas.schemes import SchemeFrame, random_free_scheme
from thermomeas.thermo import AuditBatch

#: Both sides of a relation agree to this share of each number's magnitude (at
#: least 1), about 450 ulp: the round-off of the Gibbs weights, logarithms and
#: eigendecompositions between them at energies of order 10. The worst seen in
#: 400 draws of each relation was 22 ulp.
BUDGET = 1e-13

#: The checks run on both sides of the energy shift.
CHECKS = [
    "free_scheme", "second_law", "heat_duality", "skew_chain", "covariant", "gibbs_preserving",
]

#: The checks with one row per state.
PER_STATE = ("second_law", "heat_duality", "skew_chain")


@st.composite
def ladders(draw):
    """An integer ladder of 2 or 3 levels in [0, 3], degeneracies allowed."""
    levels = draw(st.lists(st.integers(0, 3), min_size=2, max_size=3))
    return np.array(sorted(levels), dtype=float)


def free_scheme(h_s, h_a, beta, seed):
    """A drawn free scheme on diagonal Hamiltonians, read by a sharp probe-basis pointer."""
    d = len(h_a)
    pointer = Observable([f"p{i}" for i in range(d)], np.eye(d)[:, None, :] * np.eye(d)[:, :, None])
    return random_free_scheme(SchemeFrame(np.diag(h_s), np.diag(h_a), beta, pointer), seed, 2)


def leaves(tree, path=()):
    """``{path: value}`` of every leaf of nested rows."""
    if isinstance(tree, dict):
        return {k: v for key, sub in tree.items() for k, v in leaves(sub, (*path, key)).items()}
    if isinstance(tree, list):
        return {k: v for i, sub in enumerate(tree) for k, v in leaves(sub, (*path, i)).items()}
    return {path: tree}


def assert_same_rows(got, want):
    """Every float of ``got`` within ``BUDGET`` of ``want``'s, and every other leaf equal."""
    got, want = leaves(got), leaves(want)
    assert got.keys() == want.keys()
    for path, value in want.items():
        if isinstance(value, float):
            assert abs(got[path] - value) <= BUDGET * max(1.0, abs(value)), (path, got[path], value)
        else:
            assert got[path] == value, path


@settings(max_examples=25, deadline=None)
@given(
    h_s=ladders(),
    h_a=ladders(),
    shifts=st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
    beta=st.sampled_from([0.5, 1.0, 2.0]),
    seed=st.integers(0, 10_000),
)
def test_an_energy_shift_changes_no_verdict_and_no_per_state_number(h_s, h_a, shifts, beta, seed):
    # one drawn interaction, given explicitly on both sides: it conserves H_S + H_A
    # exactly when it conserves the shifted sum
    scheme = free_scheme(h_s, h_a, beta, seed)
    kraus = [encode_matrix(k) for k in scheme.interaction.kraus]
    pointer = encode_observable(scheme.frame.pointer)

    def run(c_s, c_a):
        return run_scenario({
            "seed": seed,
            "beta": beta,
            "system_hamiltonian": (h_s + c_s).tolist(),
            "probe_hamiltonian": (h_a + c_a).tolist(),
            "scheme": {"kind": "kraus", "kraus": kraus, "pointer": pointer},
            "states": {"count": 3},
            "checks": CHECKS,
        }).checks

    before, after = run(0, 0), run(*shifts)
    assert [(c["name"], c["verdict"]) for c in after] == [(c["name"], c["verdict"]) for c in before]
    for got, want in zip(after, before):
        if want["name"] in PER_STATE:
            assert_same_rows(got["per_state"], want["per_state"])


@settings(max_examples=25, deadline=None)
@given(
    h_s=ladders(),
    h_a=ladders(),
    time=st.floats(-10.0, 10.0),
    beta=st.sampled_from([0.5, 1.0, 2.0]),
    seed=st.integers(0, 10_000),
)
def test_a_time_translation_of_the_states_changes_no_row(h_s, h_a, time, beta, seed):
    scheme = free_scheme(h_s, h_a, beta, seed)
    rng = rng_from_seed(seed)
    states = np.array([random_density_matrix(len(h_s), rng).matrix for _ in range(3)])
    evolution = np.diag(np.exp(-1j * h_s * time))
    translated = density_matrix(evolution @ states @ dag(evolution))

    def rows(stack):
        audit = AuditBatch.of_schemes(scheme, stack[None])
        laws = audit.second_law_rows(THEOREM_TOL)
        return [laws, audit.heat_duality_rows(), audit.skew_chain_rows()]

    assert_same_rows(rows(translated), rows(states))
