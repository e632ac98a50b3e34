"""Metamorphic relations: a transformation of the input that the physics leaves
unchanged must leave every verdict and every per-state number unchanged too.

No relation needs an oracle. An energy shift ``H -> H + c 1`` moves every
energy by ``c`` and no heat, work or skew information. A time translation
``rho -> e^(-i H_S t) rho e^(i H_S t)`` of every audited state leaves the rows of
a covariant instrument unchanged (Marvian & Spekkens, PRA 90, 062110, 2014),
since the Gibbs state, the outcome probabilities and the entropies are all
unchanged by it. A reordering of the audited states reorders their rows, and
the worst state is the same state wherever it is unique. A relabelling of the
pointer, its outcome labels and effects permuted together, is the same
measurement listed in another order: every sum over outcomes, and so every
row and verdict, is unchanged. A rotation ``U_S (x) U_A`` of system and probe
together, applied to both Hamiltonians, the pointer, the interaction and the
states, is a change of basis: every trace, spectrum and commutator, and so
every row and verdict, is unchanged.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from thermomeas.linalg import THEOREM_TOL, dag, density_matrix
from thermomeas.objects import Observable
from thermomeas.sampling import haar_unitary, random_density_matrix, rng_from_seed
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


def audited_rows(scheme, states):
    """The ``second_law``, ``heat_duality`` and ``skew_chain`` rows of ``states``, a
    ``(n, d, d)`` stack, and their ``prop1_slack``, audited as one point of ``scheme``."""
    audit = AuditBatch.of_schemes(scheme, states[None])
    [laws], [heats], [chain] = (
        audit.second_law_rows(THEOREM_TOL), audit.heat_duality_rows(), audit.skew_chain_rows()
    )
    return [laws, heats, chain], audit.prop1_slack[0]


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

    assert_same_checks(run(*shifts), run(0, 0))


def assert_same_checks(got, want):
    """The same verdict of every check, and every per-state row of ``PER_STATE`` the same
    within ``BUDGET``."""
    assert [(c["name"], c["verdict"]) for c in got] == [(c["name"], c["verdict"]) for c in want]
    for check, reference in zip(got, want):
        if reference["name"] in PER_STATE:
            assert_same_rows(check["per_state"], reference["per_state"])


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

    assert_same_rows(audited_rows(scheme, translated)[0], audited_rows(scheme, states)[0])


@settings(max_examples=25, deadline=None)
@given(
    h_s=ladders(),
    h_a=ladders(),
    beta=st.sampled_from([0.5, 1.0, 2.0]),
    seed=st.integers(0, 10_000),
    state_seeds=st.lists(st.integers(0, 3), min_size=4, max_size=4),
    order=st.permutations(range(4)),
)
def test_a_reordering_of_the_states_reorders_every_row(h_s, h_a, beta, seed, state_seeds, order):
    # repeated state seeds give equal states, so ties for the worst state occur
    scheme = free_scheme(h_s, h_a, beta, seed)
    states = np.array(
        [random_density_matrix(len(h_s), rng_from_seed(s)).matrix for s in state_seeds]
    )
    rows, slack = audited_rows(scheme, states)
    moved, moved_slack = audited_rows(scheme, states[order])
    assert_same_rows(moved, [[per_state[i] for i in order] for per_state in rows])
    worst, moved_worst = int(np.argmin(slack)), int(np.argmin(moved_slack))
    assert abs(moved_slack[moved_worst] - slack[worst]) <= BUDGET * max(1.0, abs(slack[worst]))
    smallest, runner_up = np.sort(slack)[:2]
    if runner_up - smallest > BUDGET * max(1.0, abs(smallest)):
        assert order[moved_worst] == worst


@settings(max_examples=25, deadline=None)
@given(
    h_s=ladders(),
    h_a=ladders(),
    beta=st.sampled_from([0.5, 1.0, 2.0]),
    seed=st.integers(0, 10_000),
    data=st.data(),
)
def test_a_relabelling_of_the_pointer_changes_no_row_and_no_verdict(h_s, h_a, beta, seed, data):
    # one drawn interaction, read by the sharp pointer in two orders of its outcomes
    scheme = free_scheme(h_s, h_a, beta, seed)
    kraus = [encode_matrix(k) for k in scheme.interaction.kraus]
    pointer = scheme.frame.pointer
    order = data.draw(st.permutations(range(len(pointer.outcomes))), label="order")
    relabelled = Observable([pointer.outcomes[i] for i in order], pointer.effects[order])

    def run(reading):
        return run_scenario({
            "seed": seed,
            "beta": beta,
            "system_hamiltonian": h_s.tolist(),
            "probe_hamiltonian": h_a.tolist(),
            "scheme": {"kind": "kraus", "kraus": kraus, "pointer": encode_observable(reading)},
            "states": {"count": 3},
            "checks": CHECKS,
        }).checks

    assert_same_checks(run(relabelled), run(pointer))


@settings(max_examples=25, deadline=None)
@given(
    h_s=ladders(),
    h_a=ladders(),
    beta=st.sampled_from([0.5, 1.0, 2.0]),
    seed=st.integers(0, 10_000),
)
def test_a_rotation_of_system_and_probe_changes_no_row_and_no_verdict(h_s, h_a, beta, seed):
    # one drawn interaction and three drawn states, given explicitly on both sides, in
    # the energy basis and in the basis of one Haar-random U_S (x) U_A
    scheme = free_scheme(h_s, h_a, beta, seed)
    pointer = scheme.frame.pointer
    rng = rng_from_seed(seed)
    states = [random_density_matrix(len(h_s), rng).matrix for _ in range(3)]
    u_s, u_a = haar_unitary(len(h_s), rng), haar_unitary(len(h_a), rng)

    def run(u_s, u_a):
        def rotated(u, m):
            return u @ m @ dag(u)

        u = np.kron(u_s, u_a)
        effects = rotated(u_a, pointer.effects)
        return run_scenario({
            "seed": seed,
            "beta": beta,
            "system_hamiltonian": encode_matrix(rotated(u_s, np.diag(h_s))),
            "probe_hamiltonian": encode_matrix(rotated(u_a, np.diag(h_a))),
            "scheme": {
                "kind": "kraus",
                "kraus": [encode_matrix(rotated(u, k)) for k in scheme.interaction.kraus],
                "pointer": encode_observable(Observable(pointer.outcomes, effects)),
            },
            "states": [
                {"name": f"rho_{i}", "matrix": encode_matrix(rotated(u_s, rho))}
                for i, rho in enumerate(states)
            ],
            "checks": CHECKS,
        }).checks

    assert_same_checks(run(u_s, u_a), run(np.eye(len(h_s)), np.eye(len(h_a))))
