import math
import re

import numpy as np
import pytest

from oracles import dilation_relative_entropy, mp_outcome_divergence, random_diagonal_hamiltonian
from thermomeas.errors import PreconditionError, ValidationError
from thermomeas.objects import (
    Instrument,
    KrausChannel,
    Observable,
    gibbs_state,
    pure_state,
    spectral_observable,
)
from thermomeas.sampling import (
    random_commuting_povm,
    random_density_matrix,
    rng_from_seed,
)
from thermomeas.scenario import run_scenario, run_sweep
from thermomeas.schemes import (
    MeasurementScheme,
    SchemeFrame,
    induced_instrument,
    random_free_scheme,
    trivial_scheme,
)
from thermomeas.thermo import (
    AuditBatch,
    _skew_information,
    heat_absorbed,
    second_law_report,
    skew_information_chain,
    work_report,
)

H2 = np.diag([0.0, 1.0]).astype(complex)
HLOG2 = np.diag([0.0, math.log(2)]).astype(complex)
Z_SHARP = spectral_observable(H2)
PAULI_Z = np.diag([1.0, -1.0]).astype(complex)
GROUND = pure_state([1.0, 0.0])
EXCITED = pure_state([0.0, 1.0])


def shannon(p):
    p = np.asarray(p)
    p = p[p > 0]
    return float(-np.sum(p * np.log(p)))


def luders_work(observable, rho, hamiltonian, beta) -> dict:
    """The work row of ``rho`` under the Lüders instrument of ``observable``."""
    return work_report(Instrument.luders(observable), rho, hamiltonian, beta)


def extractable_work_of(rho, hamiltonian, beta) -> float:
    """``W`` of ``rho``, a work row's key: the same under every instrument."""
    return luders_work(spectral_observable(hamiltonian), rho, hamiltonian, beta)[
        "extractable_work"
    ]


class TestExtractableWork:
    def test_zero_at_equilibrium(self):
        tau = gibbs_state(H2, 1.7)
        assert abs(extractable_work_of(tau, H2, 1.7)) < 1e-12

    def test_ground_state_degenerate_hamiltonian(self):
        w = extractable_work_of(GROUND, np.zeros((2, 2)), beta=1.0)
        assert abs(w - math.log(2)) < 1e-12

    def test_excited_state_closed_form(self):
        # S(|1><1| || diag(2/3, 1/3)) = -ln(1/3)
        w = extractable_work_of(EXCITED, HLOG2, beta=1.0)
        assert abs(w - math.log(3)) < 1e-12

    def test_scales_with_inverse_beta(self):
        rho = random_density_matrix(2, rng_from_seed(0))
        h0 = np.zeros((2, 2))
        halved = extractable_work_of(rho, h0, 2.0) - 0.5 * extractable_work_of(rho, h0, 1.0)
        assert abs(halved) < 1e-12


class TestAverageExtractableWork:
    def test_trivial_thermal_instrument_gives_zero(self):
        obs = random_commuting_povm(H2, 3, rng_from_seed(1))
        ins = induced_instrument(trivial_scheme(obs, H2, beta=1.0))
        rho = random_density_matrix(2, rng_from_seed(2))
        assert abs(work_report(ins, rho, H2, 1.0)["average_extractable_work"]) < 1e-10

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    def test_luders_eigenbasis_at_equilibrium_is_shannon(self, beta):
        ins = Instrument.luders(Z_SHARP)
        tau = gibbs_state(H2, beta)
        expected = shannon(Z_SHARP.probabilities(tau)) / beta
        assert abs(work_report(ins, tau, H2, beta)["average_extractable_work"] - expected) < 1e-12

    def test_identity_interaction_reproduces_extractable_work(self):
        scheme = MeasurementScheme(SchemeFrame(H2, H2, 1.0, Z_SHARP), KrausChannel([np.eye(4)]))
        ins = induced_instrument(scheme)
        rho = random_density_matrix(2, rng_from_seed(3))
        work = work_report(ins, rho, H2, 1.0)
        assert abs(work["average_extractable_work"] - work["extractable_work"]) < 1e-10


def outcome_divergence_of(observable, rho, hamiltonian, beta) -> float:
    """``D(p || q)`` of the statistics of ``observable``, through its Lüders instrument."""
    return luders_work(observable, rho, hamiltonian, beta)["outcome_divergence"]


class TestOutcomeDivergence:
    def test_zero_at_equilibrium(self):
        tau = gibbs_state(H2, 1.0)
        assert abs(outcome_divergence_of(Z_SHARP, tau, H2, 1.0)) < 1e-12

    def test_trivial_observable_gives_zero(self):
        trivial = Observable(["a", "b"], [np.eye(2) / 2, np.eye(2) / 2])
        rho = random_density_matrix(2, rng_from_seed(4))
        assert abs(outcome_divergence_of(trivial, rho, H2, 1.0)) < 1e-14

    def test_ground_state_closed_form(self):
        # p = (1, 0), q = (2/3, 1/3): sum p ln(p/q) = ln(3/2)
        d = outcome_divergence_of(spectral_observable(HLOG2), GROUND, HLOG2, 1.0)
        assert abs(d - math.log(3 / 2)) < 1e-12

    def test_nonnegative_on_random_inputs(self):
        # p read off the Lüders outputs' traces equals the Born rule's to round-off
        rng = rng_from_seed(5)
        for _ in range(20):
            obs = random_commuting_povm(H2, 2, rng)
            rho = random_density_matrix(2, rng)
            d = outcome_divergence_of(obs, rho, H2, 1.0)
            assert d >= -1e-10
            born = mp_outcome_divergence(obs.effects, rho.matrix, obs.effects, H2, 1.0)
            assert abs(d - born) <= 1e-15


class TestHeat:
    def test_zero_at_equilibrium(self):
        scheme = random_free_scheme(SchemeFrame(H2, H2, 1.0, Z_SHARP), seed=9)
        report = heat_absorbed(scheme, gibbs_state(H2, 1.0))
        assert abs(report["heat"]) < 1e-9
        assert report["duality_defect"] < 1e-9

    def test_swap_scheme_ground_state(self):
        beta = 1.0
        scheme = trivial_scheme(Z_SHARP, H2, beta)
        report = heat_absorbed(scheme, GROUND)
        tau = gibbs_state(H2, beta)
        expected = np.trace(H2 @ tau.matrix).real  # ground energy is zero
        assert abs(report["heat"] - expected) < 1e-12
        assert report["heat"] >= 0.0
        assert report["duality_defect"] < 1e-12

    def test_identity_interaction_no_heat(self):
        scheme = MeasurementScheme(SchemeFrame(H2, H2, 1.0, Z_SHARP), KrausChannel([np.eye(4)]))
        rho = random_density_matrix(2, rng_from_seed(6))
        report = heat_absorbed(scheme, rho)
        assert abs(report["heat"]) < 1e-12


class TestGroenewoldGain:
    def test_luders_rank_one_recovers_input_entropy(self):
        from thermomeas.linalg import von_neumann_entropy

        ins = Instrument.luders(Z_SHARP)
        rho = random_density_matrix(2, rng_from_seed(7))
        gain = work_report(ins, rho, H2, 1.0)["groenewold_gain"]
        assert abs(gain - von_neumann_entropy(rho)) < 1e-10

    def test_trivial_thermal_on_pure_input(self):
        from thermomeas.linalg import von_neumann_entropy

        beta = 1.0
        obs = random_commuting_povm(H2, 2, rng_from_seed(8))
        ins = induced_instrument(trivial_scheme(obs, H2, beta))
        tau = gibbs_state(H2, beta)
        gain = work_report(ins, GROUND, H2, beta)["groenewold_gain"]
        assert abs(gain + von_neumann_entropy(tau)) < 1e-10
        assert gain < 0

    def test_identity_channel_gains_nothing(self):
        ins = Instrument(["only"], [[np.eye(2)]])
        rho = random_density_matrix(2, rng_from_seed(9))
        assert abs(work_report(ins, rho, H2, 1.0)["groenewold_gain"]) < 1e-12


class TestSkewInformation:
    def test_commuting_pair_is_zero(self):
        tau = gibbs_state(H2, 1.0)
        assert _skew_information(H2, tau.matrix) < 1e-14

    def test_pauli_z_on_plus_state(self):
        plus = pure_state([1.0, 1.0])
        assert abs(_skew_information(PAULI_Z, plus.matrix) - 1.0) < 1e-12

    def test_linear_under_scaling(self):
        rng = rng_from_seed(10)
        rho = random_density_matrix(2, rng).matrix
        for p in (0.1, 0.35, 0.9):
            assert abs(
                _skew_information(PAULI_Z, p * rho) - p * _skew_information(PAULI_Z, rho)
            ) < 1e-10

    def test_rejects_super_normalized(self):
        with pytest.raises(ValidationError, match="sub-normalized"):
            _skew_information(H2, 2 * np.eye(2))

    @pytest.mark.parametrize("seed", range(4))
    def test_chain_for_free_schemes(self, seed):
        scheme = random_free_scheme(SchemeFrame(H2, H2, 0.8, Z_SHARP), seed=seed + 300)
        ins = induced_instrument(scheme)
        rng = rng_from_seed(seed)
        for _ in range(5):
            rho = random_density_matrix(2, rng)
            chain = skew_information_chain(ins, rho, H2)
            selective, convexity = chain["selective_slack"], chain["convexity_slack"]
            assert selective >= -1e-8
            assert convexity >= -1e-8


class TestSecondLawReport:
    def test_equilibrium_input_everything_vanishes(self):
        obs = random_commuting_povm(H2, 2, rng_from_seed(11))
        scheme = trivial_scheme(obs, H2, beta=1.0)
        row = second_law_report(scheme, gibbs_state(H2, 1.0))
        law, work = row["second_law"], row["work"]
        assert law["verdict"]
        for value in (
            work["extractable_work"],
            work["average_extractable_work"],
            work["outcome_divergence"],
            work["heat"],
        ):
            assert abs(value) < 1e-9

    def test_ground_state_strict_negativity(self):
        obs = random_commuting_povm(H2, 2, rng_from_seed(12))
        assert obs.triviality_defect() > 1e-3
        scheme = trivial_scheme(obs, H2, beta=1.0)
        row = second_law_report(scheme, GROUND)
        law, work = row["second_law"], row["work"]
        assert law["verdict"]
        assert law["prop1_slack"] >= -1e-10
        assert work["outcome_divergence"] > 1e-6
        assert work["groenewold_gain"] < -1e-6

    def test_refuses_non_free_scheme(self):
        u_rng = rng_from_seed(13)
        from thermomeas.sampling import haar_unitary

        frame = SchemeFrame(H2, H2, 1.0, Z_SHARP)
        scheme = MeasurementScheme(frame, KrausChannel([haar_unitary(4, u_rng)]))
        with pytest.raises(PreconditionError, match="not thermodynamically free"):
            second_law_report(scheme, GROUND)

    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    def test_sharp_ground_state_bound(self, beta):
        # sharp form of the bound at a ground state: gain <= -divergence - beta * heat
        rng = rng_from_seed(14)
        for seed in range(5):
            scheme = random_free_scheme(SchemeFrame(H2, H2, beta, Z_SHARP), seed=400 + seed)
            row = second_law_report(scheme, GROUND)
            law, work = row["second_law"], row["work"]
            assert law["verdict"]
            assert work["groenewold_gain"] <= (
                -work["outcome_divergence"] - beta * work["heat"] + 1e-8
            )

    @pytest.mark.parametrize("dim,beta", [(2, 0.5), (2, 1.0), (3, 1.0), (3, 2.0)])
    def test_property_sweep_with_dilation_oracle(self, dim, beta):
        h = np.diag(np.arange(float(dim))).astype(complex)
        rng = rng_from_seed(dim * 100 + int(beta * 10))
        for seed in range(5):
            pointer = random_commuting_povm(h, 2, rng)
            scheme = random_free_scheme(SchemeFrame(h, h, beta, pointer), seed=500 + seed)
            ins = induced_instrument(scheme)
            tau = scheme.frame.system_gibbs
            q = ins.induced_observable.probabilities(tau)
            for _ in range(5):
                rho = random_density_matrix(dim, rng)
                row = second_law_report(scheme, rho)
                law, work = row["second_law"], row["work"]
                assert law["verdict"], (dim, beta, seed, law)
                # Appendix-style oracle: data-processing through the register dilation
                direct = dilation_relative_entropy(ins.apply(rho), q, tau.matrix)
                decomposed = work["outcome_divergence"] + beta * work["average_extractable_work"]
                assert abs(direct - decomposed) < 1e-8
                assert beta * work["extractable_work"] - direct >= -1e-8

    @pytest.mark.parametrize("dim", [2, 3])
    def test_report_is_work_report_with_probe_side_heat(self, dim):
        h = np.diag(np.arange(float(dim))).astype(complex)
        rng = rng_from_seed(700 + dim)
        for seed in range(4):
            pointer = random_commuting_povm(h, 2, rng)
            scheme = random_free_scheme(SchemeFrame(h, h, 0.9, pointer), seed=600 + seed)
            ins = induced_instrument(scheme)
            for _ in range(50):
                rho = random_density_matrix(dim, rng)
                work = second_law_report(scheme, rho)["work"]
                plain = work_report(ins, rho, h, scheme.frame.beta)
                for field in ("extractable_work", "average_extractable_work",
                              "outcome_divergence", "groenewold_gain", "beta"):
                    assert abs(work[field] - plain[field]) <= 1e-12, field
                assert work["heat"] == heat_absorbed(scheme, rho)["heat"]

    @pytest.mark.parametrize("beta", [40.0, 600.0])
    def test_low_temperature_passes_with_finite_slacks(self, beta):
        scheme = random_free_scheme(SchemeFrame(H2, H2, beta, Z_SHARP), seed=17)
        rng = rng_from_seed(18)
        for rho in [GROUND, EXCITED] + [random_density_matrix(2, rng) for _ in range(10)]:
            row = second_law_report(scheme, rho)
            law, work = row["second_law"], row["work"]
            assert law["verdict"], law
            assert all(math.isfinite(v) for v in law.values() if not isinstance(v, bool))
            assert all(math.isfinite(v) for v in work.values())

    def test_prop1_holds_when_pruning_would_drop_a_probe_level(self):
        h3, h2 = np.diag([0.0, 1.0, 2.0]).astype(complex), H2
        frame = SchemeFrame(h3, h2, 100.0, spectral_observable(h2))
        scheme = random_free_scheme(frame, seed=0, mixture_size=1)
        # q_1 = tr[Z_1 xi] = e^-100 / (1 + e^-100) exactly, for a free scheme
        q = scheme.instrument.induced_observable.probabilities(scheme.frame.system_gibbs)
        assert abs(math.log(q[1]) + 100.0) < 1e-9
        law = second_law_report(scheme, np.diag([0.0, 0.0, 1.0]))["second_law"]
        assert law["verdict"], law

    @pytest.mark.parametrize("beta", [800.0, 1600.0])
    def test_prop1_holds_where_the_induced_effects_underflow(self, beta):
        # e^-beta underflows in the induced effects, not in the probe's log-weights;
        # on |2>, beta * prop1_slack does not depend on beta
        h3 = np.diag([0.0, 1.0, 2.0]).astype(complex)
        slacks = []
        for b in (100.0, beta):
            frame = SchemeFrame(h3, H2, b, spectral_observable(H2))
            scheme = random_free_scheme(frame, seed=0, mixture_size=1)
            law = second_law_report(scheme, np.diag([0.0, 0.0, 1.0]))["second_law"]
            assert law["verdict"], law
            slacks.append(b * law["prop1_slack"])
        assert abs(slacks[1] - slacks[0]) <= 1e-9 * slacks[0]

    def test_tight_slacks_are_judged_in_nats_at_high_temperature(self):
        # the swap scheme is free and its inequalities are tight on these
        # states: at beta around 1e-10 the slacks are round-off of 1 / beta-sized
        # terms, up to about 1e-6 in energy units and 1e-16 in nats, of
        # either sign; over the betas some slack is negative beyond 1e-7
        h3 = [0.0, 1.0, 2.0]
        sharp = {"effects": [np.diag(row).tolist() for row in np.eye(3)]}
        scenario = {
            "seed": 3,
            "system_hamiltonian": h3,
            "probe_hamiltonian": h3,
            "scheme": {"kind": "swap", "pointer": sharp},
            "states": ["gibbs", "ground", "maximally_mixed"],
            "checks": ["second_law"],
        }
        slacks = []
        for beta in (1e-11, 1e-10, 1e-9):
            check = run_scenario(dict(scenario, beta=beta)).checks[0]
            laws = [row["second_law"] for row in check["per_state"]]
            assert check["verdict"] and all(law["verdict"] for law in laws)
            assert all(beta * law["prop1_slack"] >= -1e-15 for law in laws)
            slacks += [law["prop1_slack"] for law in laws]
        assert min(slacks) < -1e-7
        # a sweep's rows judge them by the same predicate
        sweep = {"axis": {"name": "beta", "values": [1e-10, 1.0]}, "scenario": scenario}
        table, passed = run_sweep(sweep)
        assert passed and table.count("True,True\n") == 2

    @pytest.mark.parametrize("beta", [1e16, 1e100, 1e300])
    def test_slacks_are_judged_against_their_terms_at_low_temperature(self, beta):
        # beta * W and D(p || q) grow with beta, and beta * prop1_slack is the
        # round-off of their difference: a few nats, where tol is 1e-8
        h4 = [0.0, 1.0, 2.0, 3.0]
        sharp = {"effects": [np.diag(row).tolist() for row in np.eye(4)]}
        scenario = {
            "seed": 0,
            "beta": beta,
            "system_hamiltonian": h4,
            "probe_hamiltonian": h4,
            "scheme": {"kind": "random_block", "mixture_size": 3, "pointer": sharp},
            "states": {"count": 2},
            "checks": ["second_law"],
        }
        check = run_scenario(scenario).checks[0]
        assert check["verdict"], check
        assert abs(check["worst_prop1_slack"]) < 1e-14
        sweep = {"axis": {"name": "beta", "values": [beta]}, "scenario": scenario}
        table, passed = run_sweep(sweep)
        assert passed and table.endswith("True,True\n")

    def test_low_temperature_outcome_divergence_is_finite(self):
        # q_excited = 1 / (1 + e^600): far below any probability cutoff, yet positive
        d = outcome_divergence_of(Z_SHARP, EXCITED, H2, 600.0)
        assert abs(d - (600.0 + math.log1p(math.exp(-600.0)))) < 1e-9

    def test_work_report_diagnostic_luders(self):
        # non-thermal instrument: average extractable work exceeds extractable work
        beta = 1.0
        tau = gibbs_state(H2, beta)
        report = work_report(Instrument.luders(Z_SHARP), tau, H2, beta)
        assert report["extractable_work"] < 1e-12
        assert report["average_extractable_work"] > 0.1
        expected = shannon(Z_SHARP.probabilities(tau)) / beta
        assert abs(report["average_extractable_work"] - expected) < 1e-12


class TestSzilardValues:
    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_luders_eigenbasis_heat_to_work(self, dim, beta):
        rng = rng_from_seed(dim * 31 + int(beta * 4))
        for _ in range(3):
            h = random_diagonal_hamiltonian(dim, rng)
            obs = spectral_observable(h)
            tau = gibbs_state(h, beta)
            got = work_report(Instrument.luders(obs), tau, h, beta)["average_extractable_work"]
            expected = shannon(obs.probabilities(tau)) / beta
            assert abs(got - expected) < 1e-9


#: Inputs no state validates as.
INVALID_STATES = {
    "trace_2": np.diag([1.5, 0.5]),
    "non_hermitian": np.array([[0.5, 0.3], [0.0, 0.5]]),
    "negative": np.diag([1.2, -0.2]),
    "nan": np.full((2, 2), np.nan),
}

H3 = np.diag([0.0, 1.0, 2.0]).astype(complex)
RHO2, RHO3 = np.eye(2) / 2, np.eye(3) / 3

#: Each single-state function and the audit given a qutrit input beside qubit ones, or the
#: reverse, as a function of a free qubit scheme.
DIMENSION_MISMATCHES = {
    "heat_absorbed-state": lambda s: heat_absorbed(s, RHO3),
    "skew_information_chain-state": lambda s: skew_information_chain(s.instrument, RHO3, H2),
    "skew_information_chain-hamiltonian": lambda s: skew_information_chain(
        s.instrument, RHO2, H3
    ),
    "work_report-state": lambda s: work_report(s.instrument, RHO3, H2, 1.0),
    "work_report-hamiltonian": lambda s: work_report(s.instrument, RHO2, H3, 1.0),
    "second_law_report-state": lambda s: second_law_report(s, RHO3),
    "audit-states": lambda s: AuditBatch.of_instrument(s.instrument, RHO3[None], H2, 1.0),
    "audit_of_schemes-states": lambda s: AuditBatch.of_schemes(s, RHO3[None, None]),
    "audit-hamiltonian": lambda s: AuditBatch.of_instrument(s.instrument, RHO2[None], H3, 1.0),
}


class TestSingleStateInputs:
    """The single-state functions refuse, by name, an input they cannot audit."""

    @pytest.mark.parametrize("rho", INVALID_STATES.values(), ids=INVALID_STATES.keys())
    def test_work_report_refuses_an_invalid_state_as_its_siblings_do(self, rho):
        rho, scheme = rho.astype(complex), trivial_scheme(Z_SHARP, H2, 1.0)
        with pytest.raises(ValidationError) as report:
            work_report(Instrument.luders(Z_SHARP), rho, H2, 1.0)
        for sibling in (
            lambda: heat_absorbed(scheme, rho),
            lambda: skew_information_chain(scheme.instrument, rho, H2),
            lambda: second_law_report(scheme, rho),
        ):
            with pytest.raises(ValidationError, match=re.escape(str(report.value))):
                sibling()

    @pytest.mark.parametrize(
        "call", DIMENSION_MISMATCHES.values(), ids=DIMENSION_MISMATCHES.keys()
    )
    def test_a_dimension_mismatch_is_refused_naming_both_dimensions(self, call):
        scheme = random_free_scheme(SchemeFrame(H2, H2, 1.0, Z_SHARP), 3)
        both = r"must be 2 x 2 to match the \w+, got \(3, 3\)|must be 3 x 3 .*, got \(2, 2\)"
        with pytest.raises(ValidationError, match=both):
            call(scheme)
