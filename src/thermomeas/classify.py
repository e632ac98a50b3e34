"""Structural classifiers for observables and instruments.

Thermality of an instrument has no known finite decision procedure; what
this module provides are (a) the exact characterization for observables
(commutation with the Hamiltonian), and (b) necessary-condition batteries
for instruments: time-translation covariance, Gibbs preservation, and the
consequences forced on nuclear instruments. A failed necessary condition
certifies non-thermality; the classifiers never claim thermality of an
instrument from necessary conditions alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import PreconditionError, ValidationError
from .linalg import (
    PROBABILITY_CUTOFF,
    SUPPORT_TOL,
    THEOREM_TOL,
    VALIDATION_TOL,
    commutator_defect,
    dag,
    eig_hermitian,
    frobenius,
    partial_trace,
    require_hermitian,
)
from .objects import (
    Instrument,
    Observable,
    choi_of_operation,
    gibbs_state,
    spectral_observable,
    time_evolution,
)
from .sampling import random_density_matrix, rng_from_seed

#: Times at which covariance is cross-checked directly.
COVARIANCE_SAMPLE_TIMES = (0.37, 1.0, 2.5)


@dataclass(frozen=True)
class ClassifierVerdict:
    """Boolean verdict backed by a continuous defect magnitude.

    ``verdict`` is true exactly when ``defect <= tol``; ``witness`` carries
    structured diagnostics such as the worst outcome label.
    """

    name: str
    verdict: bool
    defect: float
    tol: float
    witness: dict = field(default=None)

    def to_dict(self) -> dict:
        out = {"name": self.name, "verdict": self.verdict, "defect": self.defect, "tol": self.tol}
        if self.witness is not None:
            out["witness"] = {
                k: v for k, v in self.witness.items() if not isinstance(v, (dict, np.ndarray))
            }
        return out


def _verdict(name, defect, tol, witness=None) -> ClassifierVerdict:
    return ClassifierVerdict(
        name=name, verdict=bool(defect <= tol), defect=float(defect), tol=tol, witness=witness
    )


def is_thermal_observable(
    observable: Observable, system_hamiltonian, tol: float = THEOREM_TOL
) -> ClassifierVerdict:
    """Observable thermality test: commutation of every effect with the Hamiltonian.

    Commutation is equivalent to time-translation invariance, which is both
    necessary (covariance of any implementing thermal instrument) and
    sufficient (the swap scheme of :func:`thermomeas.schemes.trivial_scheme`
    is a constructive certificate).
    """
    h = require_hermitian(system_hamiltonian, name="system Hamiltonian")
    if observable.dim != h.shape[0]:
        raise ValidationError(
            f"observable dimension {observable.dim} != Hamiltonian dimension {h.shape[0]}"
        )
    defects = [commutator_defect(e, h) for e in observable.effects]
    worst = int(np.argmax(defects))
    return _verdict(
        "thermal_observable",
        max(defects),
        tol,
        witness={"worst_outcome": observable.outcomes[worst]},
    )


def derivation_superoperator(hamiltonian) -> np.ndarray:
    """Matrix of ``rho -> -i [H, rho]`` on row-major vectorized operators."""
    h = require_hermitian(hamiltonian, name="hamiltonian")
    eye = np.eye(h.shape[0])
    return -1j * (np.kron(h, eye) - np.kron(eye, h.T))


def is_covariant_instrument(
    instrument: Instrument, system_hamiltonian, tol: float = THEOREM_TOL
) -> ClassifierVerdict:
    """Time-translation covariance of every operation of an instrument.

    Checked as commutation of each outcome's superoperator with the
    derivation generated by the Hamiltonian, which is equivalent to
    covariance at all times. A direct cross-check at a few sampled times
    (on a fixed set of random states) is recorded in the witness.
    """
    h = require_hermitian(system_hamiltonian, name="system Hamiltonian")
    if instrument.dim != h.shape[0]:
        raise ValidationError(
            f"instrument dimension {instrument.dim} != Hamiltonian dimension {h.shape[0]}"
        )
    derivation = derivation_superoperator(h)
    defects = []
    for x in range(instrument.n_outcomes):
        sup = instrument.superoperator(x)
        defects.append(frobenius(sup @ derivation - derivation @ sup))
    worst = int(np.argmax(defects))

    rng = rng_from_seed(20100526)  # fixed: the cross-check must be deterministic
    probes = [random_density_matrix(instrument.dim, rng).matrix for _ in range(3)]
    sampled = 0.0
    for t in COVARIANCE_SAMPLE_TIMES:
        u = time_evolution(h, t)
        for r in probes:
            rotated = instrument.apply(u @ r @ dag(u))
            plain = instrument.apply(r)
            for a, b in zip(rotated, plain):
                sampled = max(sampled, frobenius(a - u @ b @ dag(u)))
    return _verdict(
        "covariant",
        max(defects),
        tol,
        witness={
            "worst_outcome": instrument.outcomes[worst],
            "sampled_time_defect": float(sampled),
            "sample_times": list(COVARIANCE_SAMPLE_TIMES),
        },
    )


def is_gibbs_preserving(
    instrument: Instrument, system_hamiltonian, beta: float, tol: float = THEOREM_TOL
) -> ClassifierVerdict:
    """Check ``I_x(tau) = tr[E_x tau] tau`` for every outcome.

    All thermal instruments satisfy this, so a false verdict certifies that
    the instrument admits no thermodynamically free implementation at this
    temperature.
    """
    tau = gibbs_state(system_hamiltonian, beta)
    q = instrument.induced_observable().probabilities(tau)
    outputs = instrument.apply(tau)
    defects = [frobenius(out - qx * tau.matrix) for out, qx in zip(outputs, q)]
    worst = int(np.argmax(defects))
    return _verdict(
        "gibbs_preserving",
        max(defects),
        tol,
        witness={"worst_outcome": instrument.outcomes[worst]},
    )


def is_nuclear(instrument: Instrument, tol: float = THEOREM_TOL) -> ClassifierVerdict:
    """Test whether every operation factorizes as ``rho -> tr[E_x rho] sigma_x``.

    Checked in Choi form: the operation is nuclear exactly when its Choi
    matrix is ``sigma_x (x) transpose(E_x)``. The candidate ``sigma_x`` is
    the output-side partial trace of the Choi divided by ``tr[E_x]``; the
    defect is the worst factorization residual. When the verdict is true
    the recovered ``sigma_x`` family is returned in the witness.
    """
    effects = instrument.induced_observable().effects
    d = instrument.dim
    residuals = {}
    sigmas = {}
    for label, ops, effect in zip(instrument.outcomes, instrument.kraus_sets, effects):
        weight = float(np.trace(effect).real)
        if weight <= PROBABILITY_CUTOFF:
            continue  # null effects carry no constraint
        choi = choi_of_operation(ops)
        sigma = partial_trace(choi.matrix, (d, d), keep=0) / weight
        residuals[label] = frobenius(choi.matrix - np.kron(sigma, effect.T))
        sigmas[label] = sigma
    if not residuals:
        return _verdict("nuclear", 0.0, tol, witness={"note": "all effects null"})
    worst = max(residuals, key=residuals.get)
    defect = residuals[worst]
    witness = {"worst_outcome": worst}
    if defect <= tol:
        witness["sigmas"] = sigmas
    return _verdict("nuclear", defect, tol, witness=witness)


def check_prop2(
    instrument: Instrument, system_hamiltonian, beta: float, tol: float = THEOREM_TOL
) -> ClassifierVerdict:
    """Nuclear + Gibbs-preserving instruments must thermalise: ``sigma_x = tau``.

    Preconditions (the testable necessary conditions standing in for
    thermality) are enforced: the instrument must pass both
    :func:`is_nuclear` and :func:`is_gibbs_preserving`. The verdict then
    reports whether every recovered output state is the Gibbs state.
    """
    nuclear = is_nuclear(instrument, tol)
    gibbs = is_gibbs_preserving(instrument, system_hamiltonian, beta, tol)
    if not nuclear.verdict:
        raise PreconditionError(
            f"instrument is not nuclear (residual {nuclear.defect:.3e} > {tol:.1e})"
        )
    if not gibbs.verdict:
        raise PreconditionError(
            f"instrument is not Gibbs-preserving (defect {gibbs.defect:.3e} > {tol:.1e})"
        )
    tau = gibbs_state(system_hamiltonian, beta).matrix
    sigmas = nuclear.witness.get("sigmas", {})
    if not sigmas:
        return _verdict("prop2", 0.0, tol, witness={"note": "all effects null"})
    defects = {label: frobenius(sigma - tau) for label, sigma in sigmas.items()}
    worst = max(defects, key=defects.get)
    return _verdict(
        "prop2",
        defects[worst],
        tol,
        witness={"worst_outcome": worst, "n_outcomes_tested": len(defects)},
    )


def is_quasi_complete(instrument: Instrument, tol: float = THEOREM_TOL) -> ClassifierVerdict:
    """Choi rank at most one per outcome: pure inputs give pure conditionals.

    The defect is the largest second Choi eigenvalue over outcomes, so
    operations that are identically zero are vacuously accepted.
    Quasi-complete instruments have nonnegative information gain on every
    input; the tests exercise that forward implication on random states,
    while the converse is recorded here as documentation only.
    """
    defect = 0.0
    worst_label = instrument.outcomes[0]
    worst_rank = 0
    for label, ops in zip(instrument.outcomes, instrument.kraus_sets):
        choi = choi_of_operation(ops)
        evals = np.linalg.eigvalsh(choi.matrix)
        second = float(evals[-2]) if len(evals) > 1 else 0.0
        if second > defect:
            defect = second
            worst_label = label
            worst_rank = int(np.sum(evals > tol))
    return _verdict(
        "quasi_complete",
        defect,
        tol,
        witness={"worst_outcome": worst_label, "worst_rank": worst_rank},
    )


def joint_with_hamiltonian(
    observable: Observable, system_hamiltonian, tol: float = THEOREM_TOL
) -> Observable:
    """Joint observable of a thermal observable and the energy.

    For ``E`` commuting with ``H`` the joint observable with the spectral
    measure ``P`` of ``H`` is uniquely ``G_(x,m) = E_x P_m``. Outcomes are
    labeled ``"x|m"`` in x-major order; both marginals are validated.

    Only this commutativity-based construction is provided. Observables
    that fail to commute with the Hamiltonian fall outside the free class,
    so jointly measuring an incompatible pair necessarily consumes
    non-thermal resources; deciding joint measurability for arbitrary
    noncommuting pairs is out of scope.
    """
    thermal = is_thermal_observable(observable, system_hamiltonian, tol)
    if not thermal.verdict:
        raise PreconditionError(
            f"observable does not commute with the Hamiltonian "
            f"(defect {thermal.defect:.3e} > {tol:.1e}); no unique joint observable"
        )
    energy = spectral_observable(system_hamiltonian)
    labels = []
    effects = []
    for x, e in zip(observable.outcomes, observable.effects):
        for m, p in zip(energy.outcomes, energy.effects):
            labels.append(f"{x}|{m}")
            effects.append(require_hermitian(e @ p, tol, name=f"joint effect {x}|{m}"))
    joint = Observable(labels, effects, tol)
    defect = marginal_defect(joint, observable, system_hamiltonian)
    if defect > tol:
        raise ValidationError(
            f"a marginal of the joint observable is off by {defect:.3e} > {tol:.1e}"
        )
    return joint


def marginal_defect(joint: Observable, observable: Observable, system_hamiltonian) -> float:
    """Worst distance of a marginal of an x-major joint observable from its target.

    Summing ``G_(x,m)`` over energies must give ``E_x``, and summing over
    outcomes must give the spectral projector ``P_m`` of the Hamiltonian.
    """
    energy = spectral_observable(system_hamiltonian)
    n_m = energy.n_outcomes
    defect = 0.0
    for i, e in enumerate(observable.effects):
        marg = sum(joint.effects[i * n_m + j] for j in range(n_m))
        defect = max(defect, frobenius(marg - e))
    for j, p in enumerate(energy.effects):
        marg = sum(joint.effects[i * n_m + j] for i in range(observable.n_outcomes))
        defect = max(defect, frobenius(marg - p))
    return defect


@dataclass(frozen=True)
class PostProcessing:
    """Conditional probabilities ``p(x|m)`` expressing effects over energy levels.

    Rows are outcomes, columns are (nondegenerate) energy levels; each
    column sums to one.
    """

    matrix: np.ndarray
    outcomes: tuple
    energies: np.ndarray
    reconstruction_defect: float = 0.0

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.min() < -VALIDATION_TOL or m.max() > 1 + VALIDATION_TOL:
            raise ValidationError(
                f"post-processing entries must lie in [0, 1], got range "
                f"[{m.min():.3e}, {m.max():.3e}]"
            )
        col_defect = float(np.abs(m.sum(axis=0) - 1.0).max())
        if col_defect > VALIDATION_TOL:
            raise ValidationError(f"post-processing columns must sum to 1, defect {col_defect:.3e}")
        object.__setattr__(self, "matrix", m)


def post_processing_decomposition(
    observable: Observable, system_hamiltonian, tol: float = THEOREM_TOL
) -> PostProcessing:
    """Diagonal weights of a thermal observable over a nondegenerate spectrum.

    With rank-1 spectral projections ``P_m``, every effect of an observable
    commuting with ``H`` is ``E_x = sum_m p(x|m) P_m``; the weights are read
    back as ``<m|E_x|m>``. Degenerate spectra are refused (the decomposition
    is not unique there).
    """
    thermal = is_thermal_observable(observable, system_hamiltonian, tol)
    if not thermal.verdict:
        raise PreconditionError(
            f"observable does not commute with the Hamiltonian "
            f"(defect {thermal.defect:.3e} > {tol:.1e})"
        )
    decomp = eig_hermitian(system_hamiltonian)
    if not decomp.nondegenerate:
        raise PreconditionError(
            f"Hamiltonian spectrum is degenerate (multiplicities {decomp.multiplicities}); "
            "the post-processing decomposition is not unique"
        )
    weights = np.array(
        [
            [float(np.trace(e @ p).real) for p in decomp.projectors]
            for e in observable.effects
        ]
    )
    worst = 0.0
    for x, e, row in zip(observable.outcomes, observable.effects, weights):
        rebuilt = sum(w * p for w, p in zip(row, decomp.projectors))
        defect = frobenius(rebuilt - e)
        worst = max(worst, defect)
        if defect > tol:
            raise ValidationError(
                f"effect {x!r} is not diagonal in the energy basis: "
                f"reconstruction defect {defect:.3e} > {tol:.1e}"
            )
    return PostProcessing(
        matrix=weights,
        outcomes=observable.outcomes,
        energies=decomp.eigenvalues,
        reconstruction_defect=worst,
    )


def refine_to_rank_one(observable: Observable):
    """Maximal refinement of an observable into rank-1 effects.

    Each effect is diagonalized and split into its rank-1 eigenvalue pieces
    (eigenvalues at or below ``SUPPORT_TOL`` are dropped to avoid null effects).
    Returns the refined observable, whose outcomes ``"y:i"`` enumerate the
    retained pieces in ascending eigenvalue order, together with the
    relabeling map back to the original outcomes; coarse-graining by that
    map reproduces the input.
    """
    labels = []
    effects = []
    relabel = {}
    for y, e in zip(observable.outcomes, observable.effects):
        evals, vecs = np.linalg.eigh(e)
        kept = 0
        for lam, v in zip(evals, vecs.T):
            if lam <= SUPPORT_TOL:
                continue
            label = f"{y}:{kept}"
            labels.append(label)
            effects.append(lam * np.outer(v, v.conj()))
            relabel[label] = y
            kept += 1
    refined = Observable(labels, effects)
    return refined, relabel
