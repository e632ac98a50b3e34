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
    _symmetrized,
    commutator_defect,
    dag,
    eig_hermitian,
    frobenius_each,
    require_hermitian,
)
from .objects import Instrument, Observable, gibbs_state, spectral_observable
from .sampling import random_density_matrix_stacks, rng_from_seed

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
    defects = commutator_defect(observable.effects, h)
    worst = int(np.argmax(defects))
    return _verdict(
        "thermal_observable",
        defects[worst],
        tol,
        witness={"worst_outcome": observable.outcomes[worst]},
    )


def is_covariant_instrument(
    instrument: Instrument, system_hamiltonian, tol: float = THEOREM_TOL
) -> ClassifierVerdict:
    """Time-translation covariance of every operation of an instrument.

    Read off the Choi matrices in the eigenbasis of the Hamiltonian, where
    covariance at all times means that every entry ``(a, i), (b, j)`` with
    unequal Bohr frequencies ``E_a - E_i`` and ``E_b - E_j`` vanishes (no
    mode of asymmetry). An outcome's defect is the Frobenius norm of its
    Choi matrix weighted entrywise by that frequency difference, which
    equals the commutator of its operation with ``-i [H, .]`` as maps on
    operators. A direct cross-check at a few sampled times (on a fixed set
    of random states, all applied in one batch) is recorded in the witness.
    """
    h = require_hermitian(system_hamiltonian, name="system Hamiltonian")
    d = instrument.dim
    if d != h.shape[0]:
        raise ValidationError(f"instrument dimension {d} != Hamiltonian dimension {h.shape[0]}")
    energies, basis = np.linalg.eigh(h)
    rotation = np.kron(basis, basis.conj())
    bohr = (energies[:, None] - energies[None, :]).reshape(-1)
    mask = bohr[:, None] - bohr[None, :]
    weighted = (dag(rotation) @ instrument.choi @ rotation) * mask
    defects = frobenius_each(weighted)
    worst = int(np.argmax(defects))

    rng = rng_from_seed(20100526)  # fixed: the cross-check must be deterministic
    probes = random_density_matrix_stacks(d, 3, [rng])[0]
    times = np.array(COVARIANCE_SAMPLE_TIMES)[:, None, None]
    evolutions = ((basis * np.exp(-1j * times * energies)) @ dag(basis))[:, None]
    rotated = evolutions @ probes @ dag(evolutions)  # (time, probe, d, d)
    outs = instrument.apply(np.concatenate([probes, rotated.reshape(-1, d, d)]))
    plain, moved = outs[:, None, :3], outs[:, 3:].reshape(-1, *rotated.shape)
    sampled = float(frobenius_each(moved - evolutions @ plain @ dag(evolutions)).max())
    return _verdict(
        "covariant",
        defects[worst],
        tol,
        witness={
            "worst_outcome": instrument.outcomes[worst],
            "sampled_time_defect": sampled,
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
    q = instrument.induced_observable.probabilities(tau)
    defects = frobenius_each(instrument.apply(tau) - q[:, None, None] * tau.matrix)
    worst = int(np.argmax(defects))
    return _verdict(
        "gibbs_preserving",
        defects[worst],
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
    effects = instrument.induced_observable.effects
    d = instrument.dim
    weights = np.trace(effects, axis1=1, axis2=2).real
    live = weights > PROBABILITY_CUTOFF  # null effects carry no constraint
    if not live.any():
        return _verdict("nuclear", 0.0, tol, witness={"note": "all effects null"})
    choi = instrument.choi[live]
    sigmas = np.einsum("xiaja->xij", choi.reshape(-1, d, d, d, d)) / weights[live, None, None]
    products = sigmas[:, :, None, :, None] * effects[live].swapaxes(1, 2)[:, None, :, None, :]
    residuals = frobenius_each(choi - products.reshape(choi.shape))
    labels = [label for label, kept in zip(instrument.outcomes, live) if kept]
    worst = int(np.argmax(residuals))
    witness = {"worst_outcome": labels[worst]}
    if residuals[worst] <= tol:
        witness["sigmas"] = dict(zip(labels, sigmas))
    return _verdict("nuclear", residuals[worst], tol, witness=witness)


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
    defects = frobenius_each(np.array(list(sigmas.values())) - tau)
    worst = int(np.argmax(defects))
    return _verdict(
        "prop2",
        defects[worst],
        tol,
        witness={"worst_outcome": list(sigmas)[worst], "n_outcomes_tested": len(defects)},
    )


def is_quasi_complete(instrument: Instrument, tol: float = THEOREM_TOL) -> ClassifierVerdict:
    """Choi rank at most one per outcome: pure inputs give pure conditionals.

    The defect is the largest second Choi eigenvalue over outcomes, so
    operations that are identically zero are vacuously accepted.
    Quasi-complete instruments have nonnegative information gain on every
    input; the tests exercise that forward implication on random states,
    while the converse is recorded here as documentation only.
    """
    evals = np.linalg.eigvalsh(instrument.choi)
    # second-largest eigenvalue per outcome, clipped at 0 (and 0 when dim is 1)
    second = evals[:, -2:-1].max(axis=1, initial=0.0)
    worst = int(np.argmax(second))  # the first outcome when every entry is 0
    rank = int(np.sum(evals[worst] > tol)) if second[worst] > 0.0 else 0
    return _verdict(
        "quasi_complete",
        second[worst],
        tol,
        witness={"worst_outcome": instrument.outcomes[worst], "worst_rank": rank},
    )


def joint_with_hamiltonian(
    observable: Observable, system_hamiltonian, tol: float = THEOREM_TOL
) -> Observable:
    """Joint observable of a thermal observable and the energy.

    For ``E`` commuting with ``H`` the joint observable with the spectral
    measure ``P`` of ``H`` is uniquely ``G_(x,m) = E_x P_m``. Outcomes are
    labeled ``"x|m"`` in x-major order; :func:`marginal_defect` measures how
    far its marginals are from ``E`` and ``P``.

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
    labels = tuple(f"{x}|{m}" for x in observable.outcomes for m in energy.outcomes)
    d = observable.dim
    products = (observable.effects[:, None] @ energy.effects[None]).reshape(-1, d, d)
    names = tuple(f"joint effect {label}" for label in labels)
    return Observable(labels, _symmetrized(products, VALIDATION_TOL, names))


def marginal_defect(joint: Observable, observable: Observable, system_hamiltonian) -> float:
    """Worst distance of a marginal of an x-major joint observable from its target.

    Summing ``G_(x,m)`` over energies must give ``E_x``, and summing over
    outcomes must give the spectral projector ``P_m`` of the Hamiltonian.
    """
    energy = spectral_observable(system_hamiltonian)
    grid = joint.effects.reshape(observable.n_outcomes, *energy.effects.shape)
    gaps = [grid.sum(axis=1) - observable.effects, grid.sum(axis=0) - energy.effects]
    return float(frobenius_each(np.concatenate(gaps)).max())


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
    back as ``<m|E_x|m>``, and ``reconstruction_defect`` is the worst distance
    of an effect from ``sum_m p(x|m) P_m``. Degenerate spectra are refused
    (the decomposition is not unique there).
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
    weights = np.einsum("xij,mji->xm", observable.effects, decomp.projectors).real
    rebuilt = np.tensordot(weights, decomp.projectors, axes=1)
    return PostProcessing(
        matrix=weights,
        outcomes=observable.outcomes,
        energies=decomp.eigenvalues,
        reconstruction_defect=float(frobenius_each(rebuilt - observable.effects).max()),
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
    evals, vecs = np.linalg.eigh(observable.effects)
    kept = evals > SUPPORT_TOL
    columns = vecs.swapaxes(1, 2)[kept]  # the kept eigenvectors, (pieces, d)
    effects = evals[kept][:, None, None] * (columns[:, :, None] * columns[:, None, :].conj())
    counts = kept.sum(axis=1)
    relabel = {f"{y}:{i}": y for y, count in zip(observable.outcomes, counts) for i in range(count)}
    return Observable(list(relabel), effects), relabel
