"""Structural classifiers for observables and instruments.

Thermality of an instrument has no known finite decision procedure; what
this module provides are (a) the exact characterization for observables
(commutation with the Hamiltonian), and (b) necessary-condition batteries
for instruments: time-translation covariance, Gibbs preservation, and the
consequences forced on nuclear instruments. A failed necessary condition
certifies non-thermality; the classifiers never claim thermality of an
instrument from necessary conditions alone.

Every classifier returns the row its check prints: ``{"name", "verdict",
"defect", "tol", "witness"}``, where ``verdict`` is true exactly when
``defect <= tol`` and ``witness`` holds JSON diagnostics such as the worst
outcome label.
"""

from __future__ import annotations

import numpy as np

from .errors import PreconditionError
from .linalg import (
    PROBABILITY_CUTOFF,
    SUPPORT_TOL,
    THEOREM_TOL,
    _require_dimension,
    as_matrix,
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


def _worst_row(name: str, defects, labels, tol: float, **witness) -> dict:
    """The row of check ``name``, judged on the worst of the per-outcome ``defects``: its
    verdict at ``tol``, and a witness of that outcome's label and then ``witness``."""
    worst = int(np.argmax(defects))  # the first outcome when every entry is 0
    defect = float(defects[worst])
    return {
        "name": name,
        "verdict": bool(defect <= tol),
        "defect": defect,
        "tol": tol,
        "witness": {"worst_outcome": labels[worst], **witness},
    }


def is_thermal_observable(
    observable: Observable, system_hamiltonian, tol: float = THEOREM_TOL
) -> dict:
    """Observable thermality test: commutation of every effect with the Hamiltonian.

    Commutation is equivalent to time-translation invariance, which is both
    necessary (covariance of any implementing thermal instrument) and
    sufficient (the swap scheme of :func:`thermomeas.schemes.trivial_scheme`
    is a constructive certificate).
    """
    h = require_hermitian(system_hamiltonian, name="system Hamiltonian")
    _require_dimension(observable.dim, "observable", Hamiltonian=h)
    defects = commutator_defect(observable.effects, h)
    return _worst_row("thermal_observable", defects, observable.outcomes, tol)


def _require_thermal(observable: Observable, system_hamiltonian, tol: float, why: str = "") -> None:
    """Refuse an observable that :func:`is_thermal_observable` fails at ``tol``,
    ending the message with ``why``."""
    thermal = is_thermal_observable(observable, system_hamiltonian, tol)
    if not thermal["verdict"]:
        raise PreconditionError(
            f"observable does not commute with the Hamiltonian "
            f"(defect {thermal['defect']:.3e} > {tol:.1e}){why}"
        )


def is_covariant_instrument(
    instrument: Instrument, system_hamiltonian, tol: float = THEOREM_TOL
) -> dict:
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
    _require_dimension(d, "instrument", Hamiltonian=h)
    energies, basis = np.linalg.eigh(h)
    rotation = np.kron(basis, basis.conj())
    bohr = (energies[:, None] - energies[None, :]).reshape(-1)
    mask = bohr[:, None] - bohr[None, :]
    weighted = (dag(rotation) @ instrument.choi @ rotation) * mask
    defects = frobenius_each(weighted)

    rng = rng_from_seed(20100526)  # fixed: the cross-check must be deterministic
    probes = random_density_matrix_stacks(d, 3, [rng])[0]
    times = np.array(COVARIANCE_SAMPLE_TIMES)[:, None, None]
    evolutions = ((basis * np.exp(-1j * times * energies)) @ dag(basis))[:, None]
    rotated = evolutions @ probes @ dag(evolutions)  # (time, probe, d, d)
    outs = instrument.apply(np.concatenate([probes[None], rotated]))
    plain, moved = outs[:, :1], outs[:, 1:]
    sampled = float(frobenius_each(moved - evolutions @ plain @ dag(evolutions)).max())
    return _worst_row(
        "covariant", defects, instrument.outcomes, tol,
        sampled_time_defect=sampled, sample_times=list(COVARIANCE_SAMPLE_TIMES),
    )


def _gibbs_defects(instrument: Instrument, system_hamiltonian, beta: float) -> tuple:
    """``(tau, q, defects)``: the Gibbs state, each outcome's ``q_x = tr[E_x tau]`` and
    its defect ``||I_x(tau) - q_x tau||_F``."""
    h = as_matrix(system_hamiltonian)
    _require_dimension(instrument.dim, "instrument", Hamiltonian=h)
    tau = gibbs_state(h, beta).matrix
    q = instrument.induced_observable.probabilities(tau)
    return tau, q, frobenius_each(instrument.apply(tau) - q[:, None, None] * tau)


def is_gibbs_preserving(
    instrument: Instrument, system_hamiltonian, beta: float, tol: float = THEOREM_TOL
) -> dict:
    """Check ``I_x(tau) = tr[E_x tau] tau`` for every outcome.

    All thermal instruments satisfy this, so a false verdict certifies that
    the instrument admits no thermodynamically free implementation at this
    temperature.
    """
    _, _, defects = _gibbs_defects(instrument, system_hamiltonian, beta)
    return _worst_row("gibbs_preserving", defects, instrument.outcomes, tol)


def _nuclear_factors(instrument: Instrument):
    """Each operation's best factorization as ``rho -> tr[E_x rho] sigma_x``.

    Checked in Choi form: the operation is nuclear exactly when its Choi
    matrix is ``sigma_x (x) transpose(E_x)``. The candidate ``sigma_x`` is
    the output-side partial trace of the Choi divided by ``tr[E_x]``. Null
    effects carry no constraint and are skipped; a validated observable's
    traces sum to the dimension, so some effect is always live. Returns the
    live outcomes' labels, their ``(n, d, d)`` candidates ``sigma_x`` and
    their Choi residuals.
    """
    effects = instrument.induced_observable.effects
    d = instrument.dim
    weights = np.trace(effects, axis1=1, axis2=2).real
    live = weights > PROBABILITY_CUTOFF
    choi = instrument.choi[live]
    sigmas = np.einsum("xiaja->xij", choi.reshape(-1, d, d, d, d)) / weights[live, None, None]
    products = sigmas[:, :, None, :, None] * effects[live].swapaxes(1, 2)[:, None, :, None, :]
    residuals = frobenius_each(choi - products.reshape(choi.shape))
    labels = [label for label, kept in zip(instrument.outcomes, live) if kept]
    return labels, sigmas, residuals


def is_nuclear(instrument: Instrument, tol: float = THEOREM_TOL) -> dict:
    """Test whether every operation factorizes as ``rho -> tr[E_x rho] sigma_x``.

    The defect is the worst Choi factorization residual of
    :func:`_nuclear_factors`.
    """
    labels, _, residuals = _nuclear_factors(instrument)
    return _worst_row("nuclear", residuals, labels, tol)


def check_prop2(
    instrument: Instrument, system_hamiltonian, beta: float, tol: float = THEOREM_TOL
) -> dict:
    """Nuclear + Gibbs-preserving instruments must thermalise: ``sigma_x = tau``.

    Preconditions (the testable necessary conditions standing in for
    thermality) are enforced: the instrument must pass both
    :func:`is_nuclear` and :func:`is_gibbs_preserving`. The verdict then
    reports whether every recovered output state is the Gibbs state. Each
    ``||sigma_x - tau||_F`` is weighted by ``q_x = tr[E_x tau]``, as in the
    Gibbs-preservation defect, so that premises passing at ``tol`` are not
    followed by a conclusion that fails at ``tol`` for an unlikely outcome.
    """
    labels, sigmas, residuals = _nuclear_factors(instrument)
    residual = residuals.max()
    tau, q, gibbs = _gibbs_defects(instrument, system_hamiltonian, beta)
    if not residual <= tol:
        raise PreconditionError(f"instrument is not nuclear (residual {residual:.3e} > {tol:.1e})")
    if not gibbs.max() <= tol:
        raise PreconditionError(
            f"instrument is not Gibbs-preserving (defect {gibbs.max():.3e} > {tol:.1e})"
        )
    q = dict(zip(instrument.outcomes, q))
    defects = np.array([q[label] for label in labels]) * frobenius_each(sigmas - tau)
    return _worst_row("prop2", defects, labels, tol, n_outcomes_tested=len(labels))


def is_quasi_complete(instrument: Instrument, tol: float = THEOREM_TOL) -> dict:
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
    worst = int(np.argmax(second))
    rank = int(np.sum(evals[worst] > tol)) if second[worst] > 0.0 else 0
    return _worst_row("quasi_complete", second, instrument.outcomes, tol, worst_rank=rank)


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
    _require_thermal(observable, system_hamiltonian, tol, "; no unique joint observable")
    energy = spectral_observable(system_hamiltonian)
    labels = tuple(f"{x}|{m}" for x in observable.outcomes for m in energy.outcomes)
    products = observable.effects[:, None] @ energy.effects[None]
    return Observable(labels, products.reshape(-1, observable.dim, observable.dim))


def marginal_defect(joint: Observable, observable: Observable, system_hamiltonian) -> float:
    """Worst distance of a marginal of an x-major joint observable from its target.

    Summing ``G_(x,m)`` over energies must give ``E_x``, and summing over
    outcomes must give the spectral projector ``P_m`` of the Hamiltonian.
    """
    h = as_matrix(system_hamiltonian)
    _require_dimension(observable.dim, "observable", joint=joint.effects, Hamiltonian=h)
    energy = spectral_observable(h)
    grid = joint.effects.reshape(observable.n_outcomes, *energy.effects.shape)
    gaps = [grid.sum(axis=1) - observable.effects, grid.sum(axis=0) - energy.effects]
    return float(frobenius_each(np.concatenate(gaps)).max())


def post_processing_decomposition(
    observable: Observable, system_hamiltonian, tol: float = THEOREM_TOL
) -> dict:
    """Diagonal weights of a thermal observable over a nondegenerate spectrum.

    With rank-1 spectral projections ``P_m``, every effect of an observable
    commuting with ``H`` is ``E_x = sum_m p(x|m) P_m``; the weights are read
    back as ``<m|E_x|m>`` into ``matrix`` (rows are outcomes, columns are the
    ascending ``energies``), and ``reconstruction_defect`` is the worst
    distance of an effect from ``sum_m p(x|m) P_m``. Each column sums to one
    and each entry lies in [0, 1], within the observable's validation
    tolerance. Degenerate spectra are refused (the decomposition is not
    unique there).
    """
    _require_thermal(observable, system_hamiltonian, tol)
    energies, projectors = eig_hermitian(system_hamiltonian)
    if len(energies) < len(projectors[0]):
        multiplicities = tuple(round(m) for m in np.trace(projectors, axis1=1, axis2=2).real)
        raise PreconditionError(
            f"Hamiltonian spectrum is degenerate (multiplicities {multiplicities}); "
            "the post-processing decomposition is not unique"
        )
    weights = np.einsum("xij,mji->xm", observable.effects, projectors).real
    rebuilt = np.tensordot(weights, projectors, axes=1)
    defect = float(frobenius_each(rebuilt - observable.effects).max())
    return {
        "verdict": defect <= tol,
        "reconstruction_defect": defect,
        "matrix": weights.tolist(),
        "energies": energies.tolist(),
        "tol": tol,
    }


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
