"""Independent reference computations the library code must reproduce.

These deliberately avoid the package's Kraus code paths: the joint state is
evolved by an explicit sum over the interaction's Kraus operators, the dual
action is one three-operand contraction, the instrument action is evaluated
from its defining formula on the joint space, the dilation relative entropy
is evaluated on explicitly built block-diagonal matrices, and the covariance
defect is the commutator of explicit Kronecker-product superoperators. The
per-effect references at the end loop over effects and energy projectors one
matrix at a time, as the library did before it held them as stacks; the
per-outcome instrument references after them take one operation at a time,
from its Kraus operators and its defining action. The free-interaction
reference draws one block unitary at a time, by its own QR, and sums each
mixture term over the energy blocks, as the library did before it drew
them in one batch. The sweep-row reference reads a grid point's row off
the check results of that point run alone, as the sweep did before it read
its rows off a chunk's stacked arrays.
"""

import numpy as np

from thermomeas.linalg import (
    CLUSTER_TOL,
    SUPPORT_TOL,
    as_matrix,
    cluster_indices,
    partial_trace,
    relative_entropy,
)


def evolved_joint_state(scheme, rho):
    """``E(rho (x) xi) = sum_M M (rho (x) xi) M†`` with plain matrix products."""
    joint = np.kron(as_matrix(rho), scheme.probe_state.matrix)
    return sum(m @ joint @ m.conj().T for m in scheme.interaction.kraus)


def dual_action(kraus, a):
    """``sum K† A K`` as one three-operand contraction.

    For a diagonal ``A`` every product ``conj(K) A`` is exact, so the
    round-off is that of the sum over k and b alone, in the order this
    contraction takes it; that sum is what the benchmark's reference outputs
    pin, and ``KrausChannel.apply_dual`` must keep it.
    """
    ks = np.asarray(kraus)
    return np.einsum("kai,ab,kbj->ij", ks.conj(), np.asarray(a), ks)


def direct_instrument_action(scheme, rho):
    """Evaluate ``tr_probe[(1 (x) Z_x) E(rho (x) xi)]`` literally, per outcome."""
    evolved = evolved_joint_state(scheme, rho)
    dims = (scheme.dim_system, scheme.dim_probe)
    outs = []
    for z in scheme.pointer.effects:
        big = np.kron(np.eye(scheme.dim_system), z)
        outs.append(partial_trace(big @ evolved, dims, "system"))
    return outs


def direct_probe_state(scheme, rho):
    """Evaluate ``tr_system[E(rho (x) xi)]`` literally."""
    evolved = evolved_joint_state(scheme, rho)
    return partial_trace(evolved, (scheme.dim_system, scheme.dim_probe), "probe")


def dilation_relative_entropy(outputs, gibbs_probs, tau):
    """Relative entropy through the classical-register dilation.

    Builds the block-diagonal states ``sum_x I_x(rho) (x) |x><x|`` and
    ``sum_x q_x tau (x) |x><x|`` explicitly and evaluates the quantum
    relative entropy between them.
    """
    n = len(outputs)
    tau = as_matrix(tau)
    big_rho = np.zeros((tau.shape[0] * n, tau.shape[0] * n), dtype=complex)
    big_tau = np.zeros_like(big_rho)
    for x, (out, qx) in enumerate(zip(outputs, gibbs_probs)):
        unit = np.zeros((n, n), dtype=complex)
        unit[x, x] = 1.0
        big_rho += np.kron(out, unit)
        big_tau += np.kron(qx * tau, unit)
    return relative_entropy(big_rho, big_tau)


def liouville_covariance_defect(kraus, hamiltonian):
    """``||[S, L]||_F`` for ``S = sum_K K (x) conj(K)`` and ``L = -i (H (x) 1 - 1 (x) H^T)``.

    ``S`` is the operation ``rho -> sum K rho K†`` and ``L`` the derivation
    ``rho -> -i [H, rho]``, both on row-major vectorized operators; they
    commute exactly when the operation is covariant at all times.
    """
    h = as_matrix(hamiltonian)
    eye = np.eye(h.shape[0])
    sup = sum(np.kron(k, k.conj()) for k in kraus)
    derivation = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    return float(np.linalg.norm(sup @ derivation - derivation @ sup))


# ---------------------------------------------------------------------------
# Per-effect references: one matrix at a time, plain loops
# ---------------------------------------------------------------------------


def spectral_projectors(hamiltonian):
    """Projectors of the clustered eigenvalues of ``H``, grown one eigenvector at a time."""
    h = as_matrix(hamiltonian)
    evals, vecs = np.linalg.eigh((h + h.conj().T) / 2)
    thresh = CLUSTER_TOL * max(float(evals[-1] - evals[0]), 1.0)
    projectors = []
    for i in range(len(evals)):
        piece = np.outer(vecs[:, i], vecs[:, i].conj())
        if i > 0 and evals[i] - evals[i - 1] <= thresh:
            projectors[-1] = projectors[-1] + piece
        else:
            projectors.append(piece)
    return projectors


def commuting_povm_effects(hamiltonian, n_outcomes, rng):
    """Effects ``sum_m p(x|m) P_m`` with one simplex draw per energy level, in level order."""
    projectors = spectral_projectors(hamiltonian)
    d = projectors[0].shape[0]
    effects = [np.zeros((d, d), dtype=complex) for _ in range(n_outcomes)]
    for p in projectors:
        weights = rng.dirichlet(np.ones(n_outcomes))
        for x in range(n_outcomes):
            effects[x] = effects[x] + weights[x] * p
    return effects


def probabilities(effects, rho):
    return [float(np.trace(e @ rho).real) for e in effects]


def sharpness_defect(effects):
    worst = 0.0
    for i, a in enumerate(effects):
        for j, b in enumerate(effects):
            target = a if i == j else 0.0
            worst = max(worst, float(np.linalg.norm(a @ b - target)))
    return worst


def triviality_defect(effects):
    d = effects[0].shape[0]
    return max(float(np.linalg.norm(e - np.trace(e).real / d * np.eye(d))) for e in effects)


def is_rank_one(effects):
    return all(int(np.sum(np.linalg.eigvalsh(e) > SUPPORT_TOL)) <= 1 for e in effects)


def commutator_defects(effects, hamiltonian):
    h = as_matrix(hamiltonian)
    return [float(np.linalg.norm(e @ h - h @ e)) for e in effects]


def joint_effects(effects, projectors):
    """``E_x P_m`` in x-major order, each as its Hermitian part ``(E_x P_m + P_m E_x) / 2``.

    An effect that commutes with ``H`` only to within the thermal tolerance
    leaves ``E_x P_m`` off Hermitian by half its commutator, which no effect can be.
    """
    return [(e @ p + p @ e) / 2 for e in effects for p in projectors]


def marginal_defect(joint, effects, projectors):
    """Worst distance of the two marginals of an x-major joint family from ``E`` and ``P``."""
    n_m = len(projectors)
    defect = 0.0
    for i, e in enumerate(effects):
        marginal = sum(joint[i * n_m + j] for j in range(n_m))
        defect = max(defect, float(np.linalg.norm(marginal - e)))
    for j, p in enumerate(projectors):
        marginal = sum(joint[i * n_m + j] for i in range(len(effects)))
        defect = max(defect, float(np.linalg.norm(marginal - p)))
    return defect


def post_processing(effects, projectors):
    """Weights ``tr[E_x P_m]`` and the worst distance of ``E_x`` from ``sum_m w_xm P_m``."""
    weights = [[float(np.trace(e @ p).real) for p in projectors] for e in effects]
    defect = 0.0
    for e, row in zip(effects, weights):
        rebuilt = sum(w * p for w, p in zip(row, projectors))
        defect = max(defect, float(np.linalg.norm(rebuilt - e)))
    return weights, defect


def rank_one_refinement(outcomes, effects):
    """Labels ``"y:i"`` and pieces ``lambda |v><v|`` of the eigenvalues above ``SUPPORT_TOL``."""
    labels, pieces = [], []
    for y, e in zip(outcomes, effects):
        evals, vecs = np.linalg.eigh(e)
        kept = 0
        for lam, v in zip(evals, vecs.T):
            if lam > SUPPORT_TOL:
                labels.append(f"{y}:{kept}")
                pieces.append(lam * np.outer(v, v.conj()))
                kept += 1
    return labels, pieces


def coarse_grain_defect(outcomes, effects, refined_labels, refined_effects):
    """Worst distance of an effect from the sum of its refinement's pieces."""
    defect = 0.0
    for y, original in zip(outcomes, effects):
        coarse = sum(
            e for label, e in zip(refined_labels, refined_effects) if label.rpartition(":")[0] == y
        )
        defect = max(defect, float(np.linalg.norm(coarse - original)))
    return defect


# ---------------------------------------------------------------------------
# Per-outcome instrument references: one operation at a time, plain loops
# ---------------------------------------------------------------------------


def operation(kraus, rho):
    """``sum K rho K†`` over one outcome's Kraus operators."""
    return sum(k @ rho @ k.conj().T for k in kraus)


def operation_effect(kraus):
    """``sum K† K`` over one outcome's Kraus operators."""
    return sum(k.conj().T @ k for k in kraus)


def operation_choi(kraus):
    """``sum_ij I_x(|i><j|) (x) |i><j|`` built from the defining action."""
    d = kraus[0].shape[1]
    choi = 0.0
    for i in range(d):
        for j in range(d):
            unit = np.zeros((d, d), dtype=complex)
            unit[i, j] = 1.0
            choi = choi + np.kron(operation(kraus, unit), unit)
    return choi


def covariance_choi_defects(instrument, hamiltonian):
    """Per outcome, ``||C_x * (w_ai - w_bj)||_F``, ``C_x`` its Choi in the eigenbasis of ``H``."""
    energies, basis = np.linalg.eigh(as_matrix(hamiltonian))
    rotation = np.kron(basis, basis.conj())
    defects = []
    for kraus in instrument.kraus_sets:
        rotated = rotation.conj().T @ operation_choi(kraus) @ rotation
        d = len(energies)
        weighted = np.zeros_like(rotated)
        for a in range(d):
            for i in range(d):
                for b in range(d):
                    for j in range(d):
                        gap = (energies[a] - energies[i]) - (energies[b] - energies[j])
                        weighted[a * d + i, b * d + j] = rotated[a * d + i, b * d + j] * gap
        defects.append(float(np.linalg.norm(weighted)))
    return defects


def sampled_covariance_defect(instrument, hamiltonian, times, probes):
    """Worst ``||I_x(U rho U†) - U I_x(rho) U†||_F`` over outcomes, times and probes."""
    h = as_matrix(hamiltonian)
    energies, basis = np.linalg.eigh(h)
    worst = 0.0
    for kraus in instrument.kraus_sets:
        for t in times:
            u = basis @ np.diag(np.exp(-1j * t * energies)) @ basis.conj().T
            for rho in probes:
                moved = operation(kraus, u @ rho @ u.conj().T)
                gap = moved - u @ operation(kraus, rho) @ u.conj().T
                worst = max(worst, float(np.linalg.norm(gap)))
    return worst


def gibbs_preservation_defects(instrument, tau):
    """Per outcome, ``||I_x(tau) - tr[E_x tau] tau||_F``."""
    tau = as_matrix(tau)
    return [
        float(np.linalg.norm(operation(k, tau) - np.trace(operation_effect(k) @ tau).real * tau))
        for k in instrument.kraus_sets
    ]


def nuclear_factors(instrument, cutoff):
    """Per outcome with ``tr[E_x] > cutoff``: ``sigma_x`` and ``||C_x - sigma_x (x) E_x^T||_F``.

    ``sigma_x`` is the Choi traced over its input factor, divided by ``tr[E_x]``.
    """
    d = instrument.dim
    sigmas, residuals = {}, {}
    for label, kraus in zip(instrument.outcomes, instrument.kraus_sets):
        effect = operation_effect(kraus)
        weight = float(np.trace(effect).real)
        if weight <= cutoff:
            continue
        choi = operation_choi(kraus)
        sigmas[label] = partial_trace(choi, (d, d), "system") / weight
        residuals[label] = float(np.linalg.norm(choi - np.kron(sigmas[label], effect.T)))
    return sigmas, residuals


def haar_unitary_by_qr(dim, rng):
    """One Haar unitary: phase-fixed QR of one Ginibre draw, real parts first."""
    g = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(g)
    phases = np.diagonal(r).copy()
    phases /= np.abs(phases)
    return q * phases


def blockwise_free_kraus(h_system, h_probe, seed, mixture_size):
    """The Kraus stack ``random_free_scheme`` draws, one block unitary at a time.

    Each mixture term sums ``basis @ U_b @ basis†`` over the degenerate
    eigenspaces of the total Hamiltonian, drawing ``U_b`` term by term and
    block by block; the mixture weights are drawn last.
    """
    d_s, d_a = len(h_system), len(h_probe)
    h_total = np.kron(h_system, np.eye(d_a)) + np.kron(np.eye(d_s), h_probe)
    evals, vecs = np.linalg.eigh(h_total)
    blocks = [vecs[:, idx] for idx in cluster_indices(evals)]
    rng = np.random.default_rng(seed)
    unitaries = []
    for _ in range(mixture_size):
        u = np.zeros((d_s * d_a, d_s * d_a), dtype=complex)
        for basis in blocks:
            u += basis @ haar_unitary_by_qr(basis.shape[1], rng) @ basis.conj().T
        unitaries.append(u)
    weights = rng.dirichlet(np.ones(mixture_size))
    return np.array([np.sqrt(w) * u for w, u in zip(weights, unitaries)])


#: The numeric columns of a sweep row: the worst state's work report, then its second-law slacks.
SWEEP_NUMBERS = (
    "extractable_work", "average_extractable_work", "outcome_divergence", "heat",
    "groenewold_gain", "prop1_slack", "eq5_identity_defect", "eq5_bound_slack",
    "heat_bound_slack",
)


def sweep_row(axis_name, value, report):
    """The CSV cells, as text, of the grid point with axis value ``value`` run alone.

    ``report`` is the point's ``run_scenario`` report with the checks
    ``free_scheme`` and ``second_law``. The numbers are those of the state
    with the smallest ``prop1_slack``, the first one on a tie.
    """
    free, law = (
        next(check for check in report.checks if check["name"] == name)
        for name in ("free_scheme", "second_law")
    )
    worst = min(law["per_state"], key=lambda row: row["second_law"]["prop1_slack"])
    numbers = {**worst["work"], **worst["second_law"]}
    sc = report.scenario
    cells = [
        axis_name,
        repr(float(value)) if axis_name == "beta" else value,
        sc.seed,
        repr(float(sc.beta)),
        worst["state"],
        *(repr(float(numbers[column])) for column in SWEEP_NUMBERS),
        free["verdict"],
        law["verdict"],
    ]
    return [str(cell) for cell in cells]
