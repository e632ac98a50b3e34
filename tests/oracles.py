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
them in one batch. Both the projector and the free-interaction references
group eigenvalues into levels by one rule of their own, written out
eigenvector by eigenvector. The sweep-row reference reads a grid point's
row off the check results of that point run alone, as the sweep did before
it read its rows off a chunk's stacked arrays, and the worst freeness defect is
read off a ``free_scheme`` row. The work-row references compute the
extractable work ``D(rho || tau) / beta``, the outcome divergence ``D(p ||
q)``, and the average work and information gain of the conditional states
``rho_x = I_x(rho) / p_x``, each formed and summed over every outcome with
``p_x > 0``, at 50 significant digits with mpmath, from ``mp.eighe`` spectra
and exact Gibbs weights. The random diagonal Hamiltonian,
the partial trace and the spectral time evolution are test tools, kept
here because the library has no use for them.
"""

import numpy as np
from mpmath import mp

from thermomeas.errors import ValidationError
from thermomeas.linalg import (
    CLUSTER_TOL,
    PROBABILITY_CUTOFF,
    SUPPORT_TOL,
    as_matrix,
    dag,
    relative_entropy,
    require_hermitian,
)


def partial_trace(m, dims, keep) -> np.ndarray:
    """Trace out one factor of a bipartite operator.

    Parameters
    ----------
    m : matrix on the product space, dimension ``dims[0] * dims[1]``.
    dims : pair ``(d_system, d_probe)``.
    keep : ``"system"``/``0`` to keep the first factor, ``"probe"``/``1``
        to keep the second.
    """
    mat = as_matrix(m)
    d_s, d_a = int(dims[0]), int(dims[1])
    if mat.shape != (d_s * d_a, d_s * d_a):
        raise ValidationError(
            f"partial trace expected a {d_s * d_a} x {d_s * d_a} matrix for dims {dims}, "
            f"got shape {mat.shape}"
        )
    t = mat.reshape(d_s, d_a, d_s, d_a)
    tag = {0: 0, 1: 1, "system": 0, "probe": 1}.get(keep)
    if tag is None:
        raise ValidationError(f"keep must be 'system', 'probe', 0 or 1, got {keep!r}")
    if tag == 0:
        return np.einsum("iaja->ij", t)
    return np.einsum("iaib->ab", t)


def time_evolution(hamiltonian, t: float) -> np.ndarray:
    """Unitary ``exp(-i t H)`` computed spectrally."""
    h = require_hermitian(hamiltonian, name="hamiltonian")
    evals, vecs = np.linalg.eigh(h)
    return (vecs * np.exp(-1j * t * evals)) @ dag(vecs)


def evolved_joint_state(scheme, rho):
    """``E(rho (x) xi) = sum_M M (rho (x) xi) M†`` with plain matrix products."""
    joint = np.kron(as_matrix(rho), scheme.frame.probe_state.matrix)
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
    dims = (scheme.frame.dim_system, scheme.frame.dim_probe)
    outs = []
    for z in scheme.frame.pointer.effects:
        big = np.kron(np.eye(scheme.frame.dim_system), z)
        outs.append(partial_trace(big @ evolved, dims, "system"))
    return outs


def direct_probe_state(scheme, rho):
    """Evaluate ``tr_system[E(rho (x) xi)]`` literally."""
    evolved = evolved_joint_state(scheme, rho)
    return partial_trace(evolved, (scheme.frame.dim_system, scheme.frame.dim_probe), "probe")


def energy_changes(scheme, rho):
    """``(system_heat, probe_heat)`` of ``rho``, from the literal actions: the system's
    energy gain ``tr[H (sum_x I_x(rho) - rho)]`` and the probe's energy loss
    ``tr[H_a (xi - tr_S E(rho (x) xi))]``."""
    after = sum(direct_instrument_action(scheme, rho))
    system = np.trace(scheme.frame.system_hamiltonian @ (after - as_matrix(rho))).real
    probe_change = scheme.frame.probe_state.matrix - direct_probe_state(scheme, rho)
    return float(system), float(np.trace(scheme.frame.probe_hamiltonian @ probe_change).real)


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


#: Significant digits of the mpmath work-row references.
MP_DIGITS = 50


def _mp(m):
    return mp.matrix(as_matrix(m).tolist())


def _mp_gibbs(hamiltonian, beta):
    """Eigenvectors of ``hamiltonian`` and the Gibbs weights ``e^(-beta E_i)`` over
    their sum ``Z``, and ``ln Z``, for a caller at ``MP_DIGITS`` digits."""
    energies, vecs = mp.eighe(_mp(hamiltonian))
    boltzmann = [mp.exp(-mp.mpf(beta) * e) for e in energies]
    return vecs, boltzmann, mp.log(mp.fsum(boltzmann))


def _mp_entropy(r):
    """``S(r)`` of an mpmath density matrix, read off its ``mp.eighe`` spectrum (0 ln 0 := 0)."""
    return -mp.fsum(p * mp.log(p) for p in mp.eighe(r, eigvals_only=True) if p > 0)


def _mp_work(r, h, log_z, beta):
    """``D(r || tau) / beta = (-S(r) + beta tr[r H] + ln Z) / beta`` of an mpmath density
    matrix ``r``, given the mpmath Hamiltonian ``h`` and ``ln Z``."""
    energy = mp.re(mp.fsum(r[i, j] * h[j, i] for i in range(r.rows) for j in range(r.rows)))
    return (-_mp_entropy(r) + mp.mpf(beta) * energy + log_z) / beta


def mp_extractable_work(rho, hamiltonian, beta):
    """``D(rho || tau) / beta = (-S(rho) + beta tr[rho H] + ln Z) / beta`` at ``MP_DIGITS``
    digits, with ``S(rho)`` and ``ln Z`` read off ``mp.eighe`` spectra (0 ln 0 := 0)."""
    with mp.workdps(MP_DIGITS):
        return _mp_work(_mp(rho), _mp(hamiltonian), _mp_gibbs(hamiltonian, beta)[2], beta)


def _mp_conditional_states(kraus_sets, rho):
    """``(p_x, rho_x)`` of every outcome with ``p_x > 0``, the textbook way: ``I_x(rho) =
    sum_k K rho K^dag`` over the outcome's Kraus operators, ``p_x`` its trace and ``rho_x
    = I_x(rho) / p_x``, at the caller's mpmath precision."""
    r = _mp(rho)
    conditional = []
    for kraus in kraus_sets:
        out = mp.zeros(r.rows)
        for k in map(_mp, kraus):
            out += k * r * k.H
        p = mp.re(mp.fsum(out[i, i] for i in range(r.rows)))
        if p > 0:
            conditional.append((p, out / p))
    return conditional


def mp_average_extractable_work(kraus_sets, rho, hamiltonian, beta):
    """``sum_x p_x D(rho_x || tau) / beta`` at ``MP_DIGITS`` digits over every outcome with
    ``p_x > 0``, each ``D(rho_x || tau) / beta`` as :func:`mp_extractable_work` forms it."""
    with mp.workdps(MP_DIGITS):
        h, log_z = _mp(hamiltonian), _mp_gibbs(hamiltonian, beta)[2]
        conditional = _mp_conditional_states(kraus_sets, rho)
        return mp.fsum(p * _mp_work(r, h, log_z, beta) for p, r in conditional)


def mp_groenewold_gain(kraus_sets, rho):
    """``S(rho) - sum_x p_x S(rho_x)`` at ``MP_DIGITS`` digits over every outcome with
    ``p_x > 0``, each entropy read off an ``mp.eighe`` spectrum."""
    with mp.workdps(MP_DIGITS):
        conditional = _mp_conditional_states(kraus_sets, rho)
        return _mp_entropy(_mp(rho)) - mp.fsum(p * _mp_entropy(r) for p, r in conditional)


def mp_outcome_divergence(effects, rho, gibbs_effects, hamiltonian, beta):
    """``D(p || q) = sum_x p_x (ln p_x - ln q_x)`` at ``MP_DIGITS`` digits, over ``p_x`` above
    ``PROBABILITY_CUTOFF``: ``p_x = tr[E_x rho]`` of the ``effects``, and ``q_x = tr[F_x tau]``
    of the ``gibbs_effects`` in the Gibbs state of ``hamiltonian`` at ``beta``, summed over
    the positive diagonal entries of ``F_x`` in the energy eigenbasis with exact weights."""
    with mp.workdps(MP_DIGITS):
        r = _mp(rho)
        vecs, boltzmann, log_z = _mp_gibbs(hamiltonian, beta)
        total = mp.mpf(0)
        for e, f in zip(effects, gibbs_effects):
            p = mp.re(mp.fsum((_mp(e) * r)[i, i] for i in range(r.rows)))
            if p <= PROBABILITY_CUTOFF:
                continue
            in_basis = vecs.H * _mp(f) * vecs
            diagonal = [mp.re(in_basis[i, i]) for i in range(len(boltzmann))]
            q = mp.fsum(f_i * w for f_i, w in zip(diagonal, boltzmann) if f_i > 0)
            total += p * (mp.log(p) - (mp.log(q) - log_z))
        return total


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


def energy_levels(hamiltonian):
    """``(vecs, levels)``: the eigenvectors of ``H`` in ascending energy and the columns of
    each degenerate level, grown one eigenvector at a time.

    An eigenvector joins the level of the one before it when their eigenvalues differ
    by at most ``CLUSTER_TOL`` times the spread of the spectrum, or by at most the
    round-off ``16 d u max|E|`` of ``d`` eigenvalues if that is larger.
    """
    h = as_matrix(hamiltonian)
    evals, vecs = np.linalg.eigh((h + h.conj().T) / 2)
    spread = evals[-1] - evals[0]
    roundoff = 16 * len(evals) * np.finfo(float).eps * max(abs(evals[0]), abs(evals[-1]))
    levels = []
    for i in range(len(evals)):
        if i > 0 and evals[i] - evals[i - 1] <= max(CLUSTER_TOL * spread, roundoff):
            levels[-1].append(i)
        else:
            levels.append([i])
    return vecs, levels


def spectral_projectors(hamiltonian):
    """Projectors of the levels of ``H``, summed one eigenvector at a time."""
    vecs, levels = energy_levels(hamiltonian)
    return [sum(np.outer(vecs[:, i], vecs[:, i].conj()) for i in level) for level in levels]


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


def random_diagonal_hamiltonian(dim, rng):
    """Diagonal Hamiltonian with ascending energies drawn uniformly in [0, 2]."""
    return np.diag(np.sort(rng.uniform(0.0, 2.0, size=dim)).astype(complex))


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
    vecs, levels = energy_levels(h_total)
    blocks = [vecs[:, level] for level in levels]
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


def worst_defect(free) -> float:
    """The largest defect of a ``free_scheme`` row: bistochastic, any energy moment, Yanase."""
    moments = free["energy_conservation_defects"]
    return max(free["bistochastic_defect"], *moments, free["yanase_defect"])
