"""Independent reference computations the library code must reproduce.

These deliberately avoid the package's Kraus code paths: the joint state is
evolved by an explicit sum over the interaction's Kraus operators, the
instrument action is evaluated from its defining formula on the joint
space, the dilation relative entropy is evaluated on explicitly built
block-diagonal matrices, and the covariance defect is the commutator of
explicit Kronecker-product superoperators.
"""

import numpy as np

from thermomeas.linalg import as_matrix, partial_trace, relative_entropy


def evolved_joint_state(scheme, rho):
    """``E(rho (x) xi) = sum_M M (rho (x) xi) M†`` with plain matrix products."""
    joint = np.kron(as_matrix(rho), scheme.probe_state.matrix)
    return sum(m @ joint @ m.conj().T for m in scheme.interaction.kraus)


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
