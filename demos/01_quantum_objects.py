"""Tour of the core objects: states, observables, channels, instruments.

Run with: python demos/01_quantum_objects.py
"""

import numpy as np

import thermomeas as tm

# --- states -----------------------------------------------------------------
# Density operators are validated on construction: Hermitian, positive, unit trace.
rho = tm.State(np.array([[0.7, 0.2], [0.2, 0.3]], dtype=complex))
print("state:", rho, " entropy =", tm.von_neumann_entropy(rho))

try:
    tm.State(np.diag([1.5, -0.5]))
except tm.ValidationError as err:
    print("rejected invalid state:", err)

# --- Gibbs states -----------------------------------------------------------
H = np.diag([0.0, 1.0]).astype(complex)
for beta in (0.2, 1.0, 5.0):
    tau = tm.gibbs_state(H, beta)
    print(f"gibbs(beta={beta}): populations = {np.diag(tau.matrix).real.round(4)}")

# --- observables ------------------------------------------------------------
# A POVM is a labeled family of effects summing to the identity.
energy = tm.spectral_observable(H)
print("energy observable:", energy, "sharp?", energy.is_sharp())

unsharp = tm.Observable(["dim", "bright"], [np.diag([0.8, 0.3]), np.diag([0.2, 0.7])])
print("unsharp observable trivial?", unsharp.is_trivial(), "sharp?", unsharp.is_sharp())
print("Born probabilities in rho:", unsharp.probabilities(rho).round(4))

# --- channels ---------------------------------------------------------------
# Kraus form; bistochasticity = trace preserving + unital.
swap = tm.swap_channel(2)
print("swap bistochastic?", tm.is_bistochastic(swap).verdict)

gamma = 0.3
damping = tm.KrausChannel(
    [
        np.array([[1, 0], [0, np.sqrt(1 - gamma)]], dtype=complex),
        np.array([[0, np.sqrt(gamma)], [0, 0]], dtype=complex),
    ]
)
report = tm.is_bistochastic(damping)
print(f"damping bistochastic? {report.verdict} (unital defect {report.unital_defect:.3f})")

# --- instruments ------------------------------------------------------------
# An instrument resolves a channel into outcome-conditioned operations.
luders = tm.Instrument.luders(unsharp)
outputs = luders.apply(rho)
print("outcome probabilities:", [round(float(np.trace(o).real), 4) for o in outputs])
print("induced observable matches:", np.allclose(luders.induced_observable.effects[0],
                                                 unsharp.effects[0]))

# --- Choi matrices ----------------------------------------------------------
# The Choi of the identity is the unnormalized maximally entangled projector.
choi = tm.choi_of_operation([np.eye(2)])
print("identity Choi rank:", choi.rank(), "(one Kraus operator suffices)")
choi_luders = tm.choi_of_operation(luders.kraus_sets[0])
print("Lueders outcome Choi rank:", choi_luders.rank())
