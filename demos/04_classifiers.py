"""Structural classifiers: what free measurements can and cannot look like.

Run: python demos/04_classifiers.py
"""

import numpy as np

import thermomeas as tm
from thermomeas.sampling import random_commuting_povm, random_povm, rng_from_seed

H = np.diag([0.0, 1.0]).astype(complex)
H3 = np.diag([0.0, 0.7, 1.9]).astype(complex)
BETA = 1.0
rng = rng_from_seed(0)

# --- observables: thermal iff commuting with H ---------------------------------
energy = tm.spectral_observable(H)
plus = np.full((2, 2), 0.5, dtype=complex)
minus = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
x_basis = tm.Observable(["p", "m"], [plus, minus])

print("energy basis thermal?", tm.is_thermal_observable(energy, H)["verdict"])
row = tm.is_thermal_observable(x_basis, H)
print(f"x basis thermal? {row['verdict']} (commutator defect {row['defect']:.3f})")

# --- instruments: necessary conditions ------------------------------------------
# The eigenbasis collapse instrument is covariant yet not Gibbs-preserving,
# so it is covariant but NOT thermal: a witness separating the two classes.
luders = tm.Instrument.luders(energy)
print("\ncollapse instrument:")
print("  covariant?        ", tm.is_covariant_instrument(luders, H)["verdict"])
print("  Gibbs-preserving? ", tm.is_gibbs_preserving(luders, H, BETA)["verdict"])
print("  quasi-complete?   ", tm.is_quasi_complete(luders)["verdict"])

# A free scheme's instrument passes both necessary conditions:
scheme = tm.random_free_scheme(tm.SchemeFrame(H, H, BETA, energy), seed=5, mixture_size=2)
instrument = scheme.instrument  # the induced instrument, kept by the scheme
print("\nfree-scheme instrument:")
print("  covariant?        ", tm.is_covariant_instrument(instrument, H)["verdict"])
print("  Gibbs-preserving? ", tm.is_gibbs_preserving(instrument, H, BETA)["verdict"])

# --- nuclear instruments: state preparation has a price --------------------------
# Nuclear + thermal forces every prepared state to be the Gibbs state.
observable = random_commuting_povm(H, 2, rng)
thermalising = tm.trivial_scheme(observable, H, BETA).instrument
tau = tm.gibbs_state(H, BETA)
print("\nswap-scheme instrument nuclear?", tm.is_nuclear(thermalising)["verdict"])
# each outcome prepares sigma_x = I_x(tau) / q_x; Prop. 2 says it is tau
q = thermalising.induced_observable.probabilities(tau)
for label, q_x, output in zip(thermalising.outcomes, q, thermalising.apply(tau)):
    print(f"  sigma_{label} vs tau: {np.linalg.norm(output / q_x - tau.matrix):.2e}")
print("prop2 verdict:", tm.check_prop2(thermalising, H, BETA)["verdict"])

# --- energy compatibility ---------------------------------------------------------
# Thermal observables are jointly measurable with the energy...
joint = tm.joint_with_hamiltonian(observable, H)
print("\njoint observable outcomes:", list(joint.outcomes))

# ...and over a nondegenerate spectrum they are classical post-processings of it.
post = tm.post_processing_decomposition(observable, H)
print("post-processing weights p(x|m):")
print(np.round(post["matrix"], 4))

# --- refinement: every POVM sits above a rank-1 one -------------------------------
coarse = random_povm(3, 2, rng)
refined, relabel = tm.refine_to_rank_one(coarse)
print(f"\nrefined {coarse.n_outcomes} outcomes into {refined.n_outcomes} rank-1 effects")
print("refined observable rank-1?", refined.is_rank_one())
# Instruments measuring a rank-1 observable are nuclear, so a free measurement
# of one necessarily thermalises the system (the information-disturbance trade-off).
print("Lueders of refined is nuclear?", tm.is_nuclear(tm.Instrument.luders(refined))["verdict"])
