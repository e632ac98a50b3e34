"""Thermodynamically free measurement schemes and the instruments they induce.

A scheme is free when the probe starts in a Gibbs state, the interaction is
bistochastic and conserves the total additive Hamiltonian, and the pointer
commutes with the probe Hamiltonian. Run: python demos/02_free_schemes.py
"""

import numpy as np

import thermomeas as tm
from thermomeas.sampling import random_commuting_povm, random_density_matrix, rng_from_seed

H = np.diag([0.0, 1.0]).astype(complex)
BETA = 1.0
rng = rng_from_seed(1)

# --- the swap construction ----------------------------------------------------
# Any observable commuting with H admits a free scheme: probe = copy of the
# system, interaction = unitary swap, pointer = the observable itself.
observable = random_commuting_povm(H, 3, rng)
swap_scheme = tm.trivial_scheme(observable, H, BETA)
print("swap scheme report:", tm.validate_free_scheme(swap_scheme).to_dict())

# Its instrument thermalises: every output is tr[E_x rho] * tau_beta.
instrument = tm.induced_instrument(swap_scheme)
rho = random_density_matrix(2, rng)
tau = tm.gibbs_state(H, BETA)
p = observable.probabilities(rho)
for x, out in zip(instrument.outcomes, instrument.apply(rho)):
    defect = np.linalg.norm(out - p[instrument.outcomes.index(x)] * tau.matrix)
    print(f"  outcome {x}: ||I_x(rho) - p tau|| = {defect:.2e}")

# A noncommuting observable has no free scheme at all:
plus = np.full((2, 2), 0.5, dtype=complex)
minus = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)
try:
    tm.trivial_scheme(tm.Observable(["p", "m"], [plus, minus]), H, BETA)
except tm.PreconditionError as err:
    print("x-basis rejected:", err)

# --- nontrivial free interactions ---------------------------------------------
# On a resonant pair the total spectrum {0, 1, 1, 2} has a degenerate block,
# so energy-conserving unitaries can do more than attach phases. The generator
# mixes Haar-random block unitaries; everything follows from the seed.
pointer = tm.spectral_observable(H)
scheme = tm.random_free_scheme(H, H, BETA, pointer, seed=7, mixture_size=3)
print("\nrandom scheme report:", tm.validate_free_scheme(scheme).to_dict())

induced = tm.induced_instrument(scheme)
E = induced.induced_observable
print("induced observable triviality defect:", round(E.triviality_defect(), 4))
print("induced effects commute with H:", tm.commutator_defect(E.effects, H).max() < 1e-10)

# Gibbs preservation in action:
for x, out in zip(induced.outcomes, induced.apply(tau)):
    q = E.probabilities(tau)[induced.outcomes.index(x)]
    print(f"  I_{x}(tau) vs q tau: {np.linalg.norm(out - q * tau.matrix):.2e}")

# --- the conjugate channel ------------------------------------------------------
# What the probe looks like after the interaction; at equilibrium nothing moves.
conjugate = tm.conjugate_channel(scheme)
print("probe after equilibrium input stays Gibbs:",
      np.linalg.norm(conjugate.apply(tau) - scheme.probe_state.matrix) < 1e-9)

# Energy moments are conserved to machine precision:
h_total = scheme.total_hamiltonian()
print("moment defects k=1..4:",
      [f"{tm.energy_moment_defect(scheme.interaction, h_total, k):.1e}" for k in (1, 2, 3, 4)])
