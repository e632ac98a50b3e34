"""Work, heat, and information for a measurement-and-feedback engine.

The punchline: with a thermodynamically free measurement, feedback never
beats the no-measurement baseline, and a demon measuring an equilibrium
state extracts exactly nothing. With an idealized (non-free) collapse
measurement the naive accounting shows heat fully converted to work.

Run: python demos/03_demon_work_accounting.py
"""

import numpy as np

import thermomeas as tm
from thermomeas.sampling import random_density_matrix_stacks, rng_from_seed

H = np.diag([0.0, 1.0]).astype(complex)
BETA = 1.0
tau = tm.gibbs_state(H, BETA)
energy = tm.spectral_observable(H)

# --- the textbook engine: eigenbasis collapse on an equilibrium state ---------
luders = tm.Instrument.luders(energy)
diag = tm.work_report(luders, tau, H, BETA)
q = energy.probabilities(tau)
print("collapse measurement on tau:")
print(f"  extractable work without measurement: {diag['extractable_work']:.6f}")
print(f"  average extractable work with feedback: {diag['average_extractable_work']:.6f}")
print(f"  Shannon entropy / beta: {-(q * np.log(q)).sum() / BETA:.6f}")
print("  -> heat converted to work, so this instrument cannot be free.\n")

# --- the same question for a free measurement ----------------------------------
scheme = tm.random_free_scheme(tm.SchemeFrame(H, H, BETA, energy), seed=11, mixture_size=3)
row = tm.second_law_report(scheme, tau)
print("free measurement on tau:")
print(f"  average extractable work: {row['work']['average_extractable_work']:.2e} (nothing)")
print(f"  verdict: {row['second_law']['verdict']}\n")

# Away from equilibrium the demon may extract work, but never more than the
# no-measurement benchmark minus the divergence penalty. The scheme is a batch
# of one point, so one audit takes its five states at once, as a (1, 5, 2, 2)
# stack, and applies each outcome to them once:
states = random_density_matrix_stacks(2, 5, [rng_from_seed(3)])
[rows] = tm.AuditBatch.of_schemes(scheme, states).second_law_rows(1e-8)
print("free measurement on random states (W >= D/beta + <W>):")
for row in rows:
    work, law = row["work"], row["second_law"]
    print(
        f"  W = {work['extractable_work']:.4f}  <W> = {work['average_extractable_work']:.4f}  "
        f"D/beta = {work['outcome_divergence'] / BETA:.4f}  slack = {law['prop1_slack']:.4f}  "
        f"ok = {law['verdict']}"
    )

# --- heat and information gain --------------------------------------------------
ground = tm.pure_state([1.0, 0.0])
row = tm.second_law_report(scheme, ground)
work, law = row["work"], row["second_law"]
heat = tm.heat_absorbed(scheme, ground)
print("\nground-state input:")
print(f"  heat absorbed from the probe: {heat['heat']:.4f} "
      f"(duality defect {heat['duality_defect']:.1e})")
print(f"  information gain: {work['groenewold_gain']:.4f} (negative: conditionals are mixed)")
print(f"  heat bound Q <= -I/beta holds with slack {law['heat_bound_slack']:.4f}")

# Asymmetry (coherence with respect to H) can only decrease on average:
plus = tm.pure_state([1.0, 1.0])
chain = tm.skew_information_chain(scheme.instrument, plus, H)
print(f"\nskew-information monotonicity on |+>: selective slack {chain['selective_slack']:.4f}, "
      f"convexity slack {chain['convexity_slack']:.4f}")
