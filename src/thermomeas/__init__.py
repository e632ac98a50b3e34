"""Thermodynamically free quantum measurements at desk scale.

Build and validate measurement schemes whose every step is thermodynamically
free (Gibbs probe, bistochastic energy-conserving interaction, pointer
commuting with the probe Hamiltonian), derive the instruments they induce,
compute work/heat/information-gain budgets for measurement-and-feedback
engines, and classify observables and instruments by their structural
properties.
"""

from ._version import __version__
from .errors import PreconditionError, ValidationError
from .linalg import (
    SpectralDecomposition,
    commutator_defect,
    eig_hermitian,
    relative_entropy,
    von_neumann_entropy,
)
from .objects import (
    Instrument,
    KrausChannel,
    Observable,
    State,
    choi_of_operation,
    choi_rank,
    gibbs_state,
    pure_state,
    spectral_observable,
)
from .schemes import (
    MeasurementScheme,
    SchemeBatch,
    SchemeFrame,
    conjugate_channel,
    energy_moment_defect,
    induced_instrument,
    random_free_scheme,
    swap_channel,
    trivial_scheme,
    validate_free_scheme,
)
from .thermo import (
    AuditBatch,
    heat_absorbed,
    second_law_report,
    skew_information_chain,
    work_report,
)
from .classify import (
    check_prop2,
    is_covariant_instrument,
    is_gibbs_preserving,
    is_nuclear,
    is_quasi_complete,
    is_thermal_observable,
    joint_with_hamiltonian,
    post_processing_decomposition,
    refine_to_rank_one,
)
from .scenario import RunReport, run_scenario, run_sweep

__all__ = [
    "__version__",
    "ValidationError",
    "PreconditionError",
    "SpectralDecomposition",
    "eig_hermitian",
    "von_neumann_entropy",
    "relative_entropy",
    "commutator_defect",
    "State",
    "pure_state",
    "Observable",
    "KrausChannel",
    "Instrument",
    "gibbs_state",
    "spectral_observable",
    "choi_of_operation",
    "choi_rank",
    "MeasurementScheme",
    "SchemeBatch",
    "SchemeFrame",
    "validate_free_scheme",
    "induced_instrument",
    "conjugate_channel",
    "trivial_scheme",
    "random_free_scheme",
    "swap_channel",
    "energy_moment_defect",
    "AuditBatch",
    "heat_absorbed",
    "skew_information_chain",
    "work_report",
    "second_law_report",
    "is_thermal_observable",
    "is_covariant_instrument",
    "is_gibbs_preserving",
    "is_nuclear",
    "check_prop2",
    "is_quasi_complete",
    "joint_with_hamiltonian",
    "post_processing_decomposition",
    "refine_to_rank_one",
    "RunReport",
    "run_scenario",
    "run_sweep",
]
