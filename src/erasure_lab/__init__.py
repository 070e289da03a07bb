"""Numerical toolkit for the thermodynamics of information erasure,
error-correction cycles, and entanglement purification bounds."""

from .demon import (
    EntropyLedger,
    QecCycleResult,
    QecScenario,
    classical_cycle,
    qec_cycle,
    recovery_fidelity_vs_overlap,
    three_qubit_bit_flip_scenario,
)
from .entanglement import (
    EocResult,
    EreResult,
    PurificationReport,
    SchmidtForm,
    SeparableMixture,
    SolverOptions,
    entanglement_of_creation,
    entropy_of_entanglement,
    purification_bound,
    purification_report,
    relative_entropy_of_entanglement,
    schmidt_decompose,
    schumacher_rate,
    single_shot_probability,
)
from .entropy import (
    EntropyValue,
    binary_entropy,
    mutual_information,
    relative_entropy,
    shannon_entropy,
    von_neumann_entropy,
)
from .errors import InputError, UnsupportedScenarioError
from .linalg import (
    DensityOperator,
    TensorSpace,
    hermitian_eig,
    partial_trace,
)
from .thermo import (
    CollisionTrace,
    ErasureReport,
    HamiltonianSpec,
    collision_step,
    erasure_entropy,
    free_energy,
    gibbs_state,
    thermalize,
    trace_distance,
)

__version__ = "0.1.0"
