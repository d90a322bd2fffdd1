"""rotsynth: compiler and fault analyzer for magic-state preparation circuits."""

from .gf2 import (
    BitVec,
    GF2Matrix,
    SingularMatrixError,
    invert,
    is_invertible,
    is_permutation,
    random_invertible,
    rank,
)
from .ir import (
    Circuit,
    Gate,
    PhaseRotation,
    RotationProgram,
    apply_qubit_permutation,
    parse_circuit,
    parse_rotation_program,
    with_x_detection,
)
from .semantics import (
    PhasePolynomial,
    enumerate_branches,
    equal_up_to_global_phase,
    phase_polynomial_of,
    poly_equal,
    simulate,
    state_fidelity,
    unitary_of,
)
from .compiler import (
    CompileReport,
    Partition,
    PartitionError,
    SynthesisResult,
    absorb_into_prep,
    cnot_synthesize,
    compile_program,
    compile_to_unitary,
    eliminate_tdag,
    expand_reference,
    hoist_permutations,
    merge_adjacent_blocks,
    parallelize_block,
    partition_rotations,
)
from .faults import (
    AnalysisReport,
    FaultHarness,
    NoiseModel,
    TGadgetChannel,
    enumerate_pair_faults,
    enumerate_single_faults,
    first_order_oracle,
    gadgetize,
    monte_carlo_infidelity,
    spacetime_cost,
)

__version__ = "0.1.0"
