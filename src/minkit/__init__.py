"""Measurement-induced nonlocality of bipartite quantum states.

Closed-form and numeric evaluators for the trace-norm, Hilbert-Schmidt,
and Bures MIN measures, together with locally invariant measurement
machinery, CPTP channel dynamics, and a reproducible CLI.
"""

__version__ = "0.1.0"

from .linalg import (
    HermEig,
    fidelity,
    hermitian_eig,
    partial_trace,
    psd_sqrt,
)
from .states import (
    BlochForm,
    DensityMatrix,
    PureState,
    SchmidtForm,
    StateFormatError,
    StateInvariantError,
    bloch_decompose,
    canonicalize,
    density_from_pure,
    detect_family,
    load_state,
    make_bell_diagonal,
    make_isotropic,
    make_werner,
    random_bell_triple,
    random_density,
    random_pure,
    save_state,
    schmidt,
    validate,
)
from .measurements import (
    LocalMeasurement,
    MeasurementFamily,
    apply_measurement,
    invariant_family,
    local_measurement,
    sphere_measurement,
)
from .nonlocality import (
    DimensionLimitError,
    MinResult,
    OptimizerConfig,
    bures_min_numeric,
    closed_form,
    direction_objective,
    hs_min_isotropic,
    hs_min_numeric,
    hs_min_pure,
    hs_min_two_qubit,
    hs_min_werner,
    max_entangled_trace_min,
    oracle_audit,
    relation_audit,
    relation_report,
    sphere_directions,
    trace_min_isotropic,
    trace_min_numeric,
    trace_min_pure,
    trace_min_two_qubit,
    trace_min_werner,
)
from .channels import (
    DynamicsTrace,
    KrausChannel,
    apply_channel_a,
    apply_channel_b,
    attach_ancilla,
    dynamics_sweep,
    flip_channel,
    freezing_region,
    freezing_vertices,
    kraus_channel,
    monotonicity_audit,
    random_channel,
)
