"""Intrinsic estimation bounds for SU(n) channels with collective probes."""

from .algebra import (
    GeneratorBasis,
    StructureConstants,
    expand,
    from_coefficients,
    gellmann_basis,
    structure_constants,
)
from .channel import (
    GeneratorMatrix,
    Parametrization,
    euler_su2,
    exponential,
    exponential_coordinates,
    generators_closed_form,
    generators_quadrature,
    metric_at,
    product_of_exponentials,
    singularity_report,
    unitary_at,
)
from .exceptions import (
    ConstraintError,
    DimensionCapError,
    InvalidDimensionError,
    InvalidElementError,
    InvalidStateError,
    NotIrreducibleError,
    OptimizationFailedError,
    SingularCovarianceError,
    SingularInformationError,
)
from .metrology import (
    BoundReport,
    ProbeState,
    build_report,
    covariance,
    intrinsic_bound,
    intrinsic_floor,
    mixed_state,
    pure_state,
    qfim,
    saturation_check,
    unpolarized_report,
    weighted_bound,
)
from .probes import (
    OptimizeResult,
    OptimizerConfig,
    ProbeSpec,
    build_probe,
    canonical_phase,
    make_custom,
    make_fock,
    make_ghz,
    make_noon,
    make_su3_cyclic,
    make_tetrahedron_j2,
    optimize_probe,
)
from .representation import (
    DIMENSION_CAP,
    FockBasis,
    Representation,
    casimir,
    exp_hermitian,
    fock_basis,
    lift_unitary,
    symmetric_representation,
)

__version__ = "0.1.0"
