"""Copula tail dependence functions and local stochastic orders.

A numpy library for building copulas (elementary, Archimedean,
Marshall-Olkin, Gaussian, diagonal-driven, extreme value, glued,
hierarchical), estimating and manipulating lower tail dependence
functions, and checking the tail dependence, tail orthant, local lower
orthant, cone, and diagonal orders that relate them.  scipy supplies the
normal CDF and quantile; it is loaded on the first Gaussian evaluation, so
importing the package, and any work without a Gaussian copula, skips it.
``numpy.random`` is never loaded: the audit of a tail dependence function,
run by every extreme value build, samples a deterministic Kronecker sequence.
``dataclasses`` is never loaded by the package either: its records are
built on ``core.Record``, and only scipy, for a Gaussian, imports it.
"""

from .core import (
    BOUNDARY_TOL,
    VOLUME_TOL,
    CheckResult,
    Copula,
    CopulaError,
    DecomposedBatch,
    DimensionError,
    DomainError,
    GridConfig,
    TailDepFunction,
    ValidityReport,
    comonotone,
    copula_from_callable,
    countermonotone,
    glue,
    h_volume,
    independence,
    min_tdf,
    survival,
    validate_copula,
    zero_tdf,
)
from .families import (
    DiagonalSection,
    Generator,
    archimedean,
    bertino,
    bivariate_normal_cdf,
    clayton_generator,
    diagonal_of,
    ev_copula,
    fredricks_nelsen,
    gaussian,
    generalized_inverse,
    gumbel_generator,
    hierarchical,
    joe_generator,
    lower_ev_copula,
    marshall_olkin,
    nonstrict_linear_generator,
    power_diagonal,
    semilinear,
    validate_diagonal,
    validate_semilinear_diagonal,
)
from .orders import (
    FAILS,
    HOLDS,
    HOLDS_STRICTLY,
    INDISTINGUISHABLE,
    ConeSpec,
    EquivalenceReport,
    OrderVerdict,
    archimedean_order_equivalence,
    check_cone_order,
    check_diagonal_order,
    check_loc,
    check_tdo,
    check_too,
    ratio_monotonicity_check,
    subadditivity_check,
)
from .taildep import (
    LimitSchedule,
    QuadratureError,
    RVIndexEstimate,
    TDFEstimate,
    TDFEstimates,
    archimedean_tdf,
    estimate_tdf,
    estimate_tdfs,
    estimated_tdf,
    fig1_parabola,
    fig1_piecewise,
    regular_variation_index,
    simplex_directions,
    simplex_restriction,
    simplex_size,
    spearman_tdf_limit,
    tail_expansion_residual,
    tdc,
    tdc_from_simplex,
    validate_tdf,
)
from .descriptors import (
    DescriptorError,
    build_copula,
    descriptor_from_json,
    descriptor_to_json,
    diagonal_from_spec,
    generator_from_spec,
    load_descriptor,
    parse_shorthand,
    tdf_from_spec,
)

__version__ = "0.1.0"
