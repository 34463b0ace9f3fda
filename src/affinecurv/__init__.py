"""Affine curvature models and their Jacobi spectra.

Tools for rank-4 curvature tensors on R^m whose Jacobi operators have
direction-independent spectrum up to positive rescaling: constructors for
every admissible reduced eigenvalue structure, a sampling classifier, the
eigenbundle admissibility gate, exact polynomial connection geometry, and
neutral-signature cotangent-bundle extensions.
"""

from .classifier import (
    AFFINE,
    NEITHER,
    PROJECTIVE,
    AdamsResult,
    BundlePartition,
    Classification,
    InconsistencyError,
    OssermanVerdict,
    adams_admissible,
    bundle_partition,
    classify,
    classify_structure,
    is_projective_affine_osserman,
    match_taxonomy,
    sample_sphere,
)
from .constructors import (
    CASE_LABELS,
    ComplexStructure,
    QuaternionStructure,
    StructureSpec,
    case_constraints,
    complex_model,
    complex_structure_term,
    compose_endomorphism,
    constant_curvature,
    quaternion_model,
    realize,
    standard_complex_structure,
    standard_quaternion_structure,
)
from .polynomial_geometry import (
    GeodesicResult,
    PolyConnection,
    PolyCurvature,
    SurfaceVerdict,
    connection_from_symbols,
    curvature,
    curvature_at,
    curvature_homogeneous_connection,
    flat_connection,
    geodesic_integrate,
    load_connection,
    nabla_R,
    plane_wave_connection,
    ricci_split,
    save_connection,
    surface_projective_osserman,
)
from .polynomials import (
    Polynomial,
    PolynomialParseError,
    parse_polynomial,
    polynomial_to_string,
    variable_names,
)
from .riemannian_extension import (
    ExtensionReport,
    PolyMetric,
    check_extension_theorems,
    deformed_extension,
    levi_civita_block,
    modified_extension,
)
from .spectral import (
    EigensolverError,
    JordanProfile,
    MuVector,
    Spectrum,
    SpectrumBatch,
    jordan_profile,
    mu_vector,
    projective_match_batch,
    spectrum,
    spectrum_batch,
)
from .tensor_core import (
    CurvatureTensor,
    SymmetryReport,
    check_affine_symmetries,
    evaluate,
    jacobi,
    jacobi_batch,
    load_model,
    model_from_json_dict,
    model_to_json_dict,
    model_to_json_text,
    perp_basis,
    perp_basis_batch,
    reduced_jacobi,
    reduced_jacobi_batch,
    save_model,
)

__version__ = "0.1.0"
