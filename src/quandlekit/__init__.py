"""quandlekit: finite racks and quandles at desk scale.

Construct racks from operation tables, conjugacy classes, homogeneous and
affine data; analyze connectedness, faithfulness, profiles, fibers, and
primitivity of the inner action; and check the profile-divisibility
conjecture together with the group-theoretic evidence behind it.
"""
from ._kernels import BACKEND as KERNEL_BACKEND
from .errors import (
    BoundExceeded,
    CapExceeded,
    DegreeMismatch,
    NotARack,
    NotConnected,
    NotTransitive,
    ParseError,
    QuandlekitError,
    TheoremViolation,
)
from .perm import (
    CycleType,
    Permutation,
    PermutationGroup,
    alternating_group,
    symmetric_group,
)
from .racktable import (
    AxiomDiagnosis,
    IsoWitness,
    RackTable,
    emit_rtbl,
    fingerprint,
    is_isomorphic,
    parse_perm_file,
    parse_rack_file,
    parse_rtbl,
    validate,
)
from .analysis import (
    FiberPartition,
    OrbitSizes,
    PrimitivityReport,
    Profile,
    center_check,
    fibers,
    inner_action_primitivity,
    inner_group,
    is_connected,
    is_faithful,
    k_tilde_block_diagnostic,
    lambda_part,
    orbit_divisibility,
    profile,
)
from .constructors import (
    AffineResult,
    AffineSpec,
    ClassQuandle,
    HomogeneousSpec,
    affine_quandle,
    conjugacy_class_quandle,
    cyclic_permutation_rack,
    dihedral_quandle,
    enumerate_connected_quandles,
    enumerate_connected_racks,
    homogeneous_quandle,
    make_affine_spec,
    make_homogeneous_spec,
    trivial_quandle,
)
from .conjecture import (
    AnalysisReport,
    CrosscheckResult,
    HayashiVerdict,
    IntersectionEvidence,
    alternating_class_divisibility_check,
    alternating_class_scan,
    conjugation_rack_quotient_check,
    divisibility_crosscheck,
    full_report,
    hayashi_check,
    intersection_evidence,
    primitive_divisibility_check,
    symmetric_class_divisibility_check,
    symmetric_class_scan,
)
from .fixtures import smallquandle_12_4

__version__ = "0.1.0"
