"""qckit: quasi-cyclic codes over finite fields.

Constructs QC codes from constituent codes through the CRT / trace
representation, certifies Euclidean and Hermitian duality classes, computes
the constituent-based lower bound on minimum distance, builds the recursive
self-orthogonal / self-dual families, and derives CSS quantum parameters.
"""

from . import errors
from .gf import (
    GF,
    Felt,
    embed,
    field_from_order,
    field_make,
    primitive_mth_root,
    restrict,
    trace,
    trace_form,
    unembed,
)
from .poly import CosetTable, FactorSet, Poly, cyclotomic_cosets, factor_xm1, three_factor_scan
from .lincode import (
    DistanceReport,
    DualityFlags,
    LinearCode,
    code_from_rows,
    concat_copies,
    code_power_q,
    dual_euclidean,
    dual_hermitian,
    duality_class,
    full_space,
    galois_closure,
    grs_code,
    is_galois_closed,
    juxtapose,
    min_distance,
    min_weight_outside,
    subspace_leq,
    zero_code,
)
from .qc import (
    ConstituentAssignment,
    CrtDecomposition,
    DistanceInfo,
    FamilyPlan,
    PairAssignment,
    QcCode,
    SelfrecAssignment,
    assemble_qc,
    build_family,
    constituent_at_exponent,
    decompose_ring,
    dim_from_constituents,
    extract_assignment,
    galois_closure_theorem_check,
    is_galois_closed_qc,
    is_shift_invariant,
    phi,
    phi_inv,
    qc_dual,
    qc_duality_class,
    r_hermitian_ip,
    sqrt_like_check,
)
from .gobound import GoReport, cyclic_from_nonzeros, go_bound
from .quantum import QuantumParams, css, from_dual_containing, singleton_audit, transform, transform_chain

__version__ = "0.1.0"
