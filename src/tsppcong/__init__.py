"""Certified Ramanujan-type congruences for 1-shell totally symmetric plane
partition counts, built on exact truncated q-series arithmetic."""

from .series import (
    INTEGERS,
    EtaQuotientSpec,
    TruncatedSeries,
    eta_quotient,
    pentagonal_terms,
    residues_mod,
)
from .tspp import (
    CheckReport,
    CongruenceClaim,
    NotReducibleError,
    ReductionStep,
    SliceClaim,
    check_slice_identity,
    check_support,
    check_variant_congruence,
    reduce_claim,
    slice_series,
    slice_variant_series,
    slice_variant_spec,
    tspp_series,
)
from .verification import (
    AdmissibilityReport,
    Certificate,
    CosetRep,
    InstanceHints,
    UnsupportedInstanceError,
    VerificationInstance,
    admissibility_check,
    aux_cusp_order,
    coset_reps,
    cusp_order_bound,
    index_gamma0,
    kappa,
    orbit,
    squares_mod,
    verification_bound,
    verify_instance,
)
from .prover import (
    ProofReport,
    SuiteReport,
    combine_congruences,
    known_congruences,
    oracle_check,
    prove_tspp_congruence,
    regression_suite,
)
from .documents import (
    DocumentError,
    InstanceDocument,
    canonical_json,
    certificate_to_doc,
    load_instance,
    parse_instance,
    published_instances,
    report_to_doc,
    shipped_instances,
)

__version__ = "0.1.0"
