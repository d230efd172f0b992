"""Signature-based Groebner basis engine with run-time invariant checking.

The package computes Groebner bases of homogeneous ideals over GF(p) with the
original signature algorithm, logs every engine decision to an append-only
trace, re-verifies the run's invariants from the trace alone, and realizes
the representation-descent argument constructively on frozen basis snapshots.
A classic Buchberger implementation serves as the independent reference.
"""

from .engine import (
    BudgetExceeded,
    Engine,
    EngineConfig,
    EngineResult,
    InternalInvariantError,
    MissingRule,
    NonHomogeneousInput,
    ZeroInputPolynomial,
    incremental_f5,
)
from .oracle import (
    DescentResult,
    GgSnapshot,
    Representation,
    ReprElement,
    buchberger,
    descend,
    find_unrejected_reductor,
    ideal_equal,
    reduced_basis,
    repr_sum_check,
)
from .poly import (
    EQ,
    GT,
    LT,
    Monomial,
    MonomialOrder,
    Polynomial,
    Ring,
    is_homogeneous,
    normal_form,
    poly_axpy,
)
from .sig import (
    LabeledPolynomial,
    ModuleVector,
    Signature,
    check_admissible,
    sig_divides,
    sig_mul,
)
from .trace import (
    ChainReport,
    CheckReport,
    Trace,
    build_registry,
    check_chains,
    check_d_progression,
    check_replay,
    check_rule_degrees,
    check_signature_safety,
    check_thm5_exhaustive,
    done_insertion_audit,
    extract_chain,
    run_all_checkers,
)

__version__ = "0.1.0"
