"""Exact computer algebra for the modular symmetric-function ring.

The ring is generated by power sums of degree prime to a modulus m, carries
a deformed Hall pairing, and supports a self-adjoint raising operator (the
zero mode of a vertex operator) whose monic eigenvectors deform the modular
Hall-Littlewood functions and specialize to Schur Q-functions at m = 2,
q = 0.  All arithmetic is exact: rationals, cyclotomic numbers, and
canonical rational functions of q.
"""

from .errors import (
    DegenerateEvaluationPoint,
    EigenvalueCollisionAtEvaluation,
    InternalCheckError,
    PoleAtSpecialization,
    VerificationError,
)
from .macdonald import (
    ModularMacdonald,
    all_q,
    gram,
    schur_q_oracle,
    solve_q,
    specialize_q0,
)
from .newton import (
    DSeq,
    d_lambda_mu,
    d_mu,
    newton_lhs,
    newton_rhs,
    nl_brute,
    nl_closed,
    nl_falling,
    qpow_dseq,
    r_from_recursion,
)
from .partitions import (
    Partition,
    dominates,
    enumerate_partitions,
    lowering_tuple_counts,
    mult_factorial,
    union,
    z_of,
)
from .scalars import (
    Cyc,
    CycRat,
    ParamMode,
    cyclotomic_polynomial,
    epsilon,
    euler_phi,
    eval_mode,
    evaluate,
    parse_scalar_literal,
    scalar_from_json,
    scalar_to_json,
    scalar_to_str,
    symbolic_mode,
    zeta,
)
from .selfcheck import run_selfcheck
from .symfunc import (
    PExpr,
    QExpr,
    d_dp,
    epsilon_product,
    modular_relation_check,
    p_multiply,
    p_to_q_reduced,
    q_to_p,
    qprod_to_p,
    r_to_p,
    scalar_product,
    to_p,
)
from .vertex import (
    X0Matrix,
    eigen_collision,
    eigenvalue_c,
    s_apply,
    x0_apply_diff,
    x0_apply_series,
    x0_matrix,
)

__version__ = "0.1.0"
