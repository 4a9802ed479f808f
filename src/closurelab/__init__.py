"""Binary matrices whose rows are closed under logical operators.

Library plus CLI for closure checking and generation, column-sum
statistics, permutation equivalence, orthogonal row bases, constructive
half-membership witnesses for each closure theorem, and exhaustive
desk-scale verification campaigns.

Every row and basis vector is a plain integer, and a decomposition is
a tuple of indices. No longer exported, since no verb or campaign used
them: the closed-matrix wrapper class, the random closed row-set
generator, the campaign family iterator, the basis precondition
predicate, the pairwise equivalence test, the boxed row class with the
matrix's boxed-row view, the matrix builder from boxed rows, the two
matrix/family converters, the family builder from element lists and
its member-set view, the boxed decomposition, the width-mismatch error,
and the boxed-row forms of operator application and negation. In their
place use is_closed with BinaryMatrix.non_zero, closure of random rows,
run_campaign, is_closed(m, AND) and is_closed(m, ABJ),
canonicalize(a).matrix == canonicalize(b).matrix, row_values with
f"{v:0{width}b}" or format_matrix for a row's text,
BinaryMatrix(width, values) or SetFamily(width, values) for the
builder and the converters, parse_family and format_family for
members, the index tuple decompose returns (a row wider than its basis
is NotDecomposable), and operators.apply_values and tilde_matrix.
"""

from .basis import Basis, compute_basis, decompose
from .bitcore import (
    WIDTH_CAP,
    BinaryMatrix,
    SetFamily,
    column_sum,
    format_family,
    format_matrix,
    parse_any,
    parse_family,
    parse_matrix,
)
from .enumeration import (
    CampaignConfig,
    CampaignSummary,
    run_campaign,
)
from .equivalence import CanonicalForm, apply_permutations, canonicalize
from .operators import (
    ABJ,
    ALL_OPS,
    AND,
    CABJ,
    CIMP,
    IMP,
    NAND,
    NEGATION,
    NOR,
    OR,
    XNOR,
    XOR,
    BoolOp,
    op_name,
    parse_op,
    tilde_matrix,
    tilde_op,
)
from .spaces import (
    PsiStats,
    closure,
    counterexample_block,
    counterexample_identity,
    is_closed,
    psi,
)
from .witnesses import (
    FranklWitness,
    conditional_witness,
    group_witness,
    imp_implies_or_closed,
    negation_witness,
    sheffer_reduction,
    tilde_closure_properties,
    topology_witness,
)

__version__ = "0.1.0"
