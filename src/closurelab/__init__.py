"""Binary matrices whose rows are closed under logical operators.

Library plus CLI for closure checking and generation, column-sum
statistics, permutation equivalence, orthogonal row bases, constructive
half-membership witnesses for each closure theorem, and exhaustive
desk-scale verification campaigns.

No longer exported, since no verb or campaign used them: the
closed-matrix wrapper class, the random closed row-set generator, the
campaign family iterator, the basis precondition predicate and the
pairwise equivalence test. In their place use is_closed with
BinaryMatrix.non_zero, closure of random rows, run_campaign,
is_closed(m, AND) and is_closed(m, ABJ), and
canonicalize(a).matrix == canonicalize(b).matrix.
"""

from .basis import (
    Basis,
    Decomposition,
    compute_basis,
    decompose,
)
from .bitcore import (
    WIDTH_CAP,
    BinaryMatrix,
    BitRow,
    SetFamily,
    column_sum,
    family_to_matrix,
    format_family,
    format_matrix,
    make_matrix,
    matrix_to_family,
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
    apply,
    negate,
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
