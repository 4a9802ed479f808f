"""Binary matrices whose rows are closed under logical operators.

Library plus CLI for closure checking and generation, column-sum
statistics, permutation equivalence, orthogonal row bases, constructive
half-membership witnesses for each closure theorem, and exhaustive
desk-scale verification campaigns.
"""

from .basis import (
    Basis,
    Decomposition,
    check_basis_preconditions,
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
    enumerate_families,
    run_campaign,
)
from .equivalence import CanonicalForm, apply_permutations, are_equivalent, canonicalize
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
    Space,
    closure,
    counterexample_block,
    counterexample_identity,
    is_closed,
    psi,
    random_space,
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
