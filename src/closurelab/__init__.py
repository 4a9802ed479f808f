"""Binary matrices whose rows are closed under logical operators.

Library plus CLI for closure checking and generation, column-sum
statistics, permutation equivalence, orthogonal row bases, constructive
half-membership witnesses for each closure theorem, and exhaustive
desk-scale verification campaigns.

Every row and basis vector is a plain integer, and a decomposition is
a tuple of indices. The package exports what the verbs and campaigns
use; CHANGES.md lists each removed name with its replacement.
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
from .witnesses import THEOREMS, FranklWitness

__version__ = "0.1.0"
