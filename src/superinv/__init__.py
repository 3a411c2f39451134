"""Exact-arithmetic engine for the invariant theory of matrix Lie
superalgebras: tableau combinatorics over a two-parity alphabet,
supercommutative polynomial algebras, tensor invariants and their operators,
and brute-force verification oracles with a claim catalog."""

from .alphabet import EVEN, ODD, IndexRange, SuperIndex, ev, od
from .claims import CATALOG, ClaimOptions, KNOWN_CLAIMS, run_claim
from .generators import (
    scalar_products,
    sl_extra_generators,
    osp_relative_generators,
    spe_constructive_element,
    spe_ppf_polynomials,
)
from .invariants import (
    CapExceeded,
    GenerationVerdict,
    InvariantSpace,
    SubstitutionMap,
    algebra_for,
    check_generation,
    generated_subspace,
    invariant_space_bruteforce,
    relation_kernel_check,
)
from .liealgebras import (
    AlgebraFamily,
    MatrixElement,
    act_on_polynomial,
    build_family,
    yminus_expansion,
)
from .named_polynomials import P_t, PPf_t, Pf_t, Z_of, ppf_tableau
from .permutations import (
    GroupAlgebraElement,
    Permutation,
    cocycle,
    young_symmetrizer,
)
from .polynomials import (
    AlgebraDescriptor,
    Polynomial,
    make_mixed_algebra,
    make_sym_square_algebra,
    make_uw_algebra,
)
from .tableaux import (
    Partition,
    YoungTableau,
    enumerate_partitions,
    enumerate_semistandard,
    enumerate_standard_tableaux,
    is_semistandard,
)
from .tensors import (
    TensorElement,
    act_on_tensor,
    contraction_D,
    invariant_operator,
    nabla_construct,
    theta,
)

__version__ = "0.1.0"
