"""Exact arithmetic for twisted operator algebra on maps out of a coalgebra.

A multilinear map on a vector space induces an operator on the space of
linear maps from a coalgebra into it, by splitting inputs with the
iterated coproduct.  The induced operators satisfy the familiar algebraic
identities only up to permutation twists on the coproduct legs; this
package checks those twisted identities exactly over the rationals, builds
the matching cochain complexes, and computes their cohomology by rank.

Layers, bottom up: linalg (fraction matrices, permutations), maps and
coalgebra (sparse structure constants), convolution (induced and twisted
operators), algebra and td_structures (classical and twisted checkers),
cohomology (classical and hom-space complexes), lie_rinehart (compatible
pairs and the linear subcomplex), files and corpus (interchange format and
shipped examples), cli (command line).
"""

from .algebra import (
    AssociativeAlgebra,
    LieAlgebra,
    LieModule,
    PoissonAlgebra,
    check_associative,
    check_commutative,
    check_lie,
    check_module,
    check_poisson,
)
from .checks import CheckResult, Witness
from .coalgebra import (
    Coalgebra,
    build_exterior_square_coalgebra,
    build_symmetric_coalgebra,
    build_tensor_coalgebra,
    check_coassociativity,
    symmetry_class,
)
from .cohomology import (
    AltCochain,
    TDCochain,
    TDComplexData,
    ce_complex,
    ce_differential,
    invariants_h0,
    td_cohomology_dims,
    td_differential_direct,
    td_differential_induced,
)
from .convolution import (
    HomElement,
    InducedOperator,
    check_td_skew,
    compose_induced,
    factored_term,
    induced,
    interchange,
    matrix_units,
    twisted,
    twisted_term,
)
from .errors import (
    AxiomError,
    GuardError,
    InvalidPermutation,
    MalformedInput,
    ParseError,
    ScalarError,
    ShapeError,
    TdhomError,
)
from .files import load_path, parse_structure, serialize_structure
from .lie_rinehart import (
    LieRinehartPair,
    TDLRStructure,
    blinear_subspace,
    check_lr,
    check_subcomplex,
    check_td_lr,
)
from .linalg import BasedSpace, Permutation, RationalMatrix
from .maps import MultilinearMap
from .td_structures import (
    TDLieStructure,
    TDModuleStructure,
    check_cocommutative_collapse,
    check_jordan,
    check_td_lie,
    check_td_module,
    check_td_poisson,
    self_module,
)

__version__ = "0.1.0"

__all__ = [
    "AltCochain",
    "AssociativeAlgebra",
    "AxiomError",
    "BasedSpace",
    "CheckResult",
    "Coalgebra",
    "GuardError",
    "HomElement",
    "InducedOperator",
    "InvalidPermutation",
    "LieAlgebra",
    "LieModule",
    "LieRinehartPair",
    "MalformedInput",
    "MultilinearMap",
    "ParseError",
    "Permutation",
    "PoissonAlgebra",
    "RationalMatrix",
    "ScalarError",
    "ShapeError",
    "TDCochain",
    "TDComplexData",
    "TDLRStructure",
    "TDLieStructure",
    "TDModuleStructure",
    "TdhomError",
    "Witness",
    "blinear_subspace",
    "build_exterior_square_coalgebra",
    "build_symmetric_coalgebra",
    "build_tensor_coalgebra",
    "ce_complex",
    "ce_differential",
    "check_associative",
    "check_coassociativity",
    "check_cocommutative_collapse",
    "check_commutative",
    "check_jordan",
    "check_lie",
    "check_lr",
    "check_module",
    "check_poisson",
    "check_subcomplex",
    "check_td_lie",
    "check_td_lr",
    "check_td_module",
    "check_td_poisson",
    "check_td_skew",
    "compose_induced",
    "factored_term",
    "induced",
    "interchange",
    "invariants_h0",
    "load_path",
    "matrix_units",
    "parse_structure",
    "self_module",
    "serialize_structure",
    "symmetry_class",
    "td_cohomology_dims",
    "td_differential_direct",
    "td_differential_induced",
    "twisted",
    "twisted_term",
]
