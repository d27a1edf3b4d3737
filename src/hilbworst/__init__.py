"""Exact local equations of the Hilbert scheme of n+1 points in affine
n-space at its most degenerate point, the universal family over the chart,
and machine verification of the construction along three independent routes
(classical syzygy lifting, derivation-algebra cup products, based-algebra
associativity), all in exact rational arithmetic."""

from .poly import Poly, PolyRing, UniverseMismatchError
from .ideal import (
    IdealPresentation,
    Membership,
    Record,
    UnsupportedDegreeError,
    alternate_generators,
    diagonal_sum,
    ideal_generators,
    membership,
    obstruction_quadric,
)
from .taylor import (
    FreeModElt,
    QuotientElt,
    f_map,
    r_map,
    tangent_dims,
    tangent_hom_apply,
)
from .lifting import (
    first_order_residual,
    flatness_residual,
    second_order_obstruction,
    universal_family,
)
from .dgla import (
    compare_classical_dgla,
    cup_product,
    first_order_derivation,
    kuranishi_quadratic_locus,
)
from .based import (
    MalformedTableError,
    MulTable,
    associativity_residual,
    based_ideal_generators,
    params_to_structure,
    structure_to_params,
    table_from_point,
    verify_structure_correspondence,
)
from .subspaces import (
    LinearSubspaceSpec,
    containment_check,
    max_linear_dim,
    smoothing_dim,
    subspace_dim,
)
from .oracle import (
    BasisCriterionError,
    fiber_check,
    point_from_configuration,
    run_samples,
)

__version__ = "0.1.0"
