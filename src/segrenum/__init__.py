"""Exact Segre numbers, mixed Segre numbers, and mixed multiplicities of
polynomial ideals at the origin, with the integral-closure criteria,
product formulas and Minkowski-type inequalities built on them."""

from .rings import (
    GREVLEX,
    LEX,
    MonomialOrder,
    OrderKind,
    Polynomial,
    PolynomialRing,
    block_order,
    format_polynomial,
)
from .groebner import (
    INFINITE,
    GroebnerBasis,
    Ideal,
    buchberger,
    clear_caches,
    colength,
    dimension,
    eliminate,
    ideal,
    ideal_power,
    ideal_product,
    ideal_sum,
    intersect,
    normal_form,
    saturate,
)
from .multiplicity import (
    LocalMultiplicityResult,
    hilbert_samuel,
    multiplicity_at_origin,
    passes_through_origin,
)
from .segre import (
    DEFAULT_SEED,
    GenericityConfig,
    GenericTuple,
    GermContext,
    MixedSegreTable,
    PolarChain,
    SegreProfile,
    chain_condition,
    generic_tuple,
    make_germ,
    mixed_multiplicity_primary,
    mixed_segre,
    polar_chain,
    segre_on_subspace,
    segre_profile,
    truncation_check,
)
from .criteria import (
    ComparisonReport,
    MinkowskiResult,
    ProductFormulaResult,
    TupleTriple,
    closure_battery,
    integer_kth_root,
    minkowski_check,
    mixed_inequality_check,
    power_equivalence_probe,
    product_formula_check,
    radical_sum_compare,
    rees_test,
    teissier_criterion,
    tuple_lemma,
)
from .surface import (
    SurfaceResolutionData,
    e2_from_orders,
    lemma32_verify,
    negdef_check,
    pairing,
    total_transform,
)
from .equising import FunctionGerm, contact_tangent_ideal, jacobian_ideal, whitney_battery

__version__ = "0.1.0"
