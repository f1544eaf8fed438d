"""Exact-arithmetic crossed modules and 2-crossed modules of commutative
algebras: simplex algebras, derivations, and homotopy groupoids, with
every axiom and groupoid law verified computationally on finite instances.
"""

from .algebra import (
    Element,
    FiniteAlgebra,
    FreeAlgebra,
    SemidirectAlgebra,
    make_finite_algebra,
    make_free_algebra,
    zero_algebra,
)
from .cm_homotopy import (
    cm_groupoid_check,
    concat_cm,
    invert_cm,
    make_cm_derivation,
    zero_cm_derivation,
)
from .crossed import (
    CrossedModule,
    PreCrossedModule,
    TwoCrossedModule,
    TwoCrossedMorphism,
    as_two_crossed,
    ideal_inclusion_cm,
    identity_2cm_morphism,
    identity_cm_morphism,
    kernel_two_crossed,
    make_2cm_morphism,
    make_cm_morphism,
    make_crossed,
    make_precrossed,
    make_two_crossed,
)
from .maps import (
    Action,
    BilinearMap,
    Certificate,
    LinearMap,
    Policy,
    algebra_morphism,
    certify_action,
    linear_map,
    make_action,
    semidirect,
    zero_action,
    zero_bilinear,
)
from .rings import PrimeField, QQ, Rational, ring_from_spec
from .simplex import (
    SimplexTower,
    build_tower,
    check_simplicial_identities,
    get_tower,
)
from .specdoc import SpecDocument, load_spec
from .tcm_homotopy import (
    QuadraticDerivation,
    apply_2cm_homotopy,
    box_plus_s,
    box_plus_t,
    check_w_change,
    concat_2cm,
    extend_derivation,
    invert_2cm,
    make_quadratic_derivation,
    tcm_groupoid_check,
    w_map,
    x_map,
    z_map,
    zero_quadratic,
)

__version__ = "0.1.0"
