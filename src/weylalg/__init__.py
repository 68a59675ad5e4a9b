"""Exact computation in the first Weyl algebra over the rationals.

The algebra is generated by X and Y with Y*X - X*Y = 1.  This package
provides canonical normal-form arithmetic, the leading-form calculus along
the diagonal grading, factorization of homogeneous elements through the
product XY, exact centralizer computation up to a total-degree bound,
commutator derivations on centralizers, a differential-operator oracle for
independent verification, and a command-line interface.
"""

import importlib

from .core import (
    ONE,
    WeylElement,
    X,
    Y,
    ZERO,
    add,
    commutator,
    from_terms,
    mul,
    power,
    scalar_mul,
    total_degree,
    transpose,
)
from .errors import (
    BoundError,
    BoundEscapeError,
    ExprSyntaxError,
    InternalInconsistencyError,
    MalformedInputError,
    MembershipError,
    NotDixmierPairError,
    NotHomogeneousError,
    SizeLimitError,
    UndefinedOnZeroError,
    WeylError,
    WrongSectorError,
)
from .leading import (
    LeadingData,
    aligned,
    diag_degree,
    is_monic,
    is_x_dominant,
    leading_coeff,
    leading_data,
    leading_form,
    leading_term,
    leading_weight,
    newton_edges,
    primitive_direction,
    support,
    weighted_degree,
)
from .graded import (
    GradedForm,
    XYPolynomial,
    Z,
    evaluate_at_element,
    from_graded_form,
    homogeneous_components,
    is_homogeneous,
    to_graded_form,
)
from .centralizer import (
    CentralizerBasis,
    CentralizerComponent,
    ComponentKind,
    centralizer_basis,
    decompose,
    expand_in_basis,
    homogeneous_centralizer_component,
    is_monomial_algebra_embedding,
    ray_degree,
    recompose,
)
from .derivation import (
    DerivationReport,
    DixmierPair,
    ElementaryAutomorphism,
    PairCheckReport,
    ScriptLimits,
    ad,
    apply_script,
    check_dixmier_pair,
    derivation_report,
    dixmier_pair_from_script,
    is_dixmier_pair,
    no_partner_check,
    random_script,
)
from .oracle import act, max_y_exponent, oracle_equal, oracle_mul_check, poly_from_coeffs, x_power

__version__ = "0.1.0"


def __getattr__(name: str):
    # the CLI loads on first use, so that `python -m weylalg.cli` does not
    # find the module already imported by the package and warn about it;
    # `from . import cli` here would come back to this hook
    if name in ("cli", "format_element", "parse_element"):
        cli = importlib.import_module(__name__ + ".cli")
        return cli if name == "cli" else getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
