"""Exact theta-formalism calculus for dispersive scalar Poisson brackets
in two independent variables: graded differential algebra, variational
calculus, the Schouten-Nijenhuis bracket, second-cohomology solvers, and
the Miura normalization extracting the numerical invariants."""

from .algebra import (
    DiffPoly,
    Grade,
    Monomial,
    enumerate_basis,
    grade_of,
    mul,
    total_derivative,
)
from .cohomology import (
    H2Decomposition,
    bockstein_split,
    decompose_h2,
    delta,
    theta_quotient_basis,
    verify_nontriv_lemma,
    verify_square_lemma,
    verify_varder_lemma,
)
from .deltaform import DeltaForm, delta_to_theta, theta_to_delta
from .errors import (
    BracketSpecError,
    DegreeMismatch,
    InternalInconsistency,
    JacobiViolation,
    MissingComponent,
    NonconstantInvariant,
    NonstandardLeadingTerm,
    NotACocycle,
    ObstructionNonzeroBockstein,
    OddPower,
    ParseError,
    SuperDegreeError,
    ThetaCalcError,
)
from .normalizer import (
    NormalizationResult,
    build_normal_form,
    invariants_fast,
    normalize,
    verify_distinctness,
)
from .parser import BracketSpecFile, parse
from .printer import format_bracket_file, format_poly
from .rationals import QQ, rat, rat_str
from .schouten import (
    BracketSeries,
    jacobi_check,
    miura_apply,
    pst,
    schouten,
    standard_leading_term,
)
from .variational import (
    Functional,
    is_total_divergence,
    var_theta,
    var_u,
)

__version__ = "0.1.0"
