"""Exact root-collision invariants of univariate polynomials over Q, F_p,
and F_p(t): the never-vanishing tolerant, its duplicant and signed variants,
per-factor formulas, and inversion-invariance decision procedures."""

from .errors import (ConstantInputError, DegreeMismatchError,
                     DegreeTooSmallError, DivisionByZeroError,
                     DuplicateRootsError, FieldLiteralError,
                     FieldMismatchError, InputTooLargeError,
                     InseparableInSeparableModeError,
                     InvalidFactorizationError, ParseError, TolerantError,
                     UnsupportedFieldError, ZeroConstantTermError,
                     ZeroDiscriminantFactorError, ZeroInputError,
                     ZeroPolynomialError, ZeroScaleError)
from .factor import (Factorization, factor_prime_field,
                     is_irreducible_prime_field, multiplicity_profile,
                     squarefree_decomposition)
from .field import (FieldDescriptor, FieldElement, FieldKind, parse_field,
                    prime_field, rational_function_field, rationals)
from .invariants import (REPEATED_ROOT, UNDEFINED, ErrorRecord,
                         FactorFormula, InvariantReport, build_report, dupl,
                         gdisc, gdisc_by_elimination, homothety_exponent,
                         in_T, inversion_criterion, tol,
                         tol_from_factorization, tol_from_roots,
                         tol_irreducible)
from .parsing import (factorization_text, parse_polynomial, polynomial_text)
from .poly import (NEG_INFINITY, Polynomial, RootMultiset, SeparableForm,
                   poly_from_roots)
from .resultant import discriminant, resultant_in_u, sylvester_resultant
from .selfcheck import SelfcheckSummary, run_selfcheck

__version__ = "0.1.0"

__all__ = [
    "ConstantInputError", "DegreeMismatchError", "DegreeTooSmallError",
    "DivisionByZeroError", "DuplicateRootsError", "ErrorRecord",
    "FactorFormula", "Factorization", "FieldDescriptor", "FieldElement",
    "FieldKind", "FieldLiteralError", "FieldMismatchError",
    "InputTooLargeError", "InseparableInSeparableModeError",
    "InvalidFactorizationError", "InvariantReport", "NEG_INFINITY",
    "ParseError", "Polynomial",
    "REPEATED_ROOT", "RootMultiset", "SelfcheckSummary", "SeparableForm",
    "TolerantError", "UNDEFINED", "UnsupportedFieldError",
    "ZeroConstantTermError", "ZeroDiscriminantFactorError",
    "ZeroInputError", "ZeroPolynomialError",
    "ZeroScaleError", "build_report", "discriminant", "dupl",
    "factor_prime_field", "factorization_text", "gdisc",
    "gdisc_by_elimination",
    "homothety_exponent", "in_T", "inversion_criterion",
    "is_irreducible_prime_field", "multiplicity_profile", "parse_field",
    "parse_polynomial", "poly_from_roots", "polynomial_text", "prime_field",
    "rational_function_field", "rationals", "resultant_in_u",
    "run_selfcheck", "squarefree_decomposition", "sylvester_resultant",
    "tol", "tol_from_factorization", "tol_from_roots", "tol_irreducible",
]
