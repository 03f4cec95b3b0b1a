"""Exact computation in the Nottingham group over small prime fields.

The kernel is a truncated formal power series ring F_p[t]/(t^(N+1)) with
exact integer coefficients (Series), on top of which sit the group of
series t + (order >= 2 terms) under composition (GroupElement), conjugacy
representatives of order-p elements (klopsch_rep), and an explicit order-4
automorphism at p = 2 constructed by three independent routes and certified
by an identity suite (order4 module, `verify_all`).
"""

from .errors import (
    BadPrecision,
    BadRoot,
    BadTruncation,
    MismatchedContext,
    NonzeroConstant,
    NotAUnit,
    NotCoprime,
    NotInvertible,
    NotNormalized,
    NottinghamError,
    WrongCharacteristic,
    ZeroParameter,
)
from .field import check_prime
from .group import (
    INFINITE_DEPTH,
    GroupElement,
    identity,
    klopsch_rep,
    order_mod_truncation,
)
from .order4 import (
    CheckResult,
    SigmaBundle,
    VerificationReport,
    relation_root,
    run_checks,
    schreier_root,
    sigma_algebraic,
    sigma_bundle,
    sigma_closed,
    sigma_relation,
    sigma_support,
    verify_all,
)
from .series import MAX_TRUNC, Series

__version__ = "0.1.0"

__all__ = [
    "BadPrecision",
    "BadRoot",
    "BadTruncation",
    "CheckResult",
    "GroupElement",
    "INFINITE_DEPTH",
    "MAX_TRUNC",
    "MismatchedContext",
    "NonzeroConstant",
    "NotAUnit",
    "NotCoprime",
    "NotInvertible",
    "NotNormalized",
    "NottinghamError",
    "Series",
    "SigmaBundle",
    "VerificationReport",
    "WrongCharacteristic",
    "ZeroParameter",
    "check_prime",
    "identity",
    "klopsch_rep",
    "order_mod_truncation",
    "relation_root",
    "run_checks",
    "schreier_root",
    "sigma_algebraic",
    "sigma_bundle",
    "sigma_closed",
    "sigma_relation",
    "sigma_support",
    "verify_all",
]
