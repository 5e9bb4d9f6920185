"""fflab: a desk-scale laboratory for harmonic analysis over prime fields.

Exact Fourier/extension/restriction operators on quadratic surfaces in
F_p^d, quadratic-form and Witt-index machinery, additive-energy and
incidence counters, Kakeya maximal functions, and a scenario harness
that checks identities to 1e-9 and tracks constants for inequalities.
"""

from .core import (
    CharacterTable,
    FFunction,
    FFVector,
    PrimeField,
    inner,
    lp_norm,
)
from .errors import (
    DegenerateForm,
    FFLabError,
    FullyDegenerate,
    NotCongruent,
    NotIsotropicPair,
    NotMaximalIsotropic,
    NotOnSurface,
    OutOfValidityRange,
    SizeOverflow,
    UnknownScenario,
)

__version__ = "0.1.0"

__all__ = [
    "CharacterTable",
    "FFunction",
    "FFVector",
    "PrimeField",
    "inner",
    "lp_norm",
    "DegenerateForm",
    "FFLabError",
    "FullyDegenerate",
    "NotCongruent",
    "NotIsotropicPair",
    "NotMaximalIsotropic",
    "NotOnSurface",
    "OutOfValidityRange",
    "SizeOverflow",
    "UnknownScenario",
    "__version__",
]
