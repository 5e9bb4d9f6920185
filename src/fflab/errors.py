"""Exception types shared across the package.

Every module raises these rather than bare ValueError so callers can
distinguish "you fed me bad data" from genuine library bugs.
"""


class FFLabError(Exception):
    """Base class for all package errors."""


class SizeOverflow(FFLabError):
    """A requested enumeration would exceed the configured point budget.

    Carries the offending size so harness reports can name it.
    """

    def __init__(self, size: int, budget: int, what: str = "grid"):
        self.size = size
        self.budget = budget
        self.what = what
        super().__init__(f"{what} has {size} points, exceeds budget {budget}")


class DegenerateForm(FFLabError):
    """A singular quadratic form was passed where a nondegenerate one is required."""


class NotMaximalIsotropic(FFLabError):
    """Subspace is not totally isotropic of maximal dimension for the form."""


class FullyDegenerate(FFLabError):
    """The restricted bilinear form vanishes identically on the subspace."""


class NotCongruent(FFLabError):
    """The supplied change of basis does not carry one form to the other."""


class NotOnSurface(FFLabError):
    """A point claimed to lie on a quadratic surface does not."""


class OutOfValidityRange(FFLabError):
    """An exponent-formula argument lies outside the range where the formula holds."""


class NotIsotropicPair(FFLabError):
    """The two subspaces are not a complementary pair of totally isotropic subspaces."""


class UnknownScenario(FFLabError):
    """No scenario with the requested identifier is registered."""
