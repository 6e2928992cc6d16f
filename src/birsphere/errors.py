"""Exception types shared across the package."""


class BirsphereError(Exception):
    """Base class for all package-specific errors."""


class ParseError(BirsphereError):
    """Input text does not conform to the element grammar."""


class NotRealPolynomial(BirsphereError):
    """A real polynomial was required but the input has imaginary coefficients."""


class NotRationalPolynomial(BirsphereError):
    """A polynomial with rational coefficients was required."""


class UnsupportedExtension(BirsphereError):
    """The exact answer lives outside every real multi-quadratic tower."""


class IndeterminateFiber(BirsphereError):
    """A matrix specialises to the zero matrix on the requested fiber."""


class NotOnSphere(BirsphereError):
    """Point does not satisfy w^2 = x^2 + y^2 + z^2."""


class BasePointHit(BirsphereError):
    """Evaluation requested at a base point of a birational map."""


class NotRealityMember(BirsphereError):
    """Matrix is not compatible with the real structure of the sphere."""


class NotInvolution(BirsphereError):
    """An element of order 2 was required."""


class NotFiniteOrder(BirsphereError):
    """A finite-order element was required."""


class InfiniteOrderBase(BirsphereError):
    """The base action is an interval shift of infinite order."""


class HasRealRoot(BirsphereError):
    """A polynomial without real roots was required."""


class NotDiffeomorphism(BirsphereError):
    """Element is birational but not defined at every real point."""


class NotEvenFunction(BirsphereError):
    """A real polynomial invariant under z -> -z was required."""


class NotAutomorphism(BirsphereError):
    """Matrix does not preserve the lattice data."""


class DegenerateConfiguration(BirsphereError):
    """Point configuration does not give a Del Pezzo surface."""


class UndecidedExact(BirsphereError):
    """The decision procedure cannot certify either answer exactly."""
