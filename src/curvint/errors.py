"""Exception types raised by the geometry and verification pipeline."""


class CurvintError(Exception):
    """Base class for all curvint errors."""


class DegenerateImmersion(CurvintError):
    """Chart differential is rank-deficient at an evaluated point."""


class FrameNotOrthonormal(CurvintError):
    """A supplied frame is not orthonormal and tangent within tolerance."""


class VanishingField(CurvintError):
    """Tangential part of a field vanishes at an evaluated point."""


class NonIntegerDegree(CurvintError):
    """Degree integral is too far from an integer to be trusted."""


class IndexOutOfRange(CurvintError):
    """Index argument outside its documented range."""
