"""Exception types shared across the package."""


class Error(Exception):
    """Base class for all tentstab errors."""


class InvalidPolygon(Error):
    """Vertex list is not a valid counter-clockwise convex polygon."""


class DegeneratePolygon(Error):
    """Operation requires a polygon with positive area."""


class SingularMatrix(Error):
    """2x2 linear part is not invertible at the working tolerance."""


class ParameterOutOfRange(Error):
    """Map or run parameter outside its admissible interval."""


class OutsideRegion(Error):
    """Point does not belong to the map's region."""


class RegionMismatch(Error):
    """Two objects are defined over different regions."""


class ResolutionTooLow(Error):
    """Discretization grid fails to capture the map's image."""


class ZeroVariation(Error):
    """Ratio undefined because the function has zero variation."""


class CellExplosion(Error):
    """A branch, grid, matrix or arrangement size exceeds MAX_CELLS."""


class ConfigError(Error):
    """Invalid command-line configuration; message names the flag."""
