"""Exception types shared across quiltlab modules."""


class QuiltLabError(Exception):
    """Base class for all quiltlab errors."""


class ParseError(QuiltLabError, ValueError):
    """Malformed input text: a template, map, graph or polyline file."""


class UsageError(QuiltLabError, ValueError):
    """A command-line value that is malformed or does not fit its input."""


# --- planar map construction -------------------------------------------------

class MapError(QuiltLabError, ValueError):
    """Invalid half-edge map data."""


class SizeMismatch(MapError):
    """Permutation and involution act on different or odd-sized dart sets."""


class NonInvolution(MapError):
    """twin is not an involution."""


class FixedPointInTwin(MapError):
    """twin has a fixed point (a dart paired with itself)."""


class NonPermutation(MapError):
    """next is not a permutation of the dart set."""


class DisconnectedMap(MapError):
    """The rotation system is not connected (rooted traversal misses darts)."""


# --- meanders ----------------------------------------------------------------

class MeanderError(QuiltLabError, ValueError):
    pass


class FactorizationViolation(MeanderError):
    """The product decomposition of a winding class failed. Would falsify
    the conditional-independence factorization; treated as a test failure."""


# --- curvature ---------------------------------------------------------------

class CurveError(QuiltLabError, ValueError):
    pass


class DegenerateSegment(CurveError):
    """Zero-length segment or an exact cusp (turning angle of +-pi)."""


class NotSimple(CurveError):
    """Curve has a self-intersection where a simple curve was required."""


class HopfViolation(CurveError):
    """A simple closed curve whose total turning is not +-2*pi."""


class PathDegeneratesUnderF(CurveError):
    """The image of a path has coincident consecutive points."""


# --- templates / quilts --------------------------------------------------------

class TemplateError(QuiltLabError, ValueError):
    pass


class MissingOrder(TemplateError):
    """Template validation requires a face order but none is present."""


class WrongGonProfile(TemplateError):
    """Face gon counts do not match (one 1-gon, one 3-gon, n 4-gons, one 2-gon)."""


class DisconnectedSelection(TemplateError):
    """Marked face subset is not connected under edge adjacency."""


class BijectionViolation(TemplateError):
    """The product map on hole fillings failed to be a bijection."""


class SingularMap(TemplateError):
    """The side-length incidence matrix has |det| != 1."""


class EmbeddingDegenerate(TemplateError):
    """Straight-line embedding produced coincident or unusable geometry."""


class InvalidChoice(TemplateError):
    """An arc choice violates the in/out-degree-one requirement."""


class BudgetExhausted(QuiltLabError, RuntimeError):
    """Enumeration budget reached before the search space was exhausted."""


# --- mating simulator ----------------------------------------------------------

class MatingError(QuiltLabError, ValueError):
    pass


class GammaOutOfRange(MatingError):
    """LQG parameter outside (0, 2)."""


class RejectionBudgetExceeded(QuiltLabError, RuntimeError):
    """Cone-walk rejection sampler gave up before accepting a path."""


class PartitionMismatch(MatingError):
    """Poisson parts do not tile the walk duration."""


class ConstraintViolated(MatingError):
    """Cell lengths violate the cone constraints."""


class LengthCollision(MatingError):
    """A required split point coincides with an existing vertex."""


# --- fields --------------------------------------------------------------------

class FieldsError(QuiltLabError, ValueError):
    pass


class NotOrthogonal(FieldsError):
    """Matrix fails the orthogonality tolerance."""


class NegativeChi(FieldsError):
    """Rotated coupling vector has a negative entry under charge interpretation."""


class Disconnected(FieldsError):
    """Graph is not connected."""


class SingularLaplacian(FieldsError):
    """Dirichlet Laplacian is singular (no interior, or disconnected from boundary)."""
