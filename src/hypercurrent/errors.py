"""Exception hierarchy shared by all modules.

Anything raised on malformed or out-of-contract input derives from
HclError so the CLI can map it to exit code 2.  InvariantBroken marks an
internal invariant that failed on valid input, such as a paired chain of
the exact lift that is not a cycle or a lift obstruction on a good
domain; the CLI exits 1 on it.
"""


class HclError(Exception):
    pass


class ParseError(HclError):
    pass


class BoundarySquareNonzero(HclError):
    def __init__(self, j, row, colm, value):
        self.j, self.row, self.col, self.value = j, row, colm, value
        super().__init__(f"D_{j-1} D_{j} nonzero at entry ({row},{colm}): {value}")


class Disconnected(HclError):
    pass


class GapViolated(HclError):
    pass


class NotPositivelyAcyclic(HclError):
    pass


class NotInjective(HclError):
    pass


class NotATree(HclError):
    pass


class LevelMismatch(HclError):
    pass


class NotClosedUnderFaces(HclError):
    pass


class BadCoordinates(HclError):
    pass


class NonpositiveBeta(HclError):
    pass


class NonfiniteBeta(HclError):
    pass


class NotSmall(HclError):
    pass


class NotGood(HclError):
    pass


class NotACycle(HclError):
    pass


class BadFrame(HclError):
    pass


class QuadratureNoConvergence(HclError):
    pass


class EpsilonTooLarge(HclError):
    pass


class StepTooLarge(HclError):
    pass


class InvariantBroken(RuntimeError):
    pass


class LiftObstruction(InvariantBroken):
    """A check of the exact lift failed on a domain certified small, where
    the lift exists: an internal fault, not bad input.  part is the part
    of the domain holding the failing cell, which the message names in
    that part's own vertex numbering (0 on a one-part domain); None when
    no cell is at fault."""

    def __init__(self, message, part=None):
        super().__init__(message)
        self.part = part
