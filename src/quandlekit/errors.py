"""Exception hierarchy for quandlekit.

Validation errors carry the indices of the first violation found so tests
and CLI output can name a concrete witness.
"""


class QuandleKitError(Exception):
    pass


class FileFormatError(QuandleKitError):
    """Malformed group/quandle table file."""


# -- group validation ---------------------------------------------------------

class GroupValidationError(QuandleKitError):
    pass


class NotLatinSquare(GroupValidationError):
    def __init__(self, axis, index, entry):
        self.axis = axis          # "row" or "column"
        self.index = index
        self.entry = entry
        super().__init__(f"{axis} {index} repeats entry {entry}")


class NotAssociative(GroupValidationError):
    def __init__(self, i, j, k):
        self.triple = (i, j, k)
        super().__init__(f"associativity fails at ({i}, {j}, {k})")


class NoIdentity(GroupValidationError):
    def __init__(self):
        super().__init__("no two-sided identity element")


class NotASubgroup(QuandleKitError, ValueError):
    """An explicit element set is empty, out of range or not closed."""


class UnknownFamily(QuandleKitError):
    pass


class OrderTooLarge(QuandleKitError):
    pass


# -- quandle validation -------------------------------------------------------

class QuandleValidationError(QuandleKitError):
    pass


class NotIdempotent(QuandleValidationError):
    def __init__(self, x):
        self.x = x
        super().__init__(f"x <| x != x at x={x}")


class ColumnNotBijective(QuandleValidationError):
    def __init__(self, y):
        self.y = y
        super().__init__(f"column {y} is not a permutation")


class NotSelfDistributive(QuandleValidationError):
    def __init__(self, x, y, z):
        self.triple = (x, y, z)
        super().__init__(f"self-distributivity fails at ({x}, {y}, {z})")


class AutomorphismMismatch(QuandleKitError):
    pass


class NotNormal(QuandleKitError):
    pass


class ClosureViolation(QuandleKitError):
    """Second coordinate of an extension product left the subgroup.

    Normality guarantees closure, so raising this signals a bug in the
    caller-supplied subgroup or in the construction itself.
    """


class SizeMismatch(QuandleKitError):
    pass


# -- tangle diagrams ----------------------------------------------------------

class TangleError(QuandleKitError):
    pass


class TangleSyntaxError(TangleError):
    def __init__(self, line_no, message):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


class DanglingArc(TangleError):
    pass


class DuplicateUnderOut(TangleError):
    pass


class DisconnectedStrand(TangleError):
    pass


class UnknownName(QuandleKitError):
    pass


class OutputCapExceeded(QuandleKitError):
    pass
