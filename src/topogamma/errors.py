"""Exception types raised across the package."""


class EngineError(Exception):
    """Base class for every error this package raises on purpose."""


class MaskOutOfRange(EngineError):
    """A subset mask has bits set beyond the universe size, is negative, or
    is not an int."""

    def __init__(self, mask, size: int):
        shown = bin(mask) if type(mask) is int else repr(mask)
        super().__init__(f"mask {shown} does not fit a {size}-point universe")
        self.mask = mask
        self.size = size


class MissingEmptyOrFull(EngineError):
    """An open-set family lacks the empty set or the whole space."""


class NotClosedUnderUnion(EngineError):
    """Witnessed failure of union closure in a candidate topology."""

    def __init__(self, a: int, b: int):
        super().__init__(f"family not closed under union: {bin(a)} | {bin(b)} missing")
        self.witness = (a, b)


class NotClosedUnderIntersection(EngineError):
    """Witnessed failure of intersection closure in a candidate topology."""

    def __init__(self, a: int, b: int):
        super().__init__(f"family not closed under intersection: {bin(a)} & {bin(b)} missing")
        self.witness = (a, b)


class UniverseTooLarge(EngineError):
    """The requested universe exceeds the supported size cap."""


class NotExpansiveOnOpens(EngineError):
    """An operation table maps some open set outside its supersets."""

    def __init__(self, open_mask: int):
        super().__init__(f"operation not expansive on open set {bin(open_mask)}")
        self.witness = open_mask


class ShapeMismatch(EngineError):
    """A claim was evaluated against an instance of the wrong shape."""


class UnknownClaim(EngineError):
    """No claim with the requested id exists in the registry."""


class SchemaError(EngineError):
    """An input file does not match its JSON schema."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.json_path = path
