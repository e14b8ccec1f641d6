"""Exception types shared across the package."""


class ParseError(ValueError):
    """Malformed input text. Carries the 0-based offset of the offending token.

    ``message`` is the text without the position, for a caller that
    places the error in a longer input.
    """

    def __init__(self, message: str, position: int | None = None):
        self.message = message
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class SemanticError(ValueError):
    """Well-formed input rejected by an operation (arity, domain restrictions)."""
