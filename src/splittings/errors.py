"""Error types shared across the package.

IdentityViolation is special: it signals that a mathematical identity the
code relies on failed at runtime, which is always a bug in this package,
never a property of the input. The CLI maps it to exit code 2.
"""

from __future__ import annotations


class SplittingsError(Exception):
    """Root of the package's error hierarchy."""


def clipped(text: str, show=repr) -> str:
    """show(text) for an error message, cut to show of its first 20
    characters and its length when it is longer than 40."""
    return show(text) if len(text) <= 40 else f"{show(text[:20])}... ({len(text)} chars)"


def clipped_name(name) -> str:
    """repr(name) for an error message, clipped: a string as clipped() cuts
    it, so a name of at most 40 characters is shown whole, and any other
    value by the length of its repr."""
    return clipped(name) if isinstance(name, str) else clipped(repr(name), str)


def int_text(n: int) -> str:
    """n for an error message, clipped as clipped() cuts it; an integer past
    the interpreter's limit on digits has no decimal text and is named by
    its sign and size in bits."""
    try:
        return clipped(str(n), str)
    except ValueError:
        return f"<{'negative' if n < 0 else 'positive'} integer of {n.bit_length()} bits>"


def check_ids(vertex_ids, edge_ids, kind: str) -> None:
    """SemanticError unless every vertex and edge id is a string and neither
    list repeats an id; kind is "" for a GBS graph, " orbit" for a skeleton."""
    named = (("vertex", vertex_ids), ("edge", edge_ids))
    for what, ids in named:
        for i in ids:
            if not isinstance(i, str):
                raise SemanticError(f"{what}{kind} id {clipped_name(i)} is not a string")
    for what, ids in named:
        if len(set(ids)) != len(ids):
            raise SemanticError(f"duplicate {what}{kind} id")


def require_nonnegative(what: str, n: int) -> None:
    """SemanticError unless the bound n is an integer >= 0 (bool is an int
    subclass, so it passes)."""
    if not isinstance(n, int):
        raise SemanticError(f"{what} must be an integer, got {clipped(repr(n), str)}")
    if n < 0:
        raise SemanticError(f"{what} must be >= 0, got {int_text(n)}")


# -- orbifold ---------------------------------------------------------------

class ConeOrderTooSmall(SplittingsError):
    pass


class CornerOrderTooSmall(SplittingsError):
    pass


class EmptyMixedWord(SplittingsError):
    pass


class InvalidCircle(SplittingsError):
    """Corner order attached to a non mirror-mirror adjacency, a missing
    corner at a mirror-mirror adjacency, or a self-corner on a closed
    mirror circle."""


class InvalidOrbifold(SplittingsError):
    """Structurally impossible surface data (negative genus, or a
    non-orientable surface with zero cross-caps)."""


class NotHyperbolic(SplittingsError):
    pass


# -- gbs --------------------------------------------------------------------

class Disconnected(SplittingsError):
    pass


class ZeroLabel(SplittingsError):
    pass


class InvalidPath(SplittingsError):
    """A word's items do not form a closed edge path at its base vertex."""


class IdentityViolation(SplittingsError):
    """A mathematical self-check failed; always a bug, never bad input."""


# -- cylinders ---------------------------------------------------------------

class UnclassedEnd(SplittingsError):
    pass


class MissingFlag(SplittingsError):
    pass


# -- cli_io -------------------------------------------------------------------

class DocumentSyntaxError(SplittingsError):
    """Malformed document text at a 1-based line, kept as .line; the
    message reads "line N: ...", and a token or line it echoes is clipped."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class SemanticError(SplittingsError):
    """Well-formed text denoting an invalid object, or an invalid argument
    to the API. Module errors such as ZeroLabel and InvalidPath are raised
    as themselves, not wrapped in it."""
