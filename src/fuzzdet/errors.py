"""Exception types shared across the package."""


class FuzzdetError(Exception):
    """Base class for the errors this package raises about its input. A library caller's
    bad argument raises ValueError instead: a bad alphabet (check_alphabet), lattice kind
    or chain index (Lattice), Cdfa table or Cdfa.step state, or DetOutcome.cdfa at a cap."""


class LatticeMismatch(FuzzdetError):
    """Operands live in different lattices, or a value is invalid for its lattice."""


class DimensionMismatch(FuzzdetError):
    """Vector or matrix dimensions do not line up."""


class UnknownSymbol(FuzzdetError):
    """A word uses a symbol outside the automaton's alphabet."""


class AlphabetMismatch(FuzzdetError):
    """Two automata were expected to share an alphabet but do not."""


class InvalidCap(FuzzdetError):
    """A state or value cap below 1, or not an int, was given."""


class PsiNotReflexive(FuzzdetError):
    """The supplied fuzzy relation is not reflexive."""


class PsiNotLeftInvariant(FuzzdetError):
    """The supplied fuzzy relation fails a left invariance inequality."""


class FormatError(FuzzdetError):
    """Syntax or validation error in a text document.

    Carries the 1-based line (and column when known) so command line
    diagnostics can point at the offending token.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f"line {line}: " if column is None else f"line {line}, column {column}: "
        super().__init__(where + message)
