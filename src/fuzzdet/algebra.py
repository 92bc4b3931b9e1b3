"""Fuzzy vectors and matrices with sup-multiplication composition.

Entries are exact lattice values, each checked once, as a caller builds a
vector or matrix or as from_values and from_rows coerce it, and not again in
results; every container carries its lattice and operations refuse to mix
lattices. Every composition is one of a lattice.Carrier's two loops over
plain tuples, the sup-product (Carrier.product, join of tmul) and the
implication meet (Carrier.implication, meet of resid): the public operations
run on their lattice's identity carrier (_carrier), on values checked when
their container was built, and the constructions on their values encoded
once (closure.carrier_of).
"""

from collections.abc import Iterable, Iterator

from .errors import DimensionMismatch, LatticeMismatch
from .lattice import Carrier, Lattice, Record, Value


def _carrier(a, b) -> Carrier:
    """The identity Carrier of a's and b's lattice, once they share one."""
    if a.lattice != b.lattice:
        raise LatticeMismatch(
            f"mixed lattices: {a.lattice.describe()} vs {b.lattice.describe()}")
    return Carrier.identity(a.lattice)


def _entries(entries: tuple) -> tuple:
    """entries, once they can make a vector: it needs at least one."""
    if not entries:
        raise DimensionMismatch("a fuzzy vector needs at least one entry")
    return entries


def _rows(rows: Iterable[Iterable]) -> Iterator[tuple]:
    """Each row as a tuple, once it and the rows before it make a nonempty rectangle."""
    width = 0
    for r, row in enumerate(map(tuple, rows), 1):
        width = width or len(row)
        if not width:
            break
        if len(row) != width:
            raise DimensionMismatch(f"row {r} has {len(row)} entries, expected {width}")
        yield row
    if not width:
        raise DimensionMismatch("a fuzzy matrix needs at least one row and column")


class FuzzyVector(Record):
    """Immutable nonempty tuple of membership degrees over one lattice; a
    caller's entries, any iterable, are read once into a tuple and checked."""

    __slots__ = ("lattice", "entries")

    def __init__(self, lattice: Lattice, entries: Iterable[Value]):
        super().__init__(lattice, _entries(tuple(map(lattice.check, entries))))

    @classmethod
    def from_values(cls, lattice: Lattice, values: Iterable) -> "FuzzyVector":
        return cls._derived(lattice, _entries(tuple(map(lattice.coerce, values))))

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> Value:
        return self.entries[i]

    def __iter__(self) -> Iterator[Value]:
        return iter(self.entries)


class FuzzyMatrix(Record):
    """Immutable nonempty rectangular matrix of membership degrees; a caller's
    rows, any iterables, are read once into tuples, and shape and entries checked."""

    __slots__ = ("lattice", "entries")

    def __init__(self, lattice: Lattice, entries: Iterable[Iterable[Value]]):
        super().__init__(lattice, tuple(tuple(map(lattice.check, row)) for row in _rows(entries)))

    @classmethod
    def from_rows(cls, lattice: Lattice, rows: Iterable[Iterable]) -> "FuzzyMatrix":
        entries = tuple(tuple(map(lattice.coerce, row)) for row in rows)
        return cls._derived(lattice, tuple(_rows(entries)))

    @property
    def n_rows(self) -> int:
        return len(self.entries)

    @property
    def n_cols(self) -> int:
        return len(self.entries[0])

    def row(self, i: int) -> tuple[Value, ...]:
        return self.entries[i]


def vec_mat(f: FuzzyVector, m: FuzzyMatrix) -> FuzzyVector:
    """Row vector times matrix under sup-multiplication."""
    c = _carrier(f, m)
    if len(f) != m.n_rows:
        raise DimensionMismatch(f"vector of length {len(f)} against {m.n_rows} rows")
    return FuzzyVector._derived(f.lattice, c.product(zip(*m.entries))(f.entries))


def dot(f: FuzzyVector, g: FuzzyVector) -> Value:
    """Scalar sup-multiplication product of two vectors of equal length."""
    c = _carrier(f, g)
    if len(f) != len(g):
        raise DimensionMismatch(f"dot of lengths {len(f)} and {len(g)}")
    return c.product((f.entries,))(g.entries)[0]


DEFAULT_CAP = 10_000
