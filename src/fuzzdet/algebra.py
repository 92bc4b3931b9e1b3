"""Fuzzy vectors and matrices with sup-multiplication composition.

Entries are exact lattice values, checked against the carrier when a vector
or matrix is built; every container carries its lattice and operations
refuse to mix lattices. All five structures are chains, so every
composition is one of two loops over plain tuples: the sup-product
(_sup_product, join of tmul) and the implication meet (_residual_meet, meet
of resid). Both skip the factors that cannot move the result and stop early
at top or bottom. Both run on a Carrier, with tmul and resid from
lattice.operations: the public operations on the lattice's identity
carrier, on values checked when their container was built, and the
constructions on their values encoded once (closure.carrier_of).
"""

from collections.abc import Callable, Iterable, Iterator
from functools import cache

from .errors import DimensionMismatch, LatticeMismatch
from .lattice import Lattice, Record, Value, _set, operations


def _same_lattice(a, b) -> None:
    if a.lattice != b.lattice:
        raise LatticeMismatch(
            f"mixed lattices: {a.lattice.describe()} vs {b.lattice.describe()}")


class FuzzyVector(Record):
    """Immutable nonempty tuple of membership degrees over one lattice; each is checked."""

    __slots__ = ("lattice", "entries")

    def __init__(self, lattice: Lattice, entries: tuple[Value, ...]):
        if not entries:
            raise DimensionMismatch("a fuzzy vector needs at least one entry")
        lattice.check_all(entries)
        _set(self, "lattice", lattice)
        _set(self, "entries", entries)

    @classmethod
    def from_values(cls, lattice: Lattice, values: Iterable) -> "FuzzyVector":
        return cls(lattice, tuple(lattice.coerce(v) for v in values))

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> Value:
        return self.entries[i]

    def __iter__(self) -> Iterator[Value]:
        return iter(self.entries)

    def __repr__(self) -> str:
        body = " ".join(self.lattice.format_value(v) for v in self.entries)
        return f"<vector {self.lattice.describe()} [{body}]>"


class FuzzyMatrix(Record):
    """Immutable nonempty rectangular matrix of membership degrees; shape and
    entries are checked when it is built."""

    __slots__ = ("lattice", "entries")

    def __init__(self, lattice: Lattice, entries: tuple[tuple[Value, ...], ...]):
        if not entries or not entries[0]:
            raise DimensionMismatch("a fuzzy matrix needs at least one row and column")
        width = len(entries[0])
        for r, row in enumerate(entries):
            if len(row) != width:
                raise DimensionMismatch(
                    f"row {r + 1} has {len(row)} entries, expected {width}")
            lattice.check_all(row)
        super().__init__(lattice, entries)

    @classmethod
    def from_rows(cls, lattice: Lattice, rows: Iterable[Iterable]) -> "FuzzyMatrix":
        return cls(lattice, tuple(tuple(lattice.coerce(v) for v in row) for row in rows))

    @property
    def n_rows(self) -> int:
        return len(self.entries)

    @property
    def n_cols(self) -> int:
        return len(self.entries[0])

    def row(self, i: int) -> tuple[Value, ...]:
        return self.entries[i]

    def __repr__(self) -> str:
        rows = "; ".join(
            " ".join(self.lattice.format_value(v) for v in row) for row in self.entries)
        return f"<matrix {self.lattice.describe()} [{rows}]>"


# -- the two loops --------------------------------------------------------
#
# c is a Carrier: bottom, top, tmul and resid over one chain, so that join
# and meet are comparisons. A row is given as the (k, x) pairs of its
# entries other than bottom (_pairs): a bottom entry moves neither loop,
# and the rows the constructions use again and again are sparse.


def _pairs(c: "Carrier", rows) -> tuple:
    """Each row as the (k, x) pairs of its entries other than bottom."""
    bottom = c.bottom
    return tuple(tuple((k, x) for k, x in enumerate(row) if x != bottom) for row in rows)


def _sup_product(c: "Carrier", rows, vec) -> tuple:
    """(join_k tmul(x, vec[k]) over (k, x) in row, for each row)."""
    bottom, top, tmul = c.bottom, c.top, c.tmul
    out = []
    for row in rows:
        acc = bottom
        for k, x in row:
            y = vec[k]
            if y == bottom:
                continue
            z = tmul(x, y)
            if z > acc:
                acc = z
                if acc == top:
                    break
        out.append(acc)
    return tuple(out)


def _residual_meet(c: "Carrier", rows, vec) -> tuple:
    """(meet_k resid(x, vec[k]) over (k, x) in row, for each row).

    resid(x, y) is top exactly when x <= y, so only x > y can lower the meet.
    """
    bottom, top, resid = c.bottom, c.top, c.resid
    out = []
    for row in rows:
        acc = top
        for k, x in row:
            y = vec[k]
            if x <= y:
                continue
            z = resid(x, y)
            if z < acc:
                acc = z
                if acc == bottom:
                    break
        out.append(acc)
    return tuple(out)


def vec_mat(f: FuzzyVector, m: FuzzyMatrix) -> FuzzyVector:
    """Row vector times matrix under sup-multiplication."""
    _same_lattice(f, m)
    if len(f) != m.n_rows:
        raise DimensionMismatch(f"vector of length {len(f)} against {m.n_rows} rows")
    c = Carrier.identity(f.lattice)
    return FuzzyVector(f.lattice, _sup_product(c, _pairs(c, zip(*m.entries)), f.entries))


def dot(f: FuzzyVector, g: FuzzyVector) -> Value:
    """Scalar sup-multiplication product of two vectors of equal length."""
    _same_lattice(f, g)
    if len(f) != len(g):
        raise DimensionMismatch(f"dot of lengths {len(f)} and {len(g)}")
    c = Carrier.identity(f.lattice)
    return _sup_product(c, _pairs(c, (f.entries,)), g.entries)[0]


# -- the encoded carrier ---------------------------------------------------


def _same(x):
    return x


class Carrier:
    """The values of one construction encoded once, with tmul and resid bound.

    Codes are compared, hashed and combined as bare values; join and meet
    are max and min, because every structure is a chain. tmul and resid
    are lattice.operations on the codes' ends. identity makes the carrier
    whose codes are the values themselves, and closure.carrier_of the one
    a construction encodes its values in. encode and decode map one
    value; decode returns the lattice's own type, a Fraction on the
    rational lattices and an int on chains.
    """

    __slots__ = ("lattice", "bottom", "top", "tmul", "resid", "encode", "decode")

    def __init__(self, lattice: Lattice, bottom, top, encode: Callable, decode: Callable):
        self.lattice, self.bottom, self.top = lattice, bottom, top
        self.tmul, self.resid = operations(lattice.kind, bottom, top)
        self.encode, self.decode = encode, decode

    @classmethod
    @cache
    def identity(cls, lattice: Lattice) -> "Carrier":
        """The lattice's values as their own codes, made once per lattice."""
        return cls(lattice, lattice.bottom, lattice.top, _same, _same)

    def codes(self, entries: Iterable[Value]) -> tuple:
        return tuple(map(self.encode, entries))

    def values(self, codes: Iterable) -> tuple[Value, ...]:
        return tuple(map(self.decode, codes))


DEFAULT_CAP = 10_000
