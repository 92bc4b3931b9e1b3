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
constructions on their values encoded once. semiring_closure and
preflight bound a construction before it runs, so that semiring needs
no determinize.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from fractions import Fraction
from functools import cache
from math import lcm

from .errors import DimensionMismatch, InvalidCap, LatticeMismatch
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
        _set(self, "lattice", lattice)
        _set(self, "entries", entries)

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

    def transpose(self) -> "FuzzyMatrix":
        return FuzzyMatrix(self.lattice, tuple(zip(*self.entries)))

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


def _pairs(c: Carrier, rows) -> tuple:
    """Each row as the (k, x) pairs of its entries other than bottom."""
    bottom = c.bottom
    return tuple(tuple((k, x) for k, x in enumerate(row) if x != bottom) for row in rows)


def _sup_product(c: Carrier, rows, vec) -> tuple:
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


def _residual_meet(c: Carrier, rows, vec) -> tuple:
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


def _compose(c: Carrier, a_rows, b_rows) -> tuple:
    """Rows of the sup-product a ∘ b: each row of a against the columns of b."""
    cols = _pairs(c, zip(*b_rows))
    return tuple(_sup_product(c, cols, row) for row in a_rows)


def mat_compose(a: FuzzyMatrix, b: FuzzyMatrix) -> FuzzyMatrix:
    """Sup-multiplication product: (a∘b)[i][j] = join_k tmul(a[i][k], b[k][j])."""
    _same_lattice(a, b)
    if a.n_cols != b.n_rows:
        raise DimensionMismatch(f"cannot compose {a.n_cols} columns with {b.n_rows} rows")
    c = Carrier.identity(a.lattice)
    return FuzzyMatrix(a.lattice, _compose(c, a.entries, b.entries))


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


class _Fractions(dict):
    """Fraction(x, q) by numerator x, each made once, on first use."""

    def __init__(self, q: int):
        super().__init__()
        self.q = q

    def __missing__(self, x: int) -> Fraction:
        v = self[x] = Fraction(x, self.q)
        return v


def _same(x):
    return x


class Carrier:
    """The values of one construction encoded once, with tmul and resid bound.

    Codes are compared, hashed and combined as bare values; join and meet
    are max and min, because every structure is a chain. tmul and resid
    are lattice.operations on the codes' ends. The encodings:
      chain K      the indices themselves;
      lukasiewicz, boolean
                   numerators x over q, the lcm of the denominators;
      godel        ranks in the sorted start set (values plus 0 and 1);
      goguen       the Fractions themselves: a value strictly inside
                   (0, 1) makes the closure infinite, so no finite code
                   table exists.
    Every value a construction can reach lies in the closure of the values
    the carrier was built from, so build it from every value that enters.
    encode and decode map one value; decode returns the lattice's own
    type, a Fraction on the rational lattices and an int on chains.
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

    @classmethod
    def of(cls, lattice: Lattice, values: Iterable[Value]) -> "Carrier":
        """The carrier for lattice values (checked already) plus bottom and top;
        on a chain and on goguen, the identity carrier."""
        kind = lattice.kind
        if kind in ("chain", "goguen"):
            return cls.identity(lattice)
        values = {*values, lattice.bottom, lattice.top}
        if kind == "godel":
            ranked = sorted(values)
            rank = {v: i for i, v in enumerate(ranked)}
            return cls(lattice, 0, len(ranked) - 1, rank.__getitem__, ranked.__getitem__)
        q = lcm(*(v.denominator for v in values))
        return cls(lattice, 0, q, lambda v: v.numerator * (q // v.denominator),
                   _Fractions(q).__getitem__)

    def codes(self, entries: Iterable[Value]) -> tuple:
        return tuple(map(self.encode, entries))

    def values(self, codes: Iterable) -> tuple[Value, ...]:
        return tuple(map(self.decode, codes))


class ValueSet(Record):
    """Finite set of values from one lattice, each checked; iterates in sorted order."""

    __slots__ = ("lattice", "elements")

    def __init__(self, lattice: Lattice, elements: frozenset):
        lattice.check_all(elements)
        _set(self, "lattice", lattice)
        _set(self, "elements", elements)

    @classmethod
    def of(cls, lattice: Lattice, values: Iterable) -> "ValueSet":
        return cls(lattice, frozenset(lattice.coerce(v) for v in values))

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, v) -> bool:
        return v in self.elements

    def __iter__(self):
        return iter(sorted(self.elements))


class SemiringClosure(Record):
    """Outcome of closing a value set under join and tmul.

    closed is False exactly when the closure has more than cap values; on
    goguen that proves the closure infinite. reached is the size of the
    start set (seed plus bottom and top) when that alone exceeds cap, else
    cap + 1 when capped, else the closure size.
    """

    __slots__ = ("closed", "values", "reached", "cap")

    def __init__(self, closed: bool, values: ValueSet | None, reached: int, cap: int):
        _set(self, "closed", closed)
        _set(self, "values", values)
        _set(self, "reached", reached)
        _set(self, "cap", cap)

    @property
    def k(self) -> int | None:
        """Number of values in the closed set, None when capped."""
        return len(self.values) if self.closed else None


DEFAULT_CAP = 10_000


def require_cap(cap: int, what: str) -> None:
    """Raise InvalidCap unless cap is an int of at least 1; a bool is no int here."""
    if isinstance(cap, bool) or not isinstance(cap, int) or cap < 1:
        raise InvalidCap(f"{what} must be a positive integer, got {cap!r}")


def semiring_closure(lattice: Lattice, seed, cap: int) -> SemiringClosure:
    """Close seed (plus bottom and top) under join and tmul, up to cap values.

    Every structure is a chain, so join adds nothing and one rule per
    lattice gives the closure of tmul exactly:
      godel        min adds nothing either: the closure is the start set;
      goguen       the powers of a value strictly inside (0, 1) strictly
                   decrease, so such a value makes the closure infinite;
                   otherwise it is {0, 1};
      lukasiewicz, boolean and chain K
                   every value is a multiple of 1/q (q the lcm of the
                   denominators, q = K on a chain), and the closure is the
                   set of truncated sums of the complements (_truncated_sums).
    cap must be at least 1; every seed value must lie in the carrier.
    """
    require_cap(cap, "value cap")
    if isinstance(seed, ValueSet):
        if seed.lattice != lattice:
            raise LatticeMismatch(
                f"seed lattice {seed.lattice.describe()} vs {lattice.describe()}")
        start = set(seed.elements)
    else:
        start = {lattice.coerce(v) for v in seed}
    start.update((lattice.bottom, lattice.top))
    if len(start) > cap:
        return SemiringClosure(False, None, len(start), cap)

    if lattice.kind == "godel":
        closure = start
    elif lattice.kind == "goguen":
        closure = None if len(start) > 2 else start
    else:
        closure = _truncated_sums(lattice, start, cap)
    if closure is None:
        return SemiringClosure(False, None, cap + 1, cap)
    return SemiringClosure(True, ValueSet(lattice, frozenset(closure)), len(closure), cap)


def _truncated_sums(lattice: Lattice, start: set, cap: int) -> set | None:
    """The tmul closure of start on lukasiewicz, boolean or chain K, None past cap.

    On the Carrier's numerators x over q and their complements c = q - x,
    tmul(x, y) = max(x + y - q, 0) becomes min(c1 + c2, q). Starting from
    the complements, a worklist adds one seed complement at a time, so the
    work is bounded by cap times the seed size and never by q.
    """
    carrier = Carrier.of(lattice, start)
    q = carrier.top
    seen = {q - x for x in carrier.codes(start)}
    steps = sorted(seen - {0, q})
    work = list(seen)
    while work:
        c = work.pop()
        for g in steps:
            s = c + g
            if s >= q:
                break
            if s not in seen:
                seen.add(s)
                if len(seen) > cap:
                    return None
                work.append(s)
    return set(carrier.values(q - c for c in seen))


# -- pre-flight bound ------------------------------------------------------
#
# These read an automaton's lattice, n, sigma, tau and delta only, so this
# module needs no import of automata; annotations are not evaluated.

def automaton_values(a: FuzzyAutomaton) -> ValueSet:
    """Every membership degree appearing in sigma, tau or a transition matrix."""
    values = set(a.sigma.entries) | set(a.tau.entries)
    for m in a.delta.values():
        for row in m.entries:
            values.update(row)
    return ValueSet(a.lattice, frozenset(values))


class PreflightReport(Record):
    """Value subsemiring closure plus the k^n state bound it implies."""

    __slots__ = ("closure", "n")

    def __init__(self, closure: SemiringClosure, n: int):
        _set(self, "closure", closure)
        _set(self, "n", n)

    @property
    def bound(self) -> int | None:
        """Upper bound k^n on derivative vectors, None when the closure capped."""
        if not self.closure.closed:
            return None
        return self.closure.k ** self.n


def preflight(a: FuzzyAutomaton, value_cap: int = DEFAULT_CAP) -> PreflightReport:
    """Close the automaton's values under join and tmul before determinizing.

    A closed set of k values bounds every derivative construction by k^n
    states and guarantees termination; a capped closure guarantees nothing
    either way. value_cap must be at least 1.
    """
    closure = semiring_closure(a.lattice, automaton_values(a), value_cap)
    return PreflightReport(closure, a.n)
