"""Fuzzy vectors and matrices with sup-multiplication composition.

Entries are exact lattice values; every container carries its lattice and
operations refuse to mix lattices. Compositions skip zero factors and stop a
join early at top, which matters once determinization starts composing the
same matrices thousands of times.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Iterator

from .errors import DimensionMismatch, InvalidCap, LatticeMismatch
from .lattice import Lattice, Value


def _same_lattice(a, b) -> None:
    if a.lattice != b.lattice:
        raise LatticeMismatch(
            f"mixed lattices: {a.lattice.describe()} vs {b.lattice.describe()}")


@dataclass(frozen=True)
class FuzzyVector:
    """Immutable tuple of membership degrees over one lattice."""

    lattice: Lattice
    entries: tuple[Value, ...]

    @classmethod
    def from_values(cls, lattice: Lattice, values: Iterable) -> "FuzzyVector":
        entries = tuple(lattice.coerce(v) for v in values)
        if not entries:
            raise DimensionMismatch("a fuzzy vector needs at least one entry")
        return cls(lattice, entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> Value:
        return self.entries[i]

    def __iter__(self) -> Iterator[Value]:
        return iter(self.entries)

    def __repr__(self) -> str:
        body = " ".join(self.lattice.format_value(v) for v in self.entries)
        return f"<vector {self.lattice.describe()} [{body}]>"


@dataclass(frozen=True)
class FuzzyMatrix:
    """Immutable rectangular matrix of membership degrees."""

    lattice: Lattice
    entries: tuple[tuple[Value, ...], ...]

    @classmethod
    def from_rows(cls, lattice: Lattice, rows: Iterable[Iterable]) -> "FuzzyMatrix":
        built = tuple(tuple(lattice.coerce(v) for v in row) for row in rows)
        if not built or not built[0]:
            raise DimensionMismatch("a fuzzy matrix needs at least one row and column")
        width = len(built[0])
        for r, row in enumerate(built):
            if len(row) != width:
                raise DimensionMismatch(
                    f"row {r + 1} has {len(row)} entries, expected {width}")
        return cls(lattice, built)

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


def identity_matrix(lattice: Lattice, n: int) -> FuzzyMatrix:
    """Crisp identity: top on the diagonal, bottom elsewhere."""
    if n < 1:
        raise DimensionMismatch("identity needs n >= 1")
    top, bottom = lattice.top, lattice.bottom
    return FuzzyMatrix(
        lattice,
        tuple(tuple(top if i == j else bottom for j in range(n)) for i in range(n)))


def mat_compose(a: FuzzyMatrix, b: FuzzyMatrix) -> FuzzyMatrix:
    """Sup-multiplication product: (a∘b)[i][j] = join_k tmul(a[i][k], b[k][j])."""
    _same_lattice(a, b)
    if a.n_cols != b.n_rows:
        raise DimensionMismatch(f"cannot compose {a.n_cols} columns with {b.n_rows} rows")
    lat = a.lattice
    bottom, top = lat.bottom, lat.top
    tmul, join = lat.tmul, lat.join
    cols = range(b.n_cols)
    out = []
    for row in a.entries:
        line = []
        for j in cols:
            acc = bottom
            for k, x in enumerate(row):
                if x == bottom:
                    continue
                y = b.entries[k][j]
                if y == bottom:
                    continue
                acc = join(acc, tmul(x, y))
                if acc == top:
                    break
            line.append(acc)
        out.append(tuple(line))
    return FuzzyMatrix(lat, tuple(out))


def vec_mat(f: FuzzyVector, m: FuzzyMatrix) -> FuzzyVector:
    """Row vector times matrix under sup-multiplication."""
    _same_lattice(f, m)
    if len(f) != m.n_rows:
        raise DimensionMismatch(f"vector of length {len(f)} against {m.n_rows} rows")
    lat = f.lattice
    bottom, top = lat.bottom, lat.top
    tmul, join = lat.tmul, lat.join
    out = []
    for j in range(m.n_cols):
        acc = bottom
        for i, x in enumerate(f.entries):
            if x == bottom:
                continue
            y = m.entries[i][j]
            if y == bottom:
                continue
            acc = join(acc, tmul(x, y))
            if acc == top:
                break
        out.append(acc)
    return FuzzyVector(lat, tuple(out))


def mat_vec(m: FuzzyMatrix, g: FuzzyVector) -> FuzzyVector:
    """Matrix times column vector under sup-multiplication."""
    _same_lattice(m, g)
    if m.n_cols != len(g):
        raise DimensionMismatch(f"{m.n_cols} columns against vector of length {len(g)}")
    lat = m.lattice
    bottom, top = lat.bottom, lat.top
    tmul, join = lat.tmul, lat.join
    out = []
    for row in m.entries:
        acc = bottom
        for x, y in zip(row, g.entries):
            if x == bottom or y == bottom:
                continue
            acc = join(acc, tmul(x, y))
            if acc == top:
                break
        out.append(acc)
    return FuzzyVector(lat, tuple(out))


def dot(f: FuzzyVector, g: FuzzyVector) -> Value:
    """Scalar sup-multiplication product of two vectors of equal length."""
    _same_lattice(f, g)
    if len(f) != len(g):
        raise DimensionMismatch(f"dot of lengths {len(f)} and {len(g)}")
    lat = f.lattice
    bottom, top = lat.bottom, lat.top
    tmul, join = lat.tmul, lat.join
    acc = bottom
    for x, y in zip(f.entries, g.entries):
        if x == bottom or y == bottom:
            continue
        acc = join(acc, tmul(x, y))
        if acc == top:
            break
    return acc


def inclusion_degree(f: FuzzyVector, g: FuzzyVector) -> Value:
    """Degree to which f is contained in g: meet_i resid(f[i], g[i]).

    Equals top exactly when f <= g pointwise.
    """
    _same_lattice(f, g)
    if len(f) != len(g):
        raise DimensionMismatch(f"inclusion of lengths {len(f)} and {len(g)}")
    lat = f.lattice
    bottom = lat.bottom
    acc = lat.top
    for x, y in zip(f.entries, g.entries):
        acc = lat.meet(acc, lat.resid(x, y))
        if acc == bottom:
            break
    return acc


@dataclass(frozen=True)
class ValueSet:
    """Finite set of values from one lattice; iterates in sorted order."""

    lattice: Lattice
    elements: frozenset

    @classmethod
    def of(cls, lattice: Lattice, values: Iterable) -> "ValueSet":
        return cls(lattice, frozenset(lattice.coerce(v) for v in values))

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, v) -> bool:
        return v in self.elements

    def __iter__(self):
        return iter(sorted(self.elements))


@dataclass(frozen=True)
class SemiringClosure:
    """Outcome of closing a value set under join and tmul.

    closed is False exactly when the closure has more than cap values; on
    goguen that proves the closure infinite. reached is the size of the
    start set (seed plus bottom and top) when that alone exceeds cap, else
    cap + 1 when capped, else the closure size.
    """

    closed: bool
    values: ValueSet | None
    reached: int
    cap: int

    @property
    def k(self) -> int | None:
        """Number of values in the closed set, None when capped."""
        return len(self.values) if self.closed else None


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
        start = {lattice.check(v) for v in seed.elements}
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

    With values scaled to numerators x over q and complements c = q - x,
    tmul(x, y) = max(x + y - q, 0) becomes min(c1 + c2, q). Starting from
    the complements, a worklist adds one seed complement at a time, so the
    work is bounded by cap times the seed size and never by q.
    """
    if lattice.kind == "chain":
        q = lattice.top_index
        nums = start
    else:
        q = lcm(*(v.denominator for v in start))
        nums = {v.numerator * (q // v.denominator) for v in start}
    seen = {q - x for x in nums}
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
    if lattice.kind == "chain":
        return {q - c for c in seen}
    return {Fraction(q - c, q) for c in seen}
