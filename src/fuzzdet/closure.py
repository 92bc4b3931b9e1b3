"""The closure of an automaton's values, and the encoding it gives them.

semiring_closure closes a value set under join and tmul, one exact rule
per lattice, and preflight turns the closure of an automaton's values
into the k^n bound on every derivative construction. carrier_of encodes
the values that enter one construction (see algebra.Carrier). semiring,
det and equiv load this module; eval does not.
"""

from collections.abc import Iterable
from fractions import Fraction
from math import lcm

from .algebra import DEFAULT_CAP, Carrier
from .errors import InvalidCap, LatticeMismatch
from .lattice import Lattice, Record, Value


class _Fractions(dict):
    """Fraction(x, q) by numerator x, each made once, on first use."""

    def __init__(self, q: int):
        super().__init__()
        self.q = q

    def __missing__(self, x: int) -> Fraction:
        v = self[x] = Fraction(x, self.q)
        return v


def carrier_of(lattice: Lattice, values: Iterable[Value]) -> Carrier:
    """The Carrier for lattice values (checked already) plus bottom and top.

    The encodings:
      chain K      the indices themselves;
      lukasiewicz, boolean
                   numerators x over q, the lcm of the denominators;
      godel        ranks in the sorted start set (values plus 0 and 1);
      goguen       the Fractions themselves: a value strictly inside
                   (0, 1) makes the closure infinite, so no finite code
                   table exists.
    So on a chain and on goguen it is the identity carrier. Every value a
    construction can reach lies in the closure of the values the carrier
    was built from, so build it from every value that enters.
    """
    kind = lattice.kind
    if kind in ("chain", "goguen"):
        return Carrier.identity(lattice)
    values = {*values, lattice.bottom, lattice.top}
    if kind == "godel":
        ranked = sorted(values)
        rank = {v: i for i, v in enumerate(ranked)}
        return Carrier(lattice, 0, len(ranked) - 1, rank.__getitem__, ranked.__getitem__)
    q = lcm(*(v.denominator for v in values))
    return Carrier(lattice, 0, q, lambda v: v.numerator * (q // v.denominator),
                   _Fractions(q).__getitem__)


class ValueSet(Record):
    """Finite set of values from one lattice, each checked; iterates in sorted order."""

    __slots__ = ("lattice", "elements")

    def __init__(self, lattice: Lattice, elements: frozenset):
        lattice.check_all(elements)
        super().__init__(lattice, elements)

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
    carrier = carrier_of(lattice, start)
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

def automaton_values(a: "FuzzyAutomaton") -> ValueSet:
    """Every membership degree appearing in sigma, tau or a transition matrix."""
    values = set(a.sigma.entries) | set(a.tau.entries)
    for m in a.delta.values():
        for row in m.entries:
            values.update(row)
    return ValueSet(a.lattice, frozenset(values))


class PreflightReport(Record):
    """Value subsemiring closure plus the k^n state bound it implies."""

    __slots__ = ("closure", "n")

    @property
    def bound(self) -> int | None:
        """Upper bound k^n on derivative vectors, None when the closure capped."""
        if not self.closure.closed:
            return None
        return self.closure.k ** self.n


def preflight(a: "FuzzyAutomaton", value_cap: int = DEFAULT_CAP) -> PreflightReport:
    """Close the automaton's values under join and tmul before determinizing.

    A closed set of k values bounds every derivative construction by k^n
    states and guarantees termination; a capped closure guarantees nothing
    either way. value_cap must be at least 1.
    """
    closure = semiring_closure(a.lattice, automaton_values(a), value_cap)
    return PreflightReport(closure, a.n)
