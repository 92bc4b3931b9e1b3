"""Exact arithmetic in complete residuated lattices.

Every structure here is a chain, so meet and join are min and max and all
that distinguishes the structures is the multiplication and its residuum,
written once for all five in operations().
Values are plain ``fractions.Fraction`` objects for the unit-interval
structures and plain ``int`` indices for finite chains; no floats anywhere.
The lattice descriptor travels with containers (vectors, matrices), not with
the values themselves.
"""

import re
from collections.abc import Callable
from fractions import Fraction
from functools import cache
from operator import attrgetter, mul

from .errors import LatticeMismatch

Value = Fraction | int

_ZERO = Fraction(0)
_ONE = Fraction(1)

KINDS = ("boolean", "godel", "goguen", "lukasiewicz", "chain")

_DECIMAL = re.compile(r"[0-9]+(?:\.[0-9]+)?")  # each read by fullmatch, ASCII digits only
_RATIO = re.compile(r"([0-9]+)/([0-9]+)")
_INDEX = re.compile(r"[0-9]+")


class Record:
    """Base of the package's records: immutable values with eq, hash and repr.

    A subclass lists its fields once, in __slots__; Record(*values, **named)
    sets them in that order or by name, and a subclass that checks its
    arguments ends its own __init__ by calling it. Records of one class
    with equal fields are equal. Only FuzzyVector, one made per cdfa
    state, sets its fields with _set in a straight-line __init__: 0.38 µs
    a call against 0.86 µs here, which would add about 2 ms to a
    4,096-state cdfa (medians of 15 alternating timeit rounds).

    Not a dataclass: importing dataclasses loads inspect, ast and dis, and
    a cold `import fuzzdet.cli` without a bytecode cache took 53 ms with 15
    dataclasses, 34 ms with these records (medians of 30 alternating runs).
    Both measured on a 2-core x86-64 host, Python 3.11.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # attrgetter is not a function, so self._key is unbound
        cls._fields, cls._key = cls.__slots__, attrgetter(*cls.__slots__)

    def __init__(self, *values, **named):
        fields, n = self._fields, len(values)
        if n + len(named) != len(fields) or named and named.keys() - fields[n:]:
            raise TypeError(f"{type(self).__qualname__}({', '.join(fields)}) takes each field "
                            f"once: got {n} by position and {sorted(named)} by name")
        for field, v in zip(fields, values):
            _set(self, field, v)
        for field, v in named.items():
            _set(self, field, v)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return self is other or key(self) == key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


_set = object.__setattr__  # how a record's __init__ sets a field


class Lattice(Record):
    """A residuated lattice on [0, 1] or on the chain 0 <= a_1 <= ... <= a_K.

    kind: one of boolean, godel, goguen, lukasiewicz, chain.
    top_index: the top index K for chain lattices, None otherwise.

    boolean behaves exactly like chain(1) but keeps Fraction values so the
    unit-interval structures share one value representation.
    """

    __slots__ = ("kind", "top_index")

    def __init__(self, kind: str, top_index: int | None = None):
        if kind not in KINDS:
            raise ValueError(f"unknown lattice kind {kind!r}")
        if kind == "chain":
            if isinstance(top_index, bool) or not isinstance(top_index, int) or top_index < 1:
                raise ValueError("a chain lattice needs a top index >= 1")
        elif top_index is not None:
            raise ValueError(f"{kind} takes no top index")
        super().__init__(kind, top_index)

    # -- carrier ---------------------------------------------------------

    @property
    def bottom(self) -> Value:
        return 0 if self.kind == "chain" else _ZERO

    @property
    def top(self) -> Value:
        return self.top_index if self.kind == "chain" else _ONE

    def describe(self) -> str:
        """Name as it appears in documents, e.g. 'goguen' or 'chain 4'."""
        return f"chain {self.top_index}" if self.kind == "chain" else self.kind

    def check(self, v: Value, token: str | None = None) -> Value:
        """Validate that v belongs to this lattice's carrier: an exact int on
        a chain, so never a bool, and a Fraction in [0, 1] otherwise.

        A value read from text is named in errors by its token, any other
        by its repr. Compares plain ints (a Fraction's numerator and its
        positive denominator), since every automaton checks each of its
        entries.
        """
        if self.kind == "chain":
            if type(v) is not int:
                raise LatticeMismatch(f"expected a chain index, got {v!r}")
            inside = 0 <= v <= self.top_index
        elif not isinstance(v, Fraction):
            raise LatticeMismatch(f"expected a Fraction in [0, 1], got {v!r}")
        else:
            inside = 0 <= v.numerator <= v.denominator
        if not inside:
            raise LatticeMismatch(f"{token or repr(v)} is outside {self.describe()}")
        if self.kind == "boolean" and v.denominator != 1:
            raise LatticeMismatch(f"{token or repr(v)} is not a boolean degree")
        return v

    def check_all(self, values: tuple | frozenset) -> None:
        """check every value of a tuple or a set, each distinct object once.

        Values are immutable, and a decoded vector holds a few shared
        objects many times over, so one check per object is enough.
        """
        check = self.check
        for v in dict(zip(map(id, values), values)).values():
            check(v)

    def coerce(self, raw) -> Value:
        """Turn a string, int or Fraction into a checked lattice value.

        Floats are rejected outright (the whole kernel is exact), and so are bools.
        """
        if isinstance(raw, float):
            raise LatticeMismatch(
                f"float {raw!r} rejected, pass a string, int or Fraction instead")
        if isinstance(raw, str):
            return self.parse_value(raw)
        if self.kind == "chain":
            return self.check(raw)
        if isinstance(raw, Fraction):
            self.check(raw)
            return raw if type(raw) is Fraction else Fraction(raw)
        if isinstance(raw, int) and not isinstance(raw, bool):
            return self.check(Fraction(raw))
        raise LatticeMismatch(f"cannot read {raw!r} as a {self.describe()} value")

    def parse_value(self, token: str) -> Value:
        """Parse one value token: decimal, p/q, or a chain index.

        Raises ValueError on malformed syntax, LatticeMismatch when the
        parsed value falls outside the carrier.
        """
        if self.kind == "chain":
            if not _INDEX.fullmatch(token):
                raise ValueError(f"not a chain index: {token!r}")
            return self.check(int(token), token)
        m = _RATIO.fullmatch(token)
        if m:
            num, den = int(m.group(1)), int(m.group(2))
            if den == 0:
                raise ValueError(f"zero denominator: {token!r}")
            return self.check(Fraction(num, den), token)
        if not _DECIMAL.fullmatch(token):
            raise ValueError(f"not a value literal: {token!r}")
        return self.check(Fraction(token), token)

    def format_value(self, v: Value) -> str:
        """Canonical text for a value: terminating decimal if one exists, else p/q."""
        if self.kind == "chain":
            return str(v)
        if v.denominator == 1:
            return str(v.numerator)
        digits = _decimal_digits(v.denominator)
        if digits is None:
            return f"{v.numerator}/{v.denominator}"
        scaled = v.numerator * 10 ** digits // v.denominator
        return "0." + str(scaled).zfill(digits)

    # -- operations ------------------------------------------------------
    #
    # These check both arguments, so that a stray value fails loudly. The
    # constructions and the vector algebra never call them: they run on an
    # algebra.Carrier, whose operations come from operations() as these do.

    @property
    @cache
    def _ops(self) -> tuple[Callable, Callable]:
        """(tmul, resid) on this lattice's values, made once per lattice."""
        return operations(self.kind, self.bottom, self.top)

    def meet(self, x: Value, y: Value) -> Value:
        x, y = self.check(x), self.check(y)
        return x if x <= y else y

    def join(self, x: Value, y: Value) -> Value:
        x, y = self.check(x), self.check(y)
        return x if x >= y else y

    def tmul(self, x: Value, y: Value) -> Value:
        """Multiplication: min for godel, product for goguen, and the truncated
        sum max(x + y - top, 0) for lukasiewicz, boolean and chains."""
        return self._ops[0](self.check(x), self.check(y))

    def resid(self, x: Value, y: Value) -> Value:
        """Residuum, the largest z with tmul(x, z) <= y."""
        return self._ops[1](self.check(x), self.check(y))

    def biresid(self, x: Value, y: Value) -> Value:
        """Biresiduum resid(x, y) meet resid(y, x); equals 1 iff x == y."""
        return self.meet(self.resid(x, y), self.resid(y, x))


def operations(kind: str, bottom, top) -> tuple[Callable, Callable]:
    """The one definition of each kind's (tmul, resid), on bottom..top.

    The ends are a lattice's own on its values and 0..q, the Gödel ranks or
    0..K on a Carrier's codes; Goguen keeps its Fractions. The truncated
    sum, with residuum top - x + y, is lukasiewicz, boolean and chain K on
    values and codes alike. Never memoize this on (kind, bottom, top):
    0 == Fraction(0) and they hash alike, so int codes would leak to values.
    """
    if kind == "godel":
        return min, lambda x, y: top if x <= y else y
    if kind == "goguen":
        return mul, lambda x, y: top if x <= y else y / x
    # one sum, not two: a Fraction sum costs microseconds
    return (lambda x, y: s if (s := x + y - top) > bottom else bottom,
            lambda x, y: top if x <= y else top - x + y)


def _decimal_digits(den: int) -> int | None:
    """Digits after the point for 1/den if the expansion terminates, else None."""
    twos = (den & -den).bit_length() - 1  # the power of 2 in den
    fives = 0
    while den % 5 == 0:
        den //= 5
        fives += 1
    return max(twos, fives) if den >> twos == 1 else None


BOOLEAN = Lattice("boolean")
GODEL = Lattice("godel")
GOGUEN = Lattice("goguen")
LUKASIEWICZ = Lattice("lukasiewicz")


def chain(top_index: int) -> Lattice:
    """The K+1 element chain a_0 < a_1 < ... < a_K with truncated addition."""
    return Lattice("chain", top_index)


NAMED = {x.kind: x for x in (BOOLEAN, GODEL, GOGUEN, LUKASIEWICZ)}
