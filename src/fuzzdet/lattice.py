"""Exact arithmetic in complete residuated lattices.

Every structure here is a chain, so meet and join are min and max and all
that distinguishes the structures is the multiplication and its residuum,
written once for all five in operations() and bound only by a Carrier.
Values are plain ``fractions.Fraction`` objects for the unit-interval
structures and plain ``int`` indices for finite chains; no floats anywhere.
The lattice descriptor travels with containers (vectors, matrices), not with
the values themselves.
"""

import re
from collections.abc import Callable, Iterable
from decimal import Decimal
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
    with equal fields are equal. Values are checked where they enter: a
    caller's record runs its class's checks, and a record the package
    derives from checked values is made by _derived, which skips them.

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

    @classmethod
    def _derived(cls, *values):
        """A record of values derived from checked ones, which need no check:
        Record.__init__ on a bare instance, without the subclass's checks."""
        record = object.__new__(cls)
        Record.__init__(record, *values)
        return record

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return self is other or key(self) == key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self) -> str:
        from .reference import record_repr  # no command writes a repr
        return record_repr(self)

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


_set = object.__setattr__  # how a record's __init__ sets a field


class Lattice(Record):
    """A residuated lattice on [0, 1] or on the chain 0 <= a_1 <= ... <= a_K.

    kind: one of boolean, godel, goguen, lukasiewicz, chain, a plain str.
    top_index: the top index K for chain lattices, None otherwise.

    boolean behaves exactly like chain(1) but keeps Fraction values so the
    unit-interval structures share one value representation.
    """

    __slots__ = ("kind", "top_index")

    def __init__(self, kind: str, top_index: int | None = None):
        if type(kind) is not str or kind not in KINDS:
            raise ValueError(f"unknown lattice kind {kind!r}")
        if kind == "chain":
            if type(top_index) is not int or top_index < 1:
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
        return f"chain {_write(self.top_index)}" if self.kind == "chain" else self.kind

    def check(self, v: Value, token: str | None = None) -> Value:
        """Validate that v belongs to this lattice's carrier: a plain int on a
        chain and a plain Fraction in [0, 1] otherwise, never a subclass.

        A value read from text is named in errors by its token, any other
        by _write. Compares plain ints (a Fraction's numerator and its
        positive denominator), since every automaton checks each of its
        entries.
        """
        if self.kind == "chain":
            if type(v) is not int:
                raise LatticeMismatch(f"expected a chain index, got {_write(v)}")
            inside = 0 <= v <= self.top_index
        elif type(v) is not Fraction:
            raise LatticeMismatch(f"expected a Fraction in [0, 1], got {_write(v)}")
        else:
            inside = 0 <= v.numerator <= v.denominator
        if not inside:
            raise LatticeMismatch(f"{token or _write(v)} is outside {self.describe()}")
        if self.kind == "boolean" and v.denominator != 1:
            raise LatticeMismatch(f"{token or _write(v)} is not a boolean degree")
        return v

    def coerce(self, raw) -> Value:
        """Turn a string, or an int or Fraction of any subclass, into a checked value.

        Floats are rejected outright (the whole kernel is exact), and so are bools.
        """
        if isinstance(raw, float):
            raise LatticeMismatch(
                f"float {raw!r} rejected, pass a string, int or Fraction instead")
        if isinstance(raw, str):
            return self.parse_value(raw)
        if isinstance(raw, int) and not isinstance(raw, bool):
            raw = int(raw) if self.kind == "chain" else Fraction(raw)
        elif isinstance(raw, Fraction):
            raw = raw if type(raw) is Fraction else Fraction(raw)
        elif self.kind != "chain":  # on a chain, check names what is no index
            raise LatticeMismatch(f"cannot read {_write(raw)} as a {self.describe()} value")
        return self.check(raw)

    def parse_value(self, token: str) -> Value:
        """Parse one value token: decimal, p/q, or a chain index.

        Raises ValueError on malformed syntax, LatticeMismatch when the
        parsed value falls outside the carrier.
        """
        if self.kind == "chain":
            if not _INDEX.fullmatch(token):
                raise ValueError(f"not a chain index: {token!r}")
            return self.check(_read_int(token), token)
        m = _RATIO.fullmatch(token)
        if m:
            num, den = _read_int(m.group(1)), _read_int(m.group(2))
            if den == 0:
                raise ValueError(f"zero denominator: {token!r}")
            return self.check(Fraction(num, den), token)
        if not _DECIMAL.fullmatch(token):
            raise ValueError(f"not a value literal: {token!r}")
        whole, _, fraction = token.partition(".")
        return self.check(Fraction(_read_int(whole + fraction), 10 ** len(fraction)), token)

    def format_value(self, v: Value) -> str:
        """Canonical text for a value: terminating decimal if one exists, else p/q."""
        if v.denominator == 1:  # a chain index, 0 or 1
            return _write(v)
        digits = _decimal_digits(v.denominator)
        if digits is None:
            return _write(v)
        scaled = v.numerator * 10 ** digits // v.denominator
        return "0." + _write(scaled).zfill(digits)

    # -- operations ------------------------------------------------------
    #
    # These check both arguments, so that a stray value fails loudly; tmul
    # and resid then run on the lattice's identity Carrier. The constructions
    # and the vector algebra never call them: they run on a Carrier directly.

    def meet(self, x: Value, y: Value) -> Value:
        return min(self.check(x), self.check(y))

    def join(self, x: Value, y: Value) -> Value:
        return max(self.check(x), self.check(y))

    def tmul(self, x: Value, y: Value) -> Value:
        """Multiplication: min for godel, product for goguen, and the truncated
        sum max(x + y - top, 0) for lukasiewicz, boolean and chains."""
        return Carrier.identity(self).tmul(self.check(x), self.check(y))

    def resid(self, x: Value, y: Value) -> Value:
        """Residuum, the largest z with tmul(x, z) <= y."""
        return Carrier.identity(self).resid(self.check(x), self.check(y))

    def biresid(self, x: Value, y: Value) -> Value:
        """Biresiduum resid(x, y) meet resid(y, x); equals 1 iff x == y."""
        x, y, resid = self.check(x), self.check(y), Carrier.identity(self).resid
        return min(resid(x, y), resid(y, x))


def operations(kind: str, bottom, top) -> tuple[Callable, Callable]:
    """The one definition of each kind's (tmul, resid), on bottom..top.

    The ends are a lattice's own on its values and 0..q (numerators over q)
    or 0..K on a Carrier's codes; Goguen keeps its Fractions. The truncated
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


def _same(x):
    return x


class Carrier:
    """The values of one construction encoded once, with tmul and resid bound.

    Codes are compared, hashed and combined as bare values; join and meet
    are max and min, because every structure is a chain. tmul and resid are
    operations() on the codes' ends. Every composition is one of two loops,
    product (join of tmul) and implication (meet of resid), and only they
    and Lattice's scalar operations call them. identity makes the carrier whose codes
    are the values themselves, which the scalar operations and the vector
    algebra run on, and closure.carrier_of the one a construction encodes
    its values in. encode and decode map one value; decode returns the
    lattice's own type, a Fraction on the rational lattices and an int on chains.
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

    def product(self, rows: Iterable[Iterable]) -> Callable[[tuple], tuple]:
        """v -> (join_k tmul(row[k], v[k]) for each row), rows read once.

        A row keeps the (k, x) pairs of its entries other than bottom, which
        move no join: the rows a construction reuses per state are sparse.
        A bottom v[k] is skipped too, and a row stops at top.
        """
        bottom, top, tmul = self.bottom, self.top, self.tmul
        pairs = _sparse(rows, bottom)

        def product(v: tuple) -> tuple:
            out = []
            for row in pairs:
                acc = bottom
                for k, x in row:
                    y = v[k]
                    if y != bottom and (z := tmul(x, y)) > acc:
                        acc = z
                        if z == top:
                            break
                out.append(acc)
            return tuple(out)
        return product

    def implication(self, rows: Iterable[Iterable]) -> Callable[[tuple], tuple]:
        """v -> (meet_k resid(row[k], v[k]) for each row), rows read as product reads them.

        resid(x, y) is top exactly when x <= y, so only x > y can lower the
        meet, a bottom x never; a row stops at bottom.
        """
        bottom, top, resid = self.bottom, self.top, self.resid
        pairs = _sparse(rows, bottom)

        def implication(v: tuple) -> tuple:
            out = []
            for row in pairs:
                acc = top
                for k, x in row:
                    y = v[k]
                    if x > y and (z := resid(x, y)) < acc:
                        acc = z
                        if z == bottom:
                            break
                out.append(acc)
            return tuple(out)
        return implication

    def codes(self, entries: Iterable[Value]) -> tuple:
        return tuple(map(self.encode, entries))

    def values(self, codes: Iterable) -> tuple[Value, ...]:
        return tuple(map(self.decode, codes))


def _sparse(rows: Iterable[Iterable], bottom) -> tuple:
    """Each row as the (k, x) pairs of its entries other than bottom."""
    return tuple(tuple((k, x) for k, x in enumerate(row) if x != bottom) for row in rows)


def _read_int(digits: str) -> int:
    """int(digits) for ASCII digits of any length: past the interpreter's limit
    (sys.get_int_max_str_digits, 4,300 digits by default), which every library
    shares and so stays, through decimal, which has none."""
    try:
        return int(digits)
    except ValueError:
        return int(Decimal(digits))


def _write(v) -> str:
    """str(v) for a plain int or Fraction of any length, as _read_int reads one
    (through decimal past the limit), and repr(v) for anything else, subclasses too."""
    if type(v) is not int and type(v) is not Fraction:
        return repr(v)
    try:
        return str(v)
    except ValueError:  # more digits than str converts
        num, den = v.as_integer_ratio()
        return str(Decimal(num)) if den == 1 else f"{Decimal(num)}/{Decimal(den)}"


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
