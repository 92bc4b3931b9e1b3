"""Fuzzy finite automata.

A fuzzy automaton is (sigma, delta, tau): a fuzzy set of initial states, one
transition matrix per symbol, a fuzzy set of terminal states. The degree of
a word u is sigma ∘ delta_u ∘ tau. Their crisp-deterministic counterparts,
the Cdfa, are in determinize.
"""

from collections.abc import Iterable, Mapping, Sequence

from .algebra import FuzzyMatrix, FuzzyVector, dot, vec_mat
from .errors import DimensionMismatch, LatticeMismatch, UnknownSymbol
from .lattice import Lattice, Record, Value

Word = tuple[str, ...]
RESERVED_SYMBOL = "alphabet symbol {!r} is ambiguous in words: '_' and '.' are reserved"


def check_alphabet(symbols: Iterable[str]) -> tuple[str, ...]:
    """Validate an alphabet: nonempty distinct tokens without whitespace.

    No symbol is '_' or contains '.', so that every word prints unambiguously.
    """
    alphabet = tuple(symbols)
    if not alphabet:
        raise ValueError("alphabet must not be empty")
    seen = set()
    for s in alphabet:
        if not isinstance(s, str) or not s or any(c.isspace() for c in s):
            raise ValueError(f"bad alphabet symbol {s!r}")
        if s == "_" or "." in s:
            raise ValueError(RESERVED_SYMBOL.format(s))
        if s in seen:
            raise ValueError(f"duplicate alphabet symbol {s!r}")
        seen.add(s)
    return alphabet


class FuzzyAutomaton(Record):
    """Fuzzy finite automaton over one lattice.

    delta maps each alphabet symbol to its n x n transition matrix. The
    constructor normalizes delta to alphabet order so equal automata
    serialize identically. Every entry of sigma, tau and delta lies in the
    lattice's carrier: the vectors and matrices check their entries when
    built, and the constructor checks that they share its lattice. Unhashable,
    as delta is a dict.
    """

    __slots__ = ("lattice", "alphabet", "sigma", "delta", "tau")
    __hash__ = None

    def __init__(self, lattice: Lattice, alphabet: tuple[str, ...], sigma: FuzzyVector,
                 delta: dict[str, FuzzyMatrix], tau: FuzzyVector):
        alphabet = check_alphabet(alphabet)
        n = len(sigma)
        if sigma.lattice != lattice or tau.lattice != lattice:
            raise LatticeMismatch("sigma/tau lattice differs from the automaton's")
        if len(tau) != n:
            raise DimensionMismatch(f"tau has length {len(tau)}, expected {n}")
        if set(delta) != set(alphabet):
            raise ValueError("delta keys must match the alphabet exactly")
        ordered = {}
        for x in alphabet:
            m = delta[x]
            if m.lattice != lattice:
                raise LatticeMismatch(f"transition matrix for {x!r} is in another lattice")
            if m.n_rows != n or m.n_cols != n:
                raise DimensionMismatch(
                    f"transition matrix for {x!r} is {m.n_rows}x{m.n_cols}, expected {n}x{n}")
            ordered[x] = m
        super().__init__(lattice, alphabet, sigma, ordered, tau)

    @property
    def n(self) -> int:
        return len(self.sigma)

    @classmethod
    def build(cls, lattice: Lattice, alphabet: Sequence[str], initial: Iterable,
              transitions: Mapping[str, Iterable[Iterable]], terminal: Iterable
              ) -> "FuzzyAutomaton":
        """Construct from raw values, coercing every entry through the lattice."""
        sigma = FuzzyVector.from_values(lattice, initial)
        tau = FuzzyVector.from_values(lattice, terminal)
        delta = {x: FuzzyMatrix.from_rows(lattice, rows) for x, rows in transitions.items()}
        return cls(lattice, tuple(alphabet), sigma, delta, tau)

    def matrix(self, symbol: str) -> FuzzyMatrix:
        try:
            return self.delta[symbol]
        except KeyError:
            raise UnknownSymbol(f"symbol {symbol!r} is not in the alphabet") from None


def evaluate(a: FuzzyAutomaton, word: Sequence[str]) -> Value:
    """Membership degree of word: thread sigma through delta, then hit tau."""
    state = a.sigma
    for x in word:
        state = vec_mat(state, a.matrix(x))
    return dot(state, a.tau)
