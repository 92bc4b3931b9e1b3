"""Fuzzy finite automata.

A fuzzy automaton is (sigma, delta, tau): a fuzzy set of initial states, one
transition matrix per symbol, a fuzzy set of terminal states. The degree of
a word u is sigma ∘ delta_u ∘ tau. Their crisp-deterministic counterparts,
the Cdfa, are in determinize.
"""

import re
from collections.abc import Iterable, Mapping, Sequence

from .algebra import FuzzyMatrix, FuzzyVector, dot, vec_mat
from .errors import DimensionMismatch, LatticeMismatch, UnknownSymbol
from .lattice import Lattice, Record, Value

Word = tuple[str, ...]


def bad_symbol(symbols: tuple) -> tuple[int, str] | None:
    """(i, why) for the first of symbols that breaks the one rule for a symbol, else None: a
    nonempty plain str, distinct from those before it, holding no whitespace, '#' or lone
    surrogate (no UTF-8 document can), not '_' and holding no '.' (which words reserve)."""
    seen = set()
    for i, s in enumerate(symbols):
        if type(s) is not str or not s or re.search(r"[\s#\ud800-\udfff]", s):
            return i, f"bad alphabet symbol {s!r}"
        if s == "_" or "." in s:
            return i, f"alphabet symbol {s!r} is ambiguous in words: '_' and '.' are reserved"
        if s in seen:
            return i, f"duplicate symbol {s!r}"
        seen.add(s)
    return None


def check_alphabet(symbols: Iterable[str]) -> tuple[str, ...]:
    """Validate an alphabet: one or more symbols, each admitted by bad_symbol."""
    alphabet = tuple(symbols)
    if not alphabet:
        raise ValueError("alphabet must not be empty")
    if bad := bad_symbol(alphabet):
        raise ValueError(bad[1])
    return alphabet


def symbol_index(alphabet: tuple[str, ...], x) -> int:
    """x's position in alphabet when x is a plain str of it, else UnknownSymbol."""
    if type(x) is str and x in alphabet:
        return alphabet.index(x)
    raise UnknownSymbol(f"symbol {x!r} is not in the alphabet")


class FuzzyAutomaton(Record):
    """Fuzzy finite automaton over one lattice.

    delta maps each alphabet symbol to its n x n transition matrix. The
    constructor normalizes delta to alphabet order so equal automata
    serialize identically. Every entry of sigma, tau and delta lies in the
    lattice's carrier: a caller's vectors and matrices check their entries,
    and the constructor the rest. parse_automaton checks a whole document
    and skips the constructor. Unhashable, as delta is a dict.
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
        delta = {x: delta[x] for x in alphabet}  # in alphabet order
        for x, m in delta.items():
            if m.lattice != lattice:
                raise LatticeMismatch(f"transition matrix for {x!r} is in another lattice")
            if m.n_rows != n or m.n_cols != n:
                raise DimensionMismatch(
                    f"transition matrix for {x!r} is {m.n_rows}x{m.n_cols}, expected {n}x{n}")
        super().__init__(lattice, alphabet, sigma, delta, tau)

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


def evaluate(a: FuzzyAutomaton, word: Sequence[str]) -> Value:
    """Membership degree of word: thread sigma through delta, then hit tau."""
    state = a.sigma
    for x in word:
        symbol_index(a.alphabet, x)
        state = vec_mat(state, a.delta[x])
    return dot(state, a.tau)
